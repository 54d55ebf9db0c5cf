"""In-memory span recorder that times dynsamp's public functions from outside.

``Tracer.install()`` rebinds each traced function at every dynsamp module
attribute that holds it (for example ``dynsamp.experiments.reconstruct`` and
``dynsamp.reconstruct.pmap``), so calls made inside the library and from pool
worker threads are timed too; ``uninstall()`` puts the originals back.  No
library file is changed.

A span is ``(id, name, start_ns, end_ns, parent_id, op_id, thread_ident)``.
Spans and counters stay in memory until ``write()`` dumps them once as JSON
lines.  Recording is guarded by a lock because pool workers record too.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import itertools
import json
import os
import threading
import time

MODULES = (
    "dynsamp", "dynsamp.tensor3", "dynsamp.t3io", "dynsamp.sampling",
    "dynsamp.dynsys", "dynsamp.reconstruct", "dynsamp._parallel",
    "dynsamp.experiments", "dynsamp.svgplot", "dynsamp.cli",
)

# span name -> (defining module, function name)
TRACED = {
    "tensor3.random_tensor": ("dynsamp.tensor3", "random_tensor"),
    "sampling.bernoulli_mask": ("dynsamp.sampling", "bernoulli_mask"),
    "sampling.exclude_slab": ("dynsamp.sampling", "exclude_slab"),
    "dynsys.evolve": ("dynsamp.dynsys", "evolve"),
    "dynsys.observe": ("dynsamp.dynsys", "observe"),
    "dynsys.save_sample_data": ("dynsamp.dynsys", "save_sample_data"),
    "dynsys.load_sample_data": ("dynsamp.dynsys", "load_sample_data"),
    "reconstruct.reconstruct": ("dynsamp.reconstruct", "reconstruct"),
    "reconstruct.system_condition": ("dynsamp.reconstruct", "system_condition"),
    "reconstruct.solve_column": ("dynsamp.reconstruct", "solve_column"),
    "parallel.pmap": ("dynsamp._parallel", "pmap"),
    "experiments.write_experiment": ("dynsamp.experiments", "write_experiment"),
    "experiments.run_experiment": ("dynsamp.experiments", "run_experiment"),
    "experiments.rows_to_csv_text": ("dynsamp.experiments", "rows_to_csv_text"),
    "experiments.plot_from_csv": ("dynsamp.experiments", "plot_from_csv"),
    "svgplot.render_plot": ("dynsamp.svgplot", "render_plot"),
    "t3io.write": ("dynsamp.t3io", "write_t3"),
    "t3io.read": ("dynsamp.t3io", "read_t3"),
    "cli.main": ("dynsamp.cli", "main"),
    "cli.simulate": ("dynsamp.cli", "cmd_simulate"),
    "cli.reconstruct": ("dynsamp.cli", "cmd_reconstruct"),
}

# Computed kernel counts, from the shape of each column system: the
# frequency-domain system of a column is (T*m*n, m*n) complex128.  SVD flops
# use the Golub & Van Loan R-SVD counts for an M x N real matrix (M >= N),
# times 4 for complex arithmetic: thin U, S, V costs 6*M*N^2 + 20*N^3 and
# S alone 2*M*N^2 + 2*N^3.  LAPACK's gesdd does not follow these counts
# exactly; they measure system size, not hardware work.
COMPLEX_FLOP = 4


def svd_flop(rows: int, cols: int, vectors: bool) -> int:
    big, small = max(rows, cols), min(rows, cols)
    if vectors:
        return COMPLEX_FLOP * (6 * big * small**2 + 20 * small**3)
    return COMPLEX_FLOP * (2 * big * small**2 + 2 * small**3)


class Tracer:
    """Spans and counters of one benchmark run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.systems: set = set()
        self.pmap_width: dict[int, int] = {}
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, parent=None):
        """Record ``name`` around the block; the parent defaults to this
        thread's innermost open span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (sid, name, start, end, parent, self.op, threading.get_ident())
                )

    def count(self, name: str, value=1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def column_systems(self, a, mask, T: int) -> int:
        """Count the nonzero column systems of one call, keyed by (operator,
        T, column mask pattern); unsampled columns count as failed.  Returns
        the number of nonzero systems."""
        operator = hashlib.blake2b(a.data.tobytes(), digest_size=16).digest()
        indicator = mask.indicator
        keys = [
            (operator, int(T), indicator[:, j, :].tobytes())
            for j in range(indicator.shape[1])
            if indicator[:, j, :].any()
        ]
        self.count("column_systems", len(keys))
        self.count("failed_columns", indicator.shape[1] - len(keys))
        with self._lock:
            self.systems.update(keys)
        return len(keys)

    # -- rebinding ------------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in MODULES]
        for name, (home, attr) in TRACED.items():
            original = getattr(importlib.import_module(home), attr, None)
            if original is None:
                continue
            for module in modules:
                if getattr(module, attr, None) is original:
                    site = module.__name__.rsplit(".", 1)[-1]
                    wrapped = self._wrap(name, original, site)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, site):
        if name == "parallel.pmap":
            return self._wrap_pmap(fn, site)
        before, after = _HOOKS.get(name, (None, None))

        def traced(*args, **kwargs):
            if before is not None:
                before(self, *args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result, *args, **kwargs)
            return result

        return traced

    def _wrap_pmap(self, pmap, site):
        item_name = f"{site}.item"

        def traced(fn, items, threads=1):
            items = list(items)
            width = 1 if threads <= 1 or len(items) <= 1 else min(threads, len(items))
            with self.span("parallel.pmap") as sid:
                with self._lock:
                    self.pmap_width[sid] = width

                def item(x):
                    with self.span(item_name, parent=sid):
                        return fn(x)

                return pmap(item, items, threads)

        return traced

    # -- output ---------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines, once."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, name, start, end, parent, op, thread in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op, "thread": thread,
                }) + "\n")


# -- hooks: counters taken from the arguments and results of traced calls ------


def _before_reconstruct(tr, a, mask, samples, *args, **kwargs):
    tr.column_systems(a, mask, samples.horizon)


def _after_reconstruct(tr, report, *args, **kwargs):
    tr.count("rank_deficient_columns", len(report.rank_deficient_columns))


def _before_condition(tr, a, mask, T, *args, **kwargs):
    live = tr.column_systems(a, mask, T)
    m, _, n = mask.dims
    rows, cols = int(T) * m * n, m * n
    tr.count("system_bytes", live * rows * cols * 16)
    tr.count("svd_flop", live * svd_flop(rows, cols, vectors=False))


def _after_solve(tr, result, system, *args, **kwargs):
    rows, cols = system.matrix.shape
    tr.count("system_bytes", system.matrix.nbytes)
    tr.count("svd_flop", svd_flop(rows, cols, vectors=True))


def _after_write_t3(tr, result, path, *args, **kwargs):
    tr.count("t3io.write.bytes", os.path.getsize(path))


def _after_read_t3(tr, result, path, *args, **kwargs):
    tr.count("t3io.read.bytes", os.path.getsize(path))


def _after_csv(tr, text, *args, **kwargs):
    tr.count("csv_bytes", len(text))


def _after_svg(tr, text, *args, **kwargs):
    tr.count("svg_bytes", len(text))


def _after_main(tr, code, *args, **kwargs):
    tr.count("exit_nonzero", int(code != 0))


_HOOKS = {
    "reconstruct.reconstruct": (_before_reconstruct, _after_reconstruct),
    "reconstruct.system_condition": (_before_condition, None),
    "reconstruct.solve_column": (None, _after_solve),
    "t3io.write": (None, _after_write_t3),
    "t3io.read": (None, _after_read_t3),
    "experiments.rows_to_csv_text": (None, _after_csv),
    "svgplot.render_plot": (None, _after_svg),
    "cli.main": (None, _after_main),
}


# -- per-layer metrics -----------------------------------------------------------

LAYERS = (
    "tensor3", "sampling", "dynsys", "reconstruct", "parallel",
    "experiments", "svgplot", "t3io", "cli", "bench",
)


def _covered_ns(start: int, end: int, children) -> int:
    """Length of [start, end) covered by the union of the child intervals."""
    covered, cursor = 0, start
    for c_start, c_end in sorted((max(s, start), min(e, end)) for s, e in children):
        c_start = max(c_start, cursor)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return covered


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer busy time, counts and self time from the recorded spans.

    Spans of the column sample (op ``"sample"``) feed only
    ``reconstruct.assemble`` and ``reconstruct.solve``.  ``solve_share`` is
    the share of the per-column work inside ``reconstruct`` (its pool items)
    spent in ``solve_column``; both sides are summed over threads.  A layer's self time
    is its spans' durations minus the part covered by their child spans; a
    pool item (``<module>.item``) belongs to the module that called ``pmap``.
    """
    run = [s for s in tr.spans if s[5] != "sample"]
    sample = [s for s in tr.spans if s[5] == "sample"]

    def spans(name, pool=run):
        return [s for s in pool if s[1] == name]

    def busy(*names, pool=run):
        return sum(s[3] - s[2] for n in names for s in spans(n, pool)) / 1e6

    def calls(*names):
        return sum(len(spans(n)) for n in names)

    by_id = {s[0]: s for s in run}
    children: dict = {}
    for s in run:
        children.setdefault(s[4], []).append((s[2], s[3]))

    def under_pmap(s) -> bool:
        parent = by_id.get(s[4])
        while parent is not None:
            if parent[1] == "parallel.pmap":
                return True
            parent = by_id.get(parent[4])
        return False

    outer = [s for s in spans("parallel.pmap") if not under_pmap(s)]
    outer_ids = {s[0] for s in outer}
    items = [s for s in run if s[1].endswith(".item") and s[4] in outer_ids]
    pmap_ms = sum(s[3] - s[2] for s in outer) / 1e6
    item_ms = sum(s[3] - s[2] for s in items) / 1e6
    capacity_ms = sum((s[3] - s[2]) * tr.pmap_width[s[0]] for s in outer) / 1e6

    self_ms = dict.fromkeys(LAYERS, 0.0)
    for s in run:
        layer = "parallel" if s[1] == "parallel.pmap" else s[1].split(".", 1)[0]
        if layer in self_ms:
            own = s[3] - s[2] - _covered_ns(s[2], s[3], children.get(s[0], ()))
            self_ms[layer] += own / 1e6

    systems = tr.counters.get("column_systems", 0)
    column_ms = busy("reconstruct.item")
    out = {
        "tensor3.random_tensor.busy_ms": busy("tensor3.random_tensor"),
        "sampling.mask.busy_ms": busy("sampling.bernoulli_mask", "sampling.exclude_slab"),
        "sampling.mask.calls": calls("sampling.bernoulli_mask", "sampling.exclude_slab"),
        "dynsys.evolve.busy_ms": busy("dynsys.evolve"),
        "dynsys.evolve.calls": calls("dynsys.evolve"),
        "dynsys.observe.busy_ms": busy("dynsys.observe"),
        "dynsys.observe.calls": calls("dynsys.observe"),
        "dynsys.save_sample_data.busy_ms": busy("dynsys.save_sample_data"),
        "dynsys.load_sample_data.busy_ms": busy("dynsys.load_sample_data"),
        "reconstruct.reconstruct.busy_ms": busy("reconstruct.reconstruct"),
        "reconstruct.reconstruct.calls": calls("reconstruct.reconstruct"),
        "reconstruct.system_condition.busy_ms": busy("reconstruct.system_condition"),
        "reconstruct.system_condition.calls": calls("reconstruct.system_condition"),
        "reconstruct.solve_share": (
            busy("reconstruct.solve_column") / column_ms if column_ms else 0.0
        ),
        "reconstruct.assemble.busy_ms": busy("reconstruct.assemble", pool=sample),
        "reconstruct.solve.busy_ms": busy("reconstruct.solve", pool=sample),
        "reconstruct.column_systems": systems,
        "reconstruct.distinct_systems": len(tr.systems),
        "reconstruct.repeat_system_share": (
            1.0 - len(tr.systems) / systems if systems else 0.0
        ),
        "reconstruct.system_bytes": tr.counters.get("system_bytes", 0),
        "reconstruct.svd_flop": tr.counters.get("svd_flop", 0),
        "reconstruct.rank_deficient_columns": tr.counters.get("rank_deficient_columns", 0),
        "reconstruct.failed_columns": tr.counters.get("failed_columns", 0),
        "parallel.threads": max(
            (tr.pmap_width[s[0]] for s in spans("parallel.pmap")), default=0
        ),
        "parallel.pmap.busy_ms": pmap_ms,
        "parallel.pmap.items": len(items),
        "parallel.item_busy_ms": item_ms,
        "parallel.efficiency": item_ms / capacity_ms if capacity_ms else 0.0,
        "experiments.run_experiment.busy_ms": busy("experiments.run_experiment"),
        "experiments.rows_to_csv_text.busy_ms": busy("experiments.rows_to_csv_text"),
        "experiments.csv_bytes": tr.counters.get("csv_bytes", 0),
        "svgplot.render_plot.busy_ms": busy("svgplot.render_plot"),
        "svgplot.svg_bytes": tr.counters.get("svg_bytes", 0),
        "t3io.write.busy_ms": busy("t3io.write"),
        "t3io.write.bytes": tr.counters.get("t3io.write.bytes", 0),
        "t3io.read.busy_ms": busy("t3io.read"),
        "t3io.read.bytes": tr.counters.get("t3io.read.bytes", 0),
        "cli.simulate.busy_ms": busy("cli.simulate"),
        "cli.reconstruct.busy_ms": busy("cli.reconstruct"),
        "cli.exit_nonzero": tr.counters.get("exit_nonzero", 0),
    }
    out.update({f"{layer}.self_ms": ms for layer, ms in self_ms.items()})
    out["trace.spans"] = len(tr.spans)
    return out
