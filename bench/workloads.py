"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop with one client: ``op(i)`` is issued only
after ``op(i - 1)`` returned.  Op ``i`` has the shape class ``i % cycle`` and
its own seeds, derived from the workload seed, so the same seed gives the
same inputs and no two ops share an operator.

Library functions on the op path are looked up as module attributes at call
time, so the tracer's rebinding sees them.  Checks call functions bound at
import time, and read T3 files with their own parser, so checking is never
traced and never trusts the code it checks.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

from dynsamp.experiments import config_from_dict, plot_from_csv
from dynsamp.reconstruct import UnrecoverableColumnError
from dynsamp._parallel import resolve_threads

tensor3 = importlib.import_module("dynsamp.tensor3")
sampling = importlib.import_module("dynsamp.sampling")
dynsys = importlib.import_module("dynsamp.dynsys")
reconstruct = importlib.import_module("dynsamp.reconstruct")
experiments = importlib.import_module("dynsamp.experiments")
cli = importlib.import_module("dynsamp.cli")

# A noise-free op whose columns all have full rank must recover the ground
# truth to this relative error.
EXACT_TOL = 1e-6
# A reported rel_error must match the one recomputed here to this share.
REL_ERROR_AGREE = 1e-9


def op_seeds(seed: int, i: int, count: int) -> list[int]:
    """``count`` independent 63-bit seeds for op ``i`` of a run; negative
    indices (warm-up and sample problems) draw from a separate stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(i < 0), abs(int(i))))
    return [int(s) >> 1 for s in ss.generate_state(count, np.uint64)]


def read_t3(path) -> np.ndarray:
    """(m, p, n) complex array from a T3 v1 file; (k, j, i) order, i fastest."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        values = np.loadtxt(fh, ndmin=2)
    m, p, n = (int(x) for x in header[2:5])
    data = values[:, 0] + (1j * values[:, 1] if header[5] == "complex" else 0)
    return data.reshape(n, p, m).transpose(2, 1, 0)


def relative_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


def agrees(reported: float, recomputed: float) -> bool:
    return abs(reported - recomputed) <= REL_ERROR_AGREE * abs(recomputed) + 1e-300


@dataclasses.dataclass
class Outcome:
    """What the check of one op found; ``error`` is its relative error
    against ground truth when the op had sigma > 0."""

    ok: bool
    error: float | None = None


class Workload:
    name = ""
    cycle = 1           # ops per shape cycle; runs end on a cycle boundary
    trace_cycles = 1    # cycles per phase of a traced run
    pool = None         # ops available per run, or None for unbounded

    def __init__(self, work: Path):
        self.work = work

    def setup(self, seed: int) -> bool:
        """Build the inputs and warm up; True when the self-check caught a
        deliberately corrupted output."""
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        """Make op ``i``'s inputs; runs before its clock starts."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result, exc: BaseException | None) -> Outcome:
        raise NotImplementedError

    def sample_problems(self) -> list:
        """(operator, mask, samples) problems solved column by column in a
        traced run."""
        return []


# -- recover: library reconstruct on independent problems ----------------------


@dataclasses.dataclass
class Problem:
    a: object
    f: object
    mask: object
    samples: object
    sigma: float


def make_problem(seeds, m, p, n, T, alpha, sigma) -> Problem:
    a = tensor3.random_tensor(m, m, n, seeds[0])
    f = tensor3.random_tensor(m, p, n, seeds[1])
    mask = sampling.bernoulli_mask(m, p, n, alpha, seeds[2])
    samples = dynsys.observe(dynsys.evolve(a, f, T), mask, sigma, seeds[3])
    return Problem(a, f, mask, samples, sigma)


def check_report(prob: Problem, report, exc) -> Outcome:
    empty = sorted(set(range(prob.mask.dims[1])) - prob.mask.column_coverage)
    if exc is not None:
        return Outcome(
            isinstance(exc, UnrecoverableColumnError) and list(exc.columns) == empty
        )
    est = report.estimate.data
    if empty or est.shape != prob.f.dims:
        return Outcome(False)
    err = relative_error(est, prob.f.data)
    kappa = report.kappa
    ok = (
        agrees(report.rel_error, err)
        and len(kappa) == len(report.ranks) == prob.mask.dims[1]
        and all(k is not None and 1.0 <= k < math.inf for k in kappa)
        and report.K == max(kappa)
    )
    if prob.sigma == 0.0 and not report.rank_deficient_columns:
        ok = ok and err <= EXACT_TOL
    return Outcome(ok, err if prob.sigma > 0 else None)


class Recover(Workload):
    """Library ``reconstruct(a, mask, samples, ground_truth=f)`` calls."""

    name = "recover"
    # (m, p, n, T, alpha, sigma): mostly paper dims at T=5, plus T=8 and a
    # larger rung.  Five eighths of the ops are paper dims at T=5, so the
    # median falls inside their latency band, and a quarter are the larger
    # rung, so the tail percentile falls inside its band.  Paper-dims ops
    # are noise-free and must recover the ground truth exactly; the noisy
    # ops are the larger rung at alpha=0.3, whose relative error varies
    # little from draw to draw (at paper dims it spans orders of magnitude),
    # so recovery_err_p50 stays steady across seeds.
    CLASSES = (
        (20, 15, 5, 5, 0.3, 0.0),
        (20, 15, 5, 5, 0.5, 0.0),
        (32, 16, 6, 5, 0.3, 1e-3),
        (20, 15, 5, 8, 0.3, 0.0),
        (20, 15, 5, 5, 0.5, 0.0),
        (20, 15, 5, 5, 0.3, 0.0),
        (32, 16, 6, 5, 0.3, 1e-3),
        (20, 15, 5, 5, 0.5, 0.0),
    )
    cycle = len(CLASSES)
    trace_cycles = 3
    pool = 16 * len(CLASSES)

    def problem(self, seed: int, i: int) -> Problem:
        return make_problem(op_seeds(seed, i, 4), *self.CLASSES[i % self.cycle])

    def setup(self, seed):
        self.seed = seed
        self.problems = None
        self.problems = [self.problem(seed, i) for i in range(self.pool)]
        # Warm-up problems (paper dims) come from op indices no run reaches;
        # the first is noise-free, so a corrupted estimate must fail its check.
        reports = []
        for k in (0, 1, 3):
            prob = self.problem(seed, -self.cycle + k)
            report = reconstruct.reconstruct(
                prob.a, prob.mask, prob.samples, ground_truth=prob.f
            )
            if not check_report(prob, report, None).ok:
                return False
            reports.append((prob, report))
        prob, report = reports[0]
        bad = np.array(report.estimate.data)
        bad[0, 0, 0] += 1.0
        corrupted = dataclasses.replace(report, estimate=tensor3.Tensor3(bad))
        return not check_report(prob, corrupted, None).ok

    def op(self, i):
        prob = self.problems[i]
        return reconstruct.reconstruct(prob.a, prob.mask, prob.samples, ground_truth=prob.f)

    def check(self, i, result, exc):
        return check_report(self.problems[i], result, exc)

    def sample_problems(self):
        distinct = {c[:4]: k for k, c in enumerate(self.CLASSES)}
        probs = [self.problem(self.seed, -2 * self.pool + k) for k in distinct.values()]
        return [(p.a, p.mask, p.samples) for p in probs]


# -- sweep: write_experiment over all six kinds ----------------------------------

# Reduced grids, scaled so every kind takes a similar time (medians within
# about 1.7x of each other).  conjecture-dim2 and slab-dim1-dim3 have one unit per
# slab, so their grids shrink by shrinking p (resp. m and n).
SWEEP_KINDS = (
    {"kind": "optimal-T", "T": [4], "sigma": [0.0, 1e-3], "trials": 1},
    {"kind": "conjecture-dim2", "alpha": 1.0, "T": 2, "p": 7},
    {"kind": "condition-vs-T", "T": [3, 5, 7, 9]},
    {"kind": "recovery-vs-alpha", "alpha": [0.3, 0.5], "trials": 1, "sigma": 1e-3},
    {"kind": "slab-dim1-dim3", "m": 9, "n": 4, "T": 4, "sigma": 1e-3},
    {"kind": "pointwise-gap", "T": 10, "sigma": 1e-3},
)

SWEEP_COLUMNS = {
    "recovery-vs-alpha": ["alpha", "mean_rel_err", "std_rel_err"],
    "pointwise-gap": ["index", "abs_gap"],
    "optimal-T": ["T", "sigma", "mean_rel_err"],
    "condition-vs-T": ["T", "K"],
    "conjecture-dim2": ["excluded_j", "rel_err"],
    "slab-dim1-dim3": ["mode", "excluded_index", "rel_err"],
}

# Columns holding a relative error against ground truth.
SWEEP_ERRORS = {
    "optimal-T": "mean_rel_err",
    "recovery-vs-alpha": "mean_rel_err",
    "slab-dim1-dim3": "rel_err",
}


def expected_rows(cfg) -> int:
    return {
        "recovery-vs-alpha": len(cfg.alphas),
        "pointwise-gap": cfg.m * cfg.p * cfg.n,
        "optimal-T": len(cfg.Ts) * len(cfg.sigmas),
        "condition-vs-T": len(cfg.Ts),
        "conjecture-dim2": cfg.p,
        "slab-dim1-dim3": cfg.m + cfg.n,
    }[cfg.kind]


class Sweep(Workload):
    """In-process ``write_experiment(cfg, threads=resolve_threads())``, the
    call ``dynsamp experiment`` makes."""

    name = "sweep"
    cycle = len(SWEEP_KINDS)
    trace_cycles = 3

    def __init__(self, work: Path):
        super().__init__(work)
        # At the default of two pool threads, each calling LAPACK on
        # OpenBLAS's two threads, ops ran 1.3-1.6x slower in host phases
        # that moved recover by 5%, and a ten-run quartile spread reached
        # 0.25 of the median.  Capped at one thread, as a user can with
        # DYNSAMP_THREADS, the pool runs inline.
        os.environ["DYNSAMP_THREADS"] = "1"

    def config(self, i: int):
        raw = dict(SWEEP_KINDS[i % self.cycle])
        raw.update(seed=op_seeds(self.seed, i, 1)[0], out=str(self.work / f"op{i}"))
        return config_from_dict(raw)

    def setup(self, seed):
        self.seed = seed
        self.threads = resolve_threads()
        self.configs = {}
        warm = -1  # a pointwise-gap op no run reaches
        self.prepare(warm)
        self.op(warm)
        if not self.check(warm, None, None, keep=True).ok:
            return False
        out = Path(self.configs[warm].out)
        csv_path, svg_path = out / "pointwise-gap.csv", out / "pointwise-gap.svg"
        text = csv_path.read_text()
        csv_path.write_text(text[: text.rindex(",") + 1] + "nan\n")
        caught = [not self.check(warm, None, None, keep=True).ok]
        csv_path.write_text(text)
        svg_path.write_text(svg_path.read_text() + " ")
        caught.append(not self.check(warm, None, None).ok)
        return all(caught)

    def prepare(self, i):
        self.configs[i] = self.config(i)

    def op(self, i):
        return experiments.write_experiment(self.configs[i], threads=self.threads)

    def check(self, i, result, exc, keep=False):
        cfg = self.configs[i] if keep else self.configs.pop(i)
        out = Path(cfg.out)
        try:
            if exc is not None:
                return Outcome(False)
            return self._check_files(cfg, out)
        except (OSError, ValueError, KeyError, csv.Error):  # missing or malformed output
            return Outcome(False)
        finally:
            if not keep:
                shutil.rmtree(out, ignore_errors=True)

    def _check_files(self, cfg, out: Path) -> Outcome:
        csv_path, svg_path = out / f"{cfg.kind}.csv", out / f"{cfg.kind}.svg"
        manifest = json.loads((out / "manifest.json").read_text())
        with open(csv_path, newline="") as fh:
            reader = csv.DictReader(fh)
            header, rows = reader.fieldnames, list(reader)
        values = [float(v) for row in rows for v in row.values()]
        replot = out / "replot.svg"
        plot_from_csv(cfg.kind, csv_path, replot)
        ok = (
            header == SWEEP_COLUMNS[cfg.kind]
            and manifest["columns"] == header
            and len(rows) == expected_rows(cfg)
            and all(math.isfinite(v) for v in values)
            and replot.read_bytes() == svg_path.read_bytes()
        )
        column = SWEEP_ERRORS.get(cfg.kind)
        errors = [
            float(row[column])
            for row in rows
            if column and float(row.get("sigma", cfg.sigmas[0])) > 0
        ]
        return Outcome(ok, float(np.median(errors)) if errors else None)


# -- dataset: CLI simulate + reconstruct round trips ------------------------------


class Dataset(Workload):
    """``dynsamp simulate`` then ``dynsamp reconstruct`` on a fresh
    directory, in process through ``dynsamp.cli.main``."""

    name = "dataset"
    # (m, n, p, T, alpha, sigma) per op: recover's shapes, each round trip
    # through T3 files.  Column systems of m*n >= 100 unknowns keep the
    # solve in LAPACK.  Shapes whose op time is mostly Python (10x200x2 and
    # 16x60x3 at T=8, where T3 text I/O and per-column overhead dominate)
    # ran 1.5-1.8x slower in host phases that lasted whole runs, against
    # 1.2-1.35x for these, which made their run medians unsteady beyond any
    # bound.  A third of the ops are the larger rung, so the tail percentile
    # falls inside its band; the noisy ops are that rung at alpha=0.3,
    # whose relative error varies little from draw to draw.
    CLASSES = (
        (20, 5, 15, 5, 0.5, 0.0),
        (20, 5, 15, 5, 0.3, 0.0),
        (32, 6, 16, 5, 0.3, 1e-3),
    )
    cycle = len(CLASSES)
    trace_cycles = 4

    def __init__(self, work: Path):
        super().__init__(work)
        # The CLI's default 2-thread pool stacked on OpenBLAS's 2 threads
        # on a 2-vCPU virtual machine shared with other tenants made op
        # times swing by up to 1.6x between runs, too much to bound.  One
        # pool thread keeps the T3 and CLI costs this workload exists for
        # measurable.
        os.environ["DYNSAMP_THREADS"] = "1"

    def argv(self, i: int) -> list[str]:
        m, n, p, T, alpha, sigma = self.CLASSES[i % self.cycle]
        flags = {"m": m, "n": n, "p": p, "T": T, "alpha": alpha, "sigma": sigma,
                 "seed": op_seeds(self.seed, i, 1)[0]}
        return [f"--{k}={v}" for k, v in flags.items()]

    def setup(self, seed):
        self.seed = seed
        warm = -self.cycle  # a narrow op no run reaches
        result = self.op(warm)
        if not self.check(warm, result, None, keep=True).ok:
            return False
        estimate = self.directory(warm) / "estimate.t3"
        lines = estimate.read_text().splitlines()
        value = lines[1].split()
        value[0] = repr(float(value[0]) + 1.0)
        lines[1] = " ".join(value)
        estimate.write_text("\n".join(lines) + "\n")
        return not self.check(warm, result, None).ok

    def directory(self, i: int) -> Path:
        return self.work / f"op{i}"

    def op(self, i):
        out = str(self.directory(i))
        simulated = cli.main(["simulate", f"--out={out}"] + self.argv(i))
        return simulated, cli.main(["reconstruct", out])

    def check(self, i, result, exc, keep=False):
        out = self.directory(i)
        try:
            if exc is not None:
                return Outcome(False)
            return self._check_files(i, out, *result)
        except (OSError, ValueError, KeyError):  # missing or malformed output
            return Outcome(False)
        finally:
            if not keep:
                shutil.rmtree(out, ignore_errors=True)

    def _check_files(self, i, out: Path, simulated: int, reconstructed: int) -> Outcome:
        mask = read_t3(out / "mask.t3").real != 0
        m, p, n = mask.shape
        empty = not mask.any(axis=(0, 2)).all()
        if simulated != 0 or reconstructed != (2 if empty else 0):
            return Outcome(False)
        if empty:
            return Outcome(True)
        report = json.loads((out / "report.json").read_text())
        estimate, truth = read_t3(out / "estimate.t3"), read_t3(out / "F.t3")
        err = relative_error(estimate, truth)
        kappa, ranks = report["kappa"], report["ranks"]
        ok = (
            estimate.shape == (m, p, n)
            and len(report["residuals"]) == len(kappa) == len(ranks) == p
            and report["failed_columns"] == []
            and all(k is not None and 1.0 <= k < math.inf for k in kappa)
            and report["K"] == max(kappa)
            and agrees(report["rel_error"], err)
        )
        sigma = self.CLASSES[i % self.cycle][-1]
        if sigma == 0.0 and all(r == m * n for r in ranks):
            ok = ok and err <= EXACT_TOL
        return Outcome(ok, err if sigma > 0 else None)

    def sample_problems(self):
        probs = []
        for k, (m, n, p, T, alpha, sigma) in enumerate(self.CLASSES[1:]):
            seeds = op_seeds(self.seed, -100 - k, 4)
            prob = make_problem(seeds, m, p, n, T, alpha, sigma)
            probs.append((prob.a, prob.mask, prob.samples))
        return probs


WORKLOADS = {w.name: w for w in (Recover, Sweep, Dataset)}
