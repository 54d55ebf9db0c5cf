"""Seeded experiment harness: grids of reconstructions, CSV tables, SVG plots.

Every run resolves its configuration fully (defaults applied, grids
normalized), writes it to ``manifest.json`` next to the CSV, and derives all
randomness from the base seed with a documented rule.  A row regenerates
bit for bit from ``SEED_RULE`` with its batch (every sigma and trial of one
``optimal-T`` horizon, every trial of one ``recovery-vs-alpha`` alpha, all
units of a slab kind, the whole T grid of ``condition-vs-T``), and to
within roundoff with a lone ``reconstruct`` (at most 4.2e-7 relative at
sigma=1e-3, where K nears 1e10, on the default grids) or, for a
``condition-vs-T`` row, a lone ``system_condition`` (at most 1.0e-6
relative, where K nears 6e12 at T=15).
Identical configurations produce byte-identical outputs for any thread
count.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .tensor3 import as_float, as_int, random_tensor
from .sampling import bernoulli_mask, exclude_slab
from .dynsys import evolve, observe
from .reconstruct import _condition_sweep, reconstruct_batch
from .svgplot import render_plot
from .t3io import atomic_write_text, write_json

# Stream labels for seed derivation; see derive_seed.
STREAM_OPERATOR, STREAM_SIGNAL, STREAM_MASK, STREAM_NOISE = 0, 1, 2, 3

SEED_RULE = (
    "numpy SeedSequence(entropy=seed, spawn_key=(stream, grid_index, trial)) "
    "-> first uint64; streams: operator=0 signal=1 mask=2 noise=3"
)


class ConfigError(ValueError):
    """Invalid or unknown experiment/simulation configuration."""


def derive_seed(base: int, stream: int, grid_index: int = 0, trial: int = 0) -> int:
    """Independent 64-bit seed for one randomness stream of one grid unit."""
    ss = np.random.SeedSequence(
        entropy=int(base), spawn_key=(int(stream), int(grid_index), int(trial))
    )
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class ExperimentConfig:
    """Fully resolved experiment parameters; kind "simulate" is the single
    point that ``dynsamp simulate`` draws and has no runner.

    ``Ts``, ``alphas``, and ``sigmas`` are always lists; kinds that need a
    scalar require the list to have exactly one element.
    """

    kind: str
    m: int = 20
    p: int = 15
    n: int = 5
    Ts: list[int] = field(default_factory=lambda: [5])
    alphas: list[float] = field(default_factory=lambda: [0.4])
    sigmas: list[float] = field(default_factory=lambda: [0.0])
    trials: int = 10
    seed: int = 1
    out: str = "."

    def validate(self) -> None:
        if min(self.m, self.p, self.n) < 1:
            raise ConfigError(f"dims must be positive, got {self.m} {self.p} {self.n}")
        # The operator is m x m x n and the signal m x p x n float64 values.
        # Past 2**57 bytes no address space holds one, so none is allocated.
        largest = 8 * self.m * self.n * max(self.m, self.p)
        if largest > 2**57:
            raise ConfigError(
                f"dims {self.m}x{self.p}x{self.n} need a {largest / 2**50:,.0f} PiB "
                "tensor, more than any 57-bit address space holds"
            )
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        grids = (("T", self.Ts), ("alpha", self.alphas), ("sigma", self.sigmas))
        for name, grid in grids:
            if not grid:
                raise ConfigError(f"{name} grid must be nonempty")
        if any(t < 1 for t in self.Ts):
            raise ConfigError(f"T values must be >= 1, got {self.Ts}")
        if any(not 0.0 <= a <= 1.0 for a in self.alphas):
            raise ConfigError(f"alpha values must lie in [0, 1], got {self.alphas}")
        if any(s < 0.0 for s in self.sigmas):
            raise ConfigError(f"sigma values must be nonnegative, got {self.sigmas}")
        several = _KINDS[self.kind].grids if self.kind in _KINDS else ()
        for name, grid in grids:
            if name not in several and len(grid) != 1:
                raise ConfigError(f"{self.kind} needs a single {name}, got {grid}")


def parse_value(key: str, value, cast):
    """``cast(value)``, or a one-line ``ConfigError`` naming ``key``."""
    try:
        return cast(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad config value for {key!r}: {err}") from None


def _as_list(cast):
    """Cast for a grid field: a scalar or a list, returned as a list."""
    return lambda v: [cast(x) for x in (v if isinstance(v, (list, tuple)) else [v])]


# config key -> (ExperimentConfig field, cast, type of the command-line flag)
_CONFIG_KEYS = {
    "m": ("m", as_int, int),
    "p": ("p", as_int, int),
    "n": ("n", as_int, int),
    "T": ("Ts", _as_list(as_int), int),
    "alpha": ("alphas", _as_list(as_float), float),
    "sigma": ("sigmas", _as_list(as_float), float),
    "trials": ("trials", as_int, int),
    "seed": ("seed", as_int, int),
    "out": ("out", str, str),
}
FLAG_TYPES = {key: flag for key, (_, _, flag) in _CONFIG_KEYS.items()}
EXPERIMENT_KEYS = ("kind", *_CONFIG_KEYS)
SIMULATE_KEYS = tuple(k for k in EXPERIMENT_KEYS if k not in ("kind", "trials"))


def _check_kind(kind) -> None:
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"unknown experiment kind {kind!r}; expected one of " + ", ".join(EXPERIMENT_KINDS)
        )


def config_from_dict(raw: dict, keys=EXPERIMENT_KEYS) -> ExperimentConfig:
    """Build a validated config from a JSON-style dict; keys outside ``keys``
    are errors.  Without 'kind' in ``keys`` it is the single point that
    ``dynsamp simulate`` draws: kind "simulate", one T, alpha and sigma."""
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    if "kind" in keys:
        if raw.get("kind") is None:
            raise ConfigError("config needs a 'kind' field")
        _check_kind(raw["kind"])
    cfg = ExperimentConfig(kind=raw.get("kind", "simulate"))
    defaults = _KINDS[cfg.kind].defaults if cfg.kind in _KINDS else {}
    for name, source in defaults.items():
        setattr(cfg, name, source())
    for key, (name, cast, _) in _CONFIG_KEYS.items():
        if key in raw:
            setattr(cfg, name, parse_value(key, raw[key], cast))
    cfg.validate()
    return cfg


# -- runners -------------------------------------------------------------------


def _instance(cfg: ExperimentConfig):
    a = random_tensor(cfg.m, cfg.m, cfg.n, derive_seed(cfg.seed, STREAM_OPERATOR))
    f = random_tensor(cfg.m, cfg.p, cfg.n, derive_seed(cfg.seed, STREAM_SIGNAL))
    return a, f


def _mask(cfg: ExperimentConfig, alpha: float, grid_index: int = 0, trial: int = 0):
    seed = derive_seed(cfg.seed, STREAM_MASK, grid_index, trial)
    return bernoulli_mask(cfg.m, cfg.p, cfg.n, alpha, seed)


def _noise(cfg: ExperimentConfig, grid_index: int = 0, trial: int = 0) -> int:
    return derive_seed(cfg.seed, STREAM_NOISE, grid_index, trial)


def instance_seeds(cfg: ExperimentConfig) -> dict:
    """Manifest fields that regenerate the operator and the signal."""
    return {
        "operator_seed": derive_seed(cfg.seed, STREAM_OPERATOR),
        "signal_seed": derive_seed(cfg.seed, STREAM_SIGNAL),
        "seed_derivation": SEED_RULE,
    }


def draw_point(cfg: ExperimentConfig):
    """Operator, signal and samples of a single-point config: the instance,
    mask and noise of grid point 0, trial 0."""
    a, f = _instance(cfg)
    mask = _mask(cfg, cfg.alphas[0])
    return a, f, observe(evolve(a, f, cfg.Ts[0]), mask, cfg.sigmas[0], _noise(cfg))


def _rel_errors(cfg: ExperimentConfig, batches, threads: int) -> list[float]:
    """Recovery error of each ``(mask, sigma, noise_seed)`` unit of each
    ``(T, units)`` batch, in order.  The instance is evolved once, to the
    largest T, and units observe prefixes; each batch is one
    ``reconstruct_batch``, which factors each shared column system once and
    takes no condition numbers."""
    a, f = _instance(cfg)
    traj = evolve(a, f, max(T for T, _ in batches))
    errors = []
    for T, units in batches:
        problems = (observe(traj[:T], mask, sigma, seed) for mask, sigma, seed in units)
        reports = reconstruct_batch(
            a, problems, allow_partial=True, ground_truth=f, threads=threads, kappa=False
        )
        errors += [report.rel_error for report in reports]
    return errors


def _recovery_vs_alpha(cfg: ExperimentConfig, threads: int) -> list[dict]:
    batches = [
        (cfg.Ts[0], [(_mask(cfg, alpha, g, r), cfg.sigmas[0], _noise(cfg, g, r))
                     for r in range(cfg.trials)])
        for g, alpha in enumerate(cfg.alphas)
    ]
    errs = np.reshape(_rel_errors(cfg, batches, threads), (-1, cfg.trials))
    return [
        {"alpha": alpha, "mean_rel_err": float(e.mean()), "std_rel_err": float(e.std())}
        for alpha, e in zip(cfg.alphas, errs)
    ]


def _pointwise_gap(cfg: ExperimentConfig, threads: int) -> list[dict]:
    a, f, samples = draw_point(cfg)
    report = reconstruct_batch(a, [samples], allow_partial=True, threads=threads, kappa=False)[0]
    gaps = np.abs(report.estimate.data - f.data).ravel()
    return [{"index": i, "abs_gap": float(g)} for i, g in enumerate(gaps)]


def _optimal_T(cfg: ExperimentConfig, threads: int) -> list[dict]:
    # masks are shared across T and sigma so the horizon is the only
    # thing that changes along a curve; noise streams differ per sigma
    masks = [_mask(cfg, cfg.alphas[0], 0, r) for r in range(cfg.trials)]
    batches = [
        (T, [(masks[r], sigma, _noise(cfg, s, r))
             for s, sigma in enumerate(cfg.sigmas) for r in range(cfg.trials)])
        for T in cfg.Ts
    ]
    errs = np.reshape(_rel_errors(cfg, batches, threads), (len(cfg.Ts), len(cfg.sigmas), -1))
    return [
        {"T": T, "sigma": sigma, "mean_rel_err": float(e.mean())}
        for T, errs_T in zip(cfg.Ts, errs) for sigma, e in zip(cfg.sigmas, errs_T)
    ]


def _condition_vs_T(cfg: ExperimentConfig, threads: int) -> list[dict]:
    a, _ = _instance(cfg)
    mask = _mask(cfg, cfg.alphas[0])
    Ks = [K for _, K in _condition_sweep(a, mask, cfg.Ts, threads=threads)]
    return [{"T": T, "K": float(K)} for T, K in zip(cfg.Ts, Ks)]


def _slab_errors(cfg: ExperimentConfig, slabs, threads: int) -> list[float]:
    """Recovery error with slab (mode, index) dropped from one base mask,
    observed with ``noise_seed``, for each ``(mode, index, noise_seed)``."""
    base = _mask(cfg, cfg.alphas[0])
    units = [(exclude_slab(base, mode, i), cfg.sigmas[0], seed) for mode, i, seed in slabs]
    return _rel_errors(cfg, [(cfg.Ts[0], units)], threads)


def _conjecture_dim2(cfg: ExperimentConfig, threads: int) -> list[dict]:
    errs = _slab_errors(cfg, [(2, j, _noise(cfg, j)) for j in range(cfg.p)], threads)
    return [{"excluded_j": j, "rel_err": float(e)} for j, e in enumerate(errs)]


def _slab_dim1_dim3(cfg: ExperimentConfig, threads: int) -> list[dict]:
    slabs = [(1, i) for i in range(cfg.m)] + [(3, k) for k in range(cfg.n)]
    errs = _slab_errors(
        cfg, [(mode, index, _noise(cfg, mode, index)) for mode, index in slabs], threads
    )
    return [
        {"mode": mode, "excluded_index": index, "rel_err": float(e)}
        for (mode, index), e in zip(slabs, errs)
    ]


class _Plot(NamedTuple):
    x: str
    y: str
    title: str
    xlabel: str
    ylabel: str
    series: str | None = None  # one series per value of this column, in numeric order
    label: Callable[[float], str] = lambda _: ""  # legend entry of a series value
    logy: bool = True
    scatter: bool = False


class _Kind(NamedTuple):
    run: Callable[[ExperimentConfig, int], list[dict]]
    plot: _Plot
    defaults: dict = {}  # ExperimentConfig field -> its default for this kind
    grids: tuple[str, ...] = ()  # the grids that may hold several values


_KINDS = {
    "recovery-vs-alpha": _Kind(
        _recovery_vs_alpha,
        _Plot(
            "alpha", "mean_rel_err", "Recovery error vs sampling rate",
            "sampling rate alpha", "relative error", label=lambda _: "mean",
        ),
        {"alphas": lambda: [round(0.05 * i, 2) for i in range(1, 21)]},
        ("alpha",),
    ),
    "pointwise-gap": _Kind(
        _pointwise_gap,
        _Plot(
            "index", "abs_gap", "Entrywise gap between estimate and truth",
            "linear index", "absolute gap", scatter=True,
        ),
        {"trials": lambda: 1},
    ),
    "optimal-T": _Kind(
        _optimal_T,
        _Plot(
            "T", "mean_rel_err", "Recovery error vs horizon", "horizon T",
            "mean relative error", "sigma", lambda sigma: f"sigma={sigma:g}",
        ),
        {"Ts": lambda: list(range(1, 16)), "sigmas": lambda: [0.0, 1e-4, 1e-3, 1e-2]},
        ("T", "sigma"),
    ),
    "condition-vs-T": _Kind(
        _condition_vs_T,
        _Plot("T", "K", "System condition number vs horizon", "horizon T", "condition number K"),
        {"Ts": lambda: list(range(1, 16)), "trials": lambda: 1},
        ("T",),
    ),
    "conjecture-dim2": _Kind(
        _conjecture_dim2,
        _Plot(
            "excluded_j", "rel_err", "Recovery error with one second-mode slab removed",
            "excluded second-mode index", "relative error", logy=False,
        ),
        {"alphas": lambda: [1.0]},
    ),
    "slab-dim1-dim3": _Kind(
        _slab_dim1_dim3,
        _Plot(
            "excluded_index", "rel_err",
            "Recovery error with one first/third-mode slab removed",
            "excluded index", "relative error",
            "mode", {1: "first mode", 3: "third mode"}.get,
        ),
        {"alphas": lambda: [0.5]},
    ),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[dict]:
    """Compute the rows of one experiment kind, the first row's keys being the
    CSV columns in order; pure apart from the RNG seeds."""
    _check_kind(cfg.kind)
    cfg.validate()
    return _KINDS[cfg.kind].run(cfg, threads)


# -- CSV / SVG / manifest --------------------------------------------------------


def rows_to_csv_text(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    return buf.getvalue()


def plot_from_csv(kind: str, csv_path, svg_path) -> None:
    """Regenerate the experiment plot purely from its CSV file."""
    _check_kind(kind)
    plot = _KINDS[kind].plot
    with open(csv_path, newline="", encoding="ascii") as fh:
        groups: dict[float, list[dict]] = {}
        for row in csv.DictReader(fh):
            key = float(row[plot.series]) if plot.series else 0.0
            groups.setdefault(key, []).append(row)
    series = [
        (plot.label(key), [float(r[plot.x]) for r in sel], [float(r[plot.y]) for r in sel])
        for key, sel in sorted(groups.items())
    ]
    svg = render_plot(
        series, title=plot.title, xlabel=plot.xlabel, ylabel=plot.ylabel,
        logy=plot.logy, scatter=plot.scatter,
    )
    atomic_write_text(svg_path, svg)


def write_experiment(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Run an experiment and write manifest.json, <kind>.csv, <kind>.svg.

    Returns {"manifest": path, "csv": path, "svg": path}.
    """
    rows = run_experiment(cfg, threads)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{cfg.kind}.csv"
    svg_path = out_dir / f"{cfg.kind}.svg"
    manifest_path = out_dir / "manifest.json"
    columns = list(rows[0])
    atomic_write_text(csv_path, rows_to_csv_text(columns, rows))
    manifest = {
        "kind": cfg.kind, "m": cfg.m, "p": cfg.p, "n": cfg.n,
        "T": cfg.Ts, "alpha": cfg.alphas, "sigma": cfg.sigmas,
        "trials": cfg.trials, "seed": cfg.seed, **instance_seeds(cfg),
        "csv": csv_path.name, "svg": svg_path.name, "columns": columns,
    }
    write_json(manifest_path, manifest)
    plot_from_csv(cfg.kind, csv_path, svg_path)
    return {"manifest": manifest_path, "csv": csv_path, "svg": svg_path}
