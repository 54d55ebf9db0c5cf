"""Seeded experiment harness: grids of reconstructions, CSV tables, SVG plots.

Every run resolves its configuration fully (defaults applied, grids
normalized), writes it to ``manifest.json`` next to the CSV, and derives all
randomness from the base seed with a documented rule, so any CSV row can be
regenerated in isolation.  Identical configurations produce byte-identical
outputs for any thread count.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensor3 import random_tensor
from .sampling import bernoulli_mask, exclude_slab
from .dynsys import evolve, observe
from .reconstruct import reconstruct, system_condition
from .svgplot import render_plot
from .t3io import atomic_write_text
from ._parallel import pmap

EXPERIMENT_KINDS = (
    "recovery-vs-alpha",
    "pointwise-gap",
    "optimal-T",
    "condition-vs-T",
    "conjecture-dim2",
    "slab-dim1-dim3",
)

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


def _default_alpha_grid() -> list[float]:
    return [round(0.05 * i, 2) for i in range(1, 21)]


@dataclass
class ExperimentConfig:
    """Fully resolved experiment parameters.

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
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r}; expected one of "
                + ", ".join(EXPERIMENT_KINDS)
            )
        if min(self.m, self.p, self.n) < 1:
            raise ConfigError(f"dims must be positive, got {self.m} {self.p} {self.n}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        for name, grid in (("T", self.Ts), ("alpha", self.alphas), ("sigma", self.sigmas)):
            if not grid:
                raise ConfigError(f"{name} grid must be nonempty")
        if any(t < 1 for t in self.Ts):
            raise ConfigError(f"T values must be >= 1, got {self.Ts}")
        if any(not 0.0 <= a <= 1.0 for a in self.alphas):
            raise ConfigError(f"alpha values must lie in [0, 1], got {self.alphas}")
        if any(s < 0.0 for s in self.sigmas):
            raise ConfigError(f"sigma values must be nonnegative, got {self.sigmas}")
        scalar_T = self.kind not in ("optimal-T", "condition-vs-T")
        if scalar_T and len(self.Ts) != 1:
            raise ConfigError(f"{self.kind} needs a single T, got {self.Ts}")
        if self.kind != "recovery-vs-alpha" and len(self.alphas) != 1:
            raise ConfigError(f"{self.kind} needs a single alpha, got {self.alphas}")
        if self.kind != "optimal-T" and len(self.sigmas) != 1:
            raise ConfigError(f"{self.kind} needs a single sigma, got {self.sigmas}")

    def to_manifest(self) -> dict:
        return {
            "kind": self.kind,
            "m": self.m,
            "p": self.p,
            "n": self.n,
            "T": self.Ts,
            "alpha": self.alphas,
            "sigma": self.sigmas,
            "trials": self.trials,
            "seed": self.seed,
            "operator_seed": derive_seed(self.seed, STREAM_OPERATOR),
            "signal_seed": derive_seed(self.seed, STREAM_SIGNAL),
            "seed_derivation": SEED_RULE,
        }


_KIND_DEFAULTS = {
    "recovery-vs-alpha": {"alphas": _default_alpha_grid},
    "optimal-T": {
        "Ts": lambda: list(range(1, 16)),
        "sigmas": lambda: [0.0, 1e-4, 1e-3, 1e-2],
    },
    "condition-vs-T": {"Ts": lambda: list(range(1, 16)), "trials": lambda: 1},
    "pointwise-gap": {"trials": lambda: 1},
    "conjecture-dim2": {"alphas": lambda: [1.0]},
    "slab-dim1-dim3": {"alphas": lambda: [0.5]},
}

_ALLOWED_KEYS = {
    "kind", "m", "p", "n", "T", "alpha", "sigma", "trials", "seed", "out",
}


def _as_list(value, cast):
    if isinstance(value, (list, tuple)):
        return [cast(v) for v in value]
    return [cast(value)]


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config from a JSON-style dict; unknown keys are errors."""
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    kind = raw.get("kind")
    if kind is None:
        raise ConfigError("config needs a 'kind' field")
    cfg = ExperimentConfig(kind=str(kind))
    for name, source in _KIND_DEFAULTS.get(cfg.kind, {}).items():
        setattr(cfg, name, source())
    try:
        if "m" in raw:
            cfg.m = int(raw["m"])
        if "p" in raw:
            cfg.p = int(raw["p"])
        if "n" in raw:
            cfg.n = int(raw["n"])
        if "T" in raw:
            cfg.Ts = _as_list(raw["T"], int)
        if "alpha" in raw:
            cfg.alphas = _as_list(raw["alpha"], float)
        if "sigma" in raw:
            cfg.sigmas = _as_list(raw["sigma"], float)
        if "trials" in raw:
            cfg.trials = int(raw["trials"])
        if "seed" in raw:
            cfg.seed = int(raw["seed"])
        if "out" in raw:
            cfg.out = str(raw["out"])
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad config value: {err}") from None
    cfg.validate()
    return cfg


# -- runners -------------------------------------------------------------------


@dataclass
class ExperimentResult:
    kind: str
    fieldnames: list[str]
    rows: list[dict]


def _instance(cfg: ExperimentConfig):
    a = random_tensor(cfg.m, cfg.m, cfg.n, derive_seed(cfg.seed, STREAM_OPERATOR))
    f = random_tensor(cfg.m, cfg.p, cfg.n, derive_seed(cfg.seed, STREAM_SIGNAL))
    return a, f


def _recovery_vs_alpha(cfg: ExperimentConfig, threads: int) -> ExperimentResult:
    a, f = _instance(cfg)
    T, sigma = cfg.Ts[0], cfg.sigmas[0]
    traj = evolve(a, f, T)
    units = [(g, r) for g in range(len(cfg.alphas)) for r in range(cfg.trials)]

    def run(unit):
        g, r = unit
        mask = bernoulli_mask(
            cfg.m, cfg.p, cfg.n, cfg.alphas[g], derive_seed(cfg.seed, STREAM_MASK, g, r)
        )
        samples = observe(traj, mask, sigma, derive_seed(cfg.seed, STREAM_NOISE, g, r))
        return reconstruct(a, mask, samples, ground_truth=f, allow_partial=True).rel_error

    errs = pmap(run, units, threads)
    rows = []
    for g, alpha in enumerate(cfg.alphas):
        vals = np.array(errs[g * cfg.trials : (g + 1) * cfg.trials])
        rows.append(
            {
                "alpha": alpha,
                "mean_rel_err": float(vals.mean()),
                "std_rel_err": float(vals.std()),
            }
        )
    return ExperimentResult(cfg.kind, ["alpha", "mean_rel_err", "std_rel_err"], rows)


def _pointwise_gap(cfg: ExperimentConfig, threads: int) -> ExperimentResult:
    a, f = _instance(cfg)
    mask = bernoulli_mask(
        cfg.m, cfg.p, cfg.n, cfg.alphas[0], derive_seed(cfg.seed, STREAM_MASK)
    )
    samples = observe(
        evolve(a, f, cfg.Ts[0]), mask, cfg.sigmas[0], derive_seed(cfg.seed, STREAM_NOISE)
    )
    report = reconstruct(
        a, mask, samples, ground_truth=f, allow_partial=True, threads=threads
    )
    gaps = np.abs(report.estimate.data - f.data).ravel()
    rows = [{"index": i, "abs_gap": float(g)} for i, g in enumerate(gaps)]
    return ExperimentResult(cfg.kind, ["index", "abs_gap"], rows)


def _optimal_T(cfg: ExperimentConfig, threads: int) -> ExperimentResult:
    a, f = _instance(cfg)
    alpha = cfg.alphas[0]
    traj = evolve(a, f, max(cfg.Ts))
    units = [
        (T, s, r)
        for T in cfg.Ts
        for s in range(len(cfg.sigmas))
        for r in range(cfg.trials)
    ]

    def run(unit):
        T, s, r = unit
        # masks are shared across T and sigma so the horizon is the only
        # thing that changes along a curve; noise streams differ per sigma
        mask = bernoulli_mask(
            cfg.m, cfg.p, cfg.n, alpha, derive_seed(cfg.seed, STREAM_MASK, 0, r)
        )
        samples = observe(
            traj[:T], mask, cfg.sigmas[s], derive_seed(cfg.seed, STREAM_NOISE, s, r)
        )
        return reconstruct(a, mask, samples, ground_truth=f, allow_partial=True).rel_error

    errs = pmap(run, units, threads)
    rows = []
    pos = 0
    for T in cfg.Ts:
        for sigma in cfg.sigmas:
            vals = np.array(errs[pos : pos + cfg.trials])
            pos += cfg.trials
            rows.append(
                {"T": T, "sigma": sigma, "mean_rel_err": float(vals.mean())}
            )
    return ExperimentResult(cfg.kind, ["T", "sigma", "mean_rel_err"], rows)


def _condition_vs_T(cfg: ExperimentConfig, threads: int) -> ExperimentResult:
    a, _ = _instance(cfg)
    mask = bernoulli_mask(
        cfg.m, cfg.p, cfg.n, cfg.alphas[0], derive_seed(cfg.seed, STREAM_MASK)
    )

    def run(T):
        _, K = system_condition(a, mask, T)
        return K

    Ks = pmap(run, cfg.Ts, threads)
    rows = [{"T": T, "K": float(K)} for T, K in zip(cfg.Ts, Ks)]
    return ExperimentResult(cfg.kind, ["T", "K"], rows)


def _conjecture_dim2(cfg: ExperimentConfig, threads: int) -> ExperimentResult:
    a, f = _instance(cfg)
    traj = evolve(a, f, cfg.Ts[0])
    base = bernoulli_mask(
        cfg.m, cfg.p, cfg.n, cfg.alphas[0], derive_seed(cfg.seed, STREAM_MASK)
    )

    def run(j):
        mask = exclude_slab(base, 2, j)
        samples = observe(
            traj, mask, cfg.sigmas[0], derive_seed(cfg.seed, STREAM_NOISE, j)
        )
        return reconstruct(a, mask, samples, ground_truth=f, allow_partial=True).rel_error

    errs = pmap(run, range(cfg.p), threads)
    rows = [{"excluded_j": j, "rel_err": float(e)} for j, e in enumerate(errs)]
    return ExperimentResult(cfg.kind, ["excluded_j", "rel_err"], rows)


def _slab_dim1_dim3(cfg: ExperimentConfig, threads: int) -> ExperimentResult:
    a, f = _instance(cfg)
    traj = evolve(a, f, cfg.Ts[0])
    base = bernoulli_mask(
        cfg.m, cfg.p, cfg.n, cfg.alphas[0], derive_seed(cfg.seed, STREAM_MASK)
    )
    units = [(1, i) for i in range(cfg.m)] + [(3, k) for k in range(cfg.n)]

    def run(unit):
        mode, index = unit
        mask = exclude_slab(base, mode, index)
        samples = observe(
            traj, mask, cfg.sigmas[0],
            derive_seed(cfg.seed, STREAM_NOISE, mode, index),
        )
        return reconstruct(a, mask, samples, ground_truth=f, allow_partial=True).rel_error

    errs = pmap(run, units, threads)
    rows = [
        {"mode": mode, "excluded_index": index, "rel_err": float(e)}
        for (mode, index), e in zip(units, errs)
    ]
    return ExperimentResult(cfg.kind, ["mode", "excluded_index", "rel_err"], rows)


_RUNNERS = {
    "recovery-vs-alpha": _recovery_vs_alpha,
    "pointwise-gap": _pointwise_gap,
    "optimal-T": _optimal_T,
    "condition-vs-T": _condition_vs_T,
    "conjecture-dim2": _conjecture_dim2,
    "slab-dim1-dim3": _slab_dim1_dim3,
}


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Compute the rows for one experiment kind; pure apart from the RNG seeds."""
    cfg.validate()
    return _RUNNERS[cfg.kind](cfg, threads)


# -- CSV / SVG / manifest --------------------------------------------------------


def rows_to_csv_text(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    return buf.getvalue()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def plot_from_csv(kind: str, csv_path, svg_path) -> None:
    """Regenerate the experiment plot purely from its CSV file."""
    rows = _read_csv(Path(csv_path))
    if kind == "recovery-vs-alpha":
        xs = [float(r["alpha"]) for r in rows]
        ys = [float(r["mean_rel_err"]) for r in rows]
        svg = render_plot(
            [("mean", xs, ys)],
            title="Recovery error vs sampling rate",
            xlabel="sampling rate alpha",
            ylabel="relative error",
            logy=True,
        )
    elif kind == "pointwise-gap":
        xs = [int(r["index"]) for r in rows]
        ys = [float(r["abs_gap"]) for r in rows]
        svg = render_plot(
            [("", xs, ys)],
            title="Entrywise gap between estimate and truth",
            xlabel="linear index",
            ylabel="absolute gap",
            logy=True,
            scatter=True,
        )
    elif kind == "optimal-T":
        sigmas = sorted({r["sigma"] for r in rows}, key=float)
        series = []
        for sigma in sigmas:
            sel = [r for r in rows if r["sigma"] == sigma]
            series.append(
                (
                    f"sigma={float(sigma):g}",
                    [int(r["T"]) for r in sel],
                    [float(r["mean_rel_err"]) for r in sel],
                )
            )
        svg = render_plot(
            series,
            title="Recovery error vs horizon",
            xlabel="horizon T",
            ylabel="mean relative error",
            logy=True,
        )
    elif kind == "condition-vs-T":
        svg = render_plot(
            [("", [int(r["T"]) for r in rows], [float(r["K"]) for r in rows])],
            title="System condition number vs horizon",
            xlabel="horizon T",
            ylabel="condition number K",
            logy=True,
        )
    elif kind == "conjecture-dim2":
        svg = render_plot(
            [("", [int(r["excluded_j"]) for r in rows], [float(r["rel_err"]) for r in rows])],
            title="Recovery error with one second-mode slab removed",
            xlabel="excluded second-mode index",
            ylabel="relative error",
        )
    elif kind == "slab-dim1-dim3":
        series = []
        for mode, label in ((1, "first mode"), (3, "third mode")):
            sel = [r for r in rows if int(r["mode"]) == mode]
            series.append(
                (
                    label,
                    [int(r["excluded_index"]) for r in sel],
                    [float(r["rel_err"]) for r in sel],
                )
            )
        svg = render_plot(
            series,
            title="Recovery error with one first/third-mode slab removed",
            xlabel="excluded index",
            ylabel="relative error",
            logy=True,
        )
    else:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    atomic_write_text(svg_path, svg)


def write_experiment(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Run an experiment and write manifest.json, <kind>.csv, <kind>.svg.

    Returns {"manifest": path, "csv": path, "svg": path}.
    """
    result = run_experiment(cfg, threads)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = cfg.kind
    csv_path = out_dir / f"{stem}.csv"
    svg_path = out_dir / f"{stem}.svg"
    manifest_path = out_dir / "manifest.json"
    atomic_write_text(csv_path, rows_to_csv_text(result.fieldnames, result.rows))
    manifest = cfg.to_manifest()
    manifest["csv"] = csv_path.name
    manifest["svg"] = svg_path.name
    manifest["columns"] = result.fieldnames
    atomic_write_text(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    plot_from_csv(cfg.kind, csv_path, svg_path)
    return {"manifest": manifest_path, "csv": csv_path, "svg": svg_path}
