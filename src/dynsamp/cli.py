"""Command-line harness: dataset generation, reconstruction, experiments.

    dynsamp simulate   --out DIR [--config cfg.json] [overrides]
    dynsamp reconstruct DATASET [--out DIR] [--tol X] [--allow-partial]
    dynsamp experiment --kind KIND --out DIR [--config cfg.json] [overrides]

Exit codes: 0 success, 2 unrecoverable columns, 3 configuration error,
4 I/O or data-file error.  DYNSAMP_THREADS caps worker parallelism, the
only parallel layer: OpenBLAS runs on one thread inside it.  Results are
byte-identical for any DYNSAMP_THREADS and any OpenBLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .tensor3 import random_tensor
from .t3io import T3FormatError, atomic_write_text, read_t3, write_t3
from .sampling import bernoulli_mask
from .dynsys import evolve, load_sample_data, observe, save_sample_data
from .reconstruct import UnrecoverableColumnError, reconstruct
from .experiments import (
    EXPERIMENT_KINDS,
    SEED_RULE,
    STREAM_MASK,
    STREAM_NOISE,
    STREAM_OPERATOR,
    STREAM_SIGNAL,
    ConfigError,
    as_int,
    config_from_dict,
    derive_seed,
    parse_value,
    write_experiment,
)
from ._parallel import resolve_threads

_SIMULATE_KEYS = {"m", "p", "n", "T", "alpha", "sigma", "seed", "out"}
_SIMULATE_DEFAULTS = {
    "m": 20, "p": 15, "n": 5, "T": 5, "alpha": 0.4, "sigma": 0.0, "seed": 1,
}


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as configuration errors."""

    def error(self, message):
        raise ConfigError(message)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return raw


def _threads() -> int:
    try:
        return resolve_threads()
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _merge_flags(raw: dict, args, keys) -> dict:
    merged = dict(raw)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _build_parser() -> _Parser:
    parser = _Parser(prog="dynsamp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p, with_trials: bool):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--m", type=int)
        p.add_argument("--p", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--T", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--sigma", type=float)
        p.add_argument("--seed", type=int)
        if with_trials:
            p.add_argument("--trials", type=int)
        p.add_argument("--out", help="output directory")

    sim = sub.add_parser("simulate", help="generate a synthetic dataset directory")
    add_overrides(sim, with_trials=False)

    rec = sub.add_parser("reconstruct", help="reconstruct a dataset directory")
    rec.add_argument("dataset", help="dataset directory from 'dynsamp simulate'")
    rec.add_argument("--out", help="output directory (default: the dataset dir)")
    rec.add_argument("--tol", type=float, help="relative singular-value cutoff")
    rec.add_argument(
        "--allow-partial",
        action="store_true",
        help="zero-fill unsampled columns instead of aborting",
    )

    exp = sub.add_parser("experiment", help="run one experiment family")
    exp.add_argument("--kind", choices=EXPERIMENT_KINDS)
    add_overrides(exp, with_trials=True)
    return parser


# -- commands -------------------------------------------------------------------


def cmd_simulate(args) -> int:
    raw = _load_config_file(args.config)
    unknown = set(raw) - _SIMULATE_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    merged = dict(_SIMULATE_DEFAULTS)
    merged.update(raw)
    merged = _merge_flags(merged, args, _SIMULATE_KEYS)
    if merged.get("out") is None:
        raise ConfigError("simulate needs --out (or 'out' in the config)")
    m, p, n, T, seed = (
        parse_value(k, merged[k], as_int) for k in ("m", "p", "n", "T", "seed")
    )
    alpha, sigma = (parse_value(k, merged[k], float) for k in ("alpha", "sigma"))
    if min(m, p, n) < 1 or T < 1:
        raise ConfigError(f"dims and T must be positive, got m={m} p={p} n={n} T={T}")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    if sigma < 0.0:
        raise ConfigError(f"sigma must be nonnegative, got {sigma}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")

    out = Path(merged["out"])
    out.mkdir(parents=True, exist_ok=True)
    a = random_tensor(m, m, n, derive_seed(seed, STREAM_OPERATOR))
    f = random_tensor(m, p, n, derive_seed(seed, STREAM_SIGNAL))
    mask = bernoulli_mask(m, p, n, alpha, derive_seed(seed, STREAM_MASK))
    samples = observe(evolve(a, f, T), mask, sigma, derive_seed(seed, STREAM_NOISE))
    save_sample_data(out, samples)
    write_t3(out / "A.t3", a)
    write_t3(out / "F.t3", f)
    manifest = {
        "command": "simulate",
        "m": m, "p": p, "n": n, "T": T,
        "alpha": alpha, "sigma": sigma, "seed": seed,
        "operator_seed": derive_seed(seed, STREAM_OPERATOR),
        "signal_seed": derive_seed(seed, STREAM_SIGNAL),
        "mask_seed": derive_seed(seed, STREAM_MASK),
        "noise_seed": derive_seed(seed, STREAM_NOISE),
        "seed_derivation": SEED_RULE,
    }
    atomic_write_text(out / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote dataset ({T} observations, {mask.sample_count} samples) to {out}")
    return 0


def cmd_reconstruct(args) -> int:
    if args.tol is not None and not 0.0 < args.tol < 1.0:
        raise ConfigError(f"--tol must lie in (0, 1), got {args.tol}")
    threads = _threads()
    dataset = Path(args.dataset)
    if not dataset.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {dataset}")
    samples = load_sample_data(dataset)
    a_path = dataset / "A.t3"
    if not a_path.exists():
        raise FileNotFoundError(f"{dataset}: missing A.t3")
    a = read_t3(a_path)
    truth_path = dataset / "F.t3"
    truth = read_t3(truth_path) if truth_path.exists() else None

    report = reconstruct(
        a,
        samples.mask,
        samples,
        tol=args.tol,
        allow_partial=args.allow_partial,
        ground_truth=truth,
        threads=threads,
    )

    out = Path(args.out) if args.out else dataset
    out.mkdir(parents=True, exist_ok=True)
    write_t3(out / "estimate.t3", report.estimate)
    atomic_write_text(
        out / "report.json",
        json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n",
    )
    if report.rel_error is not None:
        print(f"relative error: {report.rel_error:.6e}")
    if report.K is not None:
        print(f"condition number K: {report.K:.6e}")
    if report.rank_deficient_columns:
        cols = ", ".join(str(j) for j in report.rank_deficient_columns)
        print(f"warning: rank-deficient column(s) {cols}", file=sys.stderr)
    if report.failed_columns:
        cols = ", ".join(str(j) for j in report.failed_columns)
        print(f"warning: unrecoverable column(s) {cols} zero-filled", file=sys.stderr)
        return 2
    return 0


def cmd_experiment(args) -> int:
    raw = _load_config_file(args.config)
    merged = _merge_flags(raw, args, ("kind", "m", "p", "n", "T", "alpha", "sigma", "seed", "trials", "out"))
    if merged.get("out") is None:
        raise ConfigError("experiment needs --out (or 'out' in the config)")
    cfg = config_from_dict(merged)
    paths = write_experiment(cfg, threads=_threads())
    print(f"wrote {paths['csv']}, {paths['svg']}, {paths['manifest']}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "reconstruct":
            return cmd_reconstruct(args)
        return cmd_experiment(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except UnrecoverableColumnError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, T3FormatError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
