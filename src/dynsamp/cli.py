"""Command-line harness: dataset generation, reconstruction, experiments.

    dynsamp simulate   --out DIR [--config cfg.json] [overrides]
    dynsamp reconstruct DATASET [--out DIR] [--tol X] [--allow-partial]
    dynsamp experiment --kind KIND --out DIR [--config cfg.json] [overrides]

Exit codes: 0 success, 2 unrecoverable columns, 3 configuration error,
4 I/O or data-file error.  Running out of memory exits 3, or 4 from
reconstruct, whose dataset sets its size.  DYNSAMP_THREADS caps worker
parallelism; OpenBLAS runs on one thread in each least-squares solve and
each norm.  Results are byte-identical for any DYNSAMP_THREADS and any
OpenBLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .t3io import T3FormatError, read_t3, write_json, write_t3
from .dynsys import SampleOverflowError, load_sample_data, save_sample_data
from .reconstruct import UnrecoverableColumnError, reconstruct
from .tensor3 import ShapeMismatchError
from .experiments import (
    EXPERIMENT_KEYS,
    EXPERIMENT_KINDS,
    FLAG_TYPES,
    SIMULATE_KEYS,
    ConfigError,
    config_from_dict,
    draw_point,
    instance_seeds,
    write_experiment,
)
from ._parallel import resolve_threads


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as configuration errors."""

    def error(self, message):
        raise ConfigError(message)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
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


def _config(args, keys):
    """The command's config: its file, then its flags over ``keys``."""
    merged = _load_config_file(args.config)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if merged.get("out") is None:
        raise ConfigError(f"{args.command} needs --out (or 'out' in the config)")
    return config_from_dict(merged, keys)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dynsamp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p, keys):
        p.add_argument("--config", help="JSON config file")
        for key, flag_type in FLAG_TYPES.items():
            if key in keys:
                p.add_argument(f"--{key}", type=flag_type)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset directory")
    add_overrides(sim, SIMULATE_KEYS)

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
    add_overrides(exp, EXPERIMENT_KEYS)
    return parser


# -- commands -------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _config(args, SIMULATE_KEYS)
    a, f, samples = draw_point(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    save_sample_data(out, samples)
    write_t3(out / "A.t3", a)
    write_t3(out / "F.t3", f)
    manifest = {
        "command": "simulate",
        "m": cfg.m, "p": cfg.p, "n": cfg.n, "T": cfg.Ts[0],
        "alpha": cfg.alphas[0], "sigma": cfg.sigmas[0], "seed": cfg.seed,
        **instance_seeds(cfg),
        "mask_seed": samples.mask.provenance["seed"],
        "noise_seed": samples.seed,
    }
    write_json(out / "manifest.json", manifest)
    count = samples.mask.sample_count
    print(f"wrote dataset ({cfg.Ts[0]} observations, {count} samples) to {out}")
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
    if truth is not None and truth.dims != samples.mask.dims:
        raise ValueError(f"{truth_path} has dims {truth.dims}, mask has {samples.mask.dims}")
    if truth is not None and not truth.data.any():
        raise ValueError(f"{truth_path}: ground truth has zero norm")

    try:
        report = reconstruct(
            a,
            samples.mask,
            samples,
            tol=args.tol,
            allow_partial=args.allow_partial,
            ground_truth=truth,
            threads=threads,
        )
    except SampleOverflowError as err:  # the dataset's operator, horizon or values
        raise ValueError(f"{dataset}: {err}") from None
    except ShapeMismatchError as err:  # the operator against the mask
        raise ValueError(f"{a_path}: {err}") from None

    out = Path(args.out) if args.out else dataset
    out.mkdir(parents=True, exist_ok=True)
    write_t3(out / "estimate.t3", report.estimate)
    write_json(out / "report.json", report.to_json_dict())
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
    cfg = _config(args, EXPERIMENT_KEYS)
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
    except (ConfigError, SampleOverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except UnrecoverableColumnError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, T3FormatError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except MemoryError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4 if args.command == "reconstruct" else 3


if __name__ == "__main__":
    sys.exit(main())
