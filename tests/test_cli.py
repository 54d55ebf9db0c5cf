import functools
import hashlib
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynsamp import (
    SampleData,
    Tensor3,
    bernoulli_mask,
    dumps_t3,
    evolve,
    load_sample_data,
    observe,
    random_tensor,
    read_t3,
    reconstruct,
    save_sample_data,
    write_t3,
)
from dynsamp.cli import main
from oracles import product_mask


def dir_bytes(path: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(path.iterdir()) if f.is_file()}


SMALL = ["--m", "6", "--p", "4", "--n", "2", "--seed", "3"]


ZERO_LINE, NEGATIVE_ZERO_LINE = "0.00000000000000000e+00", "-0.00000000000000000e+00"


def _parent_observations(ds: Path) -> list:
    """The observations of dataset ``ds`` as the projection ``data * mask``
    wrote them: -0.0 at every unsampled entry whose noisy signal is negative."""
    meta = json.loads((ds / "meta.json").read_text())
    mask = load_sample_data(ds).mask.indicator
    traj = evolve(read_t3(ds / "A.t3"), read_t3(ds / "F.t3"), meta["T"])
    return [
        (ft.data + meta["sigma"] * np.random.Generator(np.random.Philox(key=meta["seed"])
                                                       .jumped(t)).standard_normal(ft.dims)) * mask
        for t, ft in enumerate(traj)
    ]


@pytest.mark.parametrize("flags", [[], ["--sigma", "1e-3"]])
def test_unsampled_observation_entries_are_written_as_zero(tmp_path, flags):
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--seed", "1"] + flags) == 0
    unsampled = [line == ZERO_LINE for line in (ds / "mask.t3").read_text().splitlines()[1:]]
    leaked = 0
    for t, parent in enumerate(_parent_observations(ds)):
        lines = (ds / f"obs_{t}.t3").read_text().splitlines()[1:]
        assert {line for line, off in zip(lines, unsampled) if off} == {ZERO_LINE}
        leaked += int(np.signbit(parent.ravel(order="F")[unsampled]).sum())
    assert leaked  # the projection by multiplication gave these signs away


def test_a_dataset_with_negative_zeros_off_the_mask_reconstructs_to_the_same_estimate(tmp_path):
    new, old = tmp_path / "new", tmp_path / "old"
    assert main(["simulate", "--out", str(new), "--seed", "1", "--sigma", "1e-3"]) == 0
    shutil.copytree(new, old)
    for t, obs in enumerate(_parent_observations(new)):
        write_t3(old / f"obs_{t}.t3", Tensor3(obs))
    assert NEGATIVE_ZERO_LINE in (old / "obs_0.t3").read_text().splitlines()
    for ds in (new, old):
        assert main(["reconstruct", str(ds)]) == 0
    assert (old / "estimate.t3").read_bytes() == (new / "estimate.t3").read_bytes()
    assert (old / "report.json").read_bytes() == (new / "report.json").read_bytes()


def test_simulate_writes_expected_files(tmp_path):
    out = tmp_path / "ds"
    code = main(["simulate", "--out", str(out), "--T", "3", "--alpha", "0.5"] + SMALL)
    assert code == 0
    names = {f.name for f in out.iterdir()}
    assert names == {
        "A.t3", "F.t3", "mask.t3", "mask.t3.json", "meta.json", "manifest.json",
        "obs_0.t3", "obs_1.t3", "obs_2.t3",
    }
    meta = json.loads((out / "meta.json").read_text())
    assert meta["T"] == 3 and meta["dims"] == [6, 4, 2]


def test_simulate_horizon_one(tmp_path):
    out = tmp_path / "ds"
    assert main(["simulate", "--out", str(out), "--T", "1"] + SMALL) == 0
    obs = [f for f in out.iterdir() if f.name.startswith("obs_")]
    assert len(obs) == 1


def test_simulate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["simulate", "--T", "3", "--alpha", "0.4"] + SMALL
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert dir_bytes(a) == dir_bytes(b)


def test_simulate_respects_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 5, "p": 3, "n": 2, "T": 2, "alpha": 0.7, "seed": 4}))
    out = tmp_path / "ds"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--T", "4"]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["T"] == 4  # flag wins
    assert meta["dims"] == [5, 3, 2]


def test_simulate_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3}))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 3
    assert "trials" in capsys.readouterr().err


def test_simulate_rejects_bad_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert "line 1" in err
    cfg.write_text("[1, 2]")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err == f"error: {cfg}: config must be a JSON object\n"
    assert not (tmp_path / "x").exists()


def test_simulate_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff{}")
    out = tmp_path / "x"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == (
        f"error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n"
    )
    assert not out.exists()


def test_simulate_requires_out(capsys):
    assert main(["simulate"]) == 3


def test_reconstruct_round_trip(tmp_path, capsys):
    out = tmp_path / "ds"
    main(["simulate", "--out", str(out), "--T", "4", "--alpha", "0.6"] + SMALL)
    code = main(["reconstruct", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rel_error"] <= 1e-9
    assert report["failed_columns"] == []
    assert set(report) == {
        "rel_error", "residuals", "kappa", "K", "ranks", "failed_columns",
    }
    estimate = read_t3(out / "estimate.t3")
    truth = read_t3(out / "F.t3")
    assert np.allclose(estimate.data, truth.data, atol=1e-8)
    assert "relative error" in capsys.readouterr().out


def test_reconstruct_paper_dims_accuracy(tmp_path):
    out = tmp_path / "ds"
    main(["simulate", "--out", str(out), "--seed", "1"])  # defaults: 20x15x5, T=5, alpha=0.4
    assert main(["reconstruct", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rel_error"] <= 1e-9


def test_reconstruct_missing_dataset(tmp_path, capsys):
    assert main(["reconstruct", str(tmp_path / "nope")]) == 4
    assert "error:" in capsys.readouterr().err


def test_reconstruct_partial_dataset(tmp_path, capsys):
    for name, missing in (("obs_1.t3", "obs_1.t3 (T=2)"), ("A.t3", "A.t3")):
        out = tmp_path / name
        main(["simulate", "--out", str(out), "--T", "2"] + SMALL)
        (out / name).unlink()
        assert main(["reconstruct", str(out)]) == 4
        assert capsys.readouterr().err == f"error: {out}: missing {missing}\n"
        assert not (out / "report.json").exists()


def test_reconstruct_non_finite_observation_is_data_error(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--T", "2"] + SMALL) == 0
    obs = ds / "obs_0.t3"
    lines = obs.read_text().splitlines()
    lines[3] = "nan"
    obs.write_text("\n".join(lines) + "\n")
    assert main(["reconstruct", str(ds)]) == 4
    err = capsys.readouterr().err
    assert f"{obs}: line 4: non-finite value" in err
    assert len(err.splitlines()) == 1


def _off_mask(ds: Path) -> np.ndarray:
    obs = read_t3(ds / "obs_0.t3").data.copy()
    obs[read_t3(ds / "mask.t3").data == 0] = 1.5
    return obs


# case -> (dataset file, its replacement values, the error after the file's path)
DIMS_ERROR = " has dims (6, 4, 1), mask has (6, 4, 2)"
DATA_ERRORS = {
    "obs-dims": ("obs_1.t3", lambda ds: np.zeros((6, 4, 1)), DIMS_ERROR),
    "obs-off-mask": ("obs_0.t3", _off_mask, " carries values off the mask"),
    "truth-dims": ("F.t3", lambda ds: np.ones((6, 4, 1)), DIMS_ERROR),
    "truth-zero": ("F.t3", lambda ds: np.zeros((6, 4, 2)), ": ground truth has zero norm"),
}


@pytest.mark.parametrize("case", sorted(DATA_ERRORS))
def test_reconstruct_data_error_names_the_file(tmp_path, capsys, case):
    name, values, message = DATA_ERRORS[case]
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--T", "2"] + SMALL) == 0
    write_t3(ds / name, Tensor3(values(ds)))
    assert main(["reconstruct", str(ds)]) == 4
    assert capsys.readouterr().err == f"error: {ds / name}{message}\n"
    assert not (ds / "report.json").exists()


def test_reconstruct_tiny_ground_truth_has_a_finite_error(tmp_path, capsys):
    # Every square of 1e-170 underflows: an unscaled norm of F.t3 reads zero.
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--m", "4", "--p", "3", "--n", "2",
                 "--T", "3", "--seed", "3"]) == 0
    write_t3(ds / "F.t3", Tensor3(np.full((4, 3, 2), 1.0e-170)))
    assert main(["reconstruct", str(ds)]) == 0
    rel_error = json.loads((ds / "report.json").read_text())["rel_error"]
    assert np.isfinite(rel_error) and rel_error > 0
    assert f"relative error: {rel_error:.6e}" in capsys.readouterr().out


def _edit_meta(ds: Path, **changes) -> None:
    meta = json.loads((ds / "meta.json").read_text())
    meta.update(changes)
    (ds / "meta.json").write_text(
        json.dumps({k: v for k, v in meta.items() if v is not None})
    )


def test_reconstruct_meta_missing_key_is_data_error(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--T", "2"] + SMALL) == 0
    _edit_meta(ds, sigma=None)
    assert main(["reconstruct", str(ds)]) == 4
    err = capsys.readouterr().err
    assert err == f"error: {ds / 'meta.json'}: 'sigma': expected a finite number, got None\n"
    _edit_meta(ds, sigma="0.1")
    assert main(["reconstruct", str(ds)]) == 4
    err = capsys.readouterr().err
    assert err == f"error: {ds / 'meta.json'}: 'sigma': expected a finite number, got '0.1'\n"
    # an integer past float64 is not a number either, not an OverflowError
    (ds / "meta.json").write_text('{"T": 2, "sigma": 1%s, "seed": 1, "dims": [6, 4, 2]}' % ("0" * 400))
    assert main(["reconstruct", str(ds)]) == 4
    err = capsys.readouterr().err
    assert err == f"error: {ds / 'meta.json'}: 'sigma': expected a finite number, got 1{'0' * 400}\n"
    assert len(err.splitlines()) == 1
    assert not (ds / "report.json").exists()


def test_reconstruct_meta_negative_sigma_is_data_error(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--T", "2"] + SMALL) == 0
    _edit_meta(ds, sigma=-1.0)
    assert main(["reconstruct", str(ds)]) == 4
    err = capsys.readouterr().err
    assert err == f"error: {ds / 'meta.json'}: 'sigma' must be nonnegative, got -1.0\n"
    assert not (ds / "report.json").exists()


def test_reconstruct_meta_dims_mismatch_is_data_error(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--T", "2"] + SMALL) == 0
    _edit_meta(ds, dims=[6, 4, 3])
    assert main(["reconstruct", str(ds)]) == 4
    err = capsys.readouterr().err
    assert "dims [6, 4, 3] do not match the mask's [6, 4, 2]" in err
    assert len(err.splitlines()) == 1


def test_reconstruct_unrecoverable_exit_code(tmp_path, capsys):
    m, p, n, T = 5, 4, 2, 3
    a = random_tensor(m, m, n, 31)
    f = random_tensor(m, p, n, 32)
    mask = product_mask(m, p, n, range(m), [0, 2])  # columns 1, 3 unsampled
    samples = observe(evolve(a, f, T), mask, 0.0, 33)
    ds = tmp_path / "ds"
    save_sample_data(ds, samples)
    write_t3(ds / "A.t3", a)
    write_t3(ds / "F.t3", f)

    code = main(["reconstruct", str(ds)])
    assert code == 2
    assert "column(s) 1, 3" in capsys.readouterr().err
    assert not (ds / "estimate.t3").exists()

    code = main(["reconstruct", str(ds), "--allow-partial", "--out", str(tmp_path / "o")])
    assert code == 2  # still signals the failure, but writes the partial outputs
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["failed_columns"] == [1, 3]
    assert (tmp_path / "o" / "estimate.t3").exists()


def test_reconstruct_rejects_tol_outside_unit_interval(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--T", "2"] + SMALL) == 0
    for bad in ("2", "1", "0", "-0.5", "nan"):
        assert main(["reconstruct", str(ds), "--tol", bad]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: --tol must lie in (0, 1)")
        assert len(err.splitlines()) == 1
    assert not (ds / "report.json").exists()
    # checked before the dataset is read: a missing dataset is not reached
    assert main(["reconstruct", str(tmp_path / "nope"), "--tol", "2"]) == 3


def test_bad_thread_cap_is_config_error(tmp_path, monkeypatch, capsys):
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--T", "2"] + SMALL) == 0
    monkeypatch.setenv("DYNSAMP_THREADS", "abc")
    assert main(["reconstruct", str(ds)]) == 3
    err = capsys.readouterr().err
    assert "DYNSAMP_THREADS" in err and len(err.splitlines()) == 1
    argv = ["experiment", "--kind", "pointwise-gap", "--out", str(tmp_path / "e")]
    assert main(argv + SMALL) == 3
    assert "DYNSAMP_THREADS" in capsys.readouterr().err


def test_experiment_requires_kind(capsys):
    assert main(["experiment", "--out", "/tmp/x"]) == 3


def test_experiment_full_alpha_grid_point(tmp_path):
    out = tmp_path / "exp"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "kind": "recovery-vs-alpha",
                "m": 6, "p": 4, "n": 2,
                "alpha": [1.0], "T": 3, "trials": 2, "seed": 3,
            }
        )
    )
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "recovery-vs-alpha.csv").read_text().splitlines()
    assert rows[0] == "alpha,mean_rel_err,std_rel_err"
    assert float(rows[1].split(",")[1]) <= 1e-10


def test_experiment_thread_env_determinism(tmp_path, monkeypatch):
    argv = [
        "experiment", "--kind", "slab-dim1-dim3",
        "--m", "6", "--p", "4", "--n", "2", "--T", "3", "--alpha", "0.8",
        "--seed", "3",
    ]
    monkeypatch.setenv("DYNSAMP_THREADS", "1")
    assert main(argv + ["--out", str(tmp_path / "t1")]) == 0
    monkeypatch.setenv("DYNSAMP_THREADS", "8")
    assert main(argv + ["--out", str(tmp_path / "t8")]) == 0
    assert dir_bytes(tmp_path / "t1") == dir_bytes(tmp_path / "t8")


def test_unknown_flag_is_config_error(capsys):
    assert main(["experiment", "--bogus", "1"]) == 3


def test_outputs_identical_across_openblas_thread_counts(tmp_path, monkeypatch, openblas_threads):
    monkeypatch.delenv("DYNSAMP_THREADS", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"kind": "optimal-T", "T": [4, 8, 12], "sigma": [1e-3],
                    "trials": 2, "seed": 5})
    )
    outputs = []
    for blas in (1, 2):
        ds, exp = tmp_path / f"ds{blas}", tmp_path / f"exp{blas}"
        openblas_threads(blas)
        assert main(["simulate", "--out", str(ds), "--m", "32", "--n", "6", "--p", "16",
                     "--sigma", "1e-3", "--seed", "3"]) == 0
        assert main(["reconstruct", str(ds)]) == 0
        assert main(["experiment", "--config", str(cfg), "--out", str(exp)]) == 0
        outputs.append((dir_bytes(ds), dir_bytes(exp)))
    assert "estimate.t3" in outputs[0][0] and "optimal-T.csv" in outputs[0][1]
    assert outputs[0] == outputs[1]


def test_simulate_negative_seed_is_config_error(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["simulate", "--out", str(out), "--seed", "-1"]) == 3
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command,dims,size",
    [
        (["simulate", "--T", "1"], (300000, 300000, 300000), "192"),
        (["experiment", "--kind", "pointwise-gap"], (300000, 3, 300000), "192"),
        (["simulate", "--T", "1"], (3000000, 3, 3000000), "191,847"),
    ],
)
def test_oversized_dims_are_config_errors(tmp_path, capsys, command, dims, size):
    # 192 PiB is past any 57-bit address space: the check comes before any allocation.
    out = tmp_path / "out"
    m, p, n = dims
    assert main(command + ["--out", str(out), f"--m={m}", f"--p={p}", f"--n={n}"]) == 3
    assert capsys.readouterr().err == (
        f"error: dims {m}x{p}x{n} need a {size} PiB tensor, "
        "more than any 57-bit address space holds\n"
    )
    assert not out.exists()


def test_experiment_negative_seed_is_config_error(tmp_path, capsys):
    out = tmp_path / "exp"
    argv = ["experiment", "--kind", "condition-vs-T", "--T", "3", "--seed", "-1"]
    assert main(argv + ["--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not out.exists()


def test_reconstruct_bad_mask_sidecar_is_data_error(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--T", "2"] + SMALL) == 0
    sidecar = ds / "mask.t3.json"
    sidecar.write_text("{not json")
    assert main(["reconstruct", str(ds)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sidecar}: invalid JSON at line 1")
    assert len(err.splitlines()) == 1
    sidecar.write_text("[1, 2]")
    assert main(["reconstruct", str(ds)]) == 4
    assert capsys.readouterr().err == f"error: {sidecar}: expected a JSON object\n"
    assert not (ds / "report.json").exists()


NON_INTEGRAL = [("m", 6.7), ("T", 2.9), ("seed", 3.2), ("n", True), ("p", "4")]


def test_simulate_rejects_non_integral_config_values(tmp_path, capsys):
    for key, value in NON_INTEGRAL:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 6, "p": 4, "n": 2, "T": 2, key: value}))
        out = tmp_path / "ds"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: bad config value for {key!r}: expected an integer, got {value!r}\n"
        assert not out.exists()


def test_experiment_rejects_non_integral_config_values(tmp_path, capsys):
    base = {"kind": "condition-vs-T", "m": 6, "p": 4, "n": 2, "T": [1, 2]}
    for key, value in NON_INTEGRAL + [("T", [1, 2.9]), ("trials", 1.5)]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**base, key: value}))
        out = tmp_path / "exp"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 3
        bad = value[-1] if isinstance(value, list) else value
        err = capsys.readouterr().err
        assert err == f"error: bad config value for {key!r}: expected an integer, got {bad!r}\n"
        assert not out.exists()
    # integral floats are integers
    cfg.write_text(json.dumps({**base, "m": 6.0, "T": [1.0, 2], "seed": 3.0}))
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["m"], manifest["T"], manifest["seed"]) == (6, [1, 2], 3)


NON_FINITE = [True, "0.1", "inf", float("nan"), None]


@pytest.mark.parametrize("key", ["alpha", "sigma"])
@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize(
    "command,base",
    [
        ("simulate", {"m": 6, "p": 4, "n": 2, "T": 2}),
        ("experiment", {"kind": "pointwise-gap", "m": 6, "p": 4, "n": 2, "T": 2}),
    ],
)
def test_non_finite_float_config_values_are_config_errors(
    tmp_path, capsys, command, base, value, key
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**base, key: value}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: bad config value for {key!r}: expected a finite number, got {value!r}\n"
    assert not out.exists()


def test_config_number_past_float64_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 6, "p": 4, "n": 2, "T": 2, "sigma": 10**400}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: bad config value for 'sigma': expected a finite number, got {10**400!r}\n"
    assert not out.exists()


def test_non_finite_float_flags_are_config_errors(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out), "--sigma", "nan"] + SMALL) == 3
    assert capsys.readouterr().err == "error: bad config value for 'sigma': expected a finite number, got nan\n"
    argv = ["experiment", "--kind", "pointwise-gap", "--alpha", "inf", "--out", str(out)]
    assert main(argv + SMALL) == 3
    assert capsys.readouterr().err == "error: bad config value for 'alpha': expected a finite number, got inf\n"
    assert not out.exists()


# Flags whose values are finite but overflow float64, with the error each gives.
OVERFLOWS = {
    "noise": (
        ["--T", "2", "--sigma", "1e308"],
        r"step 0: the noise \(sigma=1e\+308\) overflows float64",
    ),
    "signal": (["--T", "2000"], r"step \d+: the signal overflows float64"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_simulate_overflow_is_config_error(tmp_path, capsys, case):
    flags, message = OVERFLOWS[case]
    out = tmp_path / "ds"
    assert main(["simulate", "--out", str(out)] + SMALL + flags) == 3
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize(
    "kind,case,message",
    [
        ("pointwise-gap", "noise", None),
        ("optimal-T", "signal", None),
        ("condition-vs-T", "signal", "the powers of the operator overflow float64 by T=2000"),
    ],
)
def test_experiment_overflow_is_config_error(tmp_path, capsys, kind, case, message):
    flags, step_message = OVERFLOWS[case]
    out = tmp_path / "exp"
    argv = ["experiment", "--kind", kind, "--trials", "1", "--out", str(out)]
    assert main(argv + SMALL + flags) == 3
    assert re.fullmatch(f"error: {message or step_message}\n", capsys.readouterr().err)
    assert not out.exists()


def run_capped(argv, cwd) -> subprocess.CompletedProcess:
    """``python -m dynsamp.cli argv`` in a child whose address space is capped
    at 1.5 GiB, with one OpenBLAS thread so that per-thread buffers do not
    count against the cap on a many-core host."""
    cap = 3 * 2**29

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "dynsamp.cli", *argv], cwd=cwd, env=env,
        capture_output=True, text=True, preexec_fn=limit, timeout=300,
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate"], r"step \d+: the signal overflows float64"),
        (["experiment", "--kind", "condition-vs-T"],
         "the powers of the operator overflow float64 by T=200000"),
    ],
)
def test_huge_horizon_fails_at_the_overflowing_step_under_a_memory_cap(tmp_path, argv, message):
    # Keeping all 200,000 steps of a 20x15x5 trajectory (or the 100x100 powers
    # of its operator) takes gigabytes; the signal overflows within a few
    # hundred steps, where the command stops.
    out = tmp_path / "huge"
    proc = run_capped(argv + ["--out", str(out), "--T", "200000"], tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert re.fullmatch(f"error: {message}\n", proc.stderr)
    assert not out.exists()


@pytest.mark.parametrize("argv", [["simulate"], ["experiment", "--kind", "pointwise-gap"]])
def test_a_signal_too_large_for_memory_is_a_config_error(tmp_path, argv):
    # 20 x 10^9 x 5 float64 values do not fit under the cap; the allocation
    # fails before anything is written.
    out = tmp_path / "wide"
    proc = run_capped(argv + ["--out", str(out), "--p", "1000000000"], tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert re.fullmatch(
        r"error: Unable to allocate [^\n]* shape \(20, 1000000000, 5\)[^\n]*\n", proc.stderr
    )
    assert not out.exists()


def test_a_dataset_too_large_for_memory_is_a_data_error(tmp_path):
    # Its one column system is 8022 x 20000 float64 values, 1.2 GiB: the
    # system fits under the cap, but one step's rows, gathered before they
    # are written into it, do not fit too.
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--m", "1", "--p", "1", "--n", "20000",
                 "--T", "1"]) == 0
    before = dir_bytes(ds)
    proc = run_capped(["reconstruct", str(ds)], tmp_path)
    assert proc.returncode == 4, proc.stderr
    assert re.fullmatch(
        r"error: Unable to allocate [^\n]* shape \(1, 8022, 20000\)[^\n]*\n", proc.stderr
    )
    assert dir_bytes(ds) == before


def test_reconstruct_overflowing_operator_is_data_error(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--T", "3"] + SMALL) == 0
    write_t3(ds / "A.t3", Tensor3(np.full((6, 6, 2), 1e200)))
    assert main(["reconstruct", str(ds)]) == 4
    err = capsys.readouterr().err
    assert err == f"error: {ds}: the powers of the operator overflow float64 by T=3\n"
    assert not (ds / "report.json").exists()


def test_reconstruct_overflowing_solve_is_data_error(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--T", "2"] + SMALL) == 0
    # Samples of alternating sign at the top of the float64 range, whose
    # least-squares solution does not fit in float64: the same solve on the
    # samples scaled by 2^-8 has an entry above 2^-8 times the largest float.
    obs = read_t3(ds / "obs_0.t3").data.copy()
    sampled = np.flatnonzero(obs)
    obs.flat[sampled] = 1.7e308 * (-1.0) ** np.arange(len(sampled))
    write_t3(ds / "obs_0.t3", Tensor3(obs))
    samples = load_sample_data(ds)
    scaled = SampleData(
        samples.mask, [Tensor3(np.ldexp(o.data, -8)) for o in samples.observations], 0.0, 0
    )
    estimate = reconstruct(read_t3(ds / "A.t3"), samples.mask, scaled).estimate
    assert np.max(np.abs(estimate.data)) > np.ldexp(np.finfo(np.float64).max, -8)
    assert main(["reconstruct", str(ds)]) == 4
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {re.escape(str(ds))}: column \\d+: the least-squares solve "
                        "overflows float64\n", err)
    assert not (ds / "report.json").exists()


def test_experiment_overflowing_solve_is_config_error(tmp_path, capsys):
    # Noise of sigma 3e307 stays finite, but the estimate it gives at T=4 and
    # alpha=0.3 reaches about 2^1026, beyond float64.
    out = tmp_path / "exp"
    argv = ["experiment", "--kind", "recovery-vs-alpha", "--m", "4", "--p", "3", "--n", "2",
            "--T", "4", "--trials", "1", "--alpha", "0.3", "--sigma", "3e307", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: column \d+: the least-squares solve overflows float64\n", err)
    assert not out.exists()


def test_experiment_relative_error_beyond_the_difference_range_fits(tmp_path):
    # At T=2 the estimate fits, but estimate minus signal does not: the
    # relative error, about 3.7e307, is formed without that difference.
    out = tmp_path / "exp"
    argv = ["experiment", "--kind", "recovery-vs-alpha", "--m", "4", "--p", "3", "--n", "2",
            "--T", "2", "--trials", "1", "--alpha", "0.3", "--sigma", "3e307", "--out", str(out)]
    assert main(argv) == 0
    text = (out / "recovery-vs-alpha.csv").read_text()
    assert 1e307 < float(text.splitlines()[1].split(",")[1]) < np.inf


def test_experiment_noise_near_1e200_is_no_overflow(tmp_path, capsys):
    # The squares of such residual entries overflow float64; the estimate
    # and the residual norms do not.
    out = tmp_path / "exp"
    argv = ["experiment", "--kind", "recovery-vs-alpha", "--m", "4", "--p", "3", "--n", "2",
            "--T", "2", "--trials", "1", "--alpha", "0.7", "--sigma", "1e200", "--out", str(out)]
    assert main(argv) == 0
    header, row = (out / "recovery-vs-alpha.csv").read_text().splitlines()
    assert header == "alpha,mean_rel_err,std_rel_err"
    assert 1e190 < float(row.split(",")[1]) < np.inf


@pytest.mark.parametrize("k", [600, -600])
def test_reconstruct_outputs_scale_exactly_with_the_data(tmp_path, k):
    # The squares of the residual entries overflow float64 at 2^600 and
    # underflow at 2^-600; the residual norms are scaled before squaring.
    ds, base = tmp_path / "ds", tmp_path / "base"
    assert main(["simulate", "--out", str(ds), "--T", "4", "--sigma", "1e-3"] + SMALL) == 0
    assert main(["reconstruct", str(ds), "--out", str(base)]) == 0
    for name in ["F.t3"] + [f"obs_{t}.t3" for t in range(4)]:
        write_t3(ds / name, Tensor3(np.ldexp(read_t3(ds / name).data, k)))
    assert main(["reconstruct", str(ds)]) == 0
    want = json.loads((base / "report.json").read_text())
    got = json.loads((ds / "report.json").read_text())
    assert min(got["residuals"]) > 0
    assert got["residuals"] == [float(np.ldexp(r, k)) for r in want["residuals"]]
    assert {**got, "residuals": None} == {**want, "residuals": None}
    estimate = read_t3(ds / "estimate.t3").data
    assert np.array_equal(estimate, np.ldexp(read_t3(base / "estimate.t3").data, k))


@pytest.mark.parametrize("name", ["A.t3", "F.t3", "obs_0.t3", "mask.t3"])
def test_reconstruct_complex_t3_file_is_data_error(tmp_path, capsys, name):
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--T", "2"] + SMALL) == 0
    # A well-formed file of the retired complex kind: two values per line.
    path = ds / name
    header, *values = path.read_text().splitlines()
    path.write_text("\n".join([header.replace("real", "complex")]
                              + [f"{v} 0.0" for v in values]) + "\n")
    assert main(["reconstruct", str(ds)]) == 4
    assert capsys.readouterr().err == f"error: {path}: line 1: kind must be 'real', got 'complex'\n"
    assert not (ds / "report.json").exists()


def test_simulate_needs_a_single_point(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "ds"
    for key, grid in (("T", [2, 3]), ("alpha", [0.3, 0.6]), ("sigma", [0.0, 1e-3])):
        cfg.write_text(json.dumps({"m": 6, "p": 4, "n": 2, key: grid}))
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: simulate needs a single {key}, got {grid}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["mask.t3.json", "obs_0.t3", "meta.json"])
def test_reconstruct_non_ascii_byte_names_the_file(tmp_path, capsys, name):
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--T", "2"] + SMALL) == 0
    path = ds / name
    lines = path.read_bytes().split(b"\n")
    lines[1] += "café".encode()
    path.write_bytes(b"\n".join(lines))
    assert main(["reconstruct", str(ds)]) == 4
    assert capsys.readouterr().err == f"error: {path}: line 2: non-ASCII byte 0xc3\n"
    assert not (ds / "report.json").exists()


# SHA-256 of the dataset files that come from the RNG and JSON alone, written
# by `simulate` at 6x4x2, T=3, alpha=0.6, sigma=1e-3, seed 3.
SIMULATE_SHA256 = {
    "A.t3": "4f540ed8e28cba5de92840a6002af5c876413243c4550d8846fa5fb200ce9c66",
    "F.t3": "eb7a655ee08ce3b2ed4457007a9f1302b9c13523ea7aacdc92c7df7fd44e9fbb",
    "manifest.json": "65f2592c334754256a35d61b4054485aab93b10fd7fbd8fc0e3ae7d4e9354e6b",
    "mask.t3": "5b5fe46c8e3b74f4a34e1b70734e0b3974af4886aeccb6b2d5a1f57ba15a98bb",
    "mask.t3.json": "77f34d8efc998ae19c03a9086f0c33df52d2f55247063f2dbcad8d7a597251bc",
    "meta.json": "11bf2d29aca087c9831a648edda85e0d0537c97d7534cee4e8a26f06ee426f32",
}


def test_simulate_files_are_pinned(tmp_path):
    ds = tmp_path / "ds"
    argv = ["simulate", "--out", str(ds), "--m", "6", "--p", "4", "--n", "2",
            "--T", "3", "--alpha", "0.6", "--sigma", "1e-3", "--seed", "3"]
    assert main(argv) == 0
    for name, want in SIMULATE_SHA256.items():
        assert hashlib.sha256((ds / name).read_bytes()).hexdigest() == want, name
    # the observations pass through the FFT, so they are rebuilt from the
    # manifest's seeds rather than hashed
    man = json.loads((ds / "manifest.json").read_text())
    a = random_tensor(6, 6, 2, man["operator_seed"])
    f = random_tensor(6, 4, 2, man["signal_seed"])
    mask = bernoulli_mask(6, 4, 2, 0.6, man["mask_seed"])
    samples = observe(evolve(a, f, 3), mask, 1e-3, man["noise_seed"])
    for t, obs in enumerate(samples.observations):
        assert (ds / f"obs_{t}.t3").read_text() == dumps_t3(obs)
    assert sorted(f.name for f in ds.iterdir()) == sorted(
        [*SIMULATE_SHA256, "obs_0.t3", "obs_1.t3", "obs_2.t3"]
    )


FUZZ_FILES = ("A.t3", "F.t3", "mask.t3", "mask.t3.json", "meta.json", "obs_0.t3", "obs_1.t3")
FUZZ_TOKENS = (b"1e308", b"null", b"[1,2]")


@functools.lru_cache(maxsize=1)
def _fuzz_dataset() -> tuple:
    """The files of a 4x3x2, T=2 dataset, simulated once."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["simulate", "--out", tmp, "--m", "4", "--p", "3", "--n", "2", "--T", "2"]
        assert main(argv) == 0
        return tuple(dir_bytes(Path(tmp)).items())


def _mutate(data: bytes, op: str, pos: int, arg) -> bytes:
    pos %= len(data) + 1
    if op == "edit":
        return data[:pos] + bytes([arg]) + data[pos + 1:]
    if op == "delete":
        return data[:pos] + data[pos + arg:]
    if op == "truncate":
        return data[:pos]
    if op == "insert":
        return data[:pos] + arg + data[pos:]
    lines = data.split(b"\n")  # "line": the token replaces one line
    lines[pos % len(lines)] = arg
    return b"\n".join(lines)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(FUZZ_FILES),
    mutation=st.one_of(
        st.tuples(st.just("edit"), st.integers(0, 2000), st.integers(0, 255)),
        st.tuples(st.just("delete"), st.integers(0, 2000), st.integers(1, 64)),
        st.tuples(st.just("truncate"), st.integers(0, 2000), st.none()),
        st.tuples(
            st.sampled_from(["insert", "line"]), st.integers(0, 2000), st.sampled_from(FUZZ_TOKENS)
        ),
    ),
)
# line 3 of obs_0.t3 is a sampled value: a finite value that overflows the solve
@example(name="obs_0.t3", mutation=("line", 2, b"1e308"))
def test_reconstruct_fuzzed_dataset_exits_cleanly(name, mutation):
    files = dict(_fuzz_dataset())
    files[name] = _mutate(files[name], *mutation)
    with tempfile.TemporaryDirectory() as tmp:
        for fname, data in files.items():
            (Path(tmp) / fname).write_bytes(data)
        assert main(["reconstruct", tmp]) in (0, 2, 4)
