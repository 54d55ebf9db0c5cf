import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from dynsamp import (
    evolve,
    lattice_mask,
    observe,
    random_tensor,
    read_t3,
    save_sample_data,
    write_t3,
)
from dynsamp.cli import main


def dir_bytes(path: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(path.iterdir()) if f.is_file()}


SMALL = ["--m", "6", "--p", "4", "--n", "2", "--seed", "3"]


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
    out = tmp_path / "ds"
    main(["simulate", "--out", str(out), "--T", "2"] + SMALL)
    (out / "obs_1.t3").unlink()
    assert main(["reconstruct", str(out)]) == 4


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
    assert err == f"error: {ds / 'meta.json'}: missing 'sigma'\n"
    _edit_meta(ds, sigma="0.1")
    assert main(["reconstruct", str(ds)]) == 4
    assert "'sigma' must be a number" in capsys.readouterr().err
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
    mask = lattice_mask(m, p, n, range(m), [0, 2])  # columns 1, 3 unsampled
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


def _cli(args, openblas_threads: int, cwd: Path) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(openblas_threads))
    env.pop("DYNSAMP_THREADS", None)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "dynsamp.cli", *args], cwd=cwd, env=env, check=True,
        stdout=subprocess.DEVNULL,
    )


def test_outputs_identical_across_openblas_thread_counts(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"kind": "optimal-T", "T": [4, 8, 12], "sigma": [1e-3],
                    "trials": 2, "seed": 5})
    )
    outputs = []
    for blas in (1, 2):
        ds, exp = tmp_path / f"ds{blas}", tmp_path / f"exp{blas}"
        _cli(["simulate", "--out", str(ds), "--m", "32", "--n", "6", "--p", "16",
              "--sigma", "1e-3", "--seed", "3"], blas, tmp_path)
        _cli(["reconstruct", str(ds)], blas, tmp_path)
        _cli(["experiment", "--config", str(cfg), "--out", str(exp)], blas, tmp_path)
        outputs.append((dir_bytes(ds), dir_bytes(exp)))
    assert "estimate.t3" in outputs[0][0] and "optimal-T.csv" in outputs[0][1]
    assert outputs[0] == outputs[1]


def test_simulate_negative_seed_is_config_error(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["simulate", "--out", str(out), "--seed", "-1"]) == 3
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
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
