import hashlib
import json

import numpy as np
import pytest

from dynsamp import (
    bernoulli_mask,
    evolve,
    exclude_slab,
    observe,
    random_tensor,
    reconstruct,
    system_condition,
)
from dynsamp.experiments import (
    STREAM_MASK,
    STREAM_NOISE,
    STREAM_OPERATOR,
    STREAM_SIGNAL,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    derive_seed,
    plot_from_csv,
    rows_to_csv_text,
    run_experiment,
    write_experiment,
)
from dynsamp.reconstruct import _condition_sweep, reconstruct_batch
from dynsamp.svgplot import render_plot

SMALL = {"m": 6, "p": 4, "n": 2, "seed": 9, "trials": 2}


def test_config_defaults_per_kind():
    cfg = config_from_dict({"kind": "recovery-vs-alpha"})
    assert cfg.alphas[0] == 0.05 and cfg.alphas[-1] == 1.0 and len(cfg.alphas) == 20
    assert cfg.Ts == [5] and cfg.trials == 10
    cfg = config_from_dict({"kind": "optimal-T"})
    assert cfg.Ts == list(range(1, 16))
    assert cfg.sigmas == [0.0, 1e-4, 1e-3, 1e-2]
    cfg = config_from_dict({"kind": "conjecture-dim2"})
    assert cfg.alphas == [1.0]
    cfg = config_from_dict({"kind": "slab-dim1-dim3"})
    assert cfg.alphas == [0.5]


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict({"kind": "optimal-T", "bogus": 1})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "no-such-kind"})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "optimal-T", "trials": 0})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "optimal-T", "alpha": 1.5})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "optimal-T", "T": []})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "recovery-vs-alpha", "T": [1, 2]})
    with pytest.raises(ConfigError):
        config_from_dict({})
    with pytest.raises(ConfigError, match=r"^dims must be positive, got 6 0 2$"):
        config_from_dict({"kind": "optimal-T", "m": 6, "p": 0, "n": 2})
    with pytest.raises(ConfigError, match=r"^T values must be >= 1, got \[2, 0\]$"):
        config_from_dict({"kind": "optimal-T", "T": [2, 0]})
    with pytest.raises(ConfigError, match=r"^sigma values must be nonnegative, got \[0.0, -0.001\]$"):
        config_from_dict({"kind": "optimal-T", "sigma": [0.0, -1e-3]})


# The (kind, grid) pairs that may hold several values; every other pair needs one.
SEVERAL = {("recovery-vs-alpha", "alpha"), ("optimal-T", "T"), ("optimal-T", "sigma"),
           ("condition-vs-T", "T")}
TWO_VALUES = {
    "T": ("Ts", [2, 3]), "alpha": ("alphas", [0.4, 0.6]), "sigma": ("sigmas", [0.0, 1e-3]),
}


@pytest.mark.parametrize("name", sorted(TWO_VALUES))
@pytest.mark.parametrize("kind", [
    "recovery-vs-alpha", "pointwise-gap", "optimal-T", "condition-vs-T",
    "conjecture-dim2", "slab-dim1-dim3",
])
def test_grid_rule_of_every_kind(kind, name):
    field_name, values = TWO_VALUES[name]
    raw = {"kind": kind, name: values, **SMALL}
    if (kind, name) in SEVERAL:
        assert getattr(config_from_dict(raw), field_name) == values
    else:
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert str(err.value) == f"{kind} needs a single {name}, got {values}"


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, 0) == derive_seed(1, 0)
    assert derive_seed(1, 0) != derive_seed(1, 1)
    assert derive_seed(1, 2, 0, 0) != derive_seed(1, 2, 0, 1)
    assert derive_seed(1, 2, 3, 4) != derive_seed(2, 2, 3, 4)


def test_recovery_vs_alpha_full_sampling_is_exact():
    cfg = config_from_dict({"kind": "recovery-vs-alpha", "alpha": [1.0], **SMALL})
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0]["mean_rel_err"] <= 1e-10


def test_recovery_vs_alpha_row_grid_order():
    cfg = config_from_dict(
        {"kind": "recovery-vs-alpha", "alpha": [0.3, 0.9, 0.6], **SMALL}
    )
    rows = run_experiment(cfg)
    assert [r["alpha"] for r in rows] == [0.3, 0.9, 0.6]


def test_pointwise_gap_covers_every_entry():
    cfg = config_from_dict({"kind": "pointwise-gap", "alpha": 0.9, "T": 4, **SMALL})
    rows = run_experiment(cfg)
    assert len(rows) == 6 * 4 * 2
    assert [r["index"] for r in rows] == list(range(48))
    assert all(r["abs_gap"] >= 0.0 for r in rows)


def test_optimal_T_grid_order():
    cfg = config_from_dict(
        {"kind": "optimal-T", "T": [1, 3], "sigma": [0.0, 1e-3], "alpha": 0.8, **SMALL}
    )
    rows = run_experiment(cfg)
    assert [(r["T"], r["sigma"]) for r in rows] == [
        (1, 0.0), (1, 1e-3), (3, 0.0), (3, 1e-3),
    ]


def test_condition_vs_T_is_nondecreasing_locally():
    cfg = config_from_dict(
        {"kind": "condition-vs-T", "T": [2, 6], "alpha": 0.8, **SMALL}
    )
    rows = run_experiment(cfg)
    assert rows[0]["K"] >= 1.0
    assert rows[1]["K"] >= rows[0]["K"]


def test_conjecture_dim2_every_exclusion_fails():
    cfg = config_from_dict({"kind": "conjecture-dim2", **SMALL})
    rows = run_experiment(cfg)
    assert len(rows) == 4
    assert all(r["rel_err"] > 0.1 for r in rows)


def test_slab_dim1_dim3_recovers():
    cfg = config_from_dict({"kind": "slab-dim1-dim3", "alpha": 0.8, "T": 4, **SMALL})
    rows = run_experiment(cfg)
    assert len(rows) == 6 + 2
    assert all(r["rel_err"] <= 1e-9 for r in rows)
    modes = [r["mode"] for r in rows]
    assert modes == [1] * 6 + [3] * 2


def test_threads_do_not_change_rows():
    cfg = config_from_dict(
        {"kind": "recovery-vs-alpha", "alpha": [0.4, 0.8], **SMALL}
    )
    r1 = run_experiment(cfg, threads=1)
    r8 = run_experiment(cfg, threads=8)
    assert r1 == r8


def test_csv_text_deterministic_and_parseable():
    rows = [{"alpha": 0.1, "mean_rel_err": 1.2345678901234e-11, "std_rel_err": 0.5}]
    text = rows_to_csv_text(["alpha", "mean_rel_err", "std_rel_err"], rows)
    assert text.splitlines()[0] == "alpha,mean_rel_err,std_rel_err"
    assert float(text.splitlines()[1].split(",")[1]) == 1.2345678901234e-11
    assert text == rows_to_csv_text(["alpha", "mean_rel_err", "std_rel_err"], rows)


def test_write_experiment_outputs_and_replot(tmp_path):
    cfg = config_from_dict(
        {"kind": "condition-vs-T", "T": [1, 2, 3], "alpha": 0.9, **SMALL,
         "out": str(tmp_path)}
    )
    paths = write_experiment(cfg)
    for key in ("csv", "svg", "manifest"):
        assert paths[key].exists()
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["kind"] == "condition-vs-T"
    assert manifest["T"] == [1, 2, 3]
    assert manifest["columns"] == ["T", "K"]
    assert "seed_derivation" in manifest
    # the plot is a pure function of the CSV
    before = paths["svg"].read_bytes()
    plot_from_csv(cfg.kind, paths["csv"], paths["svg"])
    assert paths["svg"].read_bytes() == before


def test_write_experiment_rerun_byte_identical(tmp_path):
    spec = {"kind": "conjecture-dim2", **SMALL}
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    write_experiment(config_from_dict({**spec, "out": str(out_a)}))
    write_experiment(config_from_dict({**spec, "out": str(out_b)}), threads=4)
    for name in ("conjecture-dim2.csv", "conjecture-dim2.svg", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_experiment_config_validate_direct():
    cfg = ExperimentConfig(kind="optimal-T", Ts=[1, 2], alphas=[0.5], sigmas=[0.0])
    cfg.validate()
    cfg.trials = 0
    with pytest.raises(ConfigError):
        cfg.validate()


# Small fixed CSV per kind; series values are out of lexical order on purpose.
PLOT_CSVS = {
    "recovery-vs-alpha": (
        "alpha,mean_rel_err,std_rel_err\n"
        "0.1,0.9,0.05\n0.5,0.2,0.01\n1.0,1e-15,0.0\n"
    ),
    "pointwise-gap": "index,abs_gap\n0,1e-12\n1,0.0\n2,0.3\n3,2e-09\n",
    "optimal-T": (
        "T,sigma,mean_rel_err\n"
        "1,0.0,0.5\n1,1e-05,0.6\n1,0.0001,0.7\n"
        "3,0.0,1e-10\n3,1e-05,0.0001\n3,0.0001,0.001\n"
    ),
    "condition-vs-T": "T,K\n1,1.5\n2,30.0\n4,1000000.0\n",
    "conjecture-dim2": "excluded_j,rel_err\n0,0.31\n1,0.27\n2,0.4\n",
    "slab-dim1-dim3": (
        "mode,excluded_index,rel_err\n"
        "1,0,1e-13\n1,1,2e-12\n1,2,0.0\n3,0,5e-14\n3,1,1e-12\n"
    ),
}

# SHA-256 of each plot of PLOT_CSVS; the plot is pure Python, so portable.
PLOT_SHA256 = {
    "recovery-vs-alpha": "abfbe16f202862fc52268a7c1c4c936497c3db2d10c84d6f448af5cb1424d640",
    "pointwise-gap": "5fad9839028be25a89f544df233f6f15afcbdf89b5d8abfe781fb6add7abf2a3",
    "optimal-T": "3f662ca995a78f4e61f7bfe311ba6617cdaf63fddb7be03b509f9f71f09d5594",
    "condition-vs-T": "4d5f17b4b665b90a670281a28895a116449932e35d2c69cd4db9c3c43691baaf",
    "conjecture-dim2": "d09d06e7073a73c11ec24a081da811c3c7ce5d6bcc6ea270016598e81fe28be8",
    "slab-dim1-dim3": "d9e52c58cf01bd942581093244d2ded1aafee39cfee6dd60983655ba0e0257cf",
}


@pytest.mark.parametrize("kind", sorted(PLOT_CSVS))
def test_plot_bytes_are_pinned(kind, tmp_path):
    csv_path, svg_path = tmp_path / "in.csv", tmp_path / "out.svg"
    csv_path.write_text(PLOT_CSVS[kind])
    plot_from_csv(kind, csv_path, svg_path)
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == PLOT_SHA256[kind]


def test_plot_rejects_unknown_kind(tmp_path):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(PLOT_CSVS["condition-vs-T"])
    with pytest.raises(ConfigError, match="no-such-kind"):
        plot_from_csv("no-such-kind", csv_path, tmp_path / "out.svg")


def test_plot_of_a_csv_with_no_rows_is_an_error(tmp_path):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(PLOT_CSVS["condition-vs-T"].splitlines()[0] + "\n")
    with pytest.raises(ValueError, match="^nothing to plot$"):
        plot_from_csv("condition-vs-T", csv_path, tmp_path / "out.svg")
    assert not (tmp_path / "out.svg").exists()


def test_plot_of_a_flat_axis_too_narrow_for_its_magnitude_ends():
    # At 3e15 a float64 step is 0.5, so the 0.2 tick step rounds away: the
    # tick count of the range ends the loop.
    svg = render_plot([("", [3e15, 3e15], [1.0, 2.0])], title="t", xlabel="x", ylabel="y")
    assert svg.endswith("</svg>\n") and ">3e+15</text>" in svg


@pytest.mark.parametrize("xs, ys, axis", [([1e16, 1e16], [1.0, 2.0], "x"),
                                          ([1.0, 2.0], [1e16, 1e16], "y")])
def test_plot_of_a_flat_axis_with_no_room_between_floats_is_an_error(xs, ys, axis):
    # At 1e16 the axis padding rounds away: the range has no width.
    with pytest.raises(ValueError, match=rf"^{axis} axis: the range 1e\+16 to 1e\+16 is too narrow "
                                         r"for its magnitude$"):
        render_plot([("", xs, ys)], title="t", xlabel="x", ylabel="y")


def _hand_error(cfg, mask, T, sigma, noise_key):
    """One reconstruction error rebuilt from SEED_RULE alone."""
    m, p, n = cfg.m, cfg.p, cfg.n
    a = random_tensor(m, m, n, derive_seed(cfg.seed, STREAM_OPERATOR))
    f = random_tensor(m, p, n, derive_seed(cfg.seed, STREAM_SIGNAL))
    samples = observe(
        evolve(a, f, T), mask, sigma, derive_seed(cfg.seed, STREAM_NOISE, *noise_key)
    )
    return reconstruct(a, mask, samples, ground_truth=f, allow_partial=True).rel_error


def _hand_mask(cfg, alpha, grid_index=0, trial=0):
    seed = derive_seed(cfg.seed, STREAM_MASK, grid_index, trial)
    return bernoulli_mask(cfg.m, cfg.p, cfg.n, alpha, seed)


def test_seed_rule_regenerates_a_recovery_vs_alpha_row():
    cfg = config_from_dict(
        {"kind": "recovery-vs-alpha", "alpha": [0.3, 0.7], "sigma": 1e-3, **SMALL}
    )
    errs = np.array([
        _hand_error(cfg, _hand_mask(cfg, 0.7, 1, r), 5, 1e-3, (1, r))
        for r in range(cfg.trials)
    ])
    want = {"alpha": 0.7, "mean_rel_err": float(errs.mean()), "std_rel_err": float(errs.std())}
    assert run_experiment(cfg)[1] == want


def test_seed_rule_regenerates_an_optimal_T_row():
    cfg = config_from_dict(
        {"kind": "optimal-T", "T": [2, 4], "sigma": [0.0, 1e-3], "alpha": 0.8, **SMALL}
    )
    # masks depend on the trial only; noise on the sigma index and the trial.
    # The run solves every sigma and trial of one T together, sigma-major.
    a = random_tensor(cfg.m, cfg.m, cfg.n, derive_seed(cfg.seed, STREAM_OPERATOR))
    f = random_tensor(cfg.m, cfg.p, cfg.n, derive_seed(cfg.seed, STREAM_SIGNAL))
    traj = evolve(a, f, 2)
    problems = []
    for s, sigma in enumerate(cfg.sigmas):
        for r in range(cfg.trials):
            mask = _hand_mask(cfg, 0.8, 0, r)
            noise = derive_seed(cfg.seed, STREAM_NOISE, s, r)
            problems.append(observe(traj, mask, sigma, noise))
    reports = reconstruct_batch(a, problems, allow_partial=True, ground_truth=f)
    errs = np.array([report.rel_error for report in reports[cfg.trials:]])
    want = {"T": 2, "sigma": 1e-3, "mean_rel_err": float(errs.mean())}
    assert run_experiment(cfg)[1] == want


def test_seed_rule_regenerates_a_condition_vs_T_row():
    # a row regenerates bit for bit through the sweep over the run's T grid,
    # and to roundoff (c*m*n*eps*K relative, c = 10) from a lone system_condition
    cfg = config_from_dict({"kind": "condition-vs-T", "T": [1, 2, 4, 6], "alpha": 0.7, **SMALL})
    a = random_tensor(cfg.m, cfg.m, cfg.n, derive_seed(cfg.seed, STREAM_OPERATOR))
    mask = _hand_mask(cfg, 0.7)
    rows = run_experiment(cfg)
    assert [row["T"] for row in rows] == cfg.Ts
    eps = np.finfo(np.float64).eps
    for row, (_, K) in zip(rows, _condition_sweep(a, mask, cfg.Ts)):
        assert K == row["K"]
        lone = system_condition(a, mask, row["T"])[1]
        assert abs(lone - K) <= 10 * cfg.m * cfg.n * eps * K * K


def test_condition_vs_T_csv_is_identical_at_one_and_three_threads(tmp_path):
    raw = {"kind": "condition-vs-T", "T": [6, 1, 3, 6], "alpha": 0.7, **SMALL}
    texts = []
    for threads in (1, 3):
        cfg = config_from_dict({**raw, "out": str(tmp_path / str(threads))})
        texts.append(write_experiment(cfg, threads)["csv"].read_bytes())
    assert texts[0] == texts[1]


def test_seed_rule_regenerates_a_conjecture_dim2_row():
    cfg = config_from_dict({"kind": "conjecture-dim2", "sigma": 1e-3, **SMALL})
    mask = exclude_slab(_hand_mask(cfg, 1.0), 2, 3)
    want = {"excluded_j": 3, "rel_err": _hand_error(cfg, mask, 5, 1e-3, (3, 0))}
    assert run_experiment(cfg)[3] == want


def test_seed_rule_regenerates_a_slab_dim1_dim3_row():
    cfg = config_from_dict(
        {"kind": "slab-dim1-dim3", "alpha": 0.6, "T": 3, "sigma": 1e-3, **SMALL}
    )
    mask = exclude_slab(_hand_mask(cfg, 0.6), 3, 1)
    want = {"mode": 3, "excluded_index": 1, "rel_err": _hand_error(cfg, mask, 3, 1e-3, (3, 1))}
    assert run_experiment(cfg)[cfg.m + 1] == want
