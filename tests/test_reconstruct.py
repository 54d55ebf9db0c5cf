import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynsamp import (
    SampleData,
    Tensor3,
    UnrecoverableColumnError,
    bernoulli_mask,
    default_solver_tol,
    evolve,
    exclude_slab,
    fro_norm,
    lattice_mask,
    observe,
    random_tensor,
    reconstruct,
    rel_error,
    solve_column,
    system_condition,
)
from dynsamp.reconstruct import ColumnSystem, assemble_column_system, reconstruct_batch
from oracles import (
    brute_force_estimate,
    frequency_column_matrix,
    identity_tensor,
    mask_conv_matrix,
    materialized_sampling_map,
)


def make_instance(m, p, n, T, alpha, seed, sigma=0.0):
    a = random_tensor(m, m, n, seed)
    f = random_tensor(m, p, n, seed + 1)
    mask = bernoulli_mask(m, p, n, alpha, seed + 2)
    samples = observe(evolve(a, f, T), mask, sigma, seed + 3)
    return a, f, mask, samples


# -- assembly -------------------------------------------------------------------


def test_full_mask_identity_operator_gives_identity_matrix():
    m, p, n = 4, 3, 2
    a = identity_tensor(m, n)
    f = random_tensor(m, p, n, 7)
    mask = bernoulli_mask(m, p, n, 1.0, 1)
    samples = observe(evolve(a, f, 1), mask, 0.0, 1)
    system = assemble_column_system(a, mask, samples, 0)
    assert system.matrix.dtype == np.float64
    assert np.array_equal(system.matrix, np.eye(m * n))


def test_unsampled_column_gives_zero_matrix():
    m, p, n = 4, 3, 2
    a = random_tensor(m, m, n, 8)
    f = random_tensor(m, p, n, 9)
    mask = lattice_mask(m, p, n, range(m), [0, 2])  # column 1 never sampled
    samples = observe(evolve(a, f, 2), mask, 0.0, 1)
    system = assemble_column_system(a, mask, samples, 1)
    assert not system.matrix.any()


def test_forward_consistency_ground_truth_is_feasible():
    a, f, mask, samples = make_instance(4, 3, 2, 2, 0.7, 500)
    for j in range(3):
        system = assemble_column_system(a, mask, samples, j)
        xj = f.data[:, j, :].flatten(order="F")
        gap = np.linalg.norm(system.matrix @ xj - system.rhs)
        assert gap <= 1e-9 * max(1.0, np.linalg.norm(system.rhs))


def test_assemble_validates_inputs():
    a, f, mask, samples = make_instance(4, 3, 2, 2, 0.7, 510)
    with pytest.raises(IndexError):
        assemble_column_system(a, mask, samples, 3)
    other_mask = bernoulli_mask(4, 3, 2, 0.7, 999)
    with pytest.raises(ValueError):
        assemble_column_system(a, other_mask, samples, 0)


def test_empty_column_has_zero_conv_matrix():
    mask = lattice_mask(3, 4, 5, range(3), [0, 1, 3])
    assert not mask_conv_matrix(mask, 2).any()
    assert mask_conv_matrix(mask, 0).any()


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 4),
    p=st.integers(1, 4),
    n=st.integers(1, 4),
    T=st.integers(1, 5),
    alpha=st.sampled_from([0.3, 0.5, 0.8, 1.0]),
    seed=st.integers(0, 2**32),
)
# The T=1 instance has rank-deficient columns (test_rank_deficient_columns_flagged).
@example(m=4, p=3, n=2, T=1, alpha=0.5, seed=610)
@example(m=5, p=4, n=3, T=2, alpha=0.3, seed=650)
@example(m=4, p=3, n=4, T=4, alpha=0.6, seed=660)
@example(m=6, p=3, n=2, T=5, alpha=0.4, seed=670)
def test_spatial_system_matches_frequency_oracle_singular_values(m, p, n, T, alpha, seed):
    # (1/n) C(j) D(t) is unitarily similar to the sampled rows of bcirc(A)^t,
    # so both column systems share their singular values, padded with zeros
    # where a column has fewer rows than unknowns.
    a, f, mask, samples = make_instance(m, p, n, T, alpha, seed)
    for j in range(p):
        spatial = assemble_column_system(a, mask, samples, j).matrix
        if not spatial.any():
            continue
        s_freq = np.linalg.svd(frequency_column_matrix(a, mask, T, j), compute_uv=False)
        s = np.zeros(m * n)
        s_sp = np.linalg.svd(spatial, compute_uv=False)
        s[: s_sp.size] = s_sp
        np.testing.assert_allclose(s, s_freq, rtol=1e-10, atol=1e-12 * s_freq[0])


# -- solve_column -----------------------------------------------------------------


def test_solve_identity_system():
    m, p, n = 4, 3, 2
    a = identity_tensor(m, n)
    f = random_tensor(m, p, n, 11)
    mask = bernoulli_mask(m, p, n, 1.0, 1)
    samples = observe(evolve(a, f, 1), mask, 0.0, 1)
    system = assemble_column_system(a, mask, samples, 2)
    x, rank, kappa, residual = solve_column(system)
    assert np.allclose(x, system.rhs, atol=1e-12)
    assert rank == m * n
    assert kappa == pytest.approx(1.0)
    assert residual <= 1e-12
    assert np.allclose(x, f.data[:, 2, :].flatten(order="F"), atol=1e-10)


def test_solve_zero_matrix_raises():
    m, p, n = 4, 3, 2
    a = random_tensor(m, m, n, 12)
    f = random_tensor(m, p, n, 13)
    mask = lattice_mask(m, p, n, range(m), [0, 2])
    samples = observe(evolve(a, f, 2), mask, 0.0, 1)
    system = assemble_column_system(a, mask, samples, 1)
    with pytest.raises(UnrecoverableColumnError) as err:
        solve_column(system)
    assert err.value.columns == (1,)


def test_solve_matches_materialized_map_pseudoinverse():
    a, f, mask, samples = make_instance(4, 3, 2, 4, 0.6, 520)
    S = materialized_sampling_map(a, mask, samples.horizon)
    assert np.linalg.matrix_rank(S) == 24  # precondition: unique solution
    brute = brute_force_estimate(a, mask, samples)
    for j in range(3):
        system = assemble_column_system(a, mask, samples, j)
        x, *_ = solve_column(system)
        want = brute[:, j, :].flatten(order="F")
        assert np.linalg.norm(x - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


def test_each_right_hand_side_is_scaled_on_its_own():
    # One shared matrix, right-hand sides 2^1200 apart: each is solved at its
    # own scale, so neither overflows nor underflows.
    a, _, mask, samples = make_instance(6, 4, 2, 3, 0.7, 650, sigma=1e-3)
    system = assemble_column_system(a, mask, samples, 0)
    pair = np.stack([system.rhs, system.rhs], axis=1)
    x, rank, kappa, residual = solve_column(ColumnSystem(0, system.matrix, pair))
    scale = np.ldexp(1.0, [600, -600])
    xs, rank2, kappa2, residuals = solve_column(ColumnSystem(0, system.matrix, pair * scale))
    assert np.array_equal(xs, x * scale)
    assert np.array_equal(residuals, residual * scale)
    assert (rank2, kappa2) == (rank, kappa)


def test_tol_outside_unit_interval_rejected():
    a, f, mask, samples = make_instance(4, 3, 2, 3, 0.7, 515)
    system = assemble_column_system(a, mask, samples, 0)
    for bad in (1.5, 1.0, 0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            solve_column(system, tol=bad)
        with pytest.raises(ValueError, match="tol"):
            reconstruct(a, mask, samples, tol=bad)
        with pytest.raises(ValueError, match="tol"):
            system_condition(a, mask, 3, tol=bad)
    _, rank, _, _ = solve_column(system, tol=0.5)
    assert rank >= 1


def _gelsd(system, tol):
    x, _, rank, s = np.linalg.lstsq(system.matrix, system.rhs, rcond=tol)
    return x, int(rank), float(s[0] / s[rank - 1])


@pytest.mark.parametrize(
    "kind, dims, tol",
    [
        ("full-rank", (4, 3, 2, 4, 0.6, 700), None),
        ("underdetermined", (5, 3, 4, 1, 0.5, 710), None),
        ("rank-deficient", (4, 3, 2, 4, 0.6, 700), 0.5),
    ],
)
def test_solve_column_matches_gelsd(kind, dims, tol):
    a, f, mask, samples = make_instance(*dims, sigma=1e-2)
    mn = dims[0] * dims[2]
    for j in range(dims[1]):
        system = assemble_column_system(a, mask, samples, j)
        rows = system.matrix.shape[0]
        x, rank, kappa, residual = solve_column(system, tol)
        x_ref, rank_ref, kappa_ref = _gelsd(system, tol)
        assert rank == rank_ref
        assert {
            "full-rank": rank == mn,
            "underdetermined": 0 < rows < mn,
            "rank-deficient": rank < min(rows, mn),
        }[kind]
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        assert kappa == pytest.approx(kappa_ref, rel=1e-10)
        assert residual == pytest.approx(
            np.linalg.norm(system.matrix @ x_ref - system.rhs), rel=1e-10
        )


def test_solve_column_2d_rhs_matches_separate_solves():
    a, f, mask, samples = make_instance(4, 3, 2, 3, 0.6, 720, sigma=1e-2)
    system = assemble_column_system(a, mask, samples, 1)
    rng = np.random.default_rng(721)
    B = np.column_stack([system.rhs, rng.standard_normal((system.rhs.size, 2))])
    for tol in (None, 0.5):
        X, rank, kappa, residual = solve_column(ColumnSystem(1, system.matrix, B), tol)
        assert X.shape == (8, 3) and residual.shape == (3,)
        for c in range(3):
            x, r, k, res = solve_column(ColumnSystem(1, system.matrix, B[:, c]), tol)
            np.testing.assert_allclose(X[:, c], x, rtol=1e-12, atol=1e-12 * np.abs(x).max())
            assert (rank, kappa) == (r, k)
            assert residual[c] == pytest.approx(res, rel=1e-12)


def _report_json(report) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "mask_of",
    [
        lambda m, p, n: bernoulli_mask(m, p, n, 1.0, 1),
        lambda m, p, n: lattice_mask(m, p, n, [0, 2, 3], range(p)),
        lambda m, p, n: lattice_mask(m, p, n, [0, 2, 3], [0, 1, 3, 4]),
    ],
    ids=["alpha-1", "lattice", "lattice-missing-column"],
)
def test_shared_column_patterns_match_per_column_solves(mask_of):
    m, p, n, T = 4, 5, 3, 3
    a = random_tensor(m, m, n, 730)
    f = random_tensor(m, p, n, 731)
    mask = mask_of(m, p, n)
    patterns = {mask.indicator[:, j, :].tobytes() for j in range(p)}
    assert len(patterns) < p  # columns really share a pattern
    samples = observe(evolve(a, f, T), mask, 1e-2, 732)
    report = reconstruct(a, mask, samples, allow_partial=True, threads=1)
    solved = []
    for j in range(p):
        system = assemble_column_system(a, mask, samples, j)
        if not system.matrix.any():
            assert j in report.failed_columns
            continue
        solved.append(j)
        x, rank, kappa, residual = solve_column(system)
        np.testing.assert_allclose(
            report.estimate.data[:, j, :],
            x.reshape((m, n), order="F"),
            rtol=1e-12,
            atol=1e-12 * np.abs(x).max(),
        )
        assert report.ranks[j] == rank
        assert report.kappa[j] == pytest.approx(kappa, rel=1e-12)
        assert report.residuals[j] == pytest.approx(residual, rel=1e-12)
    assert report.failed_columns == sorted(set(range(p)) - set(solved))
    if report.failed_columns:
        with pytest.raises(UnrecoverableColumnError) as err:
            system_condition(a, mask, T)
        assert err.value.columns == tuple(report.failed_columns)
    else:
        kappas, K = system_condition(a, mask, T)
        np.testing.assert_allclose(kappas, report.kappa, rtol=1e-12)
        assert K == max(kappas)
    par = reconstruct(a, mask, samples, allow_partial=True, threads=4)
    assert _report_json(par) == _report_json(report)
    assert par.estimate.data.tobytes() == report.estimate.data.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 4),
    p=st.integers(1, 5),
    n=st.integers(1, 3),
    T=st.integers(1, 4),
    alpha=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
    seed=st.integers(0, 2**32),
)
def test_reconstruct_report_independent_of_thread_count(m, p, n, T, alpha, seed):
    a, f, mask, samples = make_instance(m, p, n, T, alpha, seed, sigma=1e-3)
    one = reconstruct(a, mask, samples, allow_partial=True, ground_truth=f, threads=1)
    three = reconstruct(a, mask, samples, allow_partial=True, ground_truth=f, threads=3)
    assert _report_json(three) == _report_json(one)
    assert three.estimate.data.tobytes() == one.estimate.data.tobytes()


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(1, 4),
    p=st.integers(1, 5),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_batch_matches_lone_reconstructs(m, p, n, seed, data):
    a = random_tensor(m, m, n, seed)
    f = random_tensor(m, p, n, seed + 1)
    # A full mask shares every column pattern; a dropped second-mode slab
    # leaves a column unsampled.
    masks = [
        bernoulli_mask(m, p, n, 1.0, seed + 2),
        bernoulli_mask(m, p, n, data.draw(st.sampled_from([0.3, 0.6])), seed + 3),
        exclude_slab(bernoulli_mask(m, p, n, 0.8, seed + 4), 2, data.draw(st.integers(0, p - 1))),
    ]
    problems = []
    for q in range(data.draw(st.integers(2, 4))):
        mask = data.draw(st.sampled_from(masks))
        T, sigma = data.draw(st.integers(1, 4)), data.draw(st.sampled_from([0.0, 1e-3]))
        problems.append((mask, observe(evolve(a, f, T), mask, sigma, seed + 5 + q)))
    batch = reconstruct_batch(a, problems, allow_partial=True, ground_truth=f, threads=1)
    three = reconstruct_batch(a, problems, allow_partial=True, ground_truth=f, threads=3)
    for (mask, samples), got, par in zip(problems, batch, three, strict=True):
        assert _report_json(par) == _report_json(got)
        assert par.estimate.data.tobytes() == got.estimate.data.tobytes()
        lone = reconstruct(a, mask, samples, allow_partial=True, ground_truth=f)
        assert got.ranks == lone.ranks
        assert got.failed_columns == lone.failed_columns
        scale = np.linalg.norm(lone.estimate.data)
        assert np.linalg.norm(got.estimate.data - lone.estimate.data) <= 1e-12 * scale
        rhs = max(np.linalg.norm(o.data) for o in samples.observations)
        np.testing.assert_allclose(got.residuals, lone.residuals, rtol=1e-12, atol=1e-12 * rhs)
        assert [k is None for k in got.kappa] == [k is None for k in lone.kappa]
        for k, want in zip(got.kappa, lone.kappa):
            assert want is None or k == pytest.approx(want, rel=1e-10)


# -- reconstruct ------------------------------------------------------------------


def test_full_mask_single_step_recovers_exactly():
    m, p, n = 5, 4, 3
    a = random_tensor(m, m, n, 530)
    f = random_tensor(m, p, n, 531)
    mask = bernoulli_mask(m, p, n, 1.0, 1)
    samples = observe(evolve(a, f, 1), mask, 0.0, 1)
    report = reconstruct(a, mask, samples, ground_truth=f)
    assert report.rel_error <= 1e-10
    assert report.failed_columns == []
    assert report.estimate.data.dtype == np.float64


def test_paper_scale_recovery():
    m, p, n = 20, 15, 5
    a = random_tensor(m, m, n, 540)
    f = random_tensor(m, p, n, 541)
    mask = bernoulli_mask(m, p, n, 0.4, 542)
    samples = observe(evolve(a, f, 5), mask, 0.0, 543)
    report = reconstruct(a, mask, samples, ground_truth=f)
    assert report.rel_error <= 1e-9
    assert report.K == max(k for k in report.kappa if k is not None)
    assert all(k >= 1.0 for k in report.kappa)


def test_lattice_missing_columns_fail_exactly():
    m, p, n = 5, 4, 3
    a = random_tensor(m, m, n, 550)
    f = random_tensor(m, p, n, 551)
    kept = [0, 2]
    mask = lattice_mask(m, p, n, range(m), kept)
    samples = observe(evolve(a, f, 4), mask, 0.0, 1)
    with pytest.raises(UnrecoverableColumnError) as err:
        reconstruct(a, mask, samples)
    assert err.value.columns == (1, 3)


def test_allow_partial_zero_fills_failed_columns():
    m, p, n = 5, 4, 3
    a = random_tensor(m, m, n, 560)
    f = random_tensor(m, p, n, 561)
    mask = exclude_slab(bernoulli_mask(m, p, n, 1.0, 1), 2, 1)
    samples = observe(evolve(a, f, 3), mask, 0.0, 1)
    report = reconstruct(a, mask, samples, ground_truth=f, allow_partial=True)
    assert report.failed_columns == [1]
    assert report.kappa[1] is None
    assert report.ranks[1] == 0
    assert np.all(report.estimate.data[:, 1, :] == 0.0)
    # error is exactly the relative mass of the missing column
    expected = np.linalg.norm(f.data[:, 1, :]) / fro_norm(f)
    assert report.rel_error == pytest.approx(expected, rel=1e-6)
    # the recovered columns themselves are exact
    others = [j for j in range(p) if j != 1]
    gap = f.data[:, others, :] - report.estimate.data[:, others, :]
    assert np.linalg.norm(gap) <= 1e-9 * fro_norm(f)


def test_reconstruct_agrees_with_brute_force():
    a, f, mask, samples = make_instance(4, 3, 2, 4, 0.6, 570)
    S = materialized_sampling_map(a, mask, samples.horizon)
    assert np.linalg.matrix_rank(S) == 24
    brute = brute_force_estimate(a, mask, samples)
    report = reconstruct(a, mask, samples, ground_truth=f)
    gap = np.linalg.norm(report.estimate.data - brute)
    assert gap <= 1e-8 * max(1.0, np.linalg.norm(brute))
    assert report.rel_error <= 1e-8


def test_decomposition_uses_only_own_column():
    m, p, n, T = 4, 3, 2, 3
    a, f, mask, samples = make_instance(m, p, n, T, 0.8, 580)
    j = 1
    base = assemble_column_system(a, mask, samples, j)
    x_base, *_ = solve_column(base)
    # perturb observation values on every other column (still on the mask)
    perturbed = []
    for obs in samples.observations:
        data = obs.data.copy()
        for other in range(p):
            if other != j:
                data[:, other, :] += 7.0 * mask.indicator[:, other, :]
        perturbed.append(Tensor3(data))

    samples2 = SampleData(mask, perturbed, samples.noise_sigma, samples.seed)
    again = assemble_column_system(a, mask, samples2, j)
    assert np.array_equal(base.matrix, again.matrix)
    assert np.array_equal(base.rhs, again.rhs)
    x_again, *_ = solve_column(again)
    assert np.array_equal(x_base, x_again)


def test_parallel_solves_are_deterministic():
    a, f, mask, samples = make_instance(6, 5, 3, 4, 0.5, 590)
    seq = reconstruct(a, mask, samples, ground_truth=f, threads=1)
    par = reconstruct(a, mask, samples, ground_truth=f, threads=4)
    assert np.array_equal(seq.estimate.data, par.estimate.data)
    assert seq.residuals == par.residuals
    assert seq.kappa == par.kappa
    assert seq.ranks == par.ranks
    assert seq.rel_error == par.rel_error


def test_report_json_dict_schema():
    a, f, mask, samples = make_instance(4, 3, 2, 3, 0.7, 600)
    report = reconstruct(a, mask, samples, ground_truth=f)
    d = report.to_json_dict()
    assert set(d) == {"residuals", "kappa", "K", "ranks", "failed_columns", "rel_error"}
    no_truth = reconstruct(a, mask, samples)
    assert "rel_error" not in no_truth.to_json_dict()


def test_rank_deficient_columns_flagged():
    # T=1 with a sparse mask cannot reach full rank m*n per column
    a, f, mask, samples = make_instance(4, 3, 2, 1, 0.5, 610)
    report = reconstruct(a, mask, samples, allow_partial=True)
    solved = [j for j in range(3) if j not in report.failed_columns]
    assert solved, "expected at least one solvable column"
    assert set(report.rank_deficient_columns) == {
        j for j in solved if report.ranks[j] < 8
    }
    assert report.rank_deficient_columns  # 0.5 * 8 samples < 8 unknowns


# -- system_condition --------------------------------------------------------------


def test_condition_of_identity_system_is_one():
    m, p, n = 4, 3, 2
    a = identity_tensor(m, n)
    mask = bernoulli_mask(m, p, n, 1.0, 1)
    for T in (1, 3):
        kappas, K = system_condition(a, mask, T)
        assert K == pytest.approx(1.0)
        assert all(k == pytest.approx(1.0) for k in kappas)


def test_condition_grows_with_horizon():
    m, p, n = 20, 15, 5
    a = random_tensor(m, m, n, 620)
    mask = bernoulli_mask(m, p, n, 0.4, 621)
    _, k5 = system_condition(a, mask, 5)
    _, k15 = system_condition(a, mask, 15)
    assert k15 / k5 > 1e3


def test_condition_rejects_empty_column():
    m, p, n = 4, 3, 2
    a = random_tensor(m, m, n, 630)
    mask = lattice_mask(m, p, n, range(m), [0, 2])
    with pytest.raises(UnrecoverableColumnError) as err:
        system_condition(a, mask, 2)
    assert err.value.columns == (1,)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 4),
    p=st.integers(1, 4),
    n=st.integers(1, 4),
    T=st.integers(1, 4),
    alpha=st.sampled_from([0.3, 0.5, 0.8, 1.0]),
    seed=st.integers(0, 2**32),
)
def test_condition_matches_values_only_svd_of_each_column_system(m, p, n, T, alpha, seed):
    a, _, mask, samples = make_instance(m, p, n, T, alpha, seed)
    empty = tuple(j for j in range(p) if not mask.indicator[:, j, :].any())
    if empty:
        with pytest.raises(UnrecoverableColumnError) as err:
            system_condition(a, mask, T)
        assert err.value.columns == empty
        return
    kappas, K = system_condition(a, mask, T)
    for j, kappa in enumerate(kappas):
        M = assemble_column_system(a, mask, samples, j).matrix
        s = np.linalg.svd(M, compute_uv=False)
        rank = np.count_nonzero(s > default_solver_tol(M.shape) * s[0])
        assert kappa == s[0] / s[rank - 1]
    assert K == max(kappas)


def test_condition_threads_deterministic():
    m, p, n = 6, 5, 3
    a = random_tensor(m, m, n, 640)
    mask = bernoulli_mask(m, p, n, 0.6, 641)
    k1, K1 = system_condition(a, mask, 3, threads=1)
    k4, K4 = system_condition(a, mask, 3, threads=4)
    assert k1 == k4 and K1 == K4


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), sigma=st.sampled_from([0.0, 1e-3]), data=st.data())
def test_samples_times_a_power_of_two_scale_the_solution_exactly(seed, sigma, data):
    """Samples x 2^k give the estimate and residuals x 2^k bit for bit, with
    the same ranks and kappa, for every k that keeps every nonzero sample and
    estimate entry normal: out to |k| = 600 and beyond."""
    a, _, mask, samples = make_instance(8, 5, 3, 4, 0.6, seed, sigma)
    base = reconstruct(a, mask, samples, allow_partial=True)
    values = np.concatenate([base.estimate.data.ravel()]
                            + [o.data.ravel() for o in samples.observations])
    exps = np.frexp(values[values != 0])[1]
    lo, hi = -1021 - int(exps.min()), 1024 - int(exps.max())
    assert lo < -600 and 600 < hi
    k = data.draw(st.one_of(st.sampled_from([lo, -600, 600, hi]), st.integers(lo, hi)), label="k")
    scaled = SampleData(
        mask, [Tensor3(np.ldexp(o.data, k)) for o in samples.observations], sigma, samples.seed
    )
    got = reconstruct(a, mask, scaled, allow_partial=True)
    assert got.estimate.data.tobytes() == np.ldexp(base.estimate.data, k).tobytes()
    assert got.residuals == [float(np.ldexp(r, k)) for r in base.residuals]
    assert (got.ranks, got.kappa, got.K) == (base.ranks, base.kappa, base.K)
    assert got.failed_columns == base.failed_columns
