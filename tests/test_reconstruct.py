import importlib
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynsamp import (
    SampleData,
    SampleMask,
    Tensor3,
    UnrecoverableColumnError,
    bernoulli_mask,
    evolve,
    exclude_slab,
    observe,
    random_tensor,
    reconstruct,
    rel_error,
    solve_column,
    system_condition,
)
from dynsamp.dynsys import SampleOverflowError
from dynsamp.reconstruct import (
    ColumnSystem, _condition_sweep, _default_tol, _solve_stack, assemble_column_system,
    reconstruct_batch,
)
from dynsamp.tensor3 import ShapeMismatchError
from oracles import (
    brute_force_estimate,
    frequency_column_matrix,
    identity_tensor,
    mask_conv_matrix,
    materialized_sampling_map,
    product_mask,
)

reconstruct_module = importlib.import_module("dynsamp.reconstruct")


def make_instance(m, p, n, T, alpha, seed, sigma=0.0):
    a = random_tensor(m, m, n, seed)
    f = random_tensor(m, p, n, seed + 1)
    mask = bernoulli_mask(m, p, n, alpha, seed + 2)
    samples = observe(evolve(a, f, T), mask, sigma, seed + 3)
    return a, f, mask, samples


# -- the number rule ------------------------------------------------------------


def _problem():
    """(a, mask, samples) of a small, fully sampled problem."""
    a, _, mask, samples = make_instance(3, 4, 2, 2, 1.0, 700)
    return a, mask, samples


def _batch(**kw):
    a, _, samples = _problem()
    return reconstruct_batch(a, [samples], **kw)


def _condition(**kw):
    a, mask, _ = _problem()
    return system_condition(a, mask, 2, **kw)


# Each public numeric argument, as a call that takes its value: (entry point,
# argument) -> call.
_INTEGER_ARGS = {
    ("random_tensor", "m"): lambda v: random_tensor(v, 3, 2, 1),
    ("random_tensor", "p"): lambda v: random_tensor(2, v, 2, 1),
    ("random_tensor", "n"): lambda v: random_tensor(2, 3, v, 1),
    ("bernoulli_mask", "m"): lambda v: bernoulli_mask(v, 3, 2, 0.5, 1),
    ("bernoulli_mask", "p"): lambda v: bernoulli_mask(2, v, 2, 0.5, 1),
    ("bernoulli_mask", "n"): lambda v: bernoulli_mask(2, 3, v, 0.5, 1),
    ("exclude_slab", "mode"): lambda v: exclude_slab(_problem()[1], v, 1),
    ("exclude_slab", "index"): lambda v: exclude_slab(_problem()[1], 2, v),
    ("assemble_column_system", "j"): lambda v: assemble_column_system(*_problem(), v),
    ("reconstruct", "threads"): lambda v: reconstruct(*_problem(), threads=v),
    ("reconstruct_batch", "threads"): lambda v: _batch(threads=v),
    ("system_condition", "threads"): lambda v: _condition(threads=v),
}
_REAL_ARGS = {
    ("bernoulli_mask", "alpha"): lambda v: bernoulli_mask(2, 3, 2, v, 1),
    ("reconstruct", "tol"): lambda v: reconstruct(*_problem(), tol=v),
    ("reconstruct_batch", "tol"): lambda v: _batch(tol=v),
    ("system_condition", "tol"): lambda v: _condition(tol=v),
    ("solve_column", "tol"): lambda v: solve_column(assemble_column_system(*_problem(), 0), v),
}


@pytest.mark.parametrize("call, name, noun, value", [
    pytest.param(call, name, noun, v, id=f"{fn}-{name}-{v!r}")
    for args, noun, bad in [(_INTEGER_ARGS, "an integer", (True, 2.5, "2")),
                            (_REAL_ARGS, "a finite number", (True, "0.5"))]
    for (fn, name), call in args.items() for v in bad
])
def test_every_public_number_argument_follows_the_number_rule(call, name, noun, value):
    with pytest.raises(ValueError, match=rf"^{name}: expected {noun}, got {re.escape(repr(value))}$"):
        call(value)


def test_integral_floats_give_what_the_integers_give():
    a, mask, samples = _problem()
    for got, want in [
        (exclude_slab(mask, 2.0, 1.0), exclude_slab(mask, 2, 1)),
        (bernoulli_mask(2.0, 3.0, 2.0, 1, 1), bernoulli_mask(2, 3, 2, 1.0, 1)),
    ]:
        assert np.array_equal(got.indicator, want.indicator)
        assert json.dumps(got.provenance) == json.dumps(want.provenance)
    assert random_tensor(2.0, 3.0, 2.0, 1).data.tobytes() == random_tensor(2, 3, 2, 1).data.tobytes()
    got, want = assemble_column_system(a, mask, samples, 1.0), assemble_column_system(a, mask, samples, 1)
    assert type(got.j) is int and got.j == 1
    assert got.matrix.tobytes() == want.matrix.tobytes() and got.rhs.tobytes() == want.rhs.tobytes()
    got, want = reconstruct(a, mask, samples, threads=2.0), reconstruct(a, mask, samples, threads=2)
    assert got.estimate.data.tobytes() == want.estimate.data.tobytes()


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
    mask = product_mask(m, p, n, range(m), [0, 2])  # column 1 never sampled
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
    wrong = random_tensor(4, 4, 3, 511)
    message = r"^operator dims \(4, 4, 3\) incompatible with mask dims \(4, 3, 2\)$"
    with pytest.raises(ShapeMismatchError, match=message):
        assemble_column_system(wrong, mask, samples, 0)
    with pytest.raises(ShapeMismatchError, match=message):
        reconstruct(wrong, mask, samples)


def test_empty_column_has_zero_conv_matrix():
    mask = product_mask(3, 4, 5, range(3), [0, 1, 3])
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
    mask = product_mask(m, p, n, range(m), [0, 2])
    samples = observe(evolve(a, f, 2), mask, 0.0, 1)
    system = assemble_column_system(a, mask, samples, 1)
    with pytest.raises(UnrecoverableColumnError) as err:
        solve_column(system)
    assert err.value.columns == (1,)


def test_solve_overflow_names_the_column():
    # x = 1e300 / 1e-300 does not fit in float64
    system = ColumnSystem(4, np.array([[1e-300]]), np.array([1e300]))
    with pytest.raises(SampleOverflowError, match=r"^column 4: the least-squares solve overflows float64$"):
        solve_column(system)


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


# -- stacked solves ---------------------------------------------------------------


def _stack(rng, g, rows, mn, k, spread):
    """(g, rows, mn + k) stack of [M | B]; column c of M is scaled by
    10**(-spread * c / mn), so kappa grows with ``spread``."""
    A = rng.standard_normal((g, rows, mn + k))
    A[:, :, :mn] *= 10.0 ** (-spread * np.arange(mn) / max(mn, 1))
    return A


def _assert_same_solution(got, want):
    (x, rank, kappa, residual), (x0, rank0, kappa0, residual0) = got, want
    assert x.tobytes() == x0.tobytes() and residual.tobytes() == residual0.tobytes()
    assert (rank, kappa) == (rank0, kappa0)


@settings(max_examples=60, deadline=None)
@given(
    g=st.integers(1, 5),
    rows=st.integers(1, 14),
    mn=st.integers(1, 8),
    k=st.sampled_from([0, 1, 3]),
    spread=st.sampled_from([0.0, 8.0, 20.0]),
    duplicate=st.booleans(),
    blocks=st.lists(st.integers(1, 6), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
@example(g=3, rows=4, mn=8, k=1, spread=0.0, duplicate=False, blocks=[], seed=0)  # rows < m*n
@example(g=3, rows=12, mn=6, k=3, spread=0.0, duplicate=True, blocks=[], seed=1)  # rank-deficient
@example(g=3, rows=2, mn=6, k=0, spread=8.0, duplicate=True, blocks=[3, 5], seed=2)  # walks to full rank
def test_each_stack_member_matches_a_lone_solve_bit_for_bit(
    g, rows, mn, k, spread, duplicate, blocks, seed
):
    """A member of a stack gets the bits of ``solve_column`` on its system
    alone: x, rank, kappa and residual, for any stack size; and, where later
    row blocks walk it to longer horizons (k = 0), the bits of its own walk
    alone at every horizon."""
    rng = np.random.default_rng(seed)
    A = _stack(rng, g, rows, mn, k, spread)
    if duplicate and mn > 1:
        A[-1, :, 1] = A[-1, :, 0]  # a rank-deficient member
    later = [_stack(rng, g, r, mn, 0, spread) for r in blocks] if k == 0 else []
    walk, fits = _solve_stack(A.copy(), mn, later=later)
    assert len(walk) == 1 + len(later) and all(len(at) == g for at in walk) and all(fits)
    for i, got in enumerate(walk[0]):
        _assert_same_solution(got, solve_column(ColumnSystem(i, A[i, :, :mn], A[i, :, mn:])))
    for i in range(g):
        alone, _ = _solve_stack(A[i:i + 1].copy(), mn, later=[b[i:i + 1] for b in later])
        for at, want in zip(walk, alone, strict=True):
            _assert_same_solution(at[i], want[0])


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 4),
    p=st.integers(1, 5),
    n=st.integers(3, 4),
    T=st.integers(1, 4),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_assembled_column_solve_matches_reconstruct_bit_for_bit(m, p, n, T, share, seed):
    """With every column's sample pattern distinct, and all of one size so
    that ``reconstruct`` solves them as one stack, ``solve_column`` on a
    column's ``assemble_column_system`` gives the bits of that column of
    ``reconstruct``: x, rank, kappa and residual."""
    mn = m * n
    rng = np.random.default_rng(seed)
    combos = list(itertools.combinations(range(mn), 1 + round(share * (mn - 2))))
    indicator = np.zeros((m, p, n), dtype=bool)
    for j, c in enumerate(rng.choice(len(combos), p, replace=False)):
        col = np.zeros(mn, dtype=bool)
        col[list(combos[c])] = True
        indicator[:, j, :] = col.reshape(n, m).T  # vec index i + m*k
    _assert_column_solves_match_reconstruct(indicator, T, seed)


def _assert_column_solves_match_reconstruct(indicator, T, seed):
    """``solve_column`` on each column's ``assemble_column_system`` gives the
    bits of that column of ``reconstruct``; returns the report."""
    m, p, n = indicator.shape
    mask = SampleMask(indicator)
    a, f = random_tensor(m, m, n, seed), random_tensor(m, p, n, seed + 1)
    samples = observe(evolve(a, f, T), mask, 1e-3, seed + 2)
    report = reconstruct(a, mask, samples)
    for j in range(p):
        x, rank, kappa, residual = solve_column(assemble_column_system(a, mask, samples, j))
        assert x.tobytes() == report.estimate.data[:, j, :].ravel(order="F").tobytes()
        assert (rank, kappa, residual) == (report.ranks[j], report.kappa[j], report.residuals[j])
    return report


def test_assembled_column_solve_matches_reconstruct_bit_for_bit_at_one_and_two_blas_threads(
    openblas_threads,
):
    """``_assert_column_solves_match_reconstruct`` at 32x2x8, T=4: two
    504 x 256 systems, large enough that OpenBLAS threads its kernels, each
    with 126 of its 256 entries sampled; and the bits are the same at one
    and at two OpenBLAS threads."""
    m, p, n, T, s = 32, 2, 8, 4, 126
    rng = np.random.default_rng(730)
    indicator = np.zeros((m, p, n), dtype=bool)
    for j in range(p):
        col = np.zeros(m * n, dtype=bool)
        col[rng.choice(m * n, s, replace=False)] = True
        indicator[:, j, :] = col.reshape(n, m).T  # vec index i + m*k
    reports = []
    for threads in (1, 2):
        openblas_threads(threads)
        reports.append(_assert_column_solves_match_reconstruct(indicator, T, 731))
    one, two = reports
    assert one.estimate.data.tobytes() == two.estimate.data.tobytes()
    assert (one.residuals, one.kappa) == (two.residuals, two.kappa)


@settings(max_examples=60, deadline=None)
@given(
    g=st.integers(1, 5),
    extra=st.integers(0, 12),
    mn=st.one_of(st.integers(1, 8), st.sampled_from([33, 40])),
    k=st.sampled_from([1, 3]),
    spread=st.sampled_from([0.0, 4.0, 10.0, 13.0, 16.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_members_have_full_svd_rank_and_the_same_solution(g, extra, mn, k, spread, seed):
    """With kappa off, a member certified full rank reports kappa None, its
    SVD gives rank m*n, and x and the residual keep their bits; every other
    member is solved as with kappa on."""
    A = _stack(np.random.default_rng(seed), g, mn + extra, mn, k, spread)
    (cheap,), fits = _solve_stack(A.copy(), mn, kappa=False)
    (full,), fits_full = _solve_stack(A.copy(), mn)
    assert list(fits) == list(fits_full)
    for got, want in zip(cheap, full):
        if got[2] is None:
            assert want[1] == mn
            got = (got[0], got[1], want[2], got[3])
        _assert_same_solution(got, want)


@pytest.mark.parametrize("n", [1, 7, 32, 33, 64, 100])
def test_triangular_inverse_matches_the_lu_inverse(n):
    rng = np.random.default_rng(750 + n)
    R = np.triu(rng.standard_normal((3, n, n))) + 4.0 * np.eye(n)
    np.testing.assert_allclose(
        reconstruct_module._triangular_inverse(R), np.linalg.inv(R), rtol=0, atol=1e-12
    )


def test_certificate_declines_singular_and_ill_conditioned_members():
    rng = np.random.default_rng(760)
    mn = 6
    A = _stack(rng, 3, 10, mn, 1, 0.0)
    A[1, :, :mn] = _stack(rng, 1, 10, mn, 0, 15.0)[0]  # full rank, kappa beyond the certificate
    A[2, :, 3] = 0.0  # an exactly singular R factor: no inverse is taken
    (cheap,), _ = _solve_stack(A.copy(), mn, kappa=False)
    (full,), _ = _solve_stack(A.copy(), mn)
    assert [r[2] is None for r in cheap] == [True, False, False]
    assert full[2][1] < mn
    for got, want in zip(cheap[1:], full[1:]):
        _assert_same_solution(got, want)


def _spy_stacks(monkeypatch) -> list:
    """Record (members, rows at the longest horizon, width) of each ``_solve_stack`` call."""
    solve, shapes = reconstruct_module._solve_stack, []

    def spy(A, mn, tol=None, kappa=True, later=()):
        shapes.append((A.shape[0], A.shape[1] + sum(b.shape[1] for b in later), A.shape[2]))
        return solve(A, mn, tol, kappa, later)

    monkeypatch.setattr(reconstruct_module, "_solve_stack", spy)
    return shapes


def test_stacks_respect_the_byte_cap_and_do_not_change_results(monkeypatch):
    a, f, _, _ = make_instance(4, 12, 3, 3, 0.5, 770)
    masks = [bernoulli_mask(4, 12, 3, 0.5, 771 + i) for i in range(3)]
    problems = [observe(evolve(a, f, 3), m, 1e-2, 775 + i) for i, m in enumerate(masks)]
    shapes = _spy_stacks(monkeypatch)
    want = reconstruct_batch(a, problems, allow_partial=True)
    uncapped, shapes[:] = list(shapes), []
    cap = 2 * 24 * 13 * 8  # room for two systems of 24 rows and 13 columns
    monkeypatch.setattr(reconstruct_module, "_STACK_BYTES", cap)
    got = reconstruct_batch(a, problems, allow_partial=True)
    assert max(g for g, _, _ in uncapped) > max(g for g, _, _ in shapes) > 1
    assert all(g == 1 or g * rows * width * 8 <= cap for g, rows, width in shapes)
    for r, r0 in zip(got, want):
        assert r.estimate.data.tobytes() == r0.estimate.data.tobytes()
        assert _report_json(r) == _report_json(r0)


def test_unsampled_group_yields_none_without_a_solve(monkeypatch):
    a = random_tensor(3, 3, 2, 780)
    sel = np.zeros(6, dtype=bool)
    monkeypatch.setattr(reconstruct_module, "_solve_stack", None)  # never called
    columns = [((2,), sel, np.empty(0), 0), ((1, 4), sel, None, 1)]
    assert reconstruct_module._solve_groups(a, columns, None, 1) == [None, None]


def _report_json(report) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "mask_of",
    [
        lambda m, p, n: bernoulli_mask(m, p, n, 1.0, 1),
        lambda m, p, n: product_mask(m, p, n, [0, 2, 3], range(p)),
        lambda m, p, n: product_mask(m, p, n, [0, 2, 3], [0, 1, 3, 4]),
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
        problems.append(observe(evolve(a, f, T), mask, sigma, seed + 5 + q))
    batch = reconstruct_batch(a, problems, allow_partial=True, ground_truth=f, threads=1)
    three = reconstruct_batch(a, problems, allow_partial=True, ground_truth=f, threads=3)
    for samples, got, par in zip(problems, batch, three, strict=True):
        assert _report_json(par) == _report_json(got)
        assert par.estimate.data.tobytes() == got.estimate.data.tobytes()
        lone = reconstruct(a, samples.mask, samples, allow_partial=True, ground_truth=f)
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
    mask = product_mask(m, p, n, range(m), kept)
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
    expected = np.linalg.norm(f.data[:, 1, :]) / np.linalg.norm(f.data)
    assert report.rel_error == pytest.approx(expected, rel=1e-6)
    # the recovered columns themselves are exact
    others = [j for j in range(p) if j != 1]
    gap = f.data[:, others, :] - report.estimate.data[:, others, :]
    assert np.linalg.norm(gap) <= 1e-9 * np.linalg.norm(f.data)


def test_relative_error_beyond_float64_raises():
    # an estimate near 1e10 against a ground truth of 1e-300: a ratio near 1e310
    a, f, mask, samples = make_instance(4, 3, 2, 3, 1.0, 585)
    big = observe(evolve(a, Tensor3(1e10 * f.data), 3), mask, 0.0, 586)
    tiny = Tensor3(np.full((4, 3, 2), 1e-300))
    assert np.isfinite(reconstruct(a, mask, big).estimate.data).all()
    with pytest.raises(SampleOverflowError, match=r"^the relative error overflows float64$"):
        reconstruct(a, mask, big, ground_truth=tiny)


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


def test_reconstruct_rel_error_bits_do_not_depend_on_the_blas_thread_count(openblas_threads):
    # 4 x 1260 x 2 = 10,080 entries: OpenBLAS splits the dot product of the
    # error's norm across its threads.
    for seed in range(0, 24, 4):
        a, f, mask, samples = make_instance(4, 1260, 2, 3, 0.9, seed, sigma=1e-3)
        errors = []
        for threads in (1, 2):
            openblas_threads(threads)
            errors.append(reconstruct(a, mask, samples, ground_truth=f).rel_error)
        assert errors[0] == errors[1]


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


def test_condition_rejects_fractional_horizon():
    m, p, n = 4, 3, 2
    a = random_tensor(m, m, n, 630)
    mask = bernoulli_mask(m, p, n, 1.0, 1)
    with pytest.raises(ValueError, match=r"^T: expected an integer, got 2.5$"):
        system_condition(a, mask, 2.5)


def test_condition_rejects_empty_column():
    m, p, n = 4, 3, 2
    a = random_tensor(m, m, n, 630)
    mask = product_mask(m, p, n, range(m), [0, 2])
    with pytest.raises(UnrecoverableColumnError) as err:
        system_condition(a, mask, 2)
    assert err.value.columns == (1,)


# c of the roundoff bound c*m*n*eps*kappa, relative, within which a kappa
# lies of one from another factorization of the same column system
ROUNDOFF_C = 10
EPS = np.finfo(np.float64).eps


def _kappa(s, shape) -> float:
    """kappa from singular values ``s`` under the default cutoff of a ``shape`` system."""
    rank = np.count_nonzero(s > _default_tol(shape) * s[0])
    return s[0] / s[rank - 1]


def _one_shot_kappas(a, mask, T) -> list[float]:
    """Each column's kappa from one QR and a values-only SVD of its horizon-T system."""
    samples = observe(evolve(a, Tensor3(np.zeros(mask.dims)), T), mask, 0.0, 0)
    kappas = []
    for j in range(mask.dims[1]):
        M = assemble_column_system(a, mask, samples, j).matrix
        kappas.append(_kappa(np.linalg.svd(np.linalg.qr(M, mode="r"), compute_uv=False), M.shape))
    return kappas


def _assert_within_roundoff(got, want, mn):
    for g, w in zip(got, want):
        assert abs(g - w) <= ROUNDOFF_C * mn * EPS * w * w


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
    """One horizon is one QR of each column system: kappa is that of the
    values-only SVD of its R factor bit for bit, and that of the SVD of the
    system itself to roundoff."""
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
        assert kappa == _kappa(np.linalg.svd(np.linalg.qr(M, mode="r"), compute_uv=False), M.shape)
        _assert_within_roundoff([kappa], [_kappa(np.linalg.svd(M, compute_uv=False), M.shape)], m * n)
    assert K == max(kappas)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 4),
    p=st.integers(1, 4),
    n=st.integers(1, 4),
    Ts=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    alpha=st.sampled_from([0.3, 0.6, 1.0]),
    seed=st.integers(0, 2**32),
)
def test_condition_sweep_lies_within_roundoff_of_a_one_shot_factor_at_every_horizon(
    m, p, n, Ts, alpha, seed
):
    """The factor updated along the horizons gives, at every T, the kappas of
    one QR of the horizon-T system to within c*m*n*eps*kappa relative."""
    a = random_tensor(m, m, n, seed)
    indicator = bernoulli_mask(m, p, n, alpha, seed + 1).indicator.copy()
    indicator[0, :, 0] = True  # no empty column
    mask = SampleMask(indicator)
    for T, (kappas, K) in zip(Ts, _condition_sweep(a, mask, Ts)):
        _assert_within_roundoff(kappas, _one_shot_kappas(a, mask, T), m * n)
        assert K == max(kappas)


def test_condition_sweep_at_paper_dims_lies_within_roundoff_of_a_one_shot_factor():
    # up to T = 15, where K nears 1e12 and the default cutoff drops one direction
    a = random_tensor(20, 20, 5, 620)
    mask = bernoulli_mask(20, 15, 5, 0.4, 621)
    Ts = [9, 15, 4]
    sweep = _condition_sweep(a, mask, Ts)
    for T, (kappas, _) in zip(Ts, sweep):
        _assert_within_roundoff(kappas, _one_shot_kappas(a, mask, T), 100)
    assert sweep[1][1] > 1e11


def test_condition_sweep_answers_unsorted_and_repeated_horizons_in_request_order():
    a = random_tensor(5, 5, 3, 650)
    mask = bernoulli_mask(5, 4, 3, 0.6, 651)
    Ts = [4, 1, 4, 3, 1]
    got = _condition_sweep(a, mask, Ts)
    by_T = dict(zip([1, 3, 4], _condition_sweep(a, mask, [1, 3, 4])))
    assert got == [by_T[T] for T in Ts]
    assert got[1] == system_condition(a, mask, 1)  # the first horizon is one QR


@pytest.mark.parametrize("threads", [1, 2])
def test_condition_sweep_columns_sharing_a_stack_match_their_lone_sweeps(monkeypatch, threads):
    """Columns with distinct sample patterns of one size walk the horizons in
    one stack, and each gets, at every horizon, the bits of the same sweep on
    a mask holding its pattern alone; a capped stack holds at most
    ``_STACK_BYTES`` at its longest horizon."""
    m, p, n, s = 3, 6, 2, 4
    rng = np.random.default_rng(655)
    combos = list(itertools.combinations(range(m * n), s))
    indicator = np.zeros((m, p, n), dtype=bool)
    for j, c in enumerate(rng.choice(len(combos), p, replace=False)):
        col = np.zeros(m * n, dtype=bool)
        col[list(combos[c])] = True
        indicator[:, j, :] = col.reshape(n, m).T  # vec index i + m*k
    a, Ts = random_tensor(m, m, n, 656), [5, 1, 3, 5, 2]
    alone = [_condition_sweep(a, SampleMask(indicator[:, j:j + 1, :]), Ts) for j in range(p)]
    shapes = _spy_stacks(monkeypatch)
    # uncapped, one stack of all six; capped, room for two systems at T = 5
    for cap, sizes in ((reconstruct_module._STACK_BYTES, [p]), (2 * 5 * s * m * n * 8, [2, 2, 2])):
        monkeypatch.setattr(reconstruct_module, "_STACK_BYTES", cap)
        shapes[:] = []
        sweep = _condition_sweep(a, SampleMask(indicator), Ts, threads=threads)
        for h, (kappas, K) in enumerate(sweep):
            assert kappas == [alone[j][h][0][0] for j in range(p)] and K == max(kappas)
        assert [g for g, _, _ in shapes] == sizes
        assert all(g * rows * width * 8 <= cap for g, rows, width in shapes)


def test_condition_sweep_rejects_an_empty_column_and_a_bad_horizon():
    a = random_tensor(4, 4, 2, 630)
    with pytest.raises(UnrecoverableColumnError) as err:
        _condition_sweep(a, product_mask(4, 3, 2, range(4), [0, 2]), [3, 1, 2])
    assert err.value.columns == (1,)
    mask = bernoulli_mask(4, 3, 2, 1.0, 1)
    with pytest.raises(ValueError, match=r"^T: expected an integer, got 2.5$"):
        _condition_sweep(a, mask, [3, 2.5])
    with pytest.raises(ValueError, match=r"^T must be >= 1, got 0$"):
        _condition_sweep(a, mask, [3, 0])


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
