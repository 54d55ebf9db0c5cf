"""Recover the initial signal from masked space-time samples.

Under the t-product every lateral slice F[:, j, :] evolves independently by
the same real matrix bcirc(A), so recovery splits into p independent
least-squares systems, one per second-mode column j.  The unknown of system
j is the spatial column

    x(j) = vec(F[:, j, :])  (F order, length m*n),

and every sample (t, i, k) of column j contributes the row of bcirc(A)^t
that produces entry (i, k) of the column at step t.  The t-product powers
A^0, ..., A^(T-1), bcirc(A)^t = bcirc(A^t), are computed once per call in a
lag table that holds each row of bcirc(A)^t as m*n contiguous values;
column j's matrix is the rows that the mask selects, latest step first, and
its right-hand side is the observed values at the same entries, in order.
``reconstruct_batch`` and ``system_condition`` go through one grouped
walker: columns with the same horizons and sample pattern share their
matrix, solved once with the right-hand sides of all its columns across the
problems of the call (a batch, at its one horizon) or with none (the
condition sweep, at every horizon asked for).  Matrices of one shape are one
stack, gathered once to the longest horizon, whose shorter horizons are its
bottom row blocks; each LAPACK routine is called once per stack, with the
bits each matrix gets alone.

Columns with no samples yield an empty system and cannot be recovered; they
raise ``UnrecoverableColumnError`` unless the caller asks for a partial
estimate with those columns zero-filled and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor3 import ShapeMismatchError, Tensor3, _columns, _exponents, _from_columns
from .tensor3 import as_float, as_int, rel_error as tensor_rel_error
from .sampling import SampleMask
from .dynsys import SampleData, SampleOverflowError, evolve
from ._parallel import _single_threaded_blas, pmap

_EPS = float(np.finfo(np.float64).eps)


class UnrecoverableColumnError(Exception):
    """One or more mask columns carry no samples; their systems are empty."""

    def __init__(self, columns):
        self.columns = tuple(sorted(int(j) for j in columns))
        cols = ", ".join(str(j) for j in self.columns)
        super().__init__(f"column(s) {cols} have no samples and cannot be recovered")


@dataclass(frozen=True)
class ColumnSystem:
    """Stacked least-squares system for one second-mode column.

    ``matrix`` is (T*s, m*n) and ``rhs`` has length T*s, where s is the
    number of samples the mask places in column ``j``; rows run over the
    steps T-1 down to 0, each step's samples in order of r = i + m*k.  A
    (T*s, k) ``rhs`` holds the right-hand sides of k columns with the same
    sample pattern, ``j`` the first of them.
    """

    j: int
    matrix: np.ndarray
    rhs: np.ndarray


@dataclass
class ReconstructionReport:
    """Estimate plus per-column diagnostics of a reconstruction run."""

    estimate: Tensor3
    residuals: list[float]
    kappa: list[float | None]
    K: float | None
    ranks: list[int]
    failed_columns: list[int]
    rel_error: float | None = None

    @property
    def rank_deficient_columns(self) -> list[int]:
        """Solved columns whose numerical rank fell short of m*n."""
        m, _, n = self.estimate.dims
        full = m * n
        failed = set(self.failed_columns)
        return [
            j for j, r in enumerate(self.ranks) if j not in failed and r < full
        ]

    def to_json_dict(self) -> dict:
        """JSON-ready diagnostics: every field but the estimate, and
        ``rel_error`` only when it was measured."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "estimate"}
        if self.rel_error is None:
            del out["rel_error"]
        return out


def _default_tol(shape) -> float:
    """Relative singular-value cutoff: max(rows, cols) * machine epsilon."""
    return max(int(shape[0]), int(shape[1])) * _EPS


def _check_tol(tol) -> None:
    if tol is not None and not 0.0 < as_float(tol, "tol") < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


# -- system assembly ----------------------------------------------------------


def _check_problem(a: Tensor3, mask: SampleMask, samples: SampleData | None) -> None:
    m, p, n = mask.dims
    if a.dims != (m, m, n):
        raise ShapeMismatchError(f"operator dims {a.dims} incompatible with mask dims {mask.dims}")
    if samples is not None and not np.array_equal(mask.indicator, samples.mask.indicator):
        raise ValueError("mask does not match the mask the samples were taken on")


def _power_stack(a: Tensor3, T: int) -> np.ndarray:
    """The rows of bcirc(A)^0, ..., bcirc(A)^(T-1): a read-only (T, m, n, m*n)
    view whose [t, i, k] is row r = i + m*k of bcirc(A)^t.

    Since bcirc(A)^t = bcirc(A^t) (Kilmer & Martin, LAA 435 (2011)), entry
    (i + m*k, i' + m*k') of bcirc(A)^t is A^t[i, i', (k-k') mod n].  So the
    view holds only the (T, m, 2n-1, m) lag table G[t, i, u, i'] =
    A^t[i, i', (n-1-u) mod n], of which row i + m*k is the m*n contiguous
    values G[t, i, n-1-k : 2n-1-k, :].  The powers at horizon T are a prefix
    of those at any longer horizon, bit for bit, because ``evolve`` computes
    each from the one before.  Powers that overflow float64 raise
    ``SampleOverflowError`` at the first such step.
    """
    m, _, n = a.dims
    identity = np.eye(m)[:, :, None] * np.eye(1, n)  # the t-identity
    try:
        powers = evolve(a, Tensor3(identity), T)
    except SampleOverflowError:
        raise SampleOverflowError(
            f"the powers of the operator overflow float64 by T={T}"
        ) from None
    table = np.empty((T, m, 2 * n - 1, m))
    for t, power in enumerate(powers):
        lags = power.data.transpose(0, 2, 1)  # (i, k, i')
        table[t, :, :n], table[t, :, n:] = lags[:, ::-1], lags[:, :0:-1]
    windows = sliding_window_view(table.reshape(T, m, (2 * n - 1) * m), n * m, axis=2)
    return windows[:, :, (n - 1) * m::-m]


def _stack_rows(powers: np.ndarray, picks: np.ndarray, T: int, extra: int = 0) -> np.ndarray:
    """A (g, T, s, m*n + extra) stack of rows ``picks`` (g, s), r = i + m*k, of
    the ``_power_stack`` powers, written step by step, latest step first."""
    (k, i), mn = np.divmod(picks, powers.shape[1]), powers.shape[-1]
    A = np.empty((len(picks), T, picks.shape[1], mn + extra))
    for t in range(T):
        A[:, T - 1 - t, :, :mn] = powers[t, i, k]
    return A


def _column_rhs(samples: SampleData) -> list[np.ndarray]:
    """Each column's sampled values, in system row order (latest step first)."""
    ends = np.cumsum(np.count_nonzero(samples.mask.indicator, axis=(0, 2)))[:-1]
    return [v.ravel() for v in np.split(samples.values[::-1], ends, axis=1)]


def assemble_column_system(
    a: Tensor3, mask: SampleMask, samples: SampleData, j: int
) -> ColumnSystem:
    """Build the stacked system for column ``j`` from operator, mask, samples."""
    _check_problem(a, mask, samples)
    m, p, n = mask.dims
    j = as_int(j, "j")
    if not 0 <= j < p:
        raise IndexError(f"column {j} out of range for {p} columns")
    T, picks = samples.horizon, np.flatnonzero(_columns(mask.indicator)[j])
    matrix = _stack_rows(_power_stack(a, T), picks[None], T).reshape(-1, m * n)
    return ColumnSystem(j=j, matrix=matrix, rhs=_column_rhs(samples)[j])


# -- solving -------------------------------------------------------------------

# The largest stack, in bytes of [M | B], that ``_solve_groups`` gathers and
# solves in one call: a cap keeps peak memory flat however many systems share a shape.
_STACK_BYTES = 256 * 1024
# Full rank is certified without an SVD when ||Rm||_F ||Rm^-1||_F, an upper
# bound on the 2-norm condition number, is below this margin over the tolerance.
_CERTIFY_MARGIN = 1e-3


def _triangular_inverse(R: np.ndarray) -> np.ndarray:
    """Inverse of each upper-triangular matrix of a (g, n, n) stack, by
    blocks: [[A, B], [0, D]]^-1 = [[A^-1, -A^-1 B D^-1], [0, D^-1]].  About
    2 n^3 / 3 flops, where ``np.linalg.inv``, an LU solve against the
    identity, takes 8 n^3 / 3."""
    n = R.shape[-1]
    if n <= 32:  # small blocks go to LAPACK whole
        return np.linalg.inv(R)
    h = n // 2
    Ai, Di = _triangular_inverse(R[:, :h, :h]), _triangular_inverse(R[:, h:, h:])
    X = np.zeros_like(R)
    X[:, :h, :h], X[:, h:, h:] = Ai, Di
    X[:, :h, h:] = -(Ai @ R[:, :h, h:] @ Di)
    return X


def _certified(Rm: np.ndarray, rel: float) -> np.ndarray:
    """Mask of the nonsingular upper-triangular factors of a stack that are
    certified full rank: ||Rm||_F ||Rm^-1||_F < ``_CERTIFY_MARGIN / rel``.

    The product bounds kappa from above.  A computed inverse X of a
    triangular matrix has a residual ||X Rm - I|| of order n eps ||X|| ||Rm||,
    well below 1 wherever the test passes, so the true product is at most
    about that computed; the margin covers this and the rounding of the SVD,
    so a certified factor has every singular value above ``rel * sigma_max``.
    ``Rm^-1`` has diagonal 1/r_ii, so ||Rm||_F ||1/r_ii||_2 bounds the
    product from below: where that alone reaches the limit, or an r_ii is
    zero, no inverse is taken.  Each factor is first scaled by the power of
    two that brings its largest entry into [0.5, 1), which leaves the product
    unchanged, so no norm overflows or underflows where the test can pass.
    """
    limit = _CERTIFY_MARGIN / rel
    Rs = np.ldexp(Rm, -_exponents(Rm, axis=(1, 2)))
    norms = np.linalg.norm(Rs, axis=(1, 2))
    certified = np.zeros(len(Rm), dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_diag = 1 / np.diagonal(Rs, axis1=1, axis2=2)
        hopeful = np.flatnonzero(norms * np.linalg.norm(inv_diag, axis=1) < limit)
        if len(hopeful):
            inv = _triangular_inverse(Rs if len(hopeful) == len(Rs) else Rs[hopeful])
            certified[hopeful] = norms[hopeful] * np.linalg.norm(inv, axis=(1, 2)) < limit
    return certified


def _finish(Rm: np.ndarray, C: np.ndarray, rows: int, tol=None, kappa: bool = True):
    """The post-QR half of each horizon of ``_solve_stack``: ``(x, ranks,
    kappas)`` for each member of a (g, min(rows, m*n), m*n) stack of
    triangular factors ``Rm`` with projected right-hand sides ``C`` (g, ., k),
    ``x`` (g, m*n, k) at the scale of ``C``.

    ``rows`` is the row count at that horizon of the systems the factors come
    from, which sets the default cutoff.  With ``kappa`` False, a member whose
    factor ``_certified`` shows full rank skips its SVD and reports kappa
    None; it takes the back-substitution that its SVD's rank would have chosen.
    """
    g, _, mn = Rm.shape
    rel = _default_tol((rows, mn)) if tol is None else float(tol)
    todo = np.arange(g)  # the members that take the values-only SVD
    if not kappa and Rm.shape[1] == mn:
        todo = np.flatnonzero(~_certified(Rm, rel))
    ranks, kappas = np.full(g, mn), [None] * g
    if len(todo):
        s = np.linalg.svd(Rm if len(todo) == g else Rm[todo], compute_uv=False)
        ranks[todo] = np.count_nonzero(s > rel * s[:, :1], axis=1)
        for i, kap in zip(todo, (s[:, 0] / s[np.arange(len(todo)), ranks[todo] - 1]).tolist()):
            kappas[i] = kap
    full = ranks == mn
    x = np.empty((g, mn, C.shape[2]))
    if C.shape[2]:
        with np.errstate(over="ignore", invalid="ignore"):
            if full.any():
                # LU of an upper-triangular matrix does not pivot: back-substitution.
                x[full] = np.linalg.solve(Rm[full], C[full])
            for i in np.flatnonzero(~full):
                r = ranks[i]
                u, sv, vh = np.linalg.svd(Rm[i], full_matrices=False)
                x[i] = vh[:r].T @ ((u[:, :r].T @ C[i]) / sv[:r, None])
    return x, ranks, kappas


@_single_threaded_blas()
def _solve_stack(A: np.ndarray, mn: int, tol=None, kappa: bool = True, heights=None):
    """``solve_column`` on each system ``A[i] = [M_i | B_i]`` of a (g, rows,
    m*n + k) stack, walked up its horizons; ``B`` is scaled in place.

    ``heights`` (default: all rows) splits the rows, bottom up, into those of
    the first horizon and those each longer one adds.  Returns, per horizon,
    one ``(x, rank, kappa, residual)`` per member, ``x`` (m*n, k) that
    horizon's solution and ``residual`` (length k) its misfit on the rows up
    to that horizon, and a mask of the members whose x and residual fit in
    float64 at every horizon.  One Householder QR of the bottom rows gives
    their factor R; each range above is stacked on R, and R becomes the R of
    one QR of [range ; R] (Golub & Van Loan, Matrix Computations, section
    6.5, on appending rows), with the singular values of the longer system,
    whose cutoff ``_finish`` applies.  numpy's linalg functions run LAPACK
    once per matrix of a stack, here on one OpenBLAS thread, so each member
    gets the bits of its walk alone at any thread count.
    """
    M, B = A[:, :, :mn], A[:, :, mn:]
    exp = _exponents(B, axis=1)
    np.ldexp(B, -exp, out=B)
    R, top, walk, fits = None, A.shape[1], [], np.ones(len(A), dtype=bool)
    for h in heights or (top,):
        block, top = A[:, top - h:top], top - h
        R = np.linalg.qr(block if R is None else np.concatenate([block, R], axis=1), mode="r")
        x, ranks, kappas = _finish(R[:, :mn, :mn], R[:, :mn, mn:], A.shape[1] - top, tol, kappa)
        with np.errstate(over="ignore", invalid="ignore"):
            residual = np.ldexp(np.linalg.norm(M[:, top:] @ x - B[:, top:], axis=1), exp[:, 0])
            x = np.ldexp(x, exp)
        fits &= np.isfinite(x).all(axis=(1, 2)) & np.isfinite(residual).all(axis=1)
        walk.append(list(zip(x, ranks.tolist(), kappas, residual)))
    return walk, fits


def _overflow(j: int) -> SampleOverflowError:
    return SampleOverflowError(f"column {j}: the least-squares solve overflows float64")


def solve_column(system: ColumnSystem, tol: float | None = None):
    """Minimum-norm least-squares solution of one column system.

    Returns ``(x, rank, kappa, residual)``: rank counts singular values above
    ``tol * sigma_max`` (``tol`` in (0, 1), default ``_default_tol``),
    kappa is the ratio of the largest kept singular value to the smallest,
    and residual is ``||M x - b||_2``.  A (rows, k) ``rhs`` holds k
    right-hand sides that share the matrix: ``x`` is then (m*n, k) and
    ``residual`` has length k (k = 0 asks for rank and kappa alone).  One
    Householder QR of ``[M | B]`` gives the square (or trapezoidal) factor
    ``Rm`` of ``M``, which has its singular values, and the projected
    right-hand sides ``C`` (Lawson & Hanson, Solving Least Squares Problems,
    SIAM 1995); rank and kappa come from the values-only SVD of ``Rm``, and ``x`` from
    back-substitution on ``Rm`` at full rank, else from its truncated SVD,
    as from LAPACK's ``gelsd``.  Each right-hand side is solved scaled by the
    power of two that brings its largest entry into [0.5, 1), so ``x`` and
    the residual scale exactly with the data.  An all-zero ``M`` (an
    unsampled column) raises ``UnrecoverableColumnError``; a solution or
    residual norm that does not fit in float64, ``SampleOverflowError``.
    The column systems that ``assemble_column_system`` and ``reconstruct``
    build put the latest step's rows first, so where the powers of the
    operator grow, the QR meets the largest rows first (Cox & Higham, BIT 38
    (1998)).  It is the one-block, one-member case of ``_solve_stack``, so a
    column whose sample pattern no other shares gets the bits of its column
    of ``reconstruct``, at any OpenBLAS thread count.
    """
    _check_tol(tol)
    M, b = system.matrix, system.rhs
    if not M.any():
        raise UnrecoverableColumnError((system.j,))
    B = b.reshape(len(b), -1)
    A = np.empty((1, len(M), M.shape[1] + B.shape[1]))  # C order: LAPACK's bits follow it
    np.concatenate([M, B], axis=1, out=A[0])
    ([(x, rank, kappa, residual)],), fits = _solve_stack(A, M.shape[1], tol)
    if not fits[0]:
        raise _overflow(system.j)
    if b.ndim == 1:
        return x[:, 0], rank, kappa, float(residual[0])
    return x, rank, kappa, residual


def _solve_groups(a: Tensor3, columns: list, tol, threads: int, kappa: bool = True) -> list:
    """``_solve_stack`` on each ``(horizons, selector, rhs, j)`` column, from
    one ``_power_stack`` built to the longest horizon: per column, None where the
    selector picks no row, else one ``(x, rank, kappa, residual)`` at each
    horizon of the sorted tuple ``horizons``, where ``rhs`` gives the values
    in row order to the longest horizon (None: no right-hand side, and x and
    residual None).  ``j`` names the column in the overflow error, raised for
    the first system that overflows at any horizon.

    Columns with equal ``(horizons, selector)`` share one system, in order of
    first appearance.  Systems of one shape (horizons, samples per step,
    right-hand sides) go in ``_stack_rows`` stacks of at most ``_STACK_BYTES``,
    one ``_solve_stack`` call and ``pmap`` item each; ``kappa`` False lets
    it skip the SVD of members certified full rank.
    """
    threads = as_int(threads, "threads")
    groups: dict[tuple, list[int]] = {}
    for c, (Ts, sel, _, _) in enumerate(columns):
        groups.setdefault((Ts, sel.tobytes()), []).append(c)
    members = list(groups.values())
    powers = _power_stack(a, max((Ts[-1] for Ts, *_ in columns), default=1))
    mn = powers.shape[-1]
    shapes: dict[tuple, list[int]] = {}
    for g, cs in enumerate(members):
        Ts, sel, rhs, _ = columns[cs[0]]
        s = int(np.count_nonzero(sel))
        if s:
            shapes.setdefault((Ts, s, 0 if rhs is None else len(cs)), []).append(g)
    stacks = []
    for (Ts, s, k), gs in shapes.items():
        size = max(1, _STACK_BYTES // (Ts[-1] * s * (mn + k) * 8))
        stacks += [(Ts, s, k, gs[c:c + size]) for c in range(0, len(gs), size)]

    def run(item):
        Ts, s, k, gs = item
        picks = np.array([np.flatnonzero(columns[members[g][0]][1]) for g in gs])
        A = _stack_rows(powers, picks, Ts[-1], k)
        for i, g in enumerate(gs if k else ()):
            rhs = [columns[c][2] for c in members[g]]
            A[i, :, :, mn:] = np.reshape(rhs, (k, Ts[-1], s)).transpose(1, 2, 0)
        heights = [(T - t) * s for t, T in zip((0, *Ts), Ts)]
        return _solve_stack(A.reshape(len(gs), Ts[-1] * s, mn + k), mn, tol, kappa, heights)

    results: list = [None] * len(columns)
    bad = []
    for (*_, k, gs), (walk, fits) in zip(stacks, pmap(run, stacks, threads)):
        for i, g in enumerate(gs):
            if not fits[i]:
                bad.append(g)
            for n, c in enumerate(members[g]):
                results[c] = [(x[:, n], rank, kap, float(res[n])) if k else (None, rank, kap, None)
                              for x, rank, kap, res in (at[i] for at in walk)]
    if bad:
        raise _overflow(columns[members[min(bad)][0]][3])
    return results


def reconstruct_batch(
    a: Tensor3,
    problems,
    *,
    tol: float | None = None,
    allow_partial: bool = False,
    ground_truth: Tensor3 | None = None,
    threads: int = 1,
    kappa: bool = True,
) -> list[ReconstructionReport]:
    """Reconstruct each ``SampleData`` problem, on the mask it carries, with
    the operator ``a``.

    Columns of every problem that share horizon and sample pattern are one
    column system, solved once with one right-hand side per column.  Reports
    come in problem order, identical for any thread count; each matches a
    lone ``reconstruct`` to roundoff, and bit for bit when it shares no
    system with another problem.  Overflow raises ``SampleOverflowError``.
    With ``kappa`` False, columns whose full rank is certified without an SVD
    report kappa None, and K is the largest kappa that was computed.
    """
    _check_tol(tol)
    m, _, n = a.dims
    # only sampled values are kept, so ``problems`` may be a generator
    columns, widths = [], []
    for samples in problems:
        _check_problem(a, samples.mask, None)
        sels = _columns(samples.mask.indicator)
        rhs = _column_rhs(samples)
        columns += [((samples.horizon,), sel, b, j) for j, (sel, b) in enumerate(zip(sels, rhs))]
        widths.append(len(sels))
    results = iter(_solve_groups(a, columns, tol, threads, kappa))
    reports = []
    for p in widths:
        # failed columns have no samples, so rank 0 and no misfit either: residual 0.0
        cols = [(next(results) or [(np.zeros(m * n), 0, None, 0.0)])[0] for _ in range(p)]
        xs, ranks, kappas, residuals = (list(v) for v in zip(*cols))
        failed = [j for j, r in enumerate(ranks) if r == 0]
        if failed and not allow_partial:
            raise UnrecoverableColumnError(failed)
        estimate = Tensor3(_from_columns(np.stack(xs), m))
        solved = [k for k in kappas if k is not None]
        err = None if ground_truth is None else tensor_rel_error(estimate, ground_truth)
        if err is not None and not np.isfinite(err):
            raise SampleOverflowError("the relative error overflows float64")
        reports.append(ReconstructionReport(
            estimate, residuals, kappas, max(solved) if solved else None, ranks, failed, err
        ))
    return reports


def reconstruct(
    a: Tensor3,
    mask: SampleMask,
    samples: SampleData,
    *,
    tol: float | None = None,
    allow_partial: bool = False,
    ground_truth: Tensor3 | None = None,
    threads: int = 1,
) -> ReconstructionReport:
    """Solve all column systems and assemble the estimated initial signal.

    This is ``reconstruct_batch`` on one problem: columns with the same
    sample pattern share one solve, and the report is
    identical for any thread count.  Unsampled columns raise unless
    ``allow_partial`` zero-fills them and lists them in ``failed_columns``.
    """
    _check_problem(a, mask, samples)
    return reconstruct_batch(
        a, [samples], tol=tol, allow_partial=allow_partial,
        ground_truth=ground_truth, threads=threads,
    )[0]


def _condition_sweep(a: Tensor3, mask: SampleMask, Ts, tol=None, threads: int = 1):
    """``system_condition`` at each horizon of ``Ts``: one ``(kappas, K)``
    per horizon, in the order of ``Ts``, from one ``_solve_groups`` walk of
    the sorted distinct horizons with no right-hand side."""
    _check_tol(tol)
    _check_problem(a, mask, None)
    Ts = [as_int(T, "T") for T in Ts]
    horizons = tuple(sorted(set(Ts)))
    if horizons[0] < 1:
        raise ValueError(f"T must be >= 1, got {horizons[0]}")
    sels = _columns(mask.indicator)
    empty = np.flatnonzero(~sels.any(axis=1))
    if len(empty):
        raise UnrecoverableColumnError(empty)
    walks = _solve_groups(a, [(horizons, sel, None, j) for j, sel in enumerate(sels)], tol, threads)
    at = {T: h for h, T in enumerate(horizons)}
    return [(ks, max(ks)) for ks in ([w[at[T]][2] for w in walks] for T in Ts)]


def system_condition(
    a: Tensor3, mask: SampleMask, T: int, tol: float | None = None, threads: int = 1
):
    """Condition numbers of every column system and their maximum.

    The right-hand side is irrelevant: kappa(j) depends only on the operator,
    the mask, and the horizon.  It is the rank and kappa that ``solve_column``
    takes, from the values-only SVD of the R factor of column j's system;
    this is the one-horizon case of the sweep that ``condition-vs-T`` runs.
    Returns ``(kappas, K)``.
    """
    return _condition_sweep(a, mask, [T], tol, threads)[0]
