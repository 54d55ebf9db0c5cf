"""Recover the initial signal from masked space-time samples.

Under the t-product every lateral slice F[:, j, :] evolves independently by
the same real matrix bcirc(A), so recovery splits into p independent
least-squares systems, one per second-mode column j.  The unknown of system
j is the spatial column

    x(j) = vec(F[:, j, :])  (F order, length m*n),

and every sample (t, i, k) of column j contributes the row of bcirc(A)^t
that produces entry (i, k) of the column at step t.  The stack of powers
bcirc(A)^0, ..., bcirc(A)^(T-1) is computed once per call by evolving the
m*n unit-basis slab to the longest horizon; column j's matrix is the subset
of its rows that the mask selects, and its right-hand side is the observed
values at the same entries, in the same order.  Columns with the same
horizon and sample pattern share their matrix, so ``reconstruct_batch`` and
``system_condition`` pass each distinct matrix of a call to ``solve_column``
once: with the right-hand sides of all its columns, across the problems of
the call, or with none for the condition number alone.

Columns with no samples yield an empty system and cannot be recovered; they
raise ``UnrecoverableColumnError`` unless the caller asks for a partial
estimate with those columns zero-filled and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor3 import ShapeMismatchError, Tensor3, _exponents, _norm2
from .tensor3 import rel_error as tensor_rel_error
from .sampling import SampleMask
from .dynsys import SampleData, SampleOverflowError, evolve
from ._parallel import pmap

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
    number of samples the mask places in column ``j``.  A (T*s, k) ``rhs``
    holds the right-hand sides of k columns with the same sample pattern,
    ``j`` the first of them.
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
        """JSON-ready diagnostics."""
        out = {
            "residuals": self.residuals,
            "kappa": self.kappa,
            "K": self.K,
            "ranks": self.ranks,
            "failed_columns": self.failed_columns,
        }
        if self.rel_error is not None:
            out["rel_error"] = self.rel_error
        return out


def default_solver_tol(shape) -> float:
    """Relative singular-value cutoff: max(rows, cols) * machine epsilon."""
    return max(int(shape[0]), int(shape[1])) * _EPS


def _check_tol(tol) -> None:
    if tol is not None and not 0.0 < float(tol) < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


# -- system assembly ----------------------------------------------------------


def _check_problem(a: Tensor3, mask: SampleMask, samples: SampleData | None) -> None:
    m, p, n = mask.dims
    if a.dims != (m, m, n):
        raise ShapeMismatchError(f"operator dims {a.dims} incompatible with mask dims {mask.dims}")
    if samples is not None and not np.array_equal(mask.indicator, samples.mask.indicator):
        raise ValueError("mask does not match the mask the samples were taken on")


def _power_stack(a: Tensor3, T: int) -> np.ndarray:
    """The (T, m*n, m*n) stack of bcirc(A)^0, ..., bcirc(A)^(T-1).

    Row r = i + m*k of each power produces entry (i, k) of a column.  The
    stack at horizon T is a prefix of the stack at any longer horizon, bit
    for bit, because ``evolve`` computes each step from the one before.
    Powers that overflow float64 raise ``SampleOverflowError``.
    """
    m, _, n = a.dims
    mn = m * n
    # Lateral slice q of the basis slab is the unit (m, n) slab with a one at
    # vec index q = i + m*k, so evolving it yields the columns of bcirc(A)^t.
    basis = Tensor3(np.eye(mn).reshape(n, m, mn).transpose(1, 2, 0))
    stack = np.stack(
        [s.data.transpose(2, 0, 1).reshape(mn, mn) for s in evolve(a, basis, T)]
    )
    if not np.isfinite(stack).all():
        raise SampleOverflowError(f"the powers of the operator overflow float64 by T={T}")
    return stack


def _selectors(mask: SampleMask) -> np.ndarray:
    """(p, m*n) row selectors: row r = i + m*k of column j is entry (i, k)."""
    m, p, n = mask.dims
    return mask.indicator.transpose(1, 2, 0).reshape(p, m * n)


def _column_rhs(samples: SampleData, selectors) -> list[np.ndarray]:
    """Each column's observed values at the rows its selector picks, in system row order."""
    m, p, n = samples.mask.dims
    obs = np.stack([o.data for o in samples.observations])
    obs = obs.transpose(2, 0, 3, 1).reshape(p, samples.horizon, m * n)
    return [o[:, sel].ravel() for o, sel in zip(obs, selectors)]


def _column_system(stack: np.ndarray, T: int, sel, j: int, rhs) -> ColumnSystem:
    """Column ``j``'s system: the rows ``sel`` picks from the first T powers."""
    return ColumnSystem(j=j, matrix=stack[:T, sel, :].reshape(-1, stack.shape[2]), rhs=rhs)


def assemble_column_system(
    a: Tensor3, mask: SampleMask, samples: SampleData, j: int
) -> ColumnSystem:
    """Build the stacked system for column ``j`` from operator, mask, samples."""
    _check_problem(a, mask, samples)
    p = mask.dims[1]
    if not 0 <= j < p:
        raise IndexError(f"column {j} out of range for {p} columns")
    T, sels = samples.horizon, _selectors(mask)
    return _column_system(_power_stack(a, T), T, sels[j], j, _column_rhs(samples, sels)[j])


# -- solving -------------------------------------------------------------------


def solve_column(system: ColumnSystem, tol: float | None = None):
    """Minimum-norm least-squares solution of one column system.

    Returns ``(x, rank, kappa, residual)``: rank counts singular values above
    ``tol * sigma_max`` (``tol`` in (0, 1), default ``default_solver_tol``),
    kappa is the ratio of the largest kept singular value to the smallest,
    and residual is ``||M x - b||_2``.  A (rows, k) ``rhs`` holds k
    right-hand sides that share the matrix: ``x`` is then (m*n, k) and
    ``residual`` has length k; with k = 0 only the values-only SVD of ``M``
    is taken, for rank and kappa.  Otherwise one Householder QR of ``[M | B]``
    gives the square (or trapezoidal) factor ``Rm`` of ``M``, which has its
    singular values, and the projected right-hand sides ``C`` (Lawson &
    Hanson, Solving Least Squares Problems, SIAM 1995); ``x`` comes from
    back-substitution on ``Rm`` at full rank, else from its truncated SVD,
    as from LAPACK's ``gelsd``.  Each right-hand side is solved scaled by the
    power of two that brings its largest entry into [0.5, 1), so ``x`` and
    the residual scale exactly with the data.  An all-zero ``M`` (an
    unsampled column) raises ``UnrecoverableColumnError``; a solution or
    residual norm that does not fit in float64, ``SampleOverflowError``.
    """
    _check_tol(tol)
    M, b = system.matrix, system.rhs
    if not M.any():
        raise UnrecoverableColumnError((system.j,))
    mn, B = M.shape[1], b.reshape(len(b), -1)
    exp = _exponents(B, axis=0)
    B = np.ldexp(B, -exp)
    Rm, C = M, B
    if B.shape[1]:
        R = np.linalg.qr(np.concatenate([M, B], axis=1), mode="r")
        Rm, C = R[:mn, :mn], R[:mn, mn:]
    s = np.linalg.svd(Rm, compute_uv=False)
    rel = default_solver_tol(M.shape) if tol is None else float(tol)
    rank = int(np.count_nonzero(s > rel * s[0]))
    kappa = float(s[0] / s[rank - 1])
    with np.errstate(over="ignore", invalid="ignore"):
        if not B.shape[1]:
            x = np.empty((mn, 0))
        elif rank == mn:
            # LU of an upper-triangular matrix does not pivot: back-substitution.
            x = np.linalg.solve(Rm, C)
        else:
            u, sv, vh = np.linalg.svd(Rm, full_matrices=False)
            x = vh[:rank].T @ ((u[:, :rank].T @ C) / sv[:rank, None])
        x, residual = np.ldexp(x, exp), np.ldexp(_norm2(M @ x - B, axis=0), exp[0])
    if not (np.isfinite(x).all() and np.isfinite(residual).all()):
        raise SampleOverflowError(f"column {system.j}: the least-squares solve overflows float64")
    if b.ndim == 1:
        return x[:, 0], rank, kappa, float(residual[0])
    return x, rank, kappa, residual


def _solve_groups(a: Tensor3, groups: dict, tol, threads: int) -> list:
    """``solve_column`` on each ``(T, selector bytes) -> (selector, (item,
    column) members, right-hand sides)`` group, in parallel, from one power
    stack built to the longest T; None for an unsampled group."""
    stack = _power_stack(a, max((T for T, _ in groups), default=1))

    def run(item):
        (T, _), (sel, members, cols) = item
        rhs = np.reshape(cols, (len(cols), T * int(sel.sum()))).T
        try:
            return solve_column(_column_system(stack, T, sel, members[0][1], rhs), tol)
        except UnrecoverableColumnError:
            return None

    return pmap(run, groups.items(), threads)


def reconstruct_batch(
    a: Tensor3,
    problems,
    *,
    tol: float | None = None,
    allow_partial: bool = False,
    ground_truth: Tensor3 | None = None,
    threads: int = 1,
) -> list[ReconstructionReport]:
    """Reconstruct each ``(mask, samples)`` problem on the operator ``a``.

    Each column of each problem is keyed by horizon and sample pattern, in
    order of first appearance over problems, then columns; each key is one
    ``solve_column`` call with one right-hand side per member.  Reports come
    in problem order, identical for any thread count; each matches a lone
    ``reconstruct`` to roundoff, and bit for bit when it shares no key with
    another problem.  Overflow raises ``SampleOverflowError``.
    """
    _check_tol(tol)
    m, _, n = a.dims
    # only sampled values are kept, so ``problems`` may be a generator
    groups: dict[tuple, tuple[np.ndarray, list, list]] = {}
    widths = []
    for q, (mask, samples) in enumerate(problems):
        _check_problem(a, mask, samples)
        selectors = _selectors(mask)
        for j, (sel, rhs) in enumerate(zip(selectors, _column_rhs(samples, selectors))):
            key = (samples.horizon, sel.tobytes())
            _, members, cols = groups.setdefault(key, (sel, [], []))
            members.append((q, j))
            cols.append(rhs)
        widths.append(len(selectors))
    # (x, rank, kappa, residual) of every column; failed columns have no
    # samples, so no misfit either: residual 0.0.
    columns = [[(np.zeros(m * n), 0, None, 0.0)] * p for p in widths]
    for (_, members, _), res in zip(groups.values(), _solve_groups(a, groups, tol, threads)):
        if res is not None:
            x, rank, kappa, residual = res
            for (q, j), xj, r in zip(members, x.T, residual):
                columns[q][j] = (xj, rank, kappa, float(r))
    reports = []
    for cols in columns:
        xs, ranks, kappas, residuals = (list(v) for v in zip(*cols))
        failed = [j for j, k in enumerate(kappas) if k is None]
        if failed and not allow_partial:
            raise UnrecoverableColumnError(failed)
        estimate = Tensor3(np.stack(xs).reshape(len(xs), n, m).transpose(2, 0, 1))
        solved = [k for k in kappas if k is not None]
        with np.errstate(over="ignore", invalid="ignore"):
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
    sample pattern share one ``solve_column`` call, and the report is
    identical for any thread count.  Unsampled columns raise unless
    ``allow_partial`` zero-fills them and lists them in ``failed_columns``.
    """
    return reconstruct_batch(
        a, [(mask, samples)], tol=tol, allow_partial=allow_partial,
        ground_truth=ground_truth, threads=threads,
    )[0]


def _condition_sweep(a: Tensor3, mask: SampleMask, Ts, tol=None, threads: int = 1):
    """``system_condition`` at each horizon of ``Ts``, from one power stack
    built to the longest; returns one ``(kappas, K)`` per horizon."""
    _check_tol(tol)
    _check_problem(a, mask, None)
    groups: dict[tuple, tuple[np.ndarray, list, list]] = {}
    for j, sel in enumerate(_selectors(mask)):
        for t, T in enumerate(Ts):
            groups.setdefault((T, sel.tobytes()), (sel, [], []))[1].append((t, j))
    kappas = [[None] * mask.dims[1] for _ in Ts]
    for (_, members, _), res in zip(groups.values(), _solve_groups(a, groups, tol, threads)):
        for t, j in members:
            kappas[t][j] = None if res is None else res[2]
    empty = [j for j, k in enumerate(kappas[0]) if k is None]
    if empty:
        raise UnrecoverableColumnError(empty)
    return [(ks, max(ks)) for ks in kappas]


def system_condition(
    a: Tensor3, mask: SampleMask, T: int, tol: float | None = None, threads: int = 1
):
    """Condition numbers of every column system and their maximum.

    The right-hand side is irrelevant: kappa(j) depends only on the operator,
    the mask, and the horizon.  Returns ``(kappas, K)``.
    """
    return _condition_sweep(a, mask, [T], tol, threads)[0]
