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
values at the same entries, in the same order.  Real operators and
observations give a real system and a real estimate.  Columns with the same
horizon and sample pattern share their matrix, also across the problems of
one ``reconstruct_batch`` call, so each distinct matrix is factored once per
call and solved for all of its columns' right-hand sides together.

Columns with no samples yield an empty system and cannot be recovered; they
raise ``UnrecoverableColumnError`` unless the caller asks for a partial
estimate with those columns zero-filled and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor3 import ShapeMismatchError, Tensor3
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


def _column_rhs(samples: SampleData) -> np.ndarray:
    """(p, T, m*n) observed values of each column at each step, rows as in ``_selectors``."""
    m, p, n = samples.mask.dims
    obs = np.stack([o.data for o in samples.observations])
    return obs.transpose(2, 0, 3, 1).reshape(p, samples.horizon, m * n)


def assemble_column_system(
    a: Tensor3, mask: SampleMask, samples: SampleData, j: int
) -> ColumnSystem:
    """Build the stacked system for column ``j`` from operator, mask, samples."""
    _check_problem(a, mask, samples)
    p = mask.dims[1]
    if not 0 <= j < p:
        raise IndexError(f"column {j} out of range for {p} columns")
    sel = _selectors(mask)[j]
    matrix = _power_stack(a, samples.horizon)[:, sel, :].reshape(-1, a.dims[0] * a.dims[2])
    return ColumnSystem(j=j, matrix=matrix, rhs=_column_rhs(samples)[j][:, sel].ravel())


# -- solving -------------------------------------------------------------------


def _factor_solve(M: np.ndarray, B: np.ndarray, tol: float | None):
    """Truncated minimum-norm least-squares solution of ``M X = B``.

    One Householder QR of ``[M | B]`` reduces the problem to the square (or,
    with fewer rows than columns, trapezoidal) factor ``Rm`` of ``M`` and the
    projected right-hand sides ``C``; ``Rm`` has the singular values of
    ``M`` (Lawson & Hanson, Solving Least Squares Problems, SIAM 1995).
    Rank counts singular values above ``tol * s[0]``.  At full rank ``X``
    comes from back-substitution on ``Rm``, otherwise from the truncated SVD
    of ``Rm``: the solution LAPACK's ``gelsd`` returns.  Returns
    ``(X, rank, kappa)``.  When ``B`` has no columns there is nothing to
    solve, and the values-only SVD of ``M`` itself is cheaper than QR first.
    """
    mn = M.shape[1]
    Rm, C = M, B
    if B.shape[1]:
        R = np.linalg.qr(np.concatenate([M, B], axis=1), mode="r")
        Rm, C = R[:mn, :mn], R[:mn, mn:]
    s = np.linalg.svd(Rm, compute_uv=False)
    rel = default_solver_tol(M.shape) if tol is None else float(tol)
    rank = int(np.count_nonzero(s > rel * s[0]))
    kappa = float(s[0] / s[rank - 1])
    if not B.shape[1]:
        return np.empty((mn, 0)), rank, kappa
    if rank == mn:
        # LU of an upper-triangular matrix does not pivot: back-substitution.
        return np.linalg.solve(Rm, C), rank, kappa
    u, sv, vh = np.linalg.svd(Rm, full_matrices=False)
    coef = (u[:, :rank].conj().T @ C) / sv[:rank, None]
    return vh[:rank].conj().T @ coef, rank, kappa


def solve_column(system: ColumnSystem, tol: float | None = None):
    """Minimum-norm least-squares solution of one column system.

    Returns ``(x, rank, kappa, residual)`` where rank counts singular values
    above ``tol * sigma_max`` (``tol`` in (0, 1), default
    ``default_solver_tol``: the cutoff ``system_condition`` applies too),
    kappa is the ratio of the largest kept singular value to the smallest,
    and residual is ``||M x - b||_2``.  A 2-D ``rhs`` of shape (rows, k)
    holds k right-hand sides that share the matrix: ``x`` is then (m*n, k)
    and ``residual`` a length-k array, one entry per right-hand side.  A
    system without a nonzero entry raises ``UnrecoverableColumnError`` --
    that column was never sampled.
    """
    _check_tol(tol)
    M, b = system.matrix, system.rhs
    if not M.any():
        raise UnrecoverableColumnError((system.j,))
    B = b.reshape(len(b), -1)
    x, rank, kappa = _factor_solve(M, B, tol)
    residual = np.linalg.norm(M @ x - B, axis=0)
    if b.ndim == 1:
        return x[:, 0], rank, kappa, float(residual[0])
    return x, rank, kappa, residual


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

    The power stack is built once, to the longest horizon.  Each column of
    each problem is keyed by horizon, observation dtype and sample pattern,
    in order of first appearance over problems, then columns; each key is
    one ``solve_column`` call with one right-hand side per member, and keys
    may be solved in parallel.  Reports come in problem order, identical for
    any thread count; each matches a lone ``reconstruct`` to roundoff, and
    bit for bit when it shares no key with another problem.
    """
    _check_tol(tol)
    m, _, n = a.dims
    # key -> (row selector, member (problem, column) pairs, their right-hand
    # sides); only sampled values are kept, so ``problems`` may be a generator.
    keys: dict[tuple, tuple[np.ndarray, list, list]] = {}
    widths = []
    for q, (mask, samples) in enumerate(problems):
        _check_problem(a, mask, samples)
        obs = _column_rhs(samples)
        for j, sel in enumerate(_selectors(mask)):
            key = (samples.horizon, obs.dtype, sel.tobytes())
            _, members, cols = keys.setdefault(key, (sel, [], []))
            members.append((q, j))
            cols.append(obs[j][:, sel].ravel())
        widths.append(len(obs))
    stack = _power_stack(a, max((T for T, _, _ in keys), default=1))

    def run(item):
        (T, _, _), (sel, members, cols) = item
        matrix = stack[:T, sel, :].reshape(-1, m * n)
        system = ColumnSystem(j=members[0][1], matrix=matrix, rhs=np.stack(cols).T)
        try:
            return solve_column(system, tol)
        except UnrecoverableColumnError:
            return None

    # (x, rank, kappa, residual) of every column; failed columns have no
    # samples, so no misfit either: residual 0.0.
    columns = [[(np.zeros(m * n), 0, None, 0.0)] * p for p in widths]
    for (_, members, _), res in zip(keys.values(), pmap(run, keys.items(), threads)):
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
        reports.append(ReconstructionReport(
            estimate, residuals, kappas, max(solved) if solved else None, ranks, failed,
            None if ground_truth is None else tensor_rel_error(estimate, ground_truth),
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
    The estimate is real (float64) when the operator and observations are.
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
    stack, selectors = _power_stack(a, max(Ts)), _selectors(mask)
    groups: dict[bytes, list[int]] = {}
    for j, row in enumerate(selectors):
        groups.setdefault(row.tobytes(), []).append(j)
    items = [(t, T, cols) for t, T in enumerate(Ts) for cols in groups.values()]

    def run(item):
        _, T, cols = item
        matrix = stack[:T, selectors[cols[0]], :].reshape(-1, stack.shape[2])
        if not matrix.any():
            return None
        return _factor_solve(matrix, np.empty((matrix.shape[0], 0)), tol)[2]

    kappas = [[None] * len(selectors) for _ in Ts]
    for (t, _, cols), kappa in zip(items, pmap(run, items, threads)):
        for j in cols:
            kappas[t][j] = kappa
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
