"""Recover the initial signal from masked space-time samples.

Under the t-product every lateral slice F[:, j, :] evolves independently by
the same real matrix bcirc(A), so recovery splits into p independent
least-squares systems, one per second-mode column j.  The unknown of system
j is the spatial column

    x(j) = vec(F[:, j, :])  (F order, length m*n),

and every sample (t, i, k) of column j contributes the row of bcirc(A)^t
that produces entry (i, k) of the column at step t.  The stack of powers
bcirc(A)^0, ..., bcirc(A)^(T-1) is computed once per (operator, T) by
evolving the m*n unit-basis slab; column j's matrix is the subset of its
rows that the mask selects, and its right-hand side is the observed values
at the same entries, in the same order.  Real operators and observations
give a real system and a real estimate.  Columns with the same sample
pattern share their matrix, so each distinct matrix is factored once per
call and solved for all of its columns' right-hand sides together.

Columns with no samples yield an empty system and cannot be recovered; they
raise ``UnrecoverableColumnError`` unless the caller asks for a partial
estimate with those columns zero-filled and flagged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .tensor3 import ShapeMismatchError, Tensor3
from .tensor3 import rel_error as tensor_rel_error
from .sampling import SampleMask
from .dynsys import SampleData, evolve
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
    wall_ms: float = 0.0

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
        """JSON-ready diagnostics; timing is excluded to keep outputs stable."""
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
        raise ShapeMismatchError(
            f"operator dims {a.dims} incompatible with mask dims {mask.dims}"
        )
    if samples is not None and not np.array_equal(
        mask.indicator, samples.mask.indicator
    ):
        raise ValueError("mask does not match the mask the samples were taken on")


def _column_systems(a: Tensor3, mask: SampleMask, T: int, observations=()):
    """Return ``(groups, build)`` for the column systems of one problem.

    The (T, m*n, m*n) stack of bcirc(A)^t is built once here; ``build``
    only selects rows.  ``groups`` lists the columns by sample pattern, in
    order of their first column; the columns of one group share one matrix.
    ``build(cols)`` takes the columns of one group and returns their system
    with a (rows, len(cols)) right-hand side, one column per entry of
    ``cols``.  Without observations the right-hand side has no columns.
    """
    m, p, n = mask.dims
    mn = m * n
    # Lateral slice q of the basis slab is the unit (m, n) slab with a one at
    # vec index q = i + m*k, so evolving it yields the columns of bcirc(A)^t.
    basis = Tensor3(np.eye(mn).reshape(n, m, mn).transpose(1, 2, 0))
    stack = np.stack(
        [s.data.transpose(2, 0, 1).reshape(mn, mn) for s in evolve(a, basis, T)]
    )
    # Row r = i + m*k of both the stack and the selectors is entry (i, k).
    selectors = mask.indicator.transpose(1, 2, 0).reshape(p, mn)
    if observations:
        obs = np.stack([o.data for o in observations])
        obs = obs.transpose(2, 0, 3, 1).reshape(p, len(observations), mn)
    groups: dict[bytes, list[int]] = {}
    for j in range(p):
        groups.setdefault(selectors[j].tobytes(), []).append(j)

    def build(cols: list[int]) -> ColumnSystem:
        sel = selectors[cols[0]]
        matrix = stack[:, sel, :].reshape(-1, mn)
        if observations:
            rhs = obs[cols][:, :, sel].reshape(len(cols), -1).T
        else:
            rhs = np.empty((matrix.shape[0], 0))
        return ColumnSystem(j=cols[0], matrix=matrix, rhs=rhs)

    return list(groups.values()), build


def assemble_column_system(
    a: Tensor3, mask: SampleMask, samples: SampleData, j: int
) -> ColumnSystem:
    """Build the stacked system for column ``j`` from operator, mask, samples."""
    _check_problem(a, mask, samples)
    p = mask.dims[1]
    if not 0 <= j < p:
        raise IndexError(f"column {j} out of range for {p} columns")
    _, build = _column_systems(a, mask, samples.horizon, samples.observations)
    system = build([j])
    return ColumnSystem(j=j, matrix=system.matrix, rhs=system.rhs.ravel())


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

    Columns are independent; those with the same sample pattern are solved
    together through one ``solve_column`` call, and the distinct systems may
    be solved in parallel.  The report is identical for any thread count.
    Unsampled columns raise unless ``allow_partial`` is set, in which case
    they are zero-filled and listed in ``failed_columns``.  The estimate is
    real (float64) when the operator and the observations are.
    """
    start = time.perf_counter()
    _check_tol(tol)
    _check_problem(a, mask, samples)
    m, p, n = mask.dims
    groups, build = _column_systems(a, mask, samples.horizon, samples.observations)

    def run(cols: list[int]):
        try:
            return solve_column(build(cols), tol)
        except UnrecoverableColumnError:
            return None

    dtype = np.result_type(a.data, *(o.data for o in samples.observations))
    estimate_data = np.zeros((m, p, n), dtype=dtype)
    # Failed columns have no samples, so no misfit either: residual 0.0.
    residuals = [0.0] * p
    kappas: list[float | None] = [None] * p
    ranks = [0] * p
    for cols, res in zip(groups, pmap(run, groups, threads)):
        if res is None:
            continue
        x, rank, kappa, residual = res
        estimate_data[:, cols, :] = x.T.reshape((len(cols), n, m)).transpose(2, 0, 1)
        for j, r in zip(cols, residual):
            residuals[j], kappas[j], ranks[j] = float(r), kappa, rank
    failed = [j for j, k in enumerate(kappas) if k is None]
    if failed and not allow_partial:
        raise UnrecoverableColumnError(failed)
    estimate = Tensor3(estimate_data, copy=False)

    solved = [k for k in kappas if k is not None]
    return ReconstructionReport(
        estimate=estimate,
        residuals=residuals,
        kappa=kappas,
        K=max(solved) if solved else None,
        ranks=ranks,
        failed_columns=failed,
        rel_error=(
            tensor_rel_error(estimate, ground_truth)
            if ground_truth is not None
            else None
        ),
        wall_ms=(time.perf_counter() - start) * 1e3,
    )


def system_condition(
    a: Tensor3, mask: SampleMask, T: int, tol: float | None = None, threads: int = 1
):
    """Condition numbers of every column system and their maximum.

    The right-hand side is irrelevant: kappa(j) depends only on the operator,
    the mask, and the horizon.  Returns ``(kappas, K)``.
    """
    _check_tol(tol)
    _check_problem(a, mask, None)
    groups, build = _column_systems(a, mask, T)

    def run(cols: list[int]):
        system = build(cols)
        if not system.matrix.any():
            return None
        return _factor_solve(system.matrix, system.rhs, tol)[2]

    kappas: list[float | None] = [None] * mask.dims[1]
    for cols, kappa in zip(groups, pmap(run, groups, threads)):
        for j in cols:
            kappas[j] = kappa
    empty = [j for j, k in enumerate(kappas) if k is None]
    if empty:
        raise UnrecoverableColumnError(empty)
    return kappas, max(kappas)
