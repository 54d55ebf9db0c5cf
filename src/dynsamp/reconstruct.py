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
give a real system and a real estimate.

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
    number of samples the mask places in column ``j``.
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


def _kappa(s: np.ndarray, shape, tol) -> float:
    """Largest singular value over the smallest one above ``tol * s[0]``."""
    rel = default_solver_tol(shape) if tol is None else float(tol)
    return float(s[0] / s[s > rel * s[0]][-1])


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
    """Return ``build(j) -> ColumnSystem`` for every column of one problem.

    The (T, m*n, m*n) stack of bcirc(A)^t is built once here; ``build``
    only selects rows.  Without observations the right-hand sides are empty.
    """
    m, p, n = mask.dims
    mn = m * n
    # Lateral slice q of the basis slab is the unit (m, n) slab with a one at
    # vec index q = i + m*k, so evolving it yields the columns of bcirc(A)^t.
    basis = Tensor3(np.eye(mn).reshape(n, m, mn).transpose(1, 2, 0))
    stack = np.stack(
        [s.data.transpose(2, 0, 1).reshape(mn, mn) for s in evolve(a, basis, T)]
    )
    if a.is_real:
        stack = stack.real
    # Row r = i + m*k of both the stack and the selectors is entry (i, k).
    selectors = mask.indicator.transpose(1, 2, 0).reshape(p, mn)
    if observations:
        obs = np.stack([o.data for o in observations])
        if all(o.is_real for o in observations):
            obs = obs.real
        obs = obs.transpose(2, 0, 3, 1).reshape(p, len(observations), mn)

    def build(j: int) -> ColumnSystem:
        sel = selectors[j]
        rhs = obs[j][:, sel].ravel() if observations else np.empty(0)
        return ColumnSystem(j=j, matrix=stack[:, sel, :].reshape(-1, mn), rhs=rhs)

    return build


def assemble_column_system(
    a: Tensor3, mask: SampleMask, samples: SampleData, j: int
) -> ColumnSystem:
    """Build the stacked system for column ``j`` from operator, mask, samples."""
    _check_problem(a, mask, samples)
    p = mask.dims[1]
    if not 0 <= j < p:
        raise IndexError(f"column {j} out of range for {p} columns")
    return _column_systems(a, mask, samples.horizon, samples.observations)(j)


# -- solving -------------------------------------------------------------------


def solve_column(system: ColumnSystem, tol: float | None = None):
    """Minimum-norm least-squares solution of one column system.

    One LAPACK ``gelsd`` call (``np.linalg.lstsq``) returns the solution, the
    rank and the singular values.  Returns ``(x, rank, kappa, residual)``
    where rank counts singular values above ``tol * sigma_max`` (``tol`` in
    (0, 1), default ``default_solver_tol``: the cutoff ``system_condition``
    applies too) and kappa is the ratio of the largest kept singular value
    to the smallest.  A system without a nonzero entry raises
    ``UnrecoverableColumnError`` -- that column was never sampled.
    """
    _check_tol(tol)
    M, b = system.matrix, system.rhs
    if not M.any():
        raise UnrecoverableColumnError((system.j,))
    x, _, rank, s = np.linalg.lstsq(M, b, rcond=tol)
    rank = int(rank)
    residual = float(np.linalg.norm(M @ x - b))
    return x, rank, float(s[0] / s[rank - 1]), residual


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

    Columns are independent and may be solved in parallel; the report is
    identical for any thread count.  Unsampled columns raise unless
    ``allow_partial`` is set, in which case they are zero-filled and listed
    in ``failed_columns``.  The estimate is real when the operator and the
    observations are.
    """
    start = time.perf_counter()
    _check_tol(tol)
    _check_problem(a, mask, samples)
    m, p, n = mask.dims
    build = _column_systems(a, mask, samples.horizon, samples.observations)

    def run(j: int):
        try:
            return solve_column(build(j), tol)
        except UnrecoverableColumnError:
            return None  # no samples, so no misfit either

    results = pmap(run, range(p), threads)
    failed = [j for j, r in enumerate(results) if r is None]
    if failed and not allow_partial:
        raise UnrecoverableColumnError(failed)

    estimate_data = np.zeros((m, p, n), dtype=np.complex128)
    residuals: list[float] = []
    kappas: list[float | None] = []
    ranks: list[int] = []
    for j, res in enumerate(results):
        if res is None:
            residuals.append(0.0)
            kappas.append(None)
            ranks.append(0)
            continue
        x, rank, kappa, residual = res
        estimate_data[:, j, :] = x.reshape((m, n), order="F")
        residuals.append(residual)
        kappas.append(kappa)
        ranks.append(rank)
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
    build = _column_systems(a, mask, T)

    def run(j: int):
        M = build(j).matrix
        if not M.any():
            return None
        return _kappa(np.linalg.svd(M, compute_uv=False), M.shape, tol)

    kappas = pmap(run, range(mask.dims[1]), threads)
    empty = [j for j, k in enumerate(kappas) if k is None]
    if empty:
        raise UnrecoverableColumnError(empty)
    return kappas, max(kappas)
