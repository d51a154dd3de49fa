"""Classical ground truth: cyclic tridiagonal Cholesky solve and state metrics.

Every system matrix the package solves is tridiagonal, plus two corners when
periodic, so the reference factor is O(N) in time and memory: A = L L^T with
L lower bidiagonal plus a dense last row, the only fill the corner produces.
numpy only, so importing the package never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import Bands
from .states import Statevector


class SolverError(RuntimeError):
    """The system matrix is singular or indefinite."""


@dataclass(frozen=True)
class ClassicalSolution:
    u: np.ndarray
    norm: float
    u_normalized: np.ndarray


def _as_vector(state) -> np.ndarray:
    if isinstance(state, Statevector):
        return state.amplitudes
    return np.asarray(state)


def _bands_of(matrix: np.ndarray) -> Bands:
    """Bands of a dense real square matrix, read from its upper triangle.

    ``ValueError`` if any entry off the three bands and the two corners is
    non-zero (or NaN): the solver factors cyclic tridiagonal matrices only.
    """
    if (matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0
            or not np.isrealobj(matrix)):
        raise ValueError(f"matrix must be real, non-empty and square, got {matrix.dtype} "
                         f"{matrix.shape}")
    rest = np.triu(matrix, 2) + np.tril(matrix, -2)
    corner = 0.0
    if len(matrix) > 2:
        corner = matrix[0, -1]
        rest[0, -1] = rest[-1, 0] = 0.0
    if rest.any():
        raise ValueError("matrix has non-zero entries off its bands and corners")
    return Bands(np.diagonal(matrix), np.diagonal(matrix, 1), corner)


def _factor(diagonal: list[float], off: list[float],
            corner: float) -> tuple[list[float], list[float], list[float]]:
    """Cholesky factor A = L L^T of a cyclic tridiagonal matrix.

    Returns diag(L), L[i, i - 1] (0 in rows 0 and N - 1) and L's last row left
    of its diagonal, which holds L[N - 1, N - 2].  ``SolverError`` for a
    pivot diag(L)^2 that is not positive, or below 1e-12 of the largest.
    """
    last_row_of_a = [0.0] * (len(diagonal) - 1)
    if last_row_of_a:
        last_row_of_a[0] += corner
        last_row_of_a[-1] += off[-1]
    pivots, sub, last = [], [0.0], []
    below = row = 0.0
    for d, e, a in zip(diagonal, off, last_row_of_a):
        pivot = d - below * below
        if not pivot > 0.0:
            raise SolverError("matrix is not positive definite")
        root = math.sqrt(pivot)
        row = (a - row * below) / root
        below = e / root
        pivots.append(pivot)
        sub.append(below)
        last.append(row)
    pivot = diagonal[-1] - sum(r * r for r in last)
    if not pivot > 0.0:
        raise SolverError("matrix is not positive definite")
    pivots.append(pivot)
    if min(pivots) < 1e-12 * max(pivots):
        raise SolverError("matrix is singular to working precision; add regularization epsilon")
    sub[-1] = 0.0  # L[N - 1, N - 2] lives in the last row
    return [math.sqrt(p) for p in pivots], sub, last


def _substitute(roots: list[float], sub: list[float], last: list[float],
                rhs: np.ndarray) -> np.ndarray:
    """u = (L L^T)^{-1} rhs for :func:`_factor`'s L: forward, then back substitution."""
    y, prev = [], 0.0
    for f, s, r in zip(rhs.tolist(), sub, roots):
        prev = (f - s * prev) / r
        y.append(prev)
    # L's dense last row
    y[-1] = (float(rhs[-1]) - float(np.dot(last, y[:-1]))) / roots[-1]
    u = [0.0] * len(y)
    tail = u[-1] = y[-1] / roots[-1]
    nxt = tail
    for i in range(len(y) - 2, -1, -1):
        nxt = u[i] = (y[i] - sub[i + 1] * nxt - last[i] * tail) / roots[i]
    return np.array(u)


def solve(matrix: Bands | np.ndarray, rhs) -> ClassicalSolution:
    """Solve A u = f for a symmetric positive definite cyclic tridiagonal A.

    A is given by its :class:`~vqa_poisson.operators.Bands` or as a dense
    square matrix, whose bands are read from its upper triangle.  ``ValueError``
    for an empty or wrongly shaped A or f, a complex A, a non-zero imaginary
    part in f, non-finite entries, and a dense A with a non-zero entry off its
    bands and corners.  A matrix whose smallest Cholesky pivot is below 1e-12 of
    its largest is singular to working precision (periodic or Neumann without
    regularization) and raises ``SolverError`` instead of returning an
    arbitrary particular solution.  O(N) time and memory in the band form.
    """
    rhs = _as_vector(rhs)
    bands = matrix if isinstance(matrix, Bands) else _bands_of(np.asarray(matrix))
    diagonal = np.asarray(bands.diagonal, dtype=float)
    off = np.asarray(bands.off_diagonal, dtype=float)
    corner = float(bands.corner)
    size = diagonal.size
    if (diagonal.shape != (size,) or size == 0 or off.shape != (size - 1,)
            or (size == 1 and corner != 0.0)):
        raise ValueError("bands must be N >= 1 diagonal entries, N - 1 off-diagonal ones, "
                         "and no corner at N = 1")
    if rhs.shape != (size,) or np.imag(rhs).any():
        raise ValueError(f"rhs must be real of shape ({size},), got {rhs.dtype} {rhs.shape}")
    rhs = rhs.real.astype(float)
    if not np.isfinite(np.concatenate([diagonal, off, [corner], rhs])).all():
        raise ValueError("matrix and rhs must not contain infs or NaNs")
    u = _substitute(*_factor(diagonal.tolist(), off.tolist(), corner), rhs)
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        raise SolverError("solution vector vanished")
    return ClassicalSolution(u=u, norm=norm, u_normalized=u / norm)


def trace_distance(psi, u_normalized) -> float:
    """sqrt(1 - |<psi|u_bar>|^2) for unit vectors, clipped into [0, 1].

    Evaluated as sqrt((1 - |o|)(1 + |o|)) for o = <psi|u_bar>, with
    1 - |o| = |psi - e^{i phi} u_bar|^2 / 2 and e^{i phi} = conj(o) / |o|,
    which does not cancel as |o| approaches 1.
    """
    psi, u = _as_vector(psi), _as_vector(u_normalized)
    overlap = np.vdot(psi, u)
    size = float(np.abs(overlap))
    phase = np.conj(overlap) / size if size else 1.0
    diff = psi - phase * u
    gap = 0.5 * float(np.vdot(diff, diff).real)
    return float(np.sqrt(np.clip(gap * (1.0 + size), 0.0, 1.0)))
