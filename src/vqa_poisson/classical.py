"""Classical ground truth: dense Cholesky solve and state-comparison metrics.

numpy only: the factor is ``np.linalg.cholesky`` and the two triangular solves
are blocked substitutions, so importing the package never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


_BLOCK = 128  # rows per diagonal block of the triangular substitutions


def _cholesky_substitute(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """u = (L L^H)^{-1} rhs for the lower Cholesky factor L.

    Forward then back substitution by blocks of ``_BLOCK`` rows: one dense
    solve on each diagonal block, with the rows already solved entering as
    one GEMV.  O(N^2) work beyond the O(N * _BLOCK^2) block solves.
    """
    x = rhs.astype(factor.dtype)
    starts = range(0, len(x), _BLOCK)
    for lo in starts:
        hi = lo + _BLOCK
        x[lo:hi] = np.linalg.solve(factor[lo:hi, lo:hi], x[lo:hi] - factor[lo:hi, :lo] @ x[:lo])
    upper = factor.conj().T
    for lo in reversed(starts):
        hi = lo + _BLOCK
        x[lo:hi] = np.linalg.solve(upper[lo:hi, lo:hi], x[lo:hi] - upper[lo:hi, hi:] @ x[hi:])
    return x


def solve(matrix: np.ndarray, rhs) -> ClassicalSolution:
    """Solve A u = f by dense Cholesky (oracle path, small systems only).

    A must be a finite, non-empty square matrix and f a finite vector of
    matching length (``ValueError`` otherwise); the factor reads A's upper
    triangle.  A matrix whose smallest Cholesky pivot is below 1e-12 of its
    largest is singular to working precision (periodic or Neumann without
    regularization) and raises instead of returning an arbitrary particular
    solution.
    """
    matrix = np.asarray(matrix)
    rhs = np.real(_as_vector(rhs)).astype(float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
        raise ValueError(f"matrix must be non-empty and square, got shape {matrix.shape}")
    if rhs.shape[:1] != matrix.shape[:1]:
        raise ValueError(f"rhs shape {rhs.shape} does not match matrix shape {matrix.shape}")
    if not (np.isfinite(matrix).all() and np.isfinite(rhs).all()):
        raise ValueError("matrix and rhs must not contain infs or NaNs")
    try:
        # A^H's lower triangle is A's upper one; the F-ordered view also spares
        # numpy a transposing copy
        factor = np.linalg.cholesky(matrix.conj().T)
    except np.linalg.LinAlgError as err:
        raise SolverError(f"matrix is not positive definite: {err}") from err
    pivots = np.abs(np.diag(factor)) ** 2
    if pivots.min() < 1e-12 * pivots.max():
        raise SolverError("matrix is singular to working precision; add regularization epsilon")
    u = _cholesky_substitute(factor, rhs)
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        raise SolverError("solution vector vanished")
    return ClassicalSolution(u=u, norm=norm, u_normalized=u / norm)


def fidelity(psi, u_normalized) -> float:
    """|<psi|u_bar>|^2 for unit vectors."""
    overlap = np.vdot(_as_vector(psi), _as_vector(u_normalized))
    return float(np.abs(overlap) ** 2)


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
