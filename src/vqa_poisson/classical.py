"""Classical ground truth: dense Cholesky solve and state-comparison metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

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


def solve(matrix: np.ndarray, rhs) -> ClassicalSolution:
    """Solve A u = f by dense Cholesky (oracle path, small systems only).

    A matrix whose smallest Cholesky pivot is below 1e-12 of its largest is
    singular to working precision (periodic or Neumann without regularization)
    and raises instead of returning an arbitrary particular solution.
    """
    rhs = np.real(_as_vector(rhs)).astype(float)
    try:
        factor = cho_factor(matrix)
    except LinAlgError as err:
        raise SolverError(f"matrix is not positive definite: {err}") from err
    pivots = np.diag(factor[0]) ** 2
    if pivots.min() < 1e-12 * pivots.max():
        raise SolverError("matrix is singular to working precision; add regularization epsilon")
    u = cho_solve(factor, rhs)
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        raise SolverError("solution vector vanished")
    return ClassicalSolution(u=u, norm=norm, u_normalized=u / norm)


def fidelity(psi, u_normalized) -> float:
    """|<psi|u_bar>|^2 for unit vectors."""
    overlap = np.vdot(_as_vector(psi), _as_vector(u_normalized))
    return float(np.abs(overlap) ** 2)


def trace_distance(psi, u_normalized) -> float:
    """sqrt(1 - |<psi|u_bar>|^2), clipped into [0, 1]."""
    return float(np.sqrt(np.clip(1.0 - fidelity(psi, u_normalized), 0.0, 1.0)))
