"""Discretized Poisson system matrices and their O(1) observable decompositions.

A 1D system matrix is defined once, by its bands (:func:`build_bands`): the
classical reference solves it in that form, and :func:`build_matrix` is its
dense assembly for verification and the baseline method.

The measured parts of every operator are coefficient-weighted products of
single-qubit factors from {I, X, |0><0|}, optionally conjugated by cyclic
shifts of the node register.  Shift conjugation is always represented as a
state transformation or an index map, never as a permutation matrix; dense forms
exist only on the verification path (:func:`reassemble_dense`, capped at
``DENSE_QUBIT_CAP``), which scatters each term's one nonzero per row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

FACTOR_I = "I"
FACTOR_X = "X"
FACTOR_P0 = "0"  # |0><0| projector

_FACTOR_ROWS = {  # each 2 x 2 factor by its one nonzero per row: (columns, values) of rows 0, 1
    FACTOR_I: (np.array([0, 1]), np.array([1.0, 1.0])),
    FACTOR_X: (np.array([1, 0]), np.array([1.0, 1.0])),
    FACTOR_P0: (np.array([0, 0]), np.array([1.0, 0.0])),
}

DENSE_QUBIT_CAP = 12


class BoundaryCondition(Enum):
    PERIODIC = "periodic"
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


DEFAULT_EPSILON = {
    BoundaryCondition.PERIODIC: 1e-3,
    BoundaryCondition.DIRICHLET: 0.0,
    BoundaryCondition.NEUMANN: 1e-3,
}


@dataclass(frozen=True)
class ObservableTerm:
    """One measured term: coefficient * (shifted) product of single-qubit factors.

    ``factors[q]`` acts on qubit q (qubit 0 = least-significant index bit).
    ``axis_shifts[k]`` is the shift power applied to axis register k before
    measuring; 1D operators use a single axis.
    """

    coefficient: float
    factors: tuple[str, ...]
    axis_shifts: tuple[int, ...] = (0,)

    def __post_init__(self):
        for f in self.factors:
            if f not in _FACTOR_ROWS:
                raise ValueError(f"unknown factor kind {f!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class PoissonOperator:
    """Boundary-tagged term list plus the constant (identity) offset.

    ``axes[k]`` is the qubit count of axis register k; axis 0 occupies the
    least-significant qubits.  Dense reassembly of ``terms`` plus
    ``constant_offset * I`` equals the full system matrix.
    """

    axes: tuple[int, ...]
    bc: BoundaryCondition
    terms: tuple[ObservableTerm, ...]
    constant_offset: float

    @property
    def n_qubits(self) -> int:
        return sum(self.axes)

    @functools.cached_property
    def gather_tables(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """:func:`gather_table` of every term, built on first use."""
        return tuple(gather_table(t, self.axes) for t in self.terms)


class Bands(NamedTuple):
    """Symmetric cyclic tridiagonal matrix by its bands.

    A[i, i] = diagonal[i], A[i, i + 1] = A[i + 1, i] = off_diagonal[i], and
    ``corner`` adds onto A[0, N - 1] and A[N - 1, 0]: the periodic wrap, which
    at N = 2 lands on the off-diagonal entry.
    """

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    corner: float


def build_bands(n: int, bc: BoundaryCondition, epsilon: float = 0.0) -> Bands:
    """Bands of the 2^n x 2^n system matrix for one axis, plus epsilon * I.

    Summation order mirrors the decomposition (periodic base, then boundary
    corrections) so that reassembly of :func:`decompose` matches bit-exactly.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    size = 1 << n
    diagonal = np.full(size, 2.0 + epsilon)
    corner = -1.0
    if bc is BoundaryCondition.DIRICHLET:
        corner += 1.0
    elif bc is BoundaryCondition.NEUMANN:
        diagonal[0] -= 1.0
        diagonal[-1] -= 1.0
        corner += 1.0
    return Bands(diagonal, np.full(size - 1, -1.0), corner)


def build_matrix(n: int, bc: BoundaryCondition, epsilon: float = 0.0) -> np.ndarray:
    """Dense assembly of :func:`build_bands` (verification and baseline paths, n <= 12)."""
    if n > DENSE_QUBIT_CAP:
        raise ValueError(f"dense matrices capped at {DENSE_QUBIT_CAP} qubits, got {n}")
    diagonal, off, corner = build_bands(n, bc, epsilon)
    rows = np.arange(len(diagonal))
    mat = np.zeros((len(rows), len(rows)))
    mat[rows, rows] = diagonal
    mat[rows[:-1], rows[1:]] = mat[rows[1:], rows[:-1]] = off
    mat[0, -1] += corner
    mat[-1, 0] += corner
    return mat


def _single_factor(n: int, qubit: int, kind: str) -> tuple[str, ...]:
    return tuple(kind if q == qubit else FACTOR_I for q in range(n))


def decompose(n: int, bc: BoundaryCondition, epsilon: float = 0.0) -> PoissonOperator:
    """Split the system matrix into measured terms and a constant offset.

    Measured-term counts are 2 (periodic), 3 (Dirichlet) and 4 (Neumann) for
    n >= 2.  For n = 1 the Neumann projector-times-identity factor degenerates
    to the identity and is folded into the offset, leaving 3 measured terms.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    x_low = _single_factor(n, 0, FACTOR_X)
    terms = [
        ObservableTerm(-1.0, x_low, (0,)),
        ObservableTerm(-1.0, x_low, (1,)),
    ]
    offset = 2.0 + epsilon
    proj_x = tuple(FACTOR_X if q == 0 else FACTOR_P0 for q in range(n))
    if bc is BoundaryCondition.DIRICHLET:
        terms.append(ObservableTerm(1.0, proj_x, (1,)))
    elif bc is BoundaryCondition.NEUMANN:
        if n == 1:
            offset = 2.0 + epsilon - 1.0
        else:
            proj_i = tuple(FACTOR_I if q == 0 else FACTOR_P0 for q in range(n))
            terms.append(ObservableTerm(-1.0, proj_i, (1,)))
        terms.append(ObservableTerm(1.0, proj_x, (1,)))
    return PoissonOperator((n,), bc, tuple(terms), offset)


def shift_amplitudes(amps: np.ndarray, axes: tuple[int, ...],
                     shifts: tuple[int, ...]) -> np.ndarray:
    """Per-axis cyclic shifts P^s of raw amplitudes, on the last array axis.

    On axis k the amplitude at field value j moves to (j + shifts[k]) mod 2^axes[k].
    A (rows, 2^n) array is shifted row by row.
    """
    if len(shifts) != len(axes):
        raise ValueError(f"{len(shifts)} shifts for the axes {axes}: need one per axis")
    if not any(shifts):
        return amps
    shape = amps.shape[:-1] + tuple(1 << a for a in reversed(axes))
    arr = amps.reshape(shape)
    for k, s in enumerate(shifts):
        if s:
            arr = np.roll(arr, s, axis=-1 - k)
    return arr.reshape(amps.shape)


def _factor_masks(factors: tuple[str, ...]) -> tuple[int, int]:
    """(X mask, |0><0| mask) of a factor product, one bit per qubit."""
    xmask = 0
    pmask = 0
    for q, f in enumerate(factors):
        if f == FACTOR_X:
            xmask |= 1 << q
        elif f == FACTOR_P0:
            pmask |= 1 << q
    return xmask, pmask


@functools.lru_cache(maxsize=256)
def gather_table(term: ObservableTerm, axes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(index, weight) with coefficient * P^-s M P^s phi = weight * phi[index].

    With (P^s phi)[j] = phi[src[j]] and (P^-s chi)[i] = chi[back[i]], the term
    reads phi at src[back[i] ^ X mask], zeroed where back[i] hits a projector.
    """
    idx = np.arange(1 << term.n_qubits)
    src = shift_amplitudes(idx, axes, term.axis_shifts)
    back = shift_amplitudes(idx, axes, tuple(-s for s in term.axis_shifts))
    xmask, pmask = _factor_masks(term.factors)
    index = src[back ^ xmask]
    weight = np.where(back & pmask, 0.0, term.coefficient)
    index.setflags(write=False)
    weight.setflags(write=False)
    return index, weight


@dataclass(frozen=True)
class Mesh2D:
    """Periodic 2^{n_x} x 2^{n_y} quadrilateral mesh; node i = i_x + i_y * N_x."""

    n_x: int
    n_y: int

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError("mesh needs n_x >= 1 and n_y >= 1")

    @property
    def nodes_x(self) -> int:
        return 1 << self.n_x

    @property
    def nodes_y(self) -> int:
        return 1 << self.n_y


def build_fem_2d(mesh: Mesh2D, epsilon: float = 0.0) -> PoissonOperator:
    """2D FEM stiffness operator from the four-tessellation cover.

    Each tessellation contributes one copy of the single-element tensor form,
    conjugated by per-axis shifts (0,0), (1,0), (0,1) and (1,1).  Only periodic
    boundaries are supported (boundary-adjusted tessellations are out of scope).
    """
    n = mesh.n_x + mesh.n_y
    x_axis = _single_factor(n, 0, FACTOR_X)              # X on x-register low qubit
    y_axis = _single_factor(n, mesh.n_x, FACTOR_X)       # X on y-register low qubit
    xy = tuple(FACTOR_X if q in (0, mesh.n_x) else FACTOR_I for q in range(n))
    sixth = 1.0 / 6.0
    base = [(-sixth, x_axis), (-sixth, y_axis), (-2.0 / 6.0, xy)]
    terms = []
    for sx, sy in ((0, 0), (1, 0), (0, 1), (1, 1)):
        for coeff, factors in base:
            terms.append(ObservableTerm(coeff, factors, (sx, sy)))
    offset = 4.0 * (4.0 / 6.0) + epsilon
    return PoissonOperator((mesh.n_x, mesh.n_y), BoundaryCondition.PERIODIC, tuple(terms), offset)


def assemble_fem_2d_dense(mesh: Mesh2D) -> np.ndarray:
    """Brute-force element-by-element FEM assembly with periodic wrap.

    Independent of the tessellation decomposition: one ``np.add.at`` adds each element's
    4 x 4 matrix in integer sixths at its corner nodes, so the result is exact.
    """
    nx, size = mesh.nodes_x, mesh.nodes_x * mesh.nodes_y
    element6 = np.array([[4, -1, -1, -2],
                         [-1, 4, -2, -1],
                         [-1, -2, 4, -1],
                         [-2, -1, -1, 4]], dtype=np.int64)
    x, y = np.arange(nx), np.arange(0, size, nx)[:, None]  # element corner (0, 0) = x + y
    nodes = np.array([(x + dx) % nx + (y + dy * nx) % size for dy in (0, 1) for dx in (0, 1)])
    acc = np.zeros((size, size), dtype=np.int64)
    np.add.at(acc, (nodes[:, None], nodes[None, :]), element6[:, :, None, None])
    return acc / 6.0


def term_dense(term: ObservableTerm, axes: tuple[int, ...]) -> np.ndarray:
    """Dense matrix of one term (verification path only): row r of the factors' Kronecker
    chain has one nonzero, at column[r], which P^-s M P^s moves to (back[r], back[column[r]])."""
    column, value = np.zeros(1, dtype=np.intp), np.ones(1)
    for q, f in enumerate(term.factors):
        columns, values = _FACTOR_ROWS[f]
        column = np.add.outer(columns << q, column).ravel()
        value = np.multiply.outer(values, value).ravel()
    back = shift_amplitudes(np.arange(len(column)), axes, term.axis_shifts)
    dense = np.zeros((len(column), len(column)))
    dense[back, back[column]] = term.coefficient * value
    return dense


def reassemble_dense(op: PoissonOperator) -> np.ndarray:
    """offset * I plus each term's :func:`term_dense`, added in term order
    (verification path, n <= 12).

    Criteria 01 and 02 and ``fem2d-verify`` check that this plain sum equals
    the directly assembled matrices bit for bit.
    """
    n = op.n_qubits
    if n > DENSE_QUBIT_CAP:
        raise ValueError(f"dense reassembly capped at {DENSE_QUBIT_CAP} qubits, got {n}")
    dense = np.diag(np.full(1 << n, op.constant_offset))
    for term in op.terms:
        dense += term_dense(term, op.axes)
    return dense
