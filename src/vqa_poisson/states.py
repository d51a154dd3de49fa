"""Dense statevector simulation of the gate set used by the solver circuits.

Index convention: basis state |i> stores qubit q in bit q of i, so qubit 0 is
the least-significant bit.  All gates here (X, H, R_Y, CZ) are real, so a
:class:`Statevector` holds float64 amplitudes only.  Every single-qubit gate
runs through one column kernel.  A column, one gate per qubit with identities
where none acts, is K_hi (x) K_lo over the high a = n - n // 2 and low
b = n // 2 qubits; on an amplitude row viewed as a 2^a x 2^b matrix X it is
the two small products K_hi X K_lo^T.  An m-qubit factor of R_Y, H and I
gates has only 2^m distinct magnitudes: one reduce builds them, and one signed
gather the factors, the bytes of the gates' Kronecker chain.  A product of one
matrix or vector goes through ``ndarray.dot``, a stack through ``matmul``:
both reach the same BLAS call, so the bits agree, but at n <= 10 ``dot``
dispatches in half the time (``np.dot`` contracts a stack along other axes).
The ansatz is simulated in that matrix form: a forward sweep for its state
(or, in one sweep, for a stack of parameter vectors) and a reverse (adjoint)
sweep for its gradients.  The latest theta keeps one record: the column
factors, psi, and the forward sweep's column states, which the first adjoint
sweep there turns into one block of readout tables.  The source |f> is the
paper's +-h^n step state (h = 1/sqrt(2)); entry points take any real f.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Statevector:
    """Amplitude vector over n qubits (length 2^n).

    Amplitudes are float64: an input with a non-zero imaginary part raises
    ``ValueError``.  A C-contiguous float64 input is wrapped, not copied, so
    the state of :func:`prepare_ansatz_state` is the read-only psi of theta's
    record.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        if amps.dtype.kind == "c" and amps.imag.any():
            raise ValueError("amplitudes must be real")
        amps = np.asarray(amps.real, dtype=np.float64, order="C")
        size = amps.size
        if amps.ndim != 1 or size < 2 or size & (size - 1):
            raise ValueError("amplitudes must be a vector whose length is a power of two >= 2, "
                             f"got shape {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return int(self.amplitudes.size).bit_length() - 1

    @classmethod
    def zero(cls, n_qubits: int) -> "Statevector":
        return cls.basis(n_qubits, 0)

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "Statevector":
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
        if not 0 <= index < (1 << n_qubits):
            raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
        amps = np.zeros(1 << n_qubits)
        amps[index] = 1.0
        return cls(amps)


_H = 1.0 / np.sqrt(2.0)
_PAD = np.array([1.0, -1.0])  # row n of a column's table: K_lo's pad, and the sign
_HALVES = np.array([[0.5], [-0.5]])  # the readout tables' rows (psi_c/2, -psi_c/2)
# the +-1 pattern of each gate kind: R_Y = [[c, -s], [s, c]], H = h [[1, 1], [1, -1]], I
_SIGNS = {"y": [[1.0, -1.0], [1.0, 1.0]], "h": [[1.0, 1.0], [1.0, -1.0]], "i": [[1.0, 1.0]] * 2}


@functools.lru_cache(maxsize=256)
def _column_plan(kinds: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_column_factors`' table rows of each signed magnitude's operands,
    K_hi's then K_lo^T's, and gather of entry [x, y] by its sign and x ^ y."""
    n, low = len(kinds), len(kinds) // 2
    j = np.arange(n - low + 1)[:, None]
    operands, gather = [], []
    for m, first, offset, order in ((n - low, low, 0, (0, 1)), (low, 0, 2 << n - low, (1, 0))):
        z = np.arange(2 << m)  # bit m is the sign, the last operand: row n's 1.0 or -1.0;
        # operand j < m is qubit first + j's row at bit j, and row n's 1.0 pads K_lo
        operands.append(np.where(j < m, 2 * (first + j) + (z >> j & 1),
                                 2 * n + (j == n - low) * (z >> m)))
        # the most significant qubit is the outermost Kronecker factor; K_lo is transposed
        signs = functools.reduce(np.kron, [_SIGNS[k] for k in kinds[first:first + m][::-1]], [[1]])
        xor = np.bitwise_xor.outer(z[:1 << m], z[:1 << m]).ravel()
        gather.append(offset + (np.transpose(signs, order).ravel() < 0) * (1 << m) + xor)
    plans = np.concatenate(operands, axis=1), np.concatenate(gather)
    for plan in plans:
        plan.setflags(write=False)
    return plans


def _column_factors(table: np.ndarray, kinds: str) -> tuple[np.ndarray, np.ndarray]:
    """(K_hi, K_lo^T) of columns of single-qubit gates, from their (..., n + 1, 2)
    table: gate q = kinds[q] is +-table[..., q, x ^ y], and row n is ``_PAD``.

    K_hi is over the high a = n - n // 2 qubits, K_lo over the low b = n // 2.
    An m-qubit factor's entry is +-M[x ^ y], M[z] = v_{m-1}[z_{m-1}] * (... *
    v_0[z_0]) as the Kronecker chain rounds it: one reduce gives the 2^(m+1)
    signed magnitudes, the sign an exact last operand, and one gather the
    entries.  Each leading index gets its own pair, read-only as the Hadamard
    and theta caches share them; K_lo is transposed for :func:`_apply_column`.
    """
    operands, gather = _column_plan(kinds)
    lead, a, b = table.shape[:-2], 1 << (len(kinds) + 1) // 2, 1 << len(kinds) // 2
    operands = table.reshape(*lead, -1).take(operands, axis=-1)
    built = np.multiply.reduce(operands, axis=-2).take(gather, axis=-1)
    built.setflags(write=False)
    return built[..., :a * a].reshape(*lead, a, a), built[..., a * a:].reshape(*lead, b, b)


def _ry_factors(half_angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_column_factors` of R_Y columns, [[c, -s], [s, c]] of the half-angles
    (..., n): one product pair per leading index, all built in one pass."""
    n = half_angles.shape[-1]
    table = np.empty(half_angles.shape[:-1] + (n + 1, 2))
    # ufuncs writing into a strided table take twice as long at n <= 3
    table[..., :n, 0], table[..., :n, 1] = np.cos(half_angles), np.sin(half_angles)
    table[..., n, :] = _PAD
    return _column_factors(table, "y" * n)


@functools.lru_cache(maxsize=256)
def _hadamard_factors(n_qubits: int, mask: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_column_factors` of a Hadamard on every qubit of ``mask``, built once."""
    kinds = "".join("ih"[mask >> q & 1] for q in range(n_qubits))
    table = np.array([[_H, _H] if kind == "h" else [1.0, 0.0] for kind in kinds] + [_PAD])
    return _column_factors(table, kinds)


def _matrices(amps: np.ndarray) -> np.ndarray:
    """(..., 2^n) amplitudes as (..., 2^a, 2^b) matrices X, a row of X per
    state of the high a = n - n // 2 qubits: the form :func:`_apply_column` takes."""
    n = amps.shape[-1].bit_length() - 1
    return amps.reshape(*amps.shape[:-1], 1 << (n - n // 2), 1 << (n // 2))


def _apply_column(x: np.ndarray, k_hi: np.ndarray, k_lo_t: np.ndarray) -> np.ndarray:
    """The column K_hi (x) K_lo on amplitudes in :func:`_matrices` form, as
    K_hi X K_lo^T (Van Loan, J. Comput. Appl. Math. 123, 2000); per-row
    factors are stacks with a leading row axis, multiplied by ``matmul``."""
    if x.ndim == k_hi.ndim == k_lo_t.ndim == 2:
        return k_hi.dot(x).dot(k_lo_t)
    return k_hi @ x @ k_lo_t


@dataclass(frozen=True)
class AnsatzCircuit:
    """Alternating layered R_Y / controlled-Z ansatz.

    Structure for parameters theta (length n_qubits * (n_layers + 1)):
    an initial column of R_Y(theta[q]) on every qubit, then for each layer a
    controlled-Z entangler brick followed by another R_Y column.  The brick
    alternates by layer parity between pairs (0,1),(2,3),... and
    (1,2),(3,4),... on a line (no wrap-around).
    """

    n_qubits: int
    n_layers: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.n_layers < 0:
            raise ValueError(f"n_layers must be >= 0, got {self.n_layers}")

    @property
    def parameter_count(self) -> int:
        return self.n_qubits * (self.n_layers + 1)

    def entangler_pairs(self, layer: int) -> list[tuple[int, int]]:
        start = layer % 2
        return [(q, q + 1) for q in range(start, self.n_qubits - 1, 2)]


@functools.lru_cache(maxsize=None)
def _cz_brick_signs(n_qubits: int, parity: int) -> np.ndarray:
    """+-1 diagonal of the controlled-Z brick on pairs (parity, parity+1), ...,
    in :func:`_matrices` form."""
    idx = np.arange(1 << n_qubits)
    signs = np.ones(1 << n_qubits)
    for a, b in AnsatzCircuit(n_qubits, 0).entangler_pairs(parity):
        signs[(idx >> a) & (idx >> b) & 1 == 1] *= -1.0
    signs = _matrices(signs)
    signs.setflags(write=False)
    return signs


@functools.lru_cache(maxsize=None)
def _ry_pi_index(n_qubits: int) -> np.ndarray:
    """Flat indices into the stacked rows (phi/2, -phi/2) that gather
    (R_Y(pi)_q phi / 2)[i] at [q, i]: phi[i ^ 2^q], negated where bit q of i is clear."""
    idx = np.arange(1 << n_qubits)
    masks = (1 << np.arange(n_qubits))[:, None]
    index = (idx ^ masks) + np.where(idx & masks, 0, 1 << n_qubits)
    index.setflags(write=False)
    return index


def _checked_theta(circuit: AnsatzCircuit, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (circuit.parameter_count,):
        raise ValueError(f"theta must have length {circuit.parameter_count}, "
                         f"got shape {theta.shape}")
    return theta


def _forward_sweep(circuit: AnsatzCircuit, factors) -> Iterator[np.ndarray]:
    """The ansatz amplitudes after each R_Y column, in :func:`_matrices` form, from the
    columns' (K_hi, K_lo^T) pairs in column order, (2^a, 2^a) and (2^b, 2^b), or stacks
    with a leading row axis for one column per row; an iterator of pairs is consumed
    one column at a time.  Each state yielded is a new array the sweep does not change."""
    n = circuit.n_qubits
    columns = iter(factors)
    k_hi, k_lo_t = next(columns)
    # the first column on |0...0> is the outer product of its factors' first
    # columns: one rounded product per amplitude, as the two GEMMs give
    amps = k_hi[..., :, 0, None] * k_lo_t[..., None, 0, :]
    yield amps
    for column, (k_hi, k_lo_t) in enumerate(columns, 1):
        amps = _apply_column(amps * _cz_brick_signs(n, (column - 1) % 2), k_hi, k_lo_t)
        yield amps


@functools.lru_cache(maxsize=1)
def _theta_factors(circuit: AnsatzCircuit, theta_bytes: bytes) -> tuple:
    """The record of one theta: every column's (K_hi, K_lo^T), psi (read-only), and
    a list of the forward sweep's L + 1 column states, which the first
    :func:`ansatz_adjoint` at theta replaces with one (L + 1, n, 2^n) block of
    their readout tables.  The solver and the studies reuse only the last theta."""
    theta = np.frombuffer(theta_bytes).reshape(circuit.n_layers + 1, circuit.n_qubits)
    factors = _ry_factors(theta / 2.0)
    states = list(_forward_sweep(circuit, zip(*factors)))
    psi = states[-1].reshape(-1)
    psi.setflags(write=False)
    return factors, psi, states


def ansatz_amplitudes(circuit: AnsatzCircuit, theta: np.ndarray) -> np.ndarray:
    """Real amplitudes of U(theta)|0...0> for the alternating layered ansatz,
    read-only: the psi of theta's record, which also holds the column factors
    and the L + 1 column states or, after an adjoint sweep, their readout
    tables (0.6 MB at n = 10 and 12.7 MB at n = 14, L = 5)."""
    return _theta_record(circuit, theta)[1]


def _theta_record(circuit: AnsatzCircuit, theta: np.ndarray) -> tuple:
    """:func:`_theta_factors` of theta, checked and keyed once."""
    return _theta_factors(circuit, _checked_theta(circuit, theta).tobytes())


def ansatz_amplitude_rows(circuit: AnsatzCircuit, thetas: np.ndarray) -> np.ndarray:
    """Row r of the result is :func:`ansatz_amplitudes` at thetas[r], from one sweep
    that builds each column's per-row factors only as it reaches that column and
    keeps only its running state."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != circuit.parameter_count:
        raise ValueError(f"thetas must have shape (rows, {circuit.parameter_count}), "
                         f"got {thetas.shape}")
    rows = thetas.shape[0]
    columns = (thetas / 2.0).reshape(rows, circuit.n_layers + 1, circuit.n_qubits)
    for amps in _forward_sweep(circuit, map(_ry_factors, np.swapaxes(columns, 0, 1))):
        pass
    return amps.reshape(rows, 1 << circuit.n_qubits)


def ansatz_adjoint(circuit: AnsatzCircuit, theta: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Re<d psi/d theta_i|lam> for every parameter, by one reverse sweep.

    ``lam`` is a real vector; psi is :func:`ansatz_amplitudes` at ``theta``,
    read from theta's record.  The sweep un-applies the circuit column by
    column to lam (Jones & Gacon, arXiv:2009.02823) with the transposed
    factors, R_Y(-phi) = R_Y(phi)^T.  An R_Y column's gates commute, so
    d psi/d theta_i = (1/2) R_Y(pi)_q psi_c, psi_c the state after column c,
    and column c's gradients are its readout table times lam_c.  The first
    sweep at a theta gathers every table in one take from the rows
    (psi_c/2, -psi_c/2) of the forward states (exact), and the record keeps
    the block in their place.
    """
    return _adjoint_sweep(circuit, _theta_record(circuit, theta), lam)


def _adjoint_sweep(circuit: AnsatzCircuit, record: tuple, lam: np.ndarray) -> np.ndarray:
    """:func:`ansatz_adjoint` from theta's record (:func:`_theta_record`)."""
    n = circuit.n_qubits
    (k_his, k_lo_ts), psi, tables = record
    lam = np.asarray(lam, dtype=float)
    if lam.shape != psi.shape:
        raise ValueError(f"lam must have the state's {psi.size} amplitudes, got shape {lam.shape}")
    if tables[0].ndim == 2:  # the 2-D column states until the first sweep, then the 3-D block
        halves = np.concatenate(tables).reshape(len(tables), 1, psi.size) * _HALVES
        tables[:] = [halves.reshape(len(tables), -1).take(_ry_pi_index(n), axis=1)]
    block, lam_c = tables[0], _matrices(lam)
    grad = np.empty(circuit.parameter_count)
    for column in range(circuit.n_layers, -1, -1):
        block[column].dot(lam_c.reshape(-1), out=grad[column * n:(column + 1) * n])
        if column:
            lam_c = _apply_column(lam_c, k_his[column].T, k_lo_ts[column].T)
            lam_c *= _cz_brick_signs(n, (column - 1) % 2)
    return grad


def prepare_ansatz_state(circuit: AnsatzCircuit, theta: np.ndarray) -> Statevector:
    """Simulate U(theta)|0...0> for the alternating layered ansatz; the state
    wraps the read-only psi of theta's record (:func:`ansatz_amplitudes`)."""
    return Statevector(ansatz_amplitudes(circuit, theta))


def prepare_source_state(n_qubits: int) -> Statevector:
    """The step state |f> = U_f |0...0>, X on qubit n-1 then H on every qubit:
    +h^n on the lower half of indices and -h^n on the upper, the Hadamard's h
    multiplied in once per qubit as its columns round it (not 2^{-n/2})."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    magnitude = math.prod([_H] * n_qubits)
    return Statevector(np.repeat([magnitude, -magnitude], 1 << (n_qubits - 1)))


def superposition_rows(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(|0>|a> + |1>|row>)/sqrt(2) of every row of ``rows``, the ancilla as the new top qubit."""
    return np.concatenate([np.broadcast_to(a, rows.shape), rows], axis=-1) / np.sqrt(2.0)


def prepare_superposition_state(a: Statevector, b: Statevector) -> Statevector:
    """(|0>|a> + |1>|b>)/sqrt(2) with the ancilla as the new top qubit."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("register sizes differ")
    return Statevector(superposition_rows(a.amplitudes, b.amplitudes))
