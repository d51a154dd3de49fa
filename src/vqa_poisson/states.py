"""Dense statevector simulation of the gate set used by the solver circuits.

Index convention: basis state |i> stores qubit q in bit q of i, so qubit 0 is
the least-significant bit.  All gates here (X, H, R_Y, CZ) are real, so every
state the solver prepares is real, and a :class:`Statevector` holds float64
amplitudes only.  Every single-qubit gate runs through one column kernel.  A
column, one gate per qubit with identities where none acts, is K_hi (x) K_lo
over the high a = n - n // 2 and low b = n // 2 qubits; on an amplitude row
viewed as a 2^a x 2^b matrix X it is the two small products K_hi X K_lo^T.
A product of one matrix or vector goes through ``ndarray.dot``, and a stack
through ``matmul`` (``@``): both reach the same BLAS call, so the bits agree,
but at n <= 10 dispatch costs more than arithmetic, and ``dot`` dispatches in
half the time (``np.dot`` contracts a stack along other axes).  The ansatz is
simulated on real float64 arrays, kept in that matrix form: a forward sweep
for its state (or, in one sweep, for a stack of parameter vectors) and a
reverse (adjoint) sweep for its gradients.  The latest theta keeps one
record: the column factors, psi, and psi's readout tables from the first
adjoint sweep there, so repeated gradients at one theta sweep only their own
vector, bit for bit as before.  The tables are rows of one block the record
owns, gathered in place with ``mode="clip"``: given ``out``, "raise" gathers
into a temporary, and the index is in range by construction.  Under glibc,
freeing a block above 128 KB raises the dynamic mmap and trim thresholds, so
later blocks reuse heap pages instead of faulting in fresh ones; another
allocator gives the same bits, but the time may not move.  The source |f> is
the paper's +-h^n step state (h = 1/sqrt(2)); entry points take any real f.
"""

from __future__ import annotations

import functools
import math
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


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _kron_chain(gates: np.ndarray) -> np.ndarray:
    """Kronecker product g_{m-1} (x) ... (x) g_0 of a (..., m, 2, 2) gate stack:
    (..., 2^m, 2^m), vectorized over the leading axes."""
    out = gates[..., 0, :, :] if gates.shape[-3] else np.ones(gates.shape[:-3] + (1, 1))
    for j in range(1, gates.shape[-3]):
        # the next gate is the more significant factor, so the inner loops run
        # over the product so far, not over a 2x2 gate
        size = 2 * out.shape[-1]
        out = (gates[..., j, :, None, :, None] * out[..., None, :, None, :]).reshape(
            *out.shape[:-2], size, size)
    return np.ascontiguousarray(out)


def _column_factors(gates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K_hi, K_lo^T) of columns of single-qubit gates, gates[..., q, :, :] on qubit q.

    The column's 2^n x 2^n matrix is K_hi (x) K_lo: K_hi over the high
    a = n - n // 2 qubits, K_lo over the low b = n // 2.  Every leading index
    of ``gates`` gets its own pair.  K_lo is kept transposed, as
    :func:`_apply_column` multiplies by it.  The factors are read-only: the
    Hadamard and theta caches hand them to every caller.
    """
    low = gates.shape[-3] // 2
    # a transposed view would carry its strides into every product of the chain
    low_t = np.ascontiguousarray(np.swapaxes(gates[..., :low, :, :], -1, -2))
    factors = _kron_chain(gates[..., low:, :, :]), _kron_chain(low_t)
    for factor in factors:
        factor.setflags(write=False)
    return factors


def _ry_factors(half_angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_column_factors` of R_Y columns, [[c, -s], [s, c]] of the half-angles
    (..., n): one product pair per leading index, all built in one pass."""
    cos, sin = np.cos(half_angles), np.sin(half_angles)
    gates = np.empty(cos.shape + (2, 2))
    gates[..., 0, 0] = gates[..., 1, 1] = cos
    gates[..., 1, 0], gates[..., 0, 1] = sin, -sin
    return _column_factors(gates)


@functools.lru_cache(maxsize=256)
def _hadamard_factors(n_qubits: int, mask: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_column_factors` of a Hadamard on every qubit of ``mask``, built once."""
    on = ((mask >> np.arange(n_qubits)) & 1).astype(bool)[:, None, None]
    return _column_factors(np.where(on, _HADAMARD, np.eye(2)))


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
    """Flat indices into the rows (phi/2, -phi/2, ...) that gather
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


def _forward_sweep(circuit: AnsatzCircuit, factors, rows: int) -> np.ndarray:
    """(rows, 2^n) amplitudes of the ansatz from its columns' (K_hi, K_lo^T) pairs in
    column order, (2^a, 2^a) and (2^b, 2^b), or stacks with a leading row axis for one
    column per row; an iterator of pairs is consumed one column at a time."""
    n = circuit.n_qubits
    columns = iter(factors)
    k_hi, k_lo_t = next(columns)
    # the first column on |0...0> is the outer product of its factors' first
    # columns: one rounded product per amplitude, as the two GEMMs give
    amps = k_hi[..., :, 0, None] * k_lo_t[..., None, 0, :]
    for column, (k_hi, k_lo_t) in enumerate(columns, 1):
        amps *= _cz_brick_signs(n, (column - 1) % 2)
        amps = _apply_column(amps, k_hi, k_lo_t)
    return amps.reshape(rows, 1 << n)


@functools.lru_cache(maxsize=1)
def _theta_factors(circuit: AnsatzCircuit, theta_bytes: bytes) -> tuple:
    """The record of one theta: every column's (K_hi, K_lo^T), psi from one
    forward sweep (read-only), and a list that the first :func:`ansatz_adjoint`
    at theta fills with each column's readout table (R_Y(pi)_q psi_c / 2)_q,
    rows of one block it owns, gathered with ``mode="clip"`` (fault-free under
    glibc, bit-equal under any allocator).  Only the latest theta keeps one:
    the solver and the studies reuse only the theta they evaluated last, so
    more records would only hold memory."""
    theta = np.frombuffer(theta_bytes).reshape(circuit.n_layers + 1, circuit.n_qubits)
    factors = _ry_factors(theta / 2.0)
    psi = _forward_sweep(circuit, zip(*factors), 1)[0]
    psi.setflags(write=False)
    return factors, psi, []


def ansatz_amplitudes(circuit: AnsatzCircuit, theta: np.ndarray) -> np.ndarray:
    """Real amplitudes of U(theta)|0...0> for the alternating layered ansatz.

    The result is read-only: it is the psi of theta's record, which only the
    latest theta keeps, with its column factors and, once an adjoint sweep
    has run at theta, its (L + 1) n 2^n float64 readout tables: one block,
    gathered with ``mode="clip"``, fault-free under glibc and bit-equal under
    any allocator (at L = 5 the record holds 0.6 MB at n = 10, 12.7 MB at n = 14).
    """
    return _theta_record(circuit, theta)[1]


def _theta_record(circuit: AnsatzCircuit, theta: np.ndarray) -> tuple:
    """:func:`_theta_factors` of theta, checked and keyed once."""
    return _theta_factors(circuit, _checked_theta(circuit, theta).tobytes())


def ansatz_amplitude_rows(circuit: AnsatzCircuit, thetas: np.ndarray) -> np.ndarray:
    """Row r of the result is :func:`ansatz_amplitudes` at thetas[r], from one sweep
    that builds each column's per-row factors only as it reaches that column."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != circuit.parameter_count:
        raise ValueError(f"thetas must have shape (rows, {circuit.parameter_count}), "
                         f"got {thetas.shape}")
    rows = thetas.shape[0]
    columns = (thetas / 2.0).reshape(rows, circuit.n_layers + 1, circuit.n_qubits)
    return _forward_sweep(circuit, map(_ry_factors, np.swapaxes(columns, 0, 1)), rows)


def ansatz_adjoint(circuit: AnsatzCircuit, theta: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Re<d psi/d theta_i|lam> for every parameter, by one reverse sweep.

    ``lam`` is a real vector; psi is :func:`ansatz_amplitudes` at ``theta``,
    read from theta's record.  The sweep un-applies the circuit column by
    column to psi and lam together (Jones & Gacon, arXiv:2009.02823), with
    the transposed factors of the forward sweep: R_Y(-phi) = R_Y(phi)^T.
    The gates of an R_Y column commute, so every gradient of a column is read
    at the point just after it: d psi/d theta_i = (1/2) R_Y(pi)_q applied
    there.  The rows swept are (psi/2, -psi/2, lam): one gather from the first
    two is a column's readout table, row q of it R_Y(pi)_q psi_c / 2, and
    halving and negation are exact.  The first sweep at a theta gathers psi's
    tables in place (``mode="clip"``) into the record's one block, fault-free
    under glibc, bit-equal under any allocator; later sweeps un-apply lam alone.
    """
    return _adjoint_sweep(circuit, _theta_record(circuit, theta), lam)


def _adjoint_sweep(circuit: AnsatzCircuit, record: tuple, lam: np.ndarray) -> np.ndarray:
    """:func:`ansatz_adjoint` from theta's record (:func:`_theta_record`)."""
    n = circuit.n_qubits
    index = _ry_pi_index(n)
    (k_his, k_lo_ts), psi, tables = record
    lam = np.asarray(lam, dtype=float)
    if lam.shape != psi.shape:
        raise ValueError(f"lam must have the state's {psi.size} amplitudes, got shape {lam.shape}")
    # Once psi's tables are filled, un-apply lam alone, as one matrix: each
    # row of the stack is its own product, so lam rounds as it does beside psi.
    reuse = bool(tables)
    rows = _matrices(lam if reuse else np.array([psi * 0.5, psi * -0.5, lam]))
    readouts, block = (tables, None) if reuse else ([], np.empty((len(k_his), n, psi.size)))
    grad = np.empty(circuit.parameter_count)
    for step, column in enumerate(range(circuit.n_layers, -1, -1)):
        if not reuse:
            readouts.append(rows.take(index, out=block[step], mode="clip"))
        base = column * n
        lam_c = rows if reuse else rows[-1]
        readouts[step].dot(lam_c.reshape(-1), out=grad[base:base + n])
        if column:
            rows = _apply_column(rows, k_his[column].T, k_lo_ts[column].T)
            rows *= _cz_brick_signs(n, (column - 1) % 2)
    tables[:] = readouts  # filled by the first sweep, unchanged by later ones
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
    magnitude = math.prod([_HADAMARD[0, 0]] * n_qubits)
    return Statevector(np.repeat([magnitude, -magnitude], 1 << (n_qubits - 1)))


def superposition_rows(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(|0>|a> + |1>|row>)/sqrt(2) of every row of ``rows``, the ancilla as the new top qubit."""
    return np.concatenate([np.broadcast_to(a, rows.shape), rows], axis=-1) / np.sqrt(2.0)


def prepare_superposition_state(a: Statevector, b: Statevector) -> Statevector:
    """(|0>|a> + |1>|b>)/sqrt(2) with the ancilla as the new top qubit."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("register sizes differ")
    return Statevector(superposition_rows(a.amplitudes, b.amplitudes))
