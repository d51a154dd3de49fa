"""Dense statevector simulation of the gate set used by the solver circuits.

Index convention: basis state |i> stores qubit q in bit q of i, so qubit 0 is
the least-significant bit.  All gates here (X, H, R_Y, CZ) are real; each
single-qubit gate is one float64 kernel (complex states pass their real and
imaginary parts through it one at a time).  On qubit 0 it is one
(pairs, 2) @ gate^T product over the adjacent amplitude pairs; on a higher
qubit, one matmul on a stride view with the target bit on its own axis.  The
layered ansatz is simulated on real float64 arrays: a forward sweep for its
state (or, in one sweep, for a stack of parameter vectors) and a reverse
(adjoint) sweep for its gradients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class Statevector:
    """Amplitude vector over n qubits (length 2^n, complex)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        size = amps.size
        if size < 2 or size & (size - 1):
            raise ValueError(f"amplitude vector length must be a power of two >= 2, got {size}")
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
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "Statevector") -> complex:
        """<self|other>."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("register sizes differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def _real_if_real(amps: np.ndarray) -> np.ndarray:
    """``amps`` as a float64 copy when every imaginary part is zero, else unchanged."""
    if np.iscomplexobj(amps) and not amps.imag.any():
        return amps.real.copy()
    return amps


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _check_qubits(n_qubits: int, qubits: Sequence[int]) -> None:
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit index {q} out of range for {n_qubits} qubits")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"qubit indices must be distinct, got {tuple(qubits)}")


def _apply_single_qubit(amps: np.ndarray, qubit: int, gate: np.ndarray) -> None:
    """``gate`` (2x2, or a (rows, 1, 2, 2) stack of one per row) on one qubit of
    every row of a contiguous (rows, 2^n) array, in place."""
    if qubit == 0:
        # Amplitude pairs are adjacent: one (pairs, 2) @ gate^T product, per row
        # for a stack, instead of one tiny product per pair.
        if gate.ndim == 2:
            pairs = amps.reshape(-1, 2)
            pairs[...] = pairs @ gate.T
        else:
            pairs = amps.reshape(amps.shape[0], -1, 2)
            pairs[...] = pairs @ np.swapaxes(gate[:, 0], -1, -2)
        return
    # Stride view: axis 2 is the target qubit's bit; one matmul covers every block.
    view = amps.reshape(amps.shape[0], -1, 2, 1 << qubit)
    view[...] = np.matmul(gate, view)


def _cz_inplace(amps: np.ndarray, qubit_a: int, qubit_b: int) -> None:
    idx = np.arange(amps.size)
    both = ((idx >> qubit_a) & 1) & ((idx >> qubit_b) & 1)
    amps[both == 1] *= -1.0


def apply_x(state: Statevector, qubit: int) -> Statevector:
    """Pauli X on one qubit."""
    _check_qubits(state.n_qubits, [qubit])
    idx = np.arange(state.amplitudes.size)
    return Statevector(state.amplitudes[idx ^ (1 << qubit)])


def _apply_gate(state: Statevector, qubit: int, gate: np.ndarray) -> Statevector:
    """2x2 real gate on one qubit: the float64 kernel on the real and imaginary parts."""
    _check_qubits(state.n_qubits, [qubit])
    parts = np.stack([state.amplitudes.real, state.amplitudes.imag])
    # One part at a time: the products then have a one-row sweep's shapes (a
    # (1, 2) @ (2, 2) product is a gemv, a (2, 2) @ (2, 2) one a gemm, and they
    # round differently), so gate-by-gate states equal the sweep's bit for bit.
    for part in parts:
        _apply_single_qubit(part[None], qubit, gate)
    return Statevector(parts[0] + 1j * parts[1])


def apply_h(state: Statevector, qubit: int) -> Statevector:
    """Hadamard on one qubit."""
    return _apply_gate(state, qubit, _HADAMARD)


def apply_ry(state: Statevector, angle: float, qubit: int) -> Statevector:
    """R_Y(angle) rotation on one qubit."""
    return _apply_gate(state, qubit, _ry_gates(angle / 2.0))


def apply_cz(state: Statevector, qubit_a: int, qubit_b: int) -> Statevector:
    """Controlled-Z between two qubits (symmetric)."""
    _check_qubits(state.n_qubits, [qubit_a, qubit_b])
    amps = state.amplitudes.copy()
    _cz_inplace(amps, qubit_a, qubit_b)
    return Statevector(amps)


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
    """+-1 diagonal of the controlled-Z brick on pairs (parity, parity+1), ..."""
    signs = np.ones(1 << n_qubits)
    for a, b in AnsatzCircuit(n_qubits, 0).entangler_pairs(parity):
        _cz_inplace(signs, a, b)
    signs.setflags(write=False)
    return signs


@functools.lru_cache(maxsize=None)
def _ry_pi_tables(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) with (R_Y(pi)_q phi)[i] = sign[q, i] * phi[index[q, i]]."""
    idx = np.arange(1 << n_qubits)
    masks = (1 << np.arange(n_qubits))[:, None]
    index = idx ^ masks
    sign = np.where(idx & masks, 1.0, -1.0)
    index.setflags(write=False)
    sign.setflags(write=False)
    return index, sign


def _ry_gates(half_angles: np.ndarray | float) -> np.ndarray:
    """R_Y matrices [[c, -s], [s, c]] of the half-angles, stacked over their shape."""
    cos, sin = np.cos(half_angles), np.sin(half_angles)
    return np.stack([cos, -sin, sin, cos], axis=-1).reshape(*np.shape(half_angles), 2, 2)


def _checked_theta(circuit: AnsatzCircuit, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (circuit.parameter_count,):
        raise ValueError(
            f"theta must have length {circuit.parameter_count}, got shape {theta.shape}"
        )
    return theta


def _forward_sweep(circuit: AnsatzCircuit, half_angles: np.ndarray, rows: int) -> np.ndarray:
    """(rows, 2^n) amplitudes of the ansatz; half_angles[i] is theta_i / 2,
    of shape (P,), or (P, rows, 1) for one value per row."""
    n = circuit.n_qubits
    gates = _ry_gates(half_angles)
    amps = np.zeros((rows, 1 << n))
    amps[:, 0] = 1.0
    for column in range(circuit.n_layers + 1):
        if column:
            amps *= _cz_brick_signs(n, (column - 1) % 2)
        for q in range(n):
            _apply_single_qubit(amps, q, gates[column * n + q])
    return amps


def ansatz_amplitudes(circuit: AnsatzCircuit, theta: np.ndarray) -> np.ndarray:
    """Real amplitudes of U(theta)|0...0> for the alternating layered ansatz."""
    theta = _checked_theta(circuit, theta)
    return _forward_sweep(circuit, theta / 2.0, 1)[0]


def ansatz_amplitude_rows(circuit: AnsatzCircuit, thetas: np.ndarray) -> np.ndarray:
    """Row r of the result is :func:`ansatz_amplitudes` at thetas[r], from one sweep."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != circuit.parameter_count:
        raise ValueError(
            f"thetas must have shape (rows, {circuit.parameter_count}), got {thetas.shape}"
        )
    return _forward_sweep(circuit, thetas.T[:, :, None] / 2.0, thetas.shape[0])


def ansatz_adjoint(circuit: AnsatzCircuit, theta: np.ndarray, psi: np.ndarray,
                   lam: np.ndarray) -> np.ndarray:
    """Re<d psi/d theta_i|lam> for every parameter, by one reverse sweep.

    ``psi`` is :func:`ansatz_amplitudes` at ``theta`` and ``lam`` a real
    vector.  The sweep un-applies the circuit gate by gate to the stacked
    (psi, lam) pair (Jones & Gacon, arXiv:2009.02823).  The gates of an R_Y
    column commute, so every gradient of a column is read at the point just
    after it: d psi/d theta_i = (1/2) R_Y(pi)_q applied there.
    """
    theta = _checked_theta(circuit, theta)
    n = circuit.n_qubits
    index, sign = _ry_pi_tables(n)
    pair = np.stack([psi, lam])
    gates = _ry_gates(-theta / 2.0)
    grad = np.empty(circuit.parameter_count)
    for column in range(circuit.n_layers, -1, -1):
        base = column * n
        grad[base:base + n] = 0.5 * ((pair[0][index] * sign) @ pair[1])
        if column:
            for q in range(n):
                _apply_single_qubit(pair, q, gates[base + q])
            pair *= _cz_brick_signs(n, (column - 1) % 2)
    return grad


def prepare_ansatz_state(circuit: AnsatzCircuit, theta: np.ndarray) -> Statevector:
    """Simulate U(theta)|0...0> for the alternating layered ansatz."""
    return Statevector(ansatz_amplitudes(circuit, theta))


class StepFunctionSource:
    """Source unitary that prepares the +-2^{-n/2} step state.

    Applies X on the top qubit (n-1) and then H on every qubit, so amplitudes
    are +2^{-n/2} on the lower half of indices and -2^{-n/2} on the upper half.
    """

    def apply(self, state: Statevector) -> Statevector:
        state = apply_x(state, state.n_qubits - 1)
        for q in range(state.n_qubits):
            state = apply_h(state, q)
        return state

    def apply_inverse(self, state: Statevector) -> Statevector:
        for q in range(state.n_qubits):
            state = apply_h(state, q)
        return apply_x(state, state.n_qubits - 1)

    def gate_count(self, n_qubits: int) -> int:
        return n_qubits + 1


class CustomSource:
    """Caller-supplied source unitary.

    ``forward`` maps |0...0> to |f>; ``inverse`` (optional) is its adjoint and
    is required only by the overlap numerator route.  ``declared_gate_count``
    feeds the resource report (user-declared, not verified).
    """

    def __init__(self, forward: Callable[[Statevector], Statevector],
                 inverse: Callable[[Statevector], Statevector] | None = None,
                 declared_gate_count: int | None = None):
        self._forward = forward
        self._inverse = inverse
        self._declared_gate_count = declared_gate_count

    def apply(self, state: Statevector) -> Statevector:
        return self._forward(state)

    def apply_inverse(self, state: Statevector) -> Statevector:
        if self._inverse is None:
            raise ValueError("custom source unitary has no inverse; overlap route unavailable")
        return self._inverse(state)

    def gate_count(self, n_qubits: int) -> int:
        if self._declared_gate_count is None:
            raise ValueError("custom source unitary has no declared gate count")
        return self._declared_gate_count


def prepare_source_state(n_qubits: int, source=None) -> Statevector:
    """Prepare |f> = U_f |0...0>; defaults to the step-function source."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    if source is None:
        source = StepFunctionSource()
    return source.apply(Statevector.zero(n_qubits))


def prepare_superposition_state(a: Statevector, b: Statevector) -> Statevector:
    """(|0>|a> + |1>|b>)/sqrt(2) with the ancilla as the new top qubit."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("register sizes differ")
    return Statevector(np.concatenate([a.amplitudes, b.amplitudes]) / np.sqrt(2.0))
