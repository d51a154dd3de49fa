"""Potential-energy cost evaluation in exact statevector mode.

The cost is E = -(1/2) * numerator^2 / denominator with
numerator = <f,psi| X (x) I |f,psi> (ancilla Hadamard test, equals Re<psi|f>)
and denominator = <psi|A|psi>, the operator's measured terms plus its
constant offset.  Exact evaluation takes both from dot products with
A|psi> (:func:`apply_operator`), which the adjoint gradient reuses.  A|psi>
reads every term from its gather table (``PoissonOperator.gather_tables``,
built once per operator): offset * psi + sum of weight * psi[index].  The
paper's term-by-term circuit estimators (shift, measure the factor product)
stay as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (FACTOR_I, FACTOR_X, ObservableTerm, PoissonOperator, _factor_masks,
                        gather_table, shift_amplitudes)
from .states import (AnsatzCircuit, Statevector, _real_if_real, ansatz_amplitudes,
                     prepare_superposition_state)


class SingularOperatorError(RuntimeError):
    """<psi|A|psi> is not positive; the operator needs regularization."""


@dataclass(frozen=True)
class CostReport:
    numerator: float
    denominator: float
    r_opt: float
    energy: float


@dataclass(frozen=True)
class BaselineCostReport:
    """Prior-method cost <psi|A(I - |f><f|)A|psi> and its norm estimate."""

    cost: float
    r: float


def ancilla_x_term(n_register: int) -> ObservableTerm:
    """X on the ancilla of an (n+1)-qubit superposition register."""
    return ObservableTerm(1.0, (FACTOR_I,) * n_register + (FACTOR_X,), (0,))


def apply_factor_product(term: ObservableTerm, amps: np.ndarray) -> np.ndarray:
    """M|phi> for the term's factor product (no shifts, no coefficient)."""
    xmask, pmask = _factor_masks(term.factors)
    idx = np.arange(amps.size)
    out = amps
    if xmask:
        out = out[idx ^ xmask]
    if pmask:
        out = np.where((idx & pmask) == 0, out, 0.0)
    return out


def expectation(term: ObservableTerm, state: Statevector,
                axes: tuple[int, ...] | None = None) -> float:
    """coefficient * <P^s phi | M | P^s phi> for the term's shifts s and factors M."""
    if term.n_qubits != state.n_qubits:
        raise ValueError(
            f"term acts on {term.n_qubits} qubits, state has {state.n_qubits}"
        )
    axes = (term.n_qubits,) if axes is None else axes
    shifted = shift_amplitudes(state.amplitudes, axes, term.axis_shifts)
    return float(term.coefficient * np.real(np.vdot(shifted, apply_factor_product(term, shifted))))


def apply_term(term: ObservableTerm, amps: np.ndarray,
               axes: tuple[int, ...] | None = None) -> np.ndarray:
    """coefficient * P^-s M P^s |phi>: the term as an operator on raw amplitudes."""
    index, weight = gather_table(term, (term.n_qubits,) if axes is None else axes)
    return weight * amps[index]


def apply_operator(op: PoissonOperator, amps: np.ndarray) -> np.ndarray:
    """A|phi> = constant offset * |phi> + sum of the measured terms applied to |phi>."""
    out = op.constant_offset * amps
    for index, weight in op.gather_tables:
        out += weight * amps[index]
    return out


def denominator(op: PoissonOperator, psi: Statevector) -> float:
    """<psi|A|psi> = constant offset + sum of measured-term expectations."""
    if op.n_qubits != psi.n_qubits:
        raise ValueError(f"operator acts on {op.n_qubits} qubits, state has {psi.n_qubits}")
    return op.constant_offset + sum(expectation(t, psi, op.axes) for t in op.terms)


def numerator_hadamard(psi: Statevector, f: Statevector) -> float:
    """Ancilla-X expectation on (|0>|f> + |1>|psi>)/sqrt(2); equals Re<psi|f>."""
    if psi.n_qubits != f.n_qubits:
        raise ValueError("register sizes differ")
    sup = prepare_superposition_state(f, psi)
    half = 1 << psi.n_qubits
    amps = sup.amplitudes
    return float(2.0 * np.real(np.vdot(amps[:half], amps[half:])))


def numerator_overlap(psi: Statevector, source) -> float:
    """|<psi|f>| from the all-zeros probability after the inverse source unitary.

    Sign is not recovered; use the Hadamard-test route where the sign matters.
    """
    inv = source.apply_inverse(psi)
    return float(np.sqrt(np.abs(inv.amplitudes[0]) ** 2))


def cost_and_a_psi(op: PoissonOperator, psi: np.ndarray,
                   f: np.ndarray) -> tuple[CostReport, np.ndarray]:
    """(report, A psi) of amplitude arrays, from num = Re<psi|f> and den = <psi|A psi>."""
    if psi.size != 1 << op.n_qubits:
        raise ValueError(f"operator acts on {op.n_qubits} qubits, state has {psi.size} amplitudes")
    a_psi = apply_operator(op, psi)
    num, den = float(np.real(np.vdot(psi, f))), float(np.real(np.vdot(psi, a_psi)))
    return cost_report(num, den), a_psi


def cost_report(num: float, den: float) -> CostReport:
    """The report of one numerator and denominator; a non-positive denominator raises."""
    if den <= 0.0:
        raise SingularOperatorError(
            f"denominator {den} is not positive; add regularization epsilon")
    return CostReport(num, den, num / den, -0.5 * num * num / den)


def cost_from_state(op: PoissonOperator, psi: Statevector, f: Statevector) -> CostReport:
    """The cost of one state through A|psi>; equals the term-by-term circuit
    estimators :func:`numerator_hadamard` and :func:`denominator` to rounding."""
    return cost_and_a_psi(op, _real_if_real(psi.amplitudes), _real_if_real(f.amplitudes))[0]


def cost(op: PoissonOperator, circuit: AnsatzCircuit, theta: np.ndarray,
         f: Statevector) -> CostReport:
    """Evaluate numerator, denominator, r_opt and the energy at one theta."""
    return cost_and_a_psi(op, ansatz_amplitudes(circuit, theta), _real_if_real(f.amplitudes))[0]


def measured_circuit_count(op: PoissonOperator) -> int:
    """Distinct circuits per cost evaluation: one numerator plus one per term."""
    return 1 + len(op.terms)


def baseline_cost(matrix: np.ndarray, psi: Statevector, f: Statevector) -> BaselineCostReport:
    """Prior-method cost <A^2> - <psi|A|f>^2 and norm r = 1/sqrt(<A^2>).

    Statevector-only comparison path; evaluated with the dense matrix.
    """
    apsi = matrix @ psi.amplitudes
    a2 = float(np.real(np.vdot(apsi, apsi)))
    af = float(np.real(np.vdot(f.amplitudes, apsi)))
    return BaselineCostReport(cost=a2 - af * af, r=1.0 / np.sqrt(a2))
