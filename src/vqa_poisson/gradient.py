"""Analytic gradient of the cost by an adjoint sweep, plus checkers.

Each gradient here is Re<d_i psi|lam> for one real vector lam, with
d_i psi = d|psi>/d theta_i; :func:`~vqa_poisson.states.ansatz_adjoint` gives
all its components in one reverse sweep over the ansatz, about two state
preparations of work.  The numerator takes lam = Re f, the denominator
lam = 2 A psi, one term lam = 2 T psi, and the cost their quotient-rule
combination (:func:`grad_from_state`, from the psi and A psi of a cost
evaluation).  For R_Y parameters d_i psi = (1/2) U(..., theta_i + pi, ...)|0...0>;
:func:`shifted_state` builds that pi-shifted state (the test oracle).
:func:`parameter_shift_gradient` is the one shifted-circuit route: one batched
forward sweep prepares 3P + 1 rows, theta and its 3P shifts (the numerator from
pi shifts, the denominator terms from +-pi/2 shifts), and a caller-supplied
estimator measures each slot once over every row it needs, theta included,
then reads the shifted groups from that one measurement (exact expectations
here, shot estimates in the sampling mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cost import (CostReport, ancilla_x_term, apply_operator, apply_term, cost_and_a_psi,
                   cost_report, expectation)
from .operators import ObservableTerm, PoissonOperator
from .states import (AnsatzCircuit, Statevector, _real_if_real, ansatz_adjoint,
                     ansatz_amplitude_rows, ansatz_amplitudes, prepare_ansatz_state,
                     superposition_rows)


@dataclass(frozen=True)
class GradientReport:
    grad: np.ndarray
    norm: float


def shifted_state(circuit: AnsatzCircuit, theta: np.ndarray, index: int) -> Statevector:
    """U(theta with theta[index] += pi)|0...0>; twice the state derivative."""
    theta = np.asarray(theta, dtype=float)
    if not 0 <= index < circuit.parameter_count:
        raise ValueError(f"parameter index {index} out of range")
    shifted = theta.copy()
    shifted[index] += np.pi
    return prepare_ansatz_state(circuit, shifted)


def grad_numerator(circuit: AnsatzCircuit, theta: np.ndarray, f: Statevector) -> np.ndarray:
    """Components Re<d_i psi|f> of the numerator gradient."""
    psi = ansatz_amplitudes(circuit, theta)
    return ansatz_adjoint(circuit, theta, psi, np.real(f.amplitudes))


def grad_denominator(op: PoissonOperator, circuit: AnsatzCircuit,
                     theta: np.ndarray) -> np.ndarray:
    """Components 2 Re<d_i psi|A|psi> of the denominator gradient."""
    psi = ansatz_amplitudes(circuit, theta)
    return ansatz_adjoint(circuit, theta, psi, 2.0 * apply_operator(op, psi))


def term_gradient(term: ObservableTerm, circuit: AnsatzCircuit, theta: np.ndarray,
                  axes: tuple[int, ...] | None = None) -> np.ndarray:
    """Gradient of one term's expectation (barren-plateau diagnostics)."""
    psi = ansatz_amplitudes(circuit, theta)
    return ansatz_adjoint(circuit, theta, psi, 2.0 * apply_term(term, psi, axes))


def grad_from_state(circuit: AnsatzCircuit, theta: np.ndarray, psi: np.ndarray,
                    report: CostReport, a_psi: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Cost gradient from psi, its cost report and A psi at theta: one adjoint
    sweep with lam = r^2 A psi - r Re f, r = num/den, and no forward sweep."""
    ratio = report.r_opt
    return ansatz_adjoint(circuit, theta, psi, ratio * ratio * a_psi - ratio * np.real(f))


def grad_cost(op: PoissonOperator, circuit: AnsatzCircuit, theta: np.ndarray,
              f: Statevector) -> GradientReport:
    """dE/d theta_i = -(num/den) Re<d_i psi|f> + (num/den)^2 Re<d_i psi|A|psi>.

    One forward sweep gives psi, :func:`~vqa_poisson.cost.cost_and_a_psi` the
    cost and A psi, and :func:`grad_from_state` the gradient.
    """
    psi = ansatz_amplitudes(circuit, theta)
    f_amps = _real_if_real(f.amplitudes)
    grad = grad_from_state(circuit, theta, psi, *cost_and_a_psi(op, psi, f_amps), f_amps)
    return GradientReport(grad=grad, norm=float(np.linalg.norm(grad)))


def parameter_shift_gradient(op: PoissonOperator, circuit: AnsatzCircuit, theta: np.ndarray,
                             f: Statevector, measure: Callable[..., tuple],
                             report: Callable[[float, float], CostReport]) -> np.ndarray:
    """Cost gradient from the circuits at theta and its shifts, each term measured by `measure`.

    Per parameter i, the numerator derivative is half the numerator at theta_i + pi and the
    denominator derivative is half the difference of the term sums at theta_i +- pi/2
    (parameter-shift rule, Schuld et al., arXiv:1811.11184).  The quotient rule takes the
    numerator and denominator at theta from ``report(num, den)``, which raises where they are
    unusable.  One forward sweep prepares 3P + 1 rows: theta, then its P pi shifts, its
    P +pi/2 shifts and its P -pi/2 shifts.

    ``measure(slot, term, rows, axes)`` is called once per measured slot with every row the
    slot measures, row 0 at theta, and returns ``(value at row 0, group)``;
    ``group(index, key)`` returns one expectation per row of ``rows[index]``, measured as
    one group keyed by ``key``.  Slot 0 is the numerator's ancilla X on the P + 1
    superpositions of f with theta and its pi shifts (key ``(1,)``); slot k + 1 is
    ``op.terms[k]`` on theta and its 2P +-pi/2 shifts (keys ``(2, k)`` and ``(3, k)``).
    Every slot is measured, and ``report`` called, before the first group.  No circuit
    superposes a shifted and an unshifted ansatz state.
    """
    theta = np.asarray(theta, dtype=float)
    count = circuit.parameter_count
    params = range(count)
    shifted = np.tile(theta, (3, count, 1))
    shifted[:, params, params] += np.array([[np.pi], [np.pi / 2.0], [-np.pi / 2.0]])
    rows = ansatz_amplitude_rows(circuit, np.vstack([theta, shifted.reshape(-1, count)]))
    sup = superposition_rows(_real_if_real(f.amplitudes), rows[:count + 1])
    num, num_group = measure(0, ancilla_x_term(op.n_qubits), sup, None)
    term_rows = np.delete(rows, np.s_[1:count + 1], axis=0)
    measured = [measure(k + 1, term, term_rows, op.axes) for k, term in enumerate(op.terms)]
    base = report(num, op.constant_offset + sum(value for value, _ in measured))
    g_num = num_group(np.s_[1:], (1,))
    branch_sums = [sum(group(index, (branch, k)) for k, (_, group) in enumerate(measured))
                   for branch, index in ((2, np.s_[1:count + 1]), (3, np.s_[count + 1:]))]
    d_den = 0.5 * (branch_sums[0] - branch_sums[1])
    num, den = base.numerator, base.denominator
    return -0.5 * num * g_num / den + 0.5 * num * num * d_den / (den * den)


def _exact_measure(slot: int, term: ObservableTerm, rows: np.ndarray,
                   axes: tuple[int, ...] | None) -> tuple:
    values = np.array([expectation(term, Statevector(row), axes) for row in rows])
    return values[0], lambda index, key: values[index]


def grad_cost_parameter_shift(op: PoissonOperator, circuit: AnsatzCircuit,
                              theta: np.ndarray, f: Statevector) -> GradientReport:
    """Same gradient as :func:`grad_cost` through exact shifted-circuit expectations."""
    grad = parameter_shift_gradient(op, circuit, theta, f, _exact_measure, cost_report)
    return GradientReport(grad=grad, norm=float(np.linalg.norm(grad)))


def finite_difference_gradient(fn: Callable[[np.ndarray], float], theta: np.ndarray,
                               step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function (oracle for tests)."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.size)
    for i in range(theta.size):
        plus = theta.copy()
        plus[i] += step
        minus = theta.copy()
        minus[i] -= step
        out[i] = (fn(plus) - fn(minus)) / (2.0 * step)
    return out
