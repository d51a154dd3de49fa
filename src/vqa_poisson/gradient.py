"""Analytic gradient of the cost by an adjoint sweep, plus checkers.

Each gradient here is Re<d_i psi|lam> for one real vector lam, with
d_i psi = d|psi>/d theta_i; :func:`~vqa_poisson.states.ansatz_adjoint` gives
all its components in one reverse sweep over the ansatz, about two state
preparations of work, from theta and lam alone: psi comes from theta's record.
The numerator takes lam = f, one term lam = 2 T psi, and the cost the
quotient-rule combination lam = r^2 A psi - r f, formed only in
:func:`evaluate` from the report and A psi of the cost at theta; the cost
gradient and the BFGS gradient both take it from there.  For
R_Y parameters d_i psi = (1/2) U(..., theta_i + pi, ...)|0...0>;
:func:`shifted_state` builds that pi-shifted state (the test oracle).
The shifted-circuit route measures theta, its P pi shifts and its 2P +-pi/2
shifts; :func:`parameter_shift_gradient` combines those measured values by the
quotient rule.  :mod:`~vqa_poisson.sampling` prepares and measures the shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cost import CostReport, apply_term, cost_and_a_psi
from .operators import ObservableTerm, PoissonOperator
from .states import (AnsatzCircuit, Statevector, _adjoint_sweep, _theta_record, ansatz_adjoint,
                     prepare_ansatz_state)


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
    return ansatz_adjoint(circuit, theta, f.amplitudes)


def term_gradient(term: ObservableTerm, circuit: AnsatzCircuit, theta: np.ndarray,
                  axes: tuple[int, ...] | None = None) -> np.ndarray:
    """Gradient of one term's expectation (barren-plateau diagnostics)."""
    record = _theta_record(circuit, theta)
    return _adjoint_sweep(circuit, record, 2.0 * apply_term(term, record[1], axes))


def evaluate(op: PoissonOperator, circuit: AnsatzCircuit, theta: np.ndarray,
             f: np.ndarray) -> tuple[CostReport, Callable[[], np.ndarray]]:
    """The cost report at theta, for amplitudes f, and a zero-argument function
    that gives its gradient: one record fetch, one forward sweep at most, and
    per gradient one adjoint sweep with lam = r^2 A psi - r f, r = num/den."""
    record = _theta_record(circuit, theta)
    report, a_psi = cost_and_a_psi(op, record[1], f)

    def gradient() -> np.ndarray:
        ratio = report.r_opt
        return _adjoint_sweep(circuit, record, ratio * ratio * a_psi - ratio * f)

    return report, gradient


def grad_cost(op: PoissonOperator, circuit: AnsatzCircuit, theta: np.ndarray,
              f: Statevector) -> GradientReport:
    """dE/d theta_i = -(num/den) Re<d_i psi|f> + (num/den)^2 Re<d_i psi|A|psi>."""
    grad = evaluate(op, circuit, theta, f.amplitudes)[1]()
    return GradientReport(grad=grad, norm=math.sqrt(grad.dot(grad)))


def parameter_shift_gradient(base: CostReport, g_num: np.ndarray, plus: Sequence[np.ndarray],
                             minus: Sequence[np.ndarray]) -> np.ndarray:
    """Cost gradient from measured values at theta and its shifts (quotient rule).

    ``base`` is theta's cost report, ``g_num`` the P numerator values at theta_i + pi, and
    ``plus[k]`` and ``minus[k]`` term k's P values at theta_i +- pi/2.  Per parameter i the
    numerator derivative is half the numerator at theta_i + pi, and the denominator
    derivative half the difference of the term sums at theta_i +- pi/2 (parameter-shift
    rule, Schuld et al., arXiv:1811.11184).
    """
    d_den = 0.5 * (sum(plus) - sum(minus))
    num, den = base.numerator, base.denominator
    return -0.5 * num * g_num / den + 0.5 * num * num * d_den / (den * den)


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
