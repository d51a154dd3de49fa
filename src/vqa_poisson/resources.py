"""Static accounting of circuit executions, shift-operator gates and depths.

Circuit counts come from the operator itself: one cost evaluation measures
the numerator and each term of ``decompose(n, bc)``, 1 + T circuits
(:func:`~vqa_poisson.cost.measured_circuit_count`).  An exact gradient counts
as P (1 + T), one set per parameter: ``resources.csv``'s ``t_g``, and what
``solve``'s ``circuit_executions`` adds per gradient.  A sampled gradient
measures (1 + T) + P (1 + 2T) (:func:`count_sampled_gradient_circuits`).  The
shift operator is never gate-decomposed in the simulator (it acts as a
permutation on amplitudes); its gate counts are analytic bookkeeping.
The encoding depth is that of the step source, the only source state: 2 at
every n, since X on qubit n-1 runs beside the H gates on the other qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cost import measured_circuit_count
from .operators import BoundaryCondition, PoissonOperator, decompose


@dataclass(frozen=True)
class StatePrepDepth:
    """Depth terms of the state-preparation stage."""

    ansatz_depth: int
    encoding_depth: int
    shift_depth_bound: int  # O(n^2) shift-circuit depth, evaluated at n


@dataclass(frozen=True)
class ShiftResourceCounts:
    rel_phase_toffolis: int
    toffolis: int
    cnot: int
    x: int
    total_qubits_with_ancilla: int


@dataclass(frozen=True)
class ResourceReport:
    t_c: int
    t_g: int
    shift: ShiftResourceCounts
    state_prep: StatePrepDepth


def count_cost_circuits(bc: BoundaryCondition) -> int:
    """Circuits per cost evaluation for n >= 2: 3 periodic, 4 Dirichlet, 5 Neumann."""
    return measured_circuit_count(decompose(2, bc))


def count_baseline_circuits(n: int) -> int:
    """Prior-method circuits per cost evaluation: (4n+1) + (2n+1)."""
    return 6 * n + 2


def count_shift_resources(n: int) -> ShiftResourceCounts:
    """Gate counts for one shift operator on n qubits.

    For n >= 3: (n-2)(n-3) relative-phase Toffolis, n-3 Toffolis, one CNOT,
    one X, and 2n-3 qubits including auxiliaries.  For n < 3 the circuit is
    CNOT/X only and needs no auxiliary qubits; on one qubit it is a single X.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return ShiftResourceCounts(0, 0, 0, 1, 1)
    if n < 3:
        return ShiftResourceCounts(0, 0, 1, 1, n)
    return ShiftResourceCounts(
        rel_phase_toffolis=(n - 2) * (n - 3),
        toffolis=n - 3,
        cnot=1,
        x=1,
        total_qubits_with_ancilla=2 * n - 3,
    )


def ansatz_depth(n_layers: int) -> int:
    """Initial R_Y column plus (CZ brick + R_Y column) per layer."""
    return 1 + 2 * n_layers


def count_gradient_circuits(n: int, n_layers: int, bc: BoundaryCondition) -> int:
    """parameter_count * cost circuits (one circuit set per shifted parameter)."""
    return n * (n_layers + 1) * measured_circuit_count(decompose(n, bc))


def count_sampled_gradient_circuits(op: PoissonOperator, parameter_count: int) -> int:
    """Circuits one sampled gradient measures: the base cost's 1 + T, then per
    parameter the pi-shifted numerator and the T terms at each of +-pi/2."""
    return measured_circuit_count(op) + parameter_count * (1 + 2 * len(op.terms))


def resource_report(n: int, n_layers: int, bc: BoundaryCondition) -> ResourceReport:
    """Full static resource report for one configuration."""
    return ResourceReport(
        t_c=measured_circuit_count(decompose(n, bc)),
        t_g=count_gradient_circuits(n, n_layers, bc),
        shift=count_shift_resources(n),
        state_prep=StatePrepDepth(ansatz_depth(n_layers), 2, n * n),
    )
