import numpy as np
import pytest

from vqa_poisson import (AnsatzCircuit, BoundaryCondition, ansatz_depth,
                         count_baseline_circuits, count_cost_circuits,
                         count_gradient_circuits, count_shift_resources, decompose,
                         prepare_source_state, resource_report, sample_cost_estimates)
from vqa_poisson.sampling import derive_seed


@pytest.mark.parametrize("bc,expected", [
    (BoundaryCondition.PERIODIC, 3),
    (BoundaryCondition.DIRICHLET, 4),
    (BoundaryCondition.NEUMANN, 5),
])
def test_cost_circuit_counts(bc, expected):
    assert count_cost_circuits(bc) == expected


def test_shift_resources_at_five_qubits():
    counts = count_shift_resources(5)
    assert counts.rel_phase_toffolis == 6
    assert counts.toffolis == 2
    assert counts.cnot == 1
    assert counts.x == 1
    assert counts.total_qubits_with_ancilla == 7


def test_shift_resources_boundary_cases():
    three = count_shift_resources(3)
    assert (three.rel_phase_toffolis, three.toffolis) == (0, 0)
    assert three.total_qubits_with_ancilla == 3
    two = count_shift_resources(2)
    assert (two.rel_phase_toffolis, two.toffolis, two.cnot, two.x) == (0, 0, 1, 1)
    assert two.total_qubits_with_ancilla == 2
    with pytest.raises(ValueError):
        count_shift_resources(0)


def test_shift_on_one_qubit_is_a_single_x():
    one = count_shift_resources(1)
    assert (one.rel_phase_toffolis, one.toffolis, one.cnot, one.x,
            one.total_qubits_with_ancilla) == (0, 0, 0, 1, 1)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_encoding_depth_is_two_at_every_n(n):
    assert resource_report(n, 1, BoundaryCondition.DIRICHLET).state_prep.encoding_depth == 2


@pytest.mark.parametrize("n", range(3, 21))
def test_shift_resource_formulas(n):
    counts = count_shift_resources(n)
    assert counts.rel_phase_toffolis == (n - 2) * (n - 3)
    assert counts.toffolis == n - 3
    assert counts.total_qubits_with_ancilla == 2 * n - 3


def test_gradient_circuit_count_examples():
    assert count_gradient_circuits(3, 5, BoundaryCondition.DIRICHLET) == 72
    assert count_gradient_circuits(4, 0, BoundaryCondition.PERIODIC) == 4 * 1 * 3
    base = count_gradient_circuits(3, 5, BoundaryCondition.NEUMANN)
    assert count_gradient_circuits(3, 11, BoundaryCondition.NEUMANN) == 2 * base


def test_resource_report_fields():
    report = resource_report(5, 5, BoundaryCondition.DIRICHLET)
    assert report.t_c == 4
    assert report.t_g == 5 * 6 * 4
    assert report.state_prep.ansatz_depth == ansatz_depth(5) == 11
    assert report.state_prep.encoding_depth == 2  # X beside n-1 H gates, then one H
    assert report.state_prep.shift_depth_bound == 25
    assert report.shift == count_shift_resources(5)


@pytest.mark.parametrize("bc", list(BoundaryCondition))
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_runtime_counts_match_static_counts(bc, n):
    op = decompose(n, bc, 1e-3)
    circuit = AnsatzCircuit(n, 2)
    f = prepare_source_state(n)
    rng = np.random.default_rng(derive_seed(1, n))
    theta = rng.uniform(0, 4 * np.pi, circuit.parameter_count)
    _, estimates = sample_cost_estimates(op, circuit, theta, f, 64, derive_seed(1, n, 1))
    report = resource_report(n, 2, bc)
    assert len(estimates) == report.t_c
    assert report.t_g == circuit.parameter_count * report.t_c
    if n >= 2:
        assert len(estimates) == count_cost_circuits(bc)


def test_one_qubit_neumann_folds_a_term_into_the_offset():
    # the n = 1 Neumann projector term is the identity, so one cost needs 4 circuits, not 5
    assert resource_report(1, 3, BoundaryCondition.NEUMANN).t_c == 4
    assert count_gradient_circuits(1, 3, BoundaryCondition.NEUMANN) == 4 * 4


def test_baseline_counts_grow_linearly():
    assert count_baseline_circuits(2) == 14
    assert [count_baseline_circuits(n) for n in (3, 4)] == [20, 26]
