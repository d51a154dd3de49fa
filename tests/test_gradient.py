import numpy as np
import pytest

from vqa_poisson import (AnsatzCircuit, BoundaryCondition, CustomSource, Mesh2D, Statevector,
                         StepFunctionSource, build_fdm_kron, build_fem_2d, cost, decompose,
                         denominator, expectation, finite_difference_gradient, grad_cost,
                         grad_cost_parameter_shift, grad_denominator, grad_numerator,
                         numerator_hadamard, prepare_ansatz_state, prepare_source_state,
                         reassemble_dense, shifted_state, term_gradient)
from vqa_poisson.cost import cost_report
from vqa_poisson.gradient import parameter_shift_gradient
from vqa_poisson.operators import term_dense
from vqa_poisson.states import ansatz_adjoint, ansatz_amplitudes

from conftest import random_theta

DIRICHLET = BoundaryCondition.DIRICHLET
ALL_BCS = list(BoundaryCondition)


def test_shifted_state_single_ry():
    circuit = AnsatzCircuit(1, 0)
    state = shifted_state(circuit, np.zeros(1), 0)
    np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-15)


def test_double_pi_shift_negates_the_state(rng):
    circuit = AnsatzCircuit(3, 2)
    theta = random_theta(rng, circuit)
    base = prepare_ansatz_state(circuit, theta)
    twice = theta.copy()
    twice[4] += 2 * np.pi
    np.testing.assert_allclose(prepare_ansatz_state(circuit, twice).amplitudes,
                               -base.amplitudes, atol=1e-12)


def test_shifted_state_is_twice_the_derivative(rng):
    circuit = AnsatzCircuit(2, 2)
    theta = random_theta(rng, circuit)
    h = 1e-5
    for i in range(circuit.parameter_count):
        plus = theta.copy()
        plus[i] += h
        minus = theta.copy()
        minus[i] -= h
        fd = (prepare_ansatz_state(circuit, plus).amplitudes
              - prepare_ansatz_state(circuit, minus).amplitudes) / (2 * h)
        half_shift = 0.5 * shifted_state(circuit, theta, i).amplitudes
        assert np.max(np.abs(fd - half_shift)) < 1e-9


def test_shifted_state_index_out_of_range():
    circuit = AnsatzCircuit(2, 1)
    with pytest.raises(ValueError):
        shifted_state(circuit, np.zeros(circuit.parameter_count), 4)


def test_grad_numerator_closed_form_single_qubit():
    # f = |0>: numerator = cos(theta/2), derivative = -sin(theta/2)/2
    circuit = AnsatzCircuit(1, 0)
    f = Statevector.basis(1, 0)
    for theta_val in (0.3, 1.2, 4.0):
        theta = np.array([theta_val])
        grad = grad_numerator(circuit, theta, f)
        assert grad[0] == pytest.approx(-0.5 * np.sin(theta_val / 2), abs=1e-12)
        assert grad[0] == pytest.approx(
            0.5 * numerator_hadamard(shifted_state(circuit, theta, 0), f), abs=1e-15)


def test_grad_numerator_matches_finite_differences():
    circuit = AnsatzCircuit(3, 2)
    f = prepare_source_state(3)
    theta = np.zeros(circuit.parameter_count)
    fd = finite_difference_gradient(
        lambda t: numerator_hadamard(prepare_ansatz_state(circuit, t), f), theta)
    np.testing.assert_allclose(grad_numerator(circuit, theta, f), fd, atol=1e-7)


def test_grad_denominator_closed_form_single_qubit():
    # psi = (cos t/2, sin t/2), Dirichlet 2x2: <A> = 2 - sin t, d<A>/dt = -cos t
    circuit = AnsatzCircuit(1, 0)
    op = decompose(1, DIRICHLET)
    for theta_val in (0.0, 0.7, 2.5):
        grad = grad_denominator(op, circuit, np.array([theta_val]))
        assert grad[0] == pytest.approx(-np.cos(theta_val), abs=1e-12)


def test_grad_denominator_matches_finite_differences(rng):
    from vqa_poisson import denominator
    circuit = AnsatzCircuit(3, 3)
    op = decompose(3, BoundaryCondition.NEUMANN, 1e-3)
    theta = random_theta(rng, circuit)
    fd = finite_difference_gradient(
        lambda t: denominator(op, prepare_ansatz_state(circuit, t)), theta)
    np.testing.assert_allclose(grad_denominator(op, circuit, theta), fd, atol=1e-7)


def test_grad_cost_vanishes_at_orthogonal_state():
    # psi(pi) = |1> is orthogonal to f = |0>; numerator = 0 kills both terms
    circuit = AnsatzCircuit(1, 0)
    op = decompose(1, DIRICHLET)
    f_zero = Statevector.basis(1, 0)
    report = grad_cost(op, circuit, np.array([np.pi]), f_zero)
    assert report.grad[0] == pytest.approx(0.0, abs=1e-12)


def test_grad_cost_closed_form_single_qubit():
    # E(t) = -cos^2(t/2) / (2 (2 - sin t)) with f = |0>
    circuit = AnsatzCircuit(1, 0)
    op = decompose(1, DIRICHLET)
    f_zero = Statevector.basis(1, 0)
    for t in (0.4, 1.3, 3.0):
        num = np.cos(t / 2)
        den = 2 - np.sin(t)
        expected = -0.5 * (2 * num * (-0.5 * np.sin(t / 2)) * den
                           - num**2 * (-np.cos(t))) / den**2
        report = grad_cost(op, circuit, np.array([t]), f_zero)
        assert report.grad[0] == pytest.approx(expected, abs=1e-12)
        assert report.norm == pytest.approx(abs(expected), abs=1e-12)


@pytest.mark.parametrize("bc", ALL_BCS)
def test_grad_cost_matches_finite_differences(bc, rng):
    n = 4
    epsilon = 0.0 if bc is DIRICHLET else 1e-3
    op = decompose(n, bc, epsilon)
    circuit = AnsatzCircuit(n, 5)
    f = prepare_source_state(n)
    for _ in range(4):
        theta = random_theta(rng, circuit)
        analytic = grad_cost(op, circuit, theta, f).grad
        fd = finite_difference_gradient(lambda t: cost(op, circuit, t, f).energy, theta)
        rel = np.max(np.abs(analytic - fd) / (1.0 + np.abs(fd)))
        assert rel < 1e-5


def test_parameter_shift_route_matches_pi_shift_route(rng):
    op = decompose(3, BoundaryCondition.PERIODIC, 1e-3)
    circuit = AnsatzCircuit(3, 4)
    f = prepare_source_state(3)
    theta = random_theta(rng, circuit)
    a = grad_cost(op, circuit, theta, f).grad
    b = grad_cost_parameter_shift(op, circuit, theta, f).grad
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_parameter_shift_estimator_slots_and_keys(rng):
    op = decompose(2, BoundaryCondition.NEUMANN, 1e-3)
    circuit = AnsatzCircuit(2, 1)
    f = prepare_source_state(2)
    theta = random_theta(rng, circuit)
    count = circuit.parameter_count
    calls = []

    def measure(slot, term, rows, axes):
        # one call per measured slot, carrying theta (row 0) and every shifted row it measures
        assert len(rows) == (count + 1 if slot == 0 else 2 * count + 1)
        calls.append(("measure", slot))
        values = np.array([expectation(term, Statevector(row), axes) for row in rows])

        def group(index, key):
            # one call per measured group of P shifted rows
            assert len(values[index]) == count
            calls.append((slot, key))
            return values[index]

        return values[0], group

    def report(num, den):
        calls.append("report")
        return cost_report(num, den)

    grad = parameter_shift_gradient(op, circuit, theta, f, measure, report)
    terms = len(op.terms)
    assert calls == ([("measure", slot) for slot in range(1 + terms)] + ["report", (0, (1,))]
                     + [(k + 1, (branch, k)) for branch in (2, 3) for k in range(terms)])
    np.testing.assert_allclose(grad, grad_cost(op, circuit, theta, f).grad, atol=1e-12)


def test_descent_direction_decreases_cost(rng):
    op = decompose(3, DIRICHLET)
    circuit = AnsatzCircuit(3, 3)
    f = prepare_source_state(3)
    alpha = 1e-3
    checked = 0
    for _ in range(100):
        theta = random_theta(rng, circuit)
        report = grad_cost(op, circuit, theta, f)
        if report.norm <= 1e-6:
            continue
        checked += 1
        before = cost(op, circuit, theta, f).energy
        after = cost(op, circuit, theta - alpha * report.grad, f).energy
        assert after < before
    assert checked > 90


def pi_shift_rows(circuit, theta):
    """Row i: the theta_i + pi shifted state, twice the state derivative."""
    return np.array([np.real(shifted_state(circuit, theta, i).amplitudes)
                     for i in range(circuit.parameter_count)])


@pytest.mark.parametrize("n,layers", [(1, 0), (1, 2), (2, 1), (3, 0), (4, 3)])
def test_adjoint_sweep_matches_pi_shift_oracle(n, layers, rng):
    circuit = AnsatzCircuit(n, layers)
    theta = random_theta(rng, circuit)
    lam = rng.normal(size=1 << n)
    psi = ansatz_amplitudes(circuit, theta)
    np.testing.assert_allclose(ansatz_adjoint(circuit, theta, psi, lam),
                               0.5 * pi_shift_rows(circuit, theta) @ lam, atol=1e-12)


MULTI_AXIS_OPERATORS = {
    "fem2d": build_fem_2d(Mesh2D(2, 1)),
    "fdm_kron": build_fdm_kron(2, 2, BoundaryCondition.NEUMANN, 1e-3),
}


@pytest.fixture(params=sorted(MULTI_AXIS_OPERATORS))
def multi_axis(request, rng):
    """(operator, circuit, theta, real psi, pi-shift rows) on a multi-axis register."""
    op = MULTI_AXIS_OPERATORS[request.param]
    circuit = AnsatzCircuit(op.n_qubits, 3)
    theta = random_theta(rng, circuit)
    psi = np.real(prepare_ansatz_state(circuit, theta).amplitudes)
    return op, circuit, theta, psi, pi_shift_rows(circuit, theta)


def test_multi_axis_grad_denominator(multi_axis):
    op, circuit, theta, psi, rows = multi_axis
    grad = grad_denominator(op, circuit, theta)
    np.testing.assert_allclose(grad, rows @ reassemble_dense(op) @ psi, atol=1e-12)
    fd = finite_difference_gradient(
        lambda t: denominator(op, prepare_ansatz_state(circuit, t)), theta)
    np.testing.assert_allclose(grad, fd, atol=1e-7)


def test_multi_axis_term_gradient(multi_axis):
    op, circuit, theta, psi, rows = multi_axis
    for term in op.terms:
        grad = term_gradient(term, circuit, theta, op.axes)
        np.testing.assert_allclose(grad, rows @ term_dense(term, op.axes) @ psi, atol=1e-12)
        fd = finite_difference_gradient(
            lambda t: expectation(term, prepare_ansatz_state(circuit, t), op.axes), theta)
        np.testing.assert_allclose(grad, fd, atol=1e-7)


def test_multi_axis_grad_cost(multi_axis):
    op, circuit, theta, psi, rows = multi_axis
    f = prepare_source_state(op.n_qubits)
    f_real = np.real(f.amplitudes)
    a_psi = reassemble_dense(op) @ psi
    num, den = psi @ f_real, psi @ a_psi
    oracle = -0.5 * num * (rows @ f_real) / den + 0.5 * num * num * (rows @ a_psi) / den**2
    grad = grad_cost(op, circuit, theta, f).grad
    np.testing.assert_allclose(grad, oracle, atol=1e-12)
    fd = finite_difference_gradient(lambda t: cost(op, circuit, t, f).energy, theta)
    assert np.max(np.abs(grad - fd) / (1.0 + np.abs(fd))) < 1e-5


@pytest.mark.parametrize("phase", [1j, np.exp(0.3j)])
def test_grad_numerator_with_complex_source(phase, rng):
    step = StepFunctionSource()
    source = CustomSource(lambda s: Statevector(phase * step.apply(s).amplitudes))
    f = prepare_source_state(3, source)
    circuit = AnsatzCircuit(3, 2)
    theta = random_theta(rng, circuit)
    grad = grad_numerator(circuit, theta, f)
    fd = finite_difference_gradient(
        lambda t: numerator_hadamard(prepare_ansatz_state(circuit, t), f), theta)
    np.testing.assert_allclose(grad, fd, atol=1e-7)
    oracle = [0.5 * numerator_hadamard(shifted_state(circuit, theta, i), f)
              for i in range(circuit.parameter_count)]
    np.testing.assert_allclose(grad, oracle, atol=1e-12)


@pytest.mark.parametrize("phase", [1j, np.exp(0.3j)])
def test_parameter_shift_route_with_complex_source(phase, rng):
    step = StepFunctionSource()
    source = CustomSource(lambda s: Statevector(phase * step.apply(s).amplitudes))
    f = prepare_source_state(3, source)
    op = decompose(3, BoundaryCondition.NEUMANN, 1e-3)
    circuit = AnsatzCircuit(3, 2)
    theta = random_theta(rng, circuit)
    np.testing.assert_allclose(grad_cost_parameter_shift(op, circuit, theta, f).grad,
                               grad_cost(op, circuit, theta, f).grad, atol=1e-12)
