import functools

import numpy as np
import pytest

from vqa_poisson import (AnsatzCircuit, BoundaryCondition, Mesh2D, Statevector, build_fem_2d,
                         OptimizationConfig, TraceDistance, cost, decompose, denominator,
                         expectation, finite_difference_gradient, grad_cost, grad_numerator,
                         make_problem, minimize, numerator_hadamard, prepare_ansatz_state,
                         prepare_source_state, reassemble_dense, shifted_state, term_gradient)
from vqa_poisson.cost import cost_report
from vqa_poisson import states
from vqa_poisson.gradient import evaluate, parameter_shift_gradient
from vqa_poisson.operators import (DEFAULT_EPSILON, FACTOR_I, FACTOR_X, ObservableTerm,
                                    term_dense)
from vqa_poisson.sampling import _slots
from vqa_poisson.states import ansatz_adjoint

from conftest import fdm_two_axes, random_theta

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


def _grad_denominator(op, circuit, theta):
    """Components 2 Re<d_i psi|A|psi>, the sum of the terms' gradients."""
    return sum(term_gradient(term, circuit, theta, op.axes) for term in op.terms)


def test_grad_denominator_closed_form_single_qubit():
    # psi = (cos t/2, sin t/2), Dirichlet 2x2: <A> = 2 - sin t, d<A>/dt = -cos t
    circuit = AnsatzCircuit(1, 0)
    op = decompose(1, DIRICHLET)
    for theta_val in (0.0, 0.7, 2.5):
        grad = _grad_denominator(op, circuit, np.array([theta_val]))
        assert grad[0] == pytest.approx(-np.cos(theta_val), abs=1e-12)


def test_grad_denominator_matches_finite_differences(rng):
    circuit = AnsatzCircuit(3, 3)
    op = decompose(3, BoundaryCondition.NEUMANN, 1e-3)
    theta = random_theta(rng, circuit)
    fd = finite_difference_gradient(
        lambda t: denominator(op, prepare_ansatz_state(circuit, t)), theta)
    np.testing.assert_allclose(_grad_denominator(op, circuit, theta), fd, atol=1e-7)


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


def _check_parameter_shift_route(op, circuit, f, rng, atol):
    """parameter_shift_gradient on exact expectations over the rows of one sweep's slots
    equals grad_cost's gradient within atol."""
    theta = random_theta(rng, circuit)
    count = circuit.parameter_count
    slots = _slots(op, circuit, theta, f, shifted=True)
    # the numerator slot carries theta and its P pi shifts, each term slot theta and its
    # 2P +-pi/2 shifts
    assert [len(rows) for _, rows, _ in slots] == [count + 1] + [2 * count + 1] * len(op.terms)
    num, *terms = [np.array([expectation(term, Statevector(row), axes) for row in rows])
                   for term, rows, axes in slots]
    base = cost_report(num[0], op.constant_offset + sum(values[0] for values in terms))
    grad = parameter_shift_gradient(base, num[1:], [values[1:count + 1] for values in terms],
                                    [values[count + 1:] for values in terms])
    np.testing.assert_allclose(grad, grad_cost(op, circuit, theta, f).grad, atol=atol)


def test_parameter_shift_estimator_slots_and_keys(rng):
    _check_parameter_shift_route(decompose(2, BoundaryCondition.NEUMANN, 1e-3),
                                 AnsatzCircuit(2, 1), prepare_source_state(2), rng, 1e-12)


def test_parameter_shift_route_matches_pi_shift_route(rng):
    _check_parameter_shift_route(decompose(3, BoundaryCondition.PERIODIC, 1e-3),
                                 AnsatzCircuit(3, 4), prepare_source_state(3), rng, 1e-10)


def test_parameter_shift_route_on_two_axes(rng):
    _check_parameter_shift_route(fdm_two_axes(), AnsatzCircuit(4, 2), prepare_source_state(4),
                                 rng, 1e-12)


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


@pytest.mark.parametrize("n,layers", [(1, 0), (1, 2), (2, 1), (3, 0), (4, 3), (9, 2), (11, 1)])
def test_adjoint_sweep_matches_pi_shift_oracle(n, layers, rng):
    circuit = AnsatzCircuit(n, layers)
    theta = random_theta(rng, circuit)
    lam = rng.normal(size=1 << n)
    np.testing.assert_allclose(ansatz_adjoint(circuit, theta, lam),
                               0.5 * pi_shift_rows(circuit, theta) @ lam, atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_gradient_from_reused_factors_equals_cold_call(n, rng):
    """The adjoint sweep reuses the column factors of the forward sweep at the
    same theta, from the one record fetch of ``grad_cost``; from a fresh record,
    ``evaluate``'s gradient function gives the same gradient bit for bit.  It
    holds its record: called once the records are dropped, it fetches none."""
    op = decompose(n, DIRICHLET)
    circuit = AnsatzCircuit(n, 3)
    f = prepare_source_state(n)
    theta = random_theta(rng, circuit)
    states._theta_factors.cache_clear()
    warm = grad_cost(op, circuit, theta, f).grad
    assert states._theta_factors.cache_info()[:2] == (0, 1)  # one fetch, no reuse
    states._theta_factors.cache_clear()
    gradient = evaluate(op, circuit, theta, f.amplitudes)[1]
    states._theta_factors.cache_clear()
    assert np.array_equal(warm, gradient())
    assert states._theta_factors.cache_info()[:2] == (0, 0)


@pytest.mark.parametrize("bc", ALL_BCS)
def test_evaluate_pairs_cost_and_gradient_from_one_record(bc, rng):
    """``evaluate``'s report is ``cost``'s and its gradient ``grad_cost``'s, bit
    for bit; the pair costs one record miss and one forward sweep."""
    n = 4
    op = decompose(n, bc, DEFAULT_EPSILON[bc])
    circuit = AnsatzCircuit(n, 3)
    f = prepare_source_state(n)
    theta = random_theta(rng, circuit)
    states._theta_factors.cache_clear()
    report, gradient = evaluate(op, circuit, theta, f.amplitudes)
    grad = gradient()
    assert states._theta_factors.cache_info()[:2] == (0, 1)
    states._theta_factors.cache_clear()
    assert report == cost(op, circuit, theta, f)
    states._theta_factors.cache_clear()
    assert np.array_equal(grad, grad_cost(op, circuit, theta, f).grad)


@pytest.mark.parametrize("size", [4, 16])
def test_adjoint_rejects_a_lam_of_another_size(size, rng):
    circuit = AnsatzCircuit(3, 2)
    theta = random_theta(rng, circuit)
    states._theta_factors.cache_clear()
    for _ in range(2):  # a cold sweep, then a warm one
        with pytest.raises(ValueError, match=rf"state's 8 amplitudes, got shape \({size},\)"):
            ansatz_adjoint(circuit, theta, np.ones(size))
        ansatz_adjoint(circuit, theta, np.ones(8))  # fills theta's tables for the warm sweep


def barren_plateau_gradients(n, theta, before_each=lambda: None):
    """The barren-plateau protocol's four gradients at one theta (cli.barren_plateau_norms)."""
    op = decompose(n, BoundaryCondition.PERIODIC, 1e-3)
    circuit = AnsatzCircuit(n, 5)
    f = prepare_source_state(n)
    even = ObservableTerm(-1.0, (FACTOR_X,) + (FACTOR_I,) * (n - 1), (0,))
    odd = ObservableTerm(-1.0, even.factors, (1,))
    calls = [lambda: grad_cost(op, circuit, theta, f).grad,
             lambda: term_gradient(even, circuit, theta),
             lambda: term_gradient(odd, circuit, theta),
             lambda: grad_numerator(circuit, theta, f)]
    grads = []
    for call in calls:
        before_each()
        grads.append(call())
    return grads


@pytest.mark.parametrize("n", [1, 3, 5, 8, 10])
def test_barren_plateau_gradients_from_one_record_equal_cold_calls(n, rng):
    """Three of the four gradients un-apply lam alone and read psi's stored
    readout tables; each equals the same call made with no record, bit for bit."""
    theta = random_theta(rng, AnsatzCircuit(n, 5))
    states._theta_factors.cache_clear()
    warm = barren_plateau_gradients(n, theta)
    cold = barren_plateau_gradients(n, theta, states._theta_factors.cache_clear)
    for w, c in zip(warm, cold):
        assert np.array_equal(w, c)


@pytest.mark.parametrize("n", [1, 3, 5, 8, 10])
def test_barren_plateau_gradients_share_one_forward_sweep(n, rng, monkeypatch):
    """One forward sweep for the four gradients, and one record fetch each."""
    sweeps = []
    forward_sweep = states._forward_sweep

    def counted(*args):
        sweeps.append(args[2])
        return forward_sweep(*args)

    monkeypatch.setattr(states, "_forward_sweep", counted)
    states._theta_factors.cache_clear()
    barren_plateau_gradients(n, random_theta(rng, AnsatzCircuit(n, 5)))
    assert sweeps == [1]
    assert states._theta_factors.cache_info()[:2] == (3, 1)


def _record_traffic(run):
    """(hits, misses) of the per-theta records over one run, from empty records."""
    states._theta_factors.cache_clear()
    run()
    info = states._theta_factors.cache_info()
    return info.hits, info.misses


def test_theta_record_size_fits_the_traffic(rng, monkeypatch):
    """Every record the solver and the barren-plateau protocol reuse is the
    latest theta's: the shipped size finds it as often as unbounded records."""
    problem = make_problem(3, DIRICHLET)
    config = OptimizationConfig(max_iterations=40, terminal=TraceDistance(1e-3))
    theta = random_theta(rng, AnsatzCircuit(5, 5))
    runs = (lambda: minimize(problem, config, trial_seed=4),
            lambda: barren_plateau_gradients(5, theta))
    shipped = [_record_traffic(run) for run in runs]
    assert all(hits > 0 for hits, _ in shipped)
    unbounded = functools.lru_cache(maxsize=None)(states._theta_factors.__wrapped__)
    monkeypatch.setattr(states, "_theta_factors", unbounded)
    assert [_record_traffic(run) for run in runs] == shipped


def test_adjoint_fills_the_records_tables_once(rng):
    circuit = AnsatzCircuit(5, 3)
    theta = random_theta(rng, circuit)
    lam = rng.normal(size=32)
    states._theta_factors.cache_clear()
    tables = states._theta_factors(circuit, theta.tobytes())[2]
    assert tables == []
    pair = ansatz_adjoint(circuit, theta, lam)
    assert len(tables) == circuit.n_layers + 1
    # the tables are the C-contiguous (n, 2^n) rows of one block, gathered in place
    block = tables[0].base
    assert block.shape == (circuit.n_layers + 1, 5, 32)
    for step, table in enumerate(tables):
        assert table.base is block and table.flags.c_contiguous and table.shape == (5, 32)
        assert table.ctypes.data == block[step].ctypes.data
    filled = list(tables)
    # a later sweep at theta reads the same tables and gives the same bits
    assert np.array_equal(ansatz_adjoint(circuit, theta, lam), pair)
    assert all(a is b for a, b in zip(tables, filled, strict=True))
    other = rng.normal(size=32)
    warm = ansatz_adjoint(circuit, theta, other)
    states._theta_factors.cache_clear()
    assert np.array_equal(warm, ansatz_adjoint(circuit, theta, other))


@pytest.mark.parametrize("n", [5, 10])
def test_records_never_share_table_memory(n, rng):
    """A gradient function keeps its own theta's tables: a cold gradient at
    another theta fills a block of its own, so the first function still gives
    its cold gradient, bit for bit."""
    op = decompose(n, DIRICHLET)
    circuit = AnsatzCircuit(n, 5)
    f = prepare_source_state(n)
    theta1, theta2 = random_theta(rng, circuit), random_theta(rng, circuit)
    states._theta_factors.cache_clear()
    gradient1 = evaluate(op, circuit, theta1, f.amplitudes)[1]
    tables1 = states._theta_record(circuit, theta1)[2]
    first = gradient1()  # fills theta1's tables
    grad_cost(op, circuit, theta2, f)  # evicts theta1's record, fills theta2's tables
    tables2 = states._theta_record(circuit, theta2)[2]
    assert len(tables1) == len(tables2) == circuit.n_layers + 1
    assert not any(np.shares_memory(a, b) for a in tables1 for b in tables2)
    again = gradient1()
    states._theta_factors.cache_clear()
    cold = evaluate(op, circuit, theta1, f.amplitudes)[1]()
    assert np.array_equal(again, cold) and np.array_equal(first, cold)


MULTI_AXIS_OPERATORS = {
    "fem2d": build_fem_2d(Mesh2D(2, 1)),
    "fdm_kron": fdm_two_axes(),
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
    grad = _grad_denominator(op, circuit, theta)
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
