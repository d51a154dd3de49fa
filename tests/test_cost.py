import numpy as np
import pytest

from vqa_poisson import (DEFAULT_EPSILON, AnsatzCircuit, BoundaryCondition, ObservableTerm,
                         PoissonOperator, SingularOperatorError, Statevector, baseline_cost,
                         build_matrix, cost, cost_from_state, decompose, denominator,
                         expectation, measured_circuit_count, numerator_hadamard,
                         prepare_ansatz_state, prepare_source_state, sample_term, solve,
                         term_gradient, term_shot_moments)
from vqa_poisson.cost import apply_factor_product, apply_operator, apply_term, cost_and_a_psi
from vqa_poisson.operators import (FACTOR_I, FACTOR_P0, FACTOR_X, Mesh2D, build_fem_2d,
                                   reassemble_dense, shift_amplitudes)

from conftest import fdm_two_axes, random_real_state, random_theta

DIRICHLET = BoundaryCondition.DIRICHLET
NEUMANN = BoundaryCondition.NEUMANN
PERIODIC = BoundaryCondition.PERIODIC


def x_term(n, coeff=-1.0, shift=0):
    return ObservableTerm(coeff, tuple(FACTOR_X if q == 0 else FACTOR_I for q in range(n)),
                          (shift,))


def test_x_expectation_on_vacuum_is_zero():
    assert expectation(x_term(2), Statevector.zero(2)) == 0.0


def test_x_expectation_on_uniform_state():
    uniform = Statevector(np.full(4, 0.5))
    assert expectation(x_term(2), uniform) == pytest.approx(-1.0, abs=1e-15)


def test_projector_x_term_with_shift():
    term = ObservableTerm(1.0, (FACTOR_X, FACTOR_P0), (1,))
    # |3> shifts to |0>; <00|P0 (x) X|00> = 0
    assert expectation(term, Statevector.basis(2, 3)) == 0.0


def test_expectation_rejects_size_mismatch():
    with pytest.raises(ValueError):
        expectation(x_term(2), Statevector.zero(3))


@pytest.mark.parametrize("size", [4, 16])
def test_apply_term_rejects_a_size_mismatch(size):
    # a longer vector must not come back cut to the term's 8 values
    with pytest.raises(ValueError, match=rf"3 qubits \(8 amplitudes\), got shape \({size},\)"):
        apply_term(x_term(3), np.ones(size))


@pytest.mark.parametrize("helper", [
    lambda op, psi, f: denominator(op, psi),
    lambda op, psi, f: numerator_hadamard(psi, f),
    lambda op, psi, f: cost_and_a_psi(op, psi.amplitudes, f.amplitudes),
], ids=["denominator", "numerator_hadamard", "cost_and_a_psi"])
def test_cost_routes_reject_a_size_mismatch(helper):
    # a 3-qubit state against a 2-qubit operator and source
    op, f = decompose(2, DIRICHLET), prepare_source_state(2)
    helper(op, Statevector.basis(2, 1), f)
    with pytest.raises(ValueError, match="qubits|register sizes differ"):
        helper(op, Statevector.basis(3, 1), f)


@pytest.mark.parametrize("helper", [
    lambda term, circuit, theta, axes: expectation(
        term, prepare_ansatz_state(circuit, theta), axes),
    lambda term, circuit, theta, axes: term_shot_moments(
        term, prepare_ansatz_state(circuit, theta), axes),
    lambda term, circuit, theta, axes: sample_term(
        term, prepare_ansatz_state(circuit, theta), 64, 0, axes),
    lambda term, circuit, theta, axes: term_gradient(term, circuit, theta, axes),
], ids=["expectation", "term_shot_moments", "sample_term", "term_gradient"])
def test_term_helpers_reject_a_two_axis_term_without_its_axes(helper, rng):
    # without axes a helper reads the register as one axis (3,): it must not
    # apply one of the term's two shifts, or roll an axis the array lacks
    op = build_fem_2d(Mesh2D(2, 1))
    circuit = AnsatzCircuit(op.n_qubits, 2)
    theta = random_theta(rng, circuit)
    for term in op.terms:
        helper(term, circuit, theta, op.axes)
        with pytest.raises(ValueError, match=r"2 shifts for the axes \(3,\)"):
            helper(term, circuit, theta, None)


def test_denominator_of_step_state_dirichlet():
    op = decompose(2, DIRICHLET)
    f = prepare_source_state(2)
    assert denominator(op, f) == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_denominator_of_vacuum_dirichlet(n):
    op = decompose(n, DIRICHLET)
    assert denominator(op, Statevector.zero(n)) == pytest.approx(2.0, abs=1e-12)


def test_denominator_of_uniform_neumann_is_epsilon():
    # constant vector spans the Neumann null space: only epsilon survives
    uniform = Statevector(np.full(8, 1 / np.sqrt(8)))
    assert denominator(decompose(3, NEUMANN, 1e-3), uniform) == pytest.approx(1e-3, abs=1e-15)
    op0 = decompose(3, NEUMANN, 0.0)
    assert denominator(op0, uniform) == pytest.approx(0.0, abs=1e-12)


def test_non_positive_denominator_raises():
    from vqa_poisson import PoissonOperator
    singular = PoissonOperator((2,), NEUMANN, (), 0.0)
    with pytest.raises(SingularOperatorError):
        cost_from_state(singular, Statevector.zero(2), prepare_source_state(2))


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET, NEUMANN])
@pytest.mark.parametrize("n", range(1, 9))
def test_denominator_matches_dense_quadratic_form(bc, n, rng):
    epsilon = 0.0 if bc is DIRICHLET else 1e-3
    op = decompose(n, bc, epsilon)
    dense = build_matrix(n, bc, epsilon)
    for _ in range(3):
        psi = random_real_state(rng, n)
        direct = float(np.real(psi.amplitudes) @ dense @ np.real(psi.amplitudes))
        assert denominator(op, psi) == pytest.approx(direct, abs=1e-10)


# Three axis registers (2, 1, 2) with X and |0><0| factors and shifts on every
# axis: shift_amplitudes' per-axis loop is what needs a third axis.
THREE_AXIS = PoissonOperator((2, 1, 2), NEUMANN, (
    ObservableTerm(-1.0, (FACTOR_X, FACTOR_I, FACTOR_I, FACTOR_I, FACTOR_I), (1, 0, 0)),
    ObservableTerm(-1.0, (FACTOR_I, FACTOR_I, FACTOR_X, FACTOR_I, FACTOR_I), (0, 1, 0)),
    ObservableTerm(1.0, (FACTOR_I, FACTOR_I, FACTOR_I, FACTOR_X, FACTOR_P0), (0, 0, 1)),
    ObservableTerm(-0.5, (FACTOR_X, FACTOR_P0, FACTOR_X, FACTOR_X, FACTOR_I), (1, -1, 1)),
), 6.001)


@pytest.mark.parametrize("op", [
    *(decompose(3, bc, 1e-3) for bc in BoundaryCondition),
    build_fem_2d(Mesh2D(2, 1), 1e-3),
    fdm_two_axes(),
    THREE_AXIS,
], ids=["periodic", "dirichlet", "neumann", "fem2d", "fdm_kron", "three_axis"])
def test_apply_operator_matches_dense_matrix(op, rng):
    dense = reassemble_dense(op)
    for _ in range(3):
        amps = rng.normal(size=1 << op.n_qubits)
        np.testing.assert_allclose(apply_operator(op, amps), dense @ amps, atol=1e-12)


def _shift_factor_unshift(term, amps, axes):
    """coefficient * P^-s M P^s phi, computed as the circuit does: shift, factors, unshift."""
    m_shifted = apply_factor_product(term, shift_amplitudes(amps, axes, term.axis_shifts))
    unshift = tuple(-s for s in term.axis_shifts)
    return term.coefficient * shift_amplitudes(m_shifted, axes, unshift)


@pytest.mark.parametrize("op", [
    *(decompose(n, bc, 1e-3) for bc in BoundaryCondition for n in range(1, 9)),
    THREE_AXIS,
    *(build_fem_2d(Mesh2D(nx, ny), 1e-3)
      for nx in range(1, 5) for ny in range(1, 5) if (nx, ny) != (4, 4)),
])
def test_gather_tables_equal_shift_factor_unshift_bit_for_bit(op, rng):
    for amps in (rng.normal(size=1 << op.n_qubits),
                 rng.normal(size=1 << op.n_qubits) + 1j * rng.normal(size=1 << op.n_qubits)):
        expected = op.constant_offset * amps
        for term in op.terms:
            by_term = _shift_factor_unshift(term, amps, op.axes)
            assert np.array_equal(apply_term(term, amps, op.axes), by_term)
            expected += by_term
        assert np.array_equal(apply_operator(op, amps), expected)


def test_numerator_signs():
    f = prepare_source_state(2)
    assert numerator_hadamard(f, f) == pytest.approx(1.0, abs=1e-12)
    minus = Statevector(-f.amplitudes)
    assert numerator_hadamard(minus, f) == pytest.approx(-1.0, abs=1e-12)
    perp = Statevector(np.array([0.5, -0.5, -0.5, 0.5]))
    assert numerator_hadamard(perp, f) == pytest.approx(0.0, abs=1e-12)
    # state with Re<psi|f> = -0.3 built in the 2-plane spanned by f and perp
    mix = Statevector(-0.3 * f.amplitudes + np.sqrt(1 - 0.09) * perp.amplitudes)
    assert numerator_hadamard(mix, f) == pytest.approx(-0.3, abs=1e-12)


def test_cost_report_for_step_state():
    op = decompose(2, DIRICHLET)
    f = prepare_source_state(2)
    report = cost_from_state(op, f, f)
    assert report.numerator == pytest.approx(1.0, abs=1e-12)
    assert report.denominator == pytest.approx(1.5, abs=1e-12)
    assert report.r_opt == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert report.energy == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_cost_zero_for_orthogonal_state():
    op = decompose(2, DIRICHLET)
    f = prepare_source_state(2)
    perp = Statevector(np.array([0.5, -0.5, -0.5, 0.5]))
    report = cost_from_state(op, perp, f)
    assert report.energy == pytest.approx(0.0, abs=1e-15)
    assert report.r_opt == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cost_attains_variational_minimum_at_exact_solution(n):
    op = decompose(n, DIRICHLET)
    dense = build_matrix(n, DIRICHLET)
    f = prepare_source_state(n)
    solution = solve(dense, np.real(f.amplitudes))
    psi = Statevector(solution.u_normalized)
    report = cost_from_state(op, psi, f)
    f_vec = np.real(f.amplitudes)
    best = -0.5 * float(f_vec @ solution.u)
    assert report.energy == pytest.approx(best, abs=1e-12)
    np.testing.assert_allclose(report.r_opt * solution.u_normalized, solution.u,
                               atol=1e-10)


def test_cost_circuit_route_matches_state_route(rng):
    circuit = AnsatzCircuit(3, 4)
    theta = random_theta(rng, circuit)
    op = decompose(3, NEUMANN, 1e-3)
    f = prepare_source_state(3)
    by_theta = cost(op, circuit, theta, f)
    by_state = cost_from_state(op, prepare_ansatz_state(circuit, theta), f)
    assert by_theta == by_state


def test_cost_invariants_on_random_states(rng):
    op = decompose(3, DIRICHLET)
    f = prepare_source_state(3)
    for _ in range(50):
        psi = random_real_state(rng, 3)
        report = cost_from_state(op, psi, f)
        assert report.denominator > 0
        assert report.energy == pytest.approx(
            -0.5 * report.numerator**2 / report.denominator, abs=1e-12)
        assert report.r_opt == pytest.approx(
            report.numerator / report.denominator, abs=1e-12)


def test_parabola_in_r_minimized_at_r_opt(rng):
    # E(r) = 0.5 r^2 den - r num is parabolic with vertex at r_opt
    circuit = AnsatzCircuit(3, 3)
    op = decompose(3, DIRICHLET)
    f = prepare_source_state(3)
    for _ in range(100):
        theta = random_theta(rng, circuit)
        report = cost(op, circuit, theta, f)
        r_grid = np.linspace(report.r_opt - 1.0, report.r_opt + 1.0, 201)
        energies = 0.5 * r_grid**2 * report.denominator - r_grid * report.numerator
        grid_best = r_grid[np.argmin(energies)]
        assert abs(grid_best - report.r_opt) <= (r_grid[1] - r_grid[0]) / 2 + 1e-12


def test_baseline_cost_vanishes_at_exact_solution():
    dense = build_matrix(3, DIRICHLET)
    f = prepare_source_state(3)
    solution = solve(dense, np.real(f.amplitudes))
    report = baseline_cost(dense, Statevector(solution.u_normalized), f)
    assert report.cost == pytest.approx(0.0, abs=1e-10)
    assert report.r == pytest.approx(solution.norm, abs=1e-9)


def test_baseline_cost_reduces_to_a_squared_when_projector_vanishes():
    dense = build_matrix(1, DIRICHLET)
    f = Statevector.basis(1, 0)
    # psi with <psi|A|f> = 0: A f = (2, -1); orthogonal direction (1, 2)/sqrt(5)
    psi = Statevector(np.array([1.0, 2.0]) / np.sqrt(5.0))
    apsi = dense @ psi.amplitudes
    report = baseline_cost(dense, psi, f)
    assert report.cost == pytest.approx(float(np.real(np.vdot(apsi, apsi))), abs=1e-12)


def test_baseline_cost_golden_value_for_step_state():
    # frozen by the dense oracle: cost = |A f|^2 - (f^T A f)^2 = 2.5 - 2.25
    dense = build_matrix(2, DIRICHLET)
    f = prepare_source_state(2)
    report = baseline_cost(dense, f, f)
    assert report.cost == pytest.approx(0.25, abs=1e-12)
    assert report.r == pytest.approx(1.0 / np.sqrt(2.5), abs=1e-12)


@pytest.mark.parametrize("bc,count", [(PERIODIC, 3), (DIRICHLET, 4), (NEUMANN, 5)])
def test_measured_circuit_count(bc, count):
    assert measured_circuit_count(decompose(4, bc)) == count


@pytest.mark.parametrize("op", [
    *(decompose(3, bc, DEFAULT_EPSILON[bc]) for bc in BoundaryCondition),
    build_fem_2d(Mesh2D(2, 1)),
    fdm_two_axes(),
], ids=["periodic", "dirichlet", "neumann", "fem2d", "fdm_kron"])
def test_cost_through_a_psi_matches_term_by_term_estimators(op, rng):
    # cost_from_state takes num and den from A psi; the paper measures the
    # ancilla Hadamard test and each term's expectation instead
    f = prepare_source_state(op.n_qubits)
    circuit = AnsatzCircuit(op.n_qubits, 3)
    for _ in range(5):
        psi = prepare_ansatz_state(circuit, random_theta(rng, circuit))
        report = cost_from_state(op, psi, f)
        num, den = numerator_hadamard(psi, f), denominator(op, psi)
        assert abs(report.numerator - num) < 1e-12
        assert abs(report.denominator - den) < 1e-12
        assert abs(report.energy + 0.5 * num * num / den) < 1e-12
        assert abs(report.r_opt - num / den) < 1e-12
