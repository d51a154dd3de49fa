import numpy as np
import pytest

from vqa_poisson import (BoundaryCondition, Statevector, SolverError, baseline_cost,
                         build_matrix, cost_from_state, decompose, fidelity,
                         prepare_source_state, solve, trace_distance)

DIRICHLET = BoundaryCondition.DIRICHLET


def test_two_node_dirichlet_solution_by_hand():
    solution = solve(build_matrix(1, DIRICHLET), np.array([1.0, 0.0]))
    np.testing.assert_allclose(solution.u, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert solution.norm == pytest.approx(np.sqrt(5.0) / 3.0, abs=1e-12)
    np.testing.assert_allclose(np.linalg.norm(solution.u_normalized), 1.0, atol=1e-12)


def test_eigenvector_rhs_scales_by_eigenvalue():
    matrix = build_matrix(2, DIRICHLET)
    eigenvalues, vectors = np.linalg.eigh(matrix)
    rhs = vectors[:, 0]
    solution = solve(matrix, rhs)
    np.testing.assert_allclose(solution.u, rhs / eigenvalues[0], atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_residual_is_tiny(n):
    matrix = build_matrix(n, DIRICHLET)
    rhs = np.real(prepare_source_state(n).amplitudes)
    solution = solve(matrix, rhs)
    assert np.linalg.norm(matrix @ solution.u - rhs) < 1e-10 * np.linalg.norm(rhs)


def test_singular_matrix_raises():
    # unregularized periodic/Neumann matrices are singular at every n, whatever
    # rounding does to the last Cholesky pivot
    for bc in (BoundaryCondition.PERIODIC, BoundaryCondition.NEUMANN):
        for n in range(1, 7):
            with pytest.raises(SolverError):
                solve(build_matrix(n, bc, 0.0), prepare_source_state(n))


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_regularized_and_dirichlet_matrices_solve_up_to_ten_qubits(bc):
    for n in range(1, 11):
        epsilon = 0.0 if bc is DIRICHLET else 1e-3
        matrix = build_matrix(n, bc, epsilon)
        rhs = np.real(prepare_source_state(n).amplitudes)
        solution = solve(matrix, rhs)
        assert np.linalg.norm(matrix @ solution.u - rhs) < 1e-8 * np.linalg.norm(rhs)


def test_norm_recovery_links_r_opt_to_classical_norm():
    # at psi = u_bar the closed-form scale equals ||A^{-1} f||
    n = 2
    op = decompose(n, DIRICHLET)
    f = prepare_source_state(n)
    solution = solve(build_matrix(n, DIRICHLET), np.real(f.amplitudes))
    report = cost_from_state(op, Statevector(solution.u_normalized), f)
    assert report.r_opt == pytest.approx(solution.norm, abs=1e-9)
    baseline = baseline_cost(build_matrix(n, DIRICHLET),
                             Statevector(solution.u_normalized), f)
    assert baseline.r == pytest.approx(solution.norm, abs=1e-9)


def test_trace_distance_limits():
    u = np.array([1.0, 0.0])
    assert trace_distance(np.array([1.0, 0.0]), u) == 0.0
    assert trace_distance(np.array([0.0, 1.0]), u) == 1.0


@pytest.mark.parametrize("phase", [1.0, np.exp(0.3j)], ids=["real", "complex"])
@pytest.mark.parametrize("distance", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
def test_trace_distance_matches_extended_precision_reference(distance, phase):
    # Near convergence 1 - |<psi|u>|^2 cancels in float64; the reference takes the
    # part of psi orthogonal to u in extended precision, which does not.
    rng = np.random.default_rng(17)
    u = rng.normal(size=8)
    u /= np.linalg.norm(u)
    v = rng.normal(size=8)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    psi = phase * (np.sqrt(1.0 - distance**2) * u + distance * v)
    p = psi.astype(np.clongdouble)
    q = u.astype(np.longdouble)
    p /= np.sqrt(np.sum(np.abs(p) ** 2))
    q /= np.sqrt(np.sum(q * q))
    residual = p - np.sum(q * p) * q
    reference = float(np.sqrt(np.sum(np.abs(residual) ** 2)))
    assert trace_distance(psi, u) == pytest.approx(reference, rel=1e-6)
    if phase == 1.0:
        assert trace_distance(psi.astype(complex), u) == pytest.approx(reference, rel=1e-6)


def test_trace_distance_tolerance_matches_fidelity_bound():
    # |<psi|u>| = 0.99995 sits just inside the 0.01 trace-distance band
    overlap = 0.99995
    psi = np.array([overlap, np.sqrt(1 - overlap**2)])
    u = np.array([1.0, 0.0])
    eps = trace_distance(psi, u)
    assert eps == pytest.approx(0.0099998749992, abs=1e-10)
    assert eps < 0.01
    assert fidelity(psi, u) > 0.9999


def test_trace_distance_bounds_and_symmetry(rng):
    for _ in range(25):
        a = rng.normal(size=8)
        a /= np.linalg.norm(a)
        b = rng.normal(size=8)
        b /= np.linalg.norm(b)
        d_ab = trace_distance(a, b)
        assert 0.0 <= d_ab <= 1.0
        assert d_ab == pytest.approx(trace_distance(b, a), abs=1e-15)
