import tracemalloc

import numpy as np
import pytest

from vqa_poisson import (AnsatzCircuit, Bands, BoundaryCondition, GradNorm, OptimizationConfig,
                         PoissonProblem, TraceDistance, cost, make_problem, minimize,
                         prepare_ansatz_state, prepare_source_state, run_trials)
from vqa_poisson import operators, optimize, states
from vqa_poisson.classical import SolverError, trace_distance
from vqa_poisson.cost import SingularOperatorError, apply_operator
from vqa_poisson.gradient import grad_cost
from vqa_poisson.optimize import bfgs
from vqa_poisson.operators import PoissonOperator

DIRICHLET = BoundaryCondition.DIRICHLET


def bfgs_evaluation(fun, jac):
    """The bfgs evaluation of a value function and its gradient function."""
    return lambda x: (fun(x), lambda: jac(x))


@pytest.mark.parametrize("dim", [2, 5, 10])
def test_bfgs_solves_spd_quadratics(dim, rng):
    m = rng.normal(size=(dim, dim))
    q = m @ m.T + dim * np.eye(dim)
    b = rng.normal(size=dim)
    result = bfgs(
        bfgs_evaluation(lambda x: float(x @ q @ x - b @ x), lambda x: 2.0 * q @ x - b),
        rng.normal(size=dim),
        max_iterations=3 * dim,
        stop_when=lambda x, v, g: np.linalg.norm(g) < 1e-8,
    )
    assert result.status == "converged"
    assert result.iterations_used <= 3 * dim
    np.testing.assert_allclose(result.final_theta, np.linalg.solve(2.0 * q, b), atol=1e-6)


def test_minimize_reaches_classical_optimum():
    problem = make_problem(2, DIRICHLET, n_layers=5)
    config = OptimizationConfig(max_iterations=500, terminal=GradNorm(1e-6))
    trace = minimize(problem, config, trial_seed=3)
    assert trace.status == "converged"
    solution = problem.classical()
    best = -0.5 * float(np.real(problem.source.amplitudes) @ solution.u)
    assert trace.final_report.energy == pytest.approx(best, abs=1e-6)


def test_minimize_accepts_stationary_start(monkeypatch):
    # psi(pi/2) is orthogonal to the step source on one qubit: zero gradient
    problem = make_problem(1, DIRICHLET, n_layers=0)
    config = OptimizationConfig(max_iterations=50, terminal=GradNorm(1e-8))
    monkeypatch.setattr(optimize, "draw_theta", lambda circuit, seed: np.array([np.pi / 2]))
    trace = minimize(problem, config, trial_seed=0)
    assert trace.status == "converged"
    assert trace.iterations_used == 0


@pytest.mark.parametrize("bc", list(BoundaryCondition))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_minimize_draws_theta0_uniform_in_four_pi(bc, n):
    """With no step taken, the final theta is the seed's [0, 4 pi] draw, bit for bit."""
    problem = make_problem(n, bc, n_layers=2)
    trace = minimize(problem, OptimizationConfig(max_iterations=0), trial_seed=2**63 + 5)
    rng = np.random.default_rng(np.random.SeedSequence(2**63 + 5))
    expected = rng.uniform(0.0, 4.0 * np.pi, problem.circuit.parameter_count)
    assert np.array_equal(trace.final_theta, expected)


def test_minimize_is_deterministic():
    problem = make_problem(3, DIRICHLET)
    config = OptimizationConfig(max_iterations=300)
    a = minimize(problem, config, trial_seed=11)
    b = minimize(problem, config, trial_seed=11)
    assert a.costs == b.costs
    assert a.final_theta.tobytes() == b.final_theta.tobytes()
    assert a.circuit_executions == b.circuit_executions


def test_energy_lower_bound_respected_throughout():
    problem = make_problem(3, DIRICHLET)
    solution = problem.classical()
    bound = -0.5 * float(np.real(problem.source.amplitudes) @ solution.u)
    config = OptimizationConfig(max_iterations=200)
    for seed in (1, 2, 3):
        trace = minimize(problem, config, trial_seed=seed)
        assert all(c >= bound - 1e-9 for c in trace.costs)


def test_line_search_stops_once_the_step_rounds_to_theta():
    # a flat value and a gradient far below x's last bit: no step lowers the
    # value or |g|, and after about 15 halvings the trial point rounds to x;
    # halving further would only re-evaluate x.  Every product here is exact
    # or rounds away, so the count does not depend on the BLAS kernel.
    x0 = np.full(3, 1e6)
    evaluated = []

    def evaluate(x):
        evaluated.append(x.copy())
        return 1.0, lambda: np.full(3, 1e-6)

    result = bfgs(evaluate, x0, 10, lambda x, value, grad: False)
    assert result.status == "line_search_failed"
    assert result.iterations_used == 0
    trials = evaluated[1:]  # evaluated[0] is x0 itself
    assert trials and not any(np.array_equal(x, x0) for x in trials)
    assert len(trials) < 40  # stopped before the line search's trial cap


@pytest.mark.parametrize("max_iterations,status", [(3, "max_iterations"), (1000, "converged")])
def test_final_report_is_the_cost_at_the_final_theta(max_iterations, status):
    problem = make_problem(3, DIRICHLET)
    trace = minimize(problem, OptimizationConfig(max_iterations=max_iterations), trial_seed=11)
    assert trace.status == status
    exact = cost(problem.operator, problem.circuit, trace.final_theta, problem.source)
    assert trace.final_report.energy == exact.energy


def test_aborted_trial_reports_diagnostic(monkeypatch):
    op = PoissonOperator((1,), DIRICHLET, (), -1.0)  # always-singular denominator
    problem = PoissonProblem(op, AnsatzCircuit(1, 0), prepare_source_state(1),
                             Bands(np.ones(2), np.zeros(1), 0.0))  # the 2 x 2 identity
    seen = _count_sweeps_and_evaluations(monkeypatch)
    trace = minimize(problem, OptimizationConfig(max_iterations=10), trial_seed=0)
    assert trace.status.startswith("aborted")
    assert trace.iterations_used == 0
    # the failed first cost took the only sweep; no cost, so no final report
    assert seen["sweeps"] == seen["costs"] == 1
    assert np.isnan(trace.final_report.energy)
    assert isinstance(trace.trace_distance, float) and np.isnan(trace.trace_distance)


@pytest.mark.parametrize("bc", [BoundaryCondition.PERIODIC, BoundaryCondition.NEUMANN])
def test_unregularized_reference_is_singular_up_to_fourteen_qubits(bc):
    for n in range(1, 15):
        with pytest.raises(SolverError):
            make_problem(n, bc, 5, 0.0).classical()


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_fourteen_qubit_reference_builds_no_dense_matrix(bc, monkeypatch):
    def no_dense(*args):
        raise AssertionError("make_problem built a dense matrix")

    monkeypatch.setattr(operators, "build_matrix", no_dense)
    tracemalloc.start()
    try:
        problem = make_problem(14, bc)
        u = problem.classical().u
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # the dense matrix alone is 2 GiB
    # A u from the gather tables, independent of the bands.  The bound is
    # backward stability, |A u - f| <= c eps |A| |u| with |A| <= 4: at 14
    # qubits Dirichlet |u| / |f| is 6e6, so |A u - f| / |f| sits near 1e-9
    # for any float64 u
    f = np.real(problem.source.amplitudes)
    residual = np.linalg.norm(apply_operator(problem.operator, u) - f)
    assert residual < 1e-15 * (4.0 * np.linalg.norm(u) + np.linalg.norm(f))


def test_trace_distance_terminal_converges_quickly():
    problem = make_problem(3, DIRICHLET)
    config = OptimizationConfig(max_iterations=500, terminal=TraceDistance(0.1))
    trace = minimize(problem, config, trial_seed=4)
    assert trace.status == "converged"
    assert trace.trace_distance < 0.1


def test_run_trials_bookkeeping():
    problem = make_problem(3, DIRICHLET)
    config = OptimizationConfig(max_iterations=400, n_trials=10, seed=2024)
    result = run_trials(problem, config)
    assert len(result.traces) == 10
    assert sum(result.statuses.values()) == 10
    assert np.all(np.isfinite([t.final_report.energy for t in result.traces]))
    assert "aborted" not in result.statuses
    assert all(t.trace_distance is not None for t in result.traces)


def test_mean_iterations_grow_with_qubit_count():
    # loose trace-distance terminal keeps this cheap; slope sign is the claim
    means = []
    ns = [2, 3, 4, 5]
    for n in ns:
        problem = make_problem(n, DIRICHLET)
        config = OptimizationConfig(max_iterations=600, terminal=TraceDistance(0.1),
                                    n_trials=6, seed=77)
        result = run_trials(problem, config)
        means.append(np.mean([t.iterations_used for t in result.traces]))
    slope = np.polyfit(np.log10(ns), np.log10(means), 1)[0]
    assert slope > 0
    assert means[-1] > means[0]


def test_bfgs_counts_zero_decrease_steps_and_skipped_updates():
    # Quantized values: backtracking halves alpha until 1e-4 * alpha * slope
    # rounds away.  The equal value is then accepted only where the gradient
    # norm drops: with the exact gradient every step is a zero-decrease step,
    # with a quantized one the norm never drops and no step is accepted.
    def value(x):
        return float(np.round(1.0 + x @ x, 3))

    result = bfgs(bfgs_evaluation(value, lambda x: 2.0 * x), np.full(2, 1e-3),
                  max_iterations=4, stop_when=lambda x, v, g: False)
    assert result.status == "max_iterations"
    assert result.iterations_used == 4
    assert result.zero_decrease_steps == 4
    assert all(v == 1.0 for v in result.costs)
    assert np.all(np.diff(result.gradient_norms) < 0)
    result = bfgs(bfgs_evaluation(value, lambda x: np.round(2.0 * x, 3)), np.full(2, 1e-3),
                  max_iterations=4, stop_when=lambda x, v, g: False)
    assert result.status == "line_search_failed"
    assert result.iterations_used == 0
    assert result.zero_decrease_steps == 0
    # A linear function: every step lowers the value, and the constant
    # gradient gives y = 0, so every curvature update is skipped.
    slope = np.array([1.0, -2.0])
    result = bfgs(bfgs_evaluation(lambda x: float(slope @ x), lambda x: slope),
                  np.zeros(2), max_iterations=4, stop_when=lambda x, v, g: False)
    assert result.status == "max_iterations"
    assert result.zero_decrease_steps == 0
    assert result.skipped_updates == 4
    assert result.costs == [0.0, -5.0, -10.0, -15.0, -20.0]


def test_bfgs_accepts_no_step_once_the_armijo_term_rounds_away():
    # At alpha = 2^-27 the term 1e-4 * alpha * slope is 7.5e-13, and
    # 1e4 - 7.5e-13 rounds to 1e4.  A non-strict test accepts the equal value;
    # the constant gradient shows no progress either, so no step is taken.
    result = bfgs(bfgs_evaluation(lambda x: 1e4, lambda x: np.array([1.0])), np.zeros(1), 5,
                  lambda *args: False)
    assert result.status == "line_search_failed"
    assert result.iterations_used == 0
    assert result.zero_decrease_steps == 0


def test_bfgs_counts_nothing_on_a_strictly_decreasing_quadratic(rng):
    q = np.diag([1.0, 3.0, 10.0])
    result = bfgs(bfgs_evaluation(lambda x: float(x @ q @ x), lambda x: 2.0 * q @ x),
                  rng.normal(size=3), max_iterations=50,
                  stop_when=lambda x, v, g: np.linalg.norm(g) < 1e-8)
    assert result.status == "converged"
    assert result.zero_decrease_steps == 0
    assert result.skipped_updates == 0


@pytest.mark.parametrize("value, grad", [(np.nan, 0.0), (1.0, np.nan)],
                         ids=["nan-value", "nan-gradient"])
def test_bfgs_aborts_on_a_non_finite_cost_or_gradient(value, grad):
    result = bfgs(bfgs_evaluation(lambda x: value, lambda x: np.full(2, grad)), np.zeros(2),
                  10, lambda x, v, g: False)
    assert result.status == "aborted:non-finite cost or gradient"
    assert result.iterations_used == 0
    assert len(result.costs) == len(result.gradient_norms) == 1


def test_bfgs_resets_a_non_descent_direction_and_then_fails_the_line_search():
    # a zero gradient has slope 0 along H g, so the direction resets to -g,
    # which is zero too: the first trial rounds to x and no step is taken
    evaluated = []

    def evaluate(x):
        evaluated.append(x.copy())
        return 1.0, lambda: np.zeros(2)

    result = bfgs(evaluate, np.ones(2), 10, lambda x, v, g: False)
    assert result.status == "line_search_failed"
    assert result.iterations_used == 0
    assert len(evaluated) == 1  # x0 only: the zero step evaluates no trial


def test_bfgs_backtracks_past_a_trial_that_raises_singular_operator_error():
    # a linear descent along x[0] whose evaluation raises past the wall at 0.3:
    # the trials at alpha = 1 and 1/2 are rejected, alpha = 1/4 is accepted
    trials = []

    def evaluate(x):
        trials.append(float(x[0]))
        if x[0] > 0.3:
            raise SingularOperatorError("past the wall")
        return -float(x[0]), lambda: np.array([-1.0])

    result = bfgs(evaluate, np.zeros(1), 1, lambda x, v, g: False)
    assert result.status == "max_iterations"
    assert result.iterations_used == 1
    assert trials == [0.0, 1.0, 0.5, 0.25]
    assert result.costs == [0.0, -0.25]
    assert result.final_theta.tolist() == [0.25]


def _count_sweeps_and_evaluations(monkeypatch) -> dict:
    """Count forward sweeps, and the cost and gradient calls minimize's BFGS makes.

    The per-theta records start empty, so every theta's first psi is a sweep.
    A gradient call that runs a forward sweep fails the test.
    """
    seen = {"sweeps": 0, "costs": 0, "gradients": [], "results": []}
    forward_sweep, bfgs_run = states._forward_sweep, optimize.bfgs

    def counted(*args):
        seen["sweeps"] += 1
        return forward_sweep(*args)

    def instrumented_bfgs(evaluate, *args, **kwargs):
        def counted_evaluate(x):
            seen["costs"] += 1
            value, gradient_at = evaluate(x)

            def checked_gradient():
                before = seen["sweeps"]
                grad = gradient_at()
                assert seen["sweeps"] == before  # the cost's psi and A psi feed the gradient
                seen["gradients"].append((x.copy(), grad))
                return grad

            return value, checked_gradient

        seen["results"].append(bfgs_run(counted_evaluate, *args, **kwargs))
        return seen["results"][-1]

    states._theta_factors.cache_clear()
    monkeypatch.setattr(states, "_forward_sweep", counted)
    monkeypatch.setattr(optimize, "bfgs", instrumented_bfgs)
    return seen


def test_exact_minimize_sweeps_once_per_cost_evaluation(monkeypatch):
    problem = make_problem(3, DIRICHLET)
    seen = _count_sweeps_and_evaluations(monkeypatch)
    trace = minimize(problem, OptimizationConfig(max_iterations=10), trial_seed=11)
    assert trace.status == "max_iterations"
    # one forward sweep per cost evaluation; none for the gradients or the final report
    assert seen["sweeps"] == seen["costs"] > trace.iterations_used
    assert len(seen["gradients"]) == trace.iterations_used + 1
    # every evaluation counts its circuits once: t_c per cost, P t_c per gradient
    t_c, count = 1 + len(problem.operator.terms), problem.circuit.parameter_count
    assert trace.circuit_executions == t_c * (seen["costs"] + count * len(seen["gradients"]))
    monkeypatch.undo()
    for theta, grad in seen["gradients"]:
        reference = grad_cost(problem.operator, problem.circuit, theta, problem.source).grad
        assert np.array_equal(grad, reference)
    result, = seen["results"]
    assert trace.zero_decrease_steps == result.zero_decrease_steps
    assert trace.skipped_updates == result.skipped_updates


def test_trace_distance_checks_reuse_the_cost_state(monkeypatch):
    problem = make_problem(3, DIRICHLET)
    seen = _count_sweeps_and_evaluations(monkeypatch)
    config = OptimizationConfig(max_iterations=500, terminal=TraceDistance(0.1))
    trace = minimize(problem, config, trial_seed=4)
    assert trace.status == "converged"
    # the per-iterate stop check and the final trace distance add no sweep
    assert seen["sweeps"] == seen["costs"]
    monkeypatch.undo()
    psi = prepare_ansatz_state(problem.circuit, trace.final_theta)
    assert trace.trace_distance == pytest.approx(
        trace_distance(psi, problem.classical().u_normalized), abs=1e-12)


def test_run_trials_sweeps_once_per_cost_evaluation(monkeypatch):
    problem = make_problem(3, DIRICHLET)
    seen = _count_sweeps_and_evaluations(monkeypatch)
    result = run_trials(problem, OptimizationConfig(max_iterations=40, n_trials=2, seed=3))
    # a GradNorm trial's trace distance reads the cost's psi at the final theta
    assert seen["sweeps"] == seen["costs"]
    monkeypatch.undo()
    for trace in result.traces:
        psi = states.ansatz_amplitudes(problem.circuit, trace.final_theta)
        assert trace.trace_distance == trace_distance(psi, problem.classical().u_normalized)


def test_run_trials_on_a_singular_operator_raises_solver_error():
    problem = make_problem(2, BoundaryCondition.PERIODIC, epsilon=0.0)
    with pytest.raises(SolverError):
        run_trials(problem, OptimizationConfig(max_iterations=5, n_trials=1))
