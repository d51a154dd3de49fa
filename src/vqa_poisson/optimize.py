"""BFGS minimization of the cost over theta with the experiment protocols.

BFGS with backtracking Armijo line search, implemented here (no external
solver), inverse-Hessian seeded with the identity and rescaled after the first
accepted step.  Each cost evaluation hands BFGS the energy and a function for
the gradient from the same record (:func:`~vqa_poisson.gradient.evaluate`);
the final report and trace distance read psi from theta's record.
Trials draw initial parameters uniformly from [0, 4*pi] and are
embarrassingly parallel in their seeds.  A problem holds its system matrix by
its bands and caches the classical reference solved from them, so set-up
builds no dense matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .classical import ClassicalSolution, solve, trace_distance
from .cost import CostReport, SingularOperatorError, measured_circuit_count
from .gradient import evaluate
from .operators import (DEFAULT_EPSILON, Bands, BoundaryCondition, PoissonOperator,
                        build_bands, decompose)
from .sampling import derive_seed
from .states import AnsatzCircuit, Statevector, ansatz_amplitudes, prepare_source_state

INIT_RANGE = (0.0, 4.0 * np.pi)


def draw_theta(circuit: AnsatzCircuit, seed: int) -> np.ndarray:
    """The circuit's parameters drawn uniformly from INIT_RANGE on the stream of `seed`."""
    return np.random.default_rng(seed).uniform(*INIT_RANGE, circuit.parameter_count)


@dataclass(frozen=True)
class GradNorm:
    """Stop when the gradient norm drops below the threshold."""

    threshold: float = 1e-6


@dataclass(frozen=True)
class TraceDistance:
    """Stop when the trace distance to the classical solution drops below tolerance.

    Oracle-assisted comparison protocol: needs the cached classical solve.
    """

    tolerance: float = 0.01


@dataclass
class OptimizationConfig:
    max_iterations: int = 1000
    terminal: GradNorm | TraceDistance = field(default_factory=GradNorm)
    n_trials: int = 10
    seed: int = 0


@dataclass
class PoissonProblem:
    """Operator, ansatz, source and system-matrix bands; caches the classical reference."""

    operator: PoissonOperator
    circuit: AnsatzCircuit
    source: Statevector
    bands: Bands
    _classical: ClassicalSolution | None = field(default=None, repr=False)

    def classical(self) -> ClassicalSolution:
        if self._classical is None:
            self._classical = solve(self.bands, self.source.amplitudes)
        return self._classical


def make_problem(n: int, bc: BoundaryCondition, n_layers: int = 5,
                 epsilon: float | None = None) -> PoissonProblem:
    """Assemble the standard experiment problem for one (n, bc) pair."""
    if epsilon is None:
        epsilon = DEFAULT_EPSILON[bc]
    return PoissonProblem(decompose(n, bc, epsilon), AnsatzCircuit(n, n_layers),
                          prepare_source_state(n), build_bands(n, bc, epsilon))


@dataclass
class BfgsResult:
    final_theta: np.ndarray
    iterations_used: int
    status: str
    costs: list[float]
    gradient_norms: list[float]
    final_gradient_norm: float
    zero_decrease_steps: int = 0  # accepted equal values at a lower |g|
    skipped_updates: int = 0  # curvature updates skipped for sy <= 1e-12 |s| |y|


def bfgs(evaluate: Callable[[np.ndarray], tuple[float, Callable[[], np.ndarray]]],
         x0: np.ndarray, max_iterations: int,
         stop_when: Callable[[np.ndarray, float, np.ndarray], bool]) -> BfgsResult:
    """BFGS with backtracking Armijo line search.

    ``evaluate(x)`` returns the value at x and a zero-argument function that
    gives the gradient there, called only at accepted points and where the
    Armijo margin rounds away.  A step must lower the value strictly, by the
    Armijo margin.  Where the margin rounds away at the value's last bit, an
    equal value is taken only if the gradient norm drops there, a
    zero-decrease step.  The line search fails once the trial point rounds to
    x.  ``stop_when(x, value, gradient)`` is consulted once per iterate.  A
    SingularOperatorError from ``evaluate`` aborts cleanly at x0 and rejects a
    line-search trial elsewhere.
    Statuses: converged, max_iterations, line_search_failed, aborted:<why>.
    The result counts accepted steps that did not lower the value and
    skipped inverse-Hessian updates.
    """
    x = np.asarray(x0, dtype=float)
    dim = x.size
    values: list[float] = []
    gnorms: list[float] = []
    zero_decrease = skipped = 0

    try:
        value, gradient_at = evaluate(x)
        grad = gradient_at()
    except SingularOperatorError as err:
        return BfgsResult(x, 0, f"aborted:{err}", values, gnorms, np.nan)

    eye = np.eye(dim)
    hessian_inv = eye.copy()  # a copy: the first update scales it in place
    status = "max_iterations"
    k = 0
    while True:
        gnorm = math.sqrt(grad.dot(grad))
        values.append(value)
        gnorms.append(gnorm)
        if not math.isfinite(value) or not math.isfinite(gnorm):
            status = "aborted:non-finite cost or gradient"
            break
        if stop_when(x, value, grad):
            status = "converged"
            break
        if k >= max_iterations:
            status = "max_iterations"
            break

        direction = (-hessian_inv).dot(grad)  # -(H g) would turn an exact 0.0 into -0.0
        slope = float(grad.dot(direction))
        if slope >= 0.0:  # not a descent direction; reset curvature estimate
            hessian_inv = eye.copy()
            direction = -grad
            slope = float(grad.dot(direction))

        alpha = 1.0
        accepted = new_grad = None
        at_x = x.tobytes()
        for _ in range(40):
            trial = x + alpha * direction
            if trial.tobytes() == at_x:  # the step rounds away, and so does every shorter one
                break
            try:
                candidate, gradient_at = evaluate(trial)
                bound = value + 1e-4 * alpha * slope
                # Where the Armijo term rounds away, the value cannot show a
                # decrease: an equal value is taken only where |g| drops.
                new_grad = gradient_at() if candidate == bound == value else None
                if candidate < bound or (new_grad is not None
                                         and math.sqrt(new_grad.dot(new_grad)) < gnorm):
                    accepted = candidate
                    break
            except SingularOperatorError:
                pass
            alpha *= 0.5
        if accepted is None:
            status = "line_search_failed"
            break
        zero_decrease += int(accepted >= value)

        step = alpha * direction
        if new_grad is None:
            new_grad = gradient_at()
        y = new_grad - grad
        sy = float(step.dot(y))
        if k == 0 and sy > 0.0:
            hessian_inv *= sy / float(y.dot(y))
        if sy > 1e-12 * math.sqrt(step.dot(step)) * math.sqrt(y.dot(y)):
            rho = 1.0 / sy
            left = eye - rho * (step[:, None] * y)
            # a contiguous right factor: a transposed view changes the product's rounding
            hessian_inv = (left.dot(hessian_inv).dot(np.ascontiguousarray(left.T))
                           + rho * (step[:, None] * step))
        else:
            skipped += 1
        x, value, grad = trial, accepted, new_grad
        k += 1

    final_gnorm = math.sqrt(grad.dot(grad)) if np.all(np.isfinite(grad)) else np.nan
    return BfgsResult(x, k, status, values, gnorms, final_gnorm, zero_decrease, skipped)


@dataclass(kw_only=True)
class OptimizationTrace(BfgsResult):
    """One minimize trial: its BFGS result plus the final report, circuits and trace distance."""

    final_report: CostReport
    circuit_executions: int
    trace_distance: float | None = None  # None for an aborted GradNorm trial


@dataclass
class TrialsResult:
    """Trials in seed order and their count per status; the caller picks which trials a
    statistic takes (the CLI's studies average every trial that did not abort)."""

    traces: list[OptimizationTrace]
    statuses: dict[str, int] = field(init=False)  # aborted:<why> counted as aborted

    def __post_init__(self) -> None:
        self.statuses = dict(sorted(Counter(t.status.split(":")[0] for t in self.traces).items()))


def minimize(problem: PoissonProblem, config: OptimizationConfig,
             trial_seed: int) -> OptimizationTrace:
    """Run one BFGS trial on the potential-energy cost from ``draw_theta(circuit, trial_seed)``.

    The trial's trace distance to the classical solution (None for an aborted
    GradNorm trial) reads the cost's psi at the final theta; it solves the
    classical system, so a singular operator raises SolverError here.
    """
    op, circuit, f = problem.operator, problem.circuit, problem.source.amplitudes
    count, t_c = circuit.parameter_count, measured_circuit_count(op)
    counters = {"circuits": 0}

    def counted(theta: np.ndarray) -> tuple[float, Callable[[], np.ndarray]]:
        """The energy at theta and its gradient function (:func:`evaluate`), counting circuits."""
        counters["circuits"] += t_c
        report, gradient = evaluate(op, circuit, theta, f)

        def counted_gradient() -> np.ndarray:
            counters["circuits"] += count * t_c
            return gradient()

        return report.energy, counted_gradient

    reference = problem.classical() if isinstance(config.terminal, TraceDistance) else None

    def stop_when(theta: np.ndarray, value: float, grad: np.ndarray) -> bool:
        if isinstance(config.terminal, GradNorm):
            return math.sqrt(grad.dot(grad)) < config.terminal.threshold
        eps_tr = trace_distance(ansatz_amplitudes(circuit, theta), reference.u_normalized)
        return eps_tr < config.terminal.tolerance

    result = bfgs(counted, draw_theta(circuit, trial_seed), config.max_iterations, stop_when)

    psi = ansatz_amplitudes(circuit, result.final_theta)
    try:
        final_report = evaluate(op, circuit, result.final_theta, f)[0]
    except SingularOperatorError:  # the first cost failed, so no step was taken
        final_report = CostReport(np.nan, np.nan, np.nan, np.nan)
    eps_tr = None
    if reference is not None or not result.status.startswith("aborted"):
        eps_tr = trace_distance(psi, problem.classical().u_normalized)
    return OptimizationTrace(**vars(result), final_report=final_report,
                             circuit_executions=counters["circuits"], trace_distance=eps_tr)


def run_trials(problem: PoissonProblem, config: OptimizationConfig) -> TrialsResult:
    """n_trials independent trials, trial k from seed ``derive_seed(config.seed, k)``."""
    return TrialsResult([minimize(problem, config, trial_seed=derive_seed(config.seed, trial))
                         for trial in range(config.n_trials)])
