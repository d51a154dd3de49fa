"""The benchmark's workloads, built on the public API of ``vqa_poisson``.

Each workload generates its inputs from the seed, builds its problems in
``setup`` and runs one fixed *pass* over those inputs in ``run_pass``.  The
runner repeats passes for the time budget, so every pass of a run does the
same work and must produce the same outputs and counts.  Calls go through
module attributes (``optimize.minimize``, not a name imported here), so the
tracer's rebinding reaches them.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from vqa_poisson import classical, gradient, operators, optimize, sampling, states

# The package re-exports the function ``cost``, which hides the module of that name.
cost = importlib.import_module("vqa_poisson.cost")

DIRICHLET = operators.BoundaryCondition.DIRICHLET
LAYERS = 5
SHOT_GRID = tuple(2 ** k for k in range(6, 15))


@dataclass
class PassResult:
    """What one pass did.  ``signature`` and ``counts`` repeat exactly."""

    wall_s: float = 0.0
    speed: float = 1.0                                # machine speed over reference speed
    ops: int = 0                                      # work units, for ops_per_s_norm
    op_ms: list[float] = field(default_factory=list)  # latency samples
    attempted: int = 0                                # trials, gradient calls or estimates
    failed: int = 0
    signature: list = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    data: dict = field(default_factory=dict)


def build_problems(sizes) -> dict[int, optimize.PoissonProblem]:
    """The set-up every workload pays: operator, ansatz, source, Cholesky reference."""
    problems = {}
    for n in sizes:
        problem = optimize.make_problem(n, DIRICHLET, LAYERS)
        problem.classical()
        problems[n] = problem
    return problems


def _uniform_theta(seed: int, circuit: states.AnsatzCircuit, *key: int) -> np.ndarray:
    rng = np.random.default_rng(sampling.derive_seed(seed, *key))
    return rng.uniform(0.0, 4.0 * np.pi, circuit.parameter_count)


def _loglog_slope(x, y) -> float:
    return float(np.polyfit(np.log10(np.asarray(x, float)), np.log10(np.asarray(y, float)), 1)[0])


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, (time.perf_counter() - start) * 1e3


class BfgsExact:
    """Exact BFGS as ``trace-distance-vs-n`` runs it, plus ROADMAP's stall reproducer.

    The seeded part is criterion 04's protocol at n = 2 and 3.  Those trials
    always converge: 2,000 of them over seeds 0..99 all did, none in over
    0.16 s.  At n >= 4 some seeds stall at the iteration cap; seed 4 has two
    n = 4 trials of about 37 s each.  A pass built from seeded n >= 4 trials
    would swing from 3 s to minutes with the seed.  So the stall enters every
    pass as one fixed input: n = 5, seed 42, trial 6, the trial ROADMAP item 2
    names.  It makes 2000 iterations and 21,094 cost evaluations, about 13 s.
    """

    name = "bfgs-exact"
    # Latency comes from the n = 5 trials, about 10 s a pass.  The seeded
    # n = 2, 3 trials take 0.3-0.5 s a pass, too short to time steadily: one
    # seed read 0.96-1.42 ms per iteration over four passes.
    op = ("BFGS iteration (one accepted step); one latency sample per pass: the largest-n "
          "trials' minimize time / their iterations")
    STALL = (5, 42, 6)  # n, base seed, trial
    TRIALS = 10

    def __init__(self, seed: int, sizes=(2, 3), stall: bool = True):
        self.seed, self.sizes = seed, tuple(sizes)
        self.fixed = [self.STALL] if stall else []
        self.jobs = [(n, seed, trial) for n in self.sizes for trial in range(self.TRIALS)]
        self.jobs += self.fixed
        self.config = optimize.OptimizationConfig(
            max_iterations=2000, terminal=optimize.GradNorm(1e-6), n_trials=self.TRIALS, seed=seed)

    def inputs(self) -> dict:
        return {"bc": "dirichlet", "n": list(self.sizes), "layers": LAYERS,
                "trials_per_n": self.TRIALS, "terminal": "GradNorm(1e-6)",
                "max_iterations": 2000, "trial_seeds": "derive_seed(seed, trial)",
                "fixed_trials_n_seed_trial": self.fixed}

    def setup(self) -> None:
        self.problems = build_problems(sorted({n for n, _, _ in self.jobs}))

    def run_pass(self) -> PassResult:
        result = PassResult()
        statuses: Counter = Counter()
        rows = {}
        largest = max(n for n, _, _ in self.jobs)
        largest_ms, largest_iterations = 0.0, 0
        for job in self.jobs:
            n, base, trial = job
            problem = self.problems[n]
            trace, ms = _timed(optimize.minimize, problem, self.config,
                               trial_seed=sampling.derive_seed(base, trial))
            psi = states.prepare_ansatz_state(problem.circuit, trace.final_theta)
            distance = classical.trace_distance(psi, problem.classical().u_normalized)
            result.attempted += 1
            statuses[trace.status.split(":")[0]] += 1
            if trace.status.startswith("aborted"):
                result.failed += 1
                continue
            result.ops += trace.iterations_used
            if n == largest:
                largest_ms += ms
                largest_iterations += trace.iterations_used
            result.counts["iterations"] = result.counts.get("iterations", 0) + trace.iterations_used
            result.counts["circuits"] = result.counts.get("circuits", 0) + trace.circuit_executions
            result.signature.append((job, trace.status, trace.iterations_used,
                                     trace.circuit_executions, trace.final_report.energy))
            rows[job] = (trace, distance, ms)
        result.counts.update({f"status.{k}": v for k, v in statuses.items()})
        if largest_iterations:
            result.op_ms.append(largest_ms / largest_iterations)
        result.data = {"rows": rows}
        return result

    def check(self, first: PassResult) -> tuple[list[str], dict]:
        """Criterion 04's gates for each seeded n: >= 7 hits and best-energy relL2 < 0.05."""
        failures, hits_total, rel_l2_max = [], 0, 0.0
        rows = first.data["rows"]
        for n in self.sizes:
            per_n = [rows[(n, self.seed, t)] for t in range(self.TRIALS) if (n, self.seed, t) in rows]
            hits = sum(1 for _, distance, _ in per_n if distance < 0.01)
            rel_l2 = float("inf")
            if per_n:
                best = min(per_n, key=lambda row: row[0].final_report.energy)[0]
                problem = self.problems[n]
                psi = states.prepare_ansatz_state(problem.circuit, best.final_theta)
                u = problem.classical().u
                approx = best.final_report.r_opt * np.real(psi.amplitudes)
                rel_l2 = float(np.linalg.norm(approx - u) / np.linalg.norm(u))
            if hits < 7 or not rel_l2 < 0.05 or len(per_n) < self.TRIALS:
                failures.append(f"n={n}: hits {hits}/{self.TRIALS}, relL2 {rel_l2:.3g}")
            hits_total += hits
            rel_l2_max = max(rel_l2_max, rel_l2)
        largest = self.sizes[-1]
        extras = {"hit_rate": hits_total / (self.TRIALS * len(self.sizes)),
                  "rel_l2_max": rel_l2_max, "checks": len(self.sizes),
                  f"trial_s_p50_n{largest}": float(np.median(
                      [rows[job][2] for job in rows if job[0] == largest and job[1] == self.seed]
                      or [np.nan])) / 1e3}
        if self.STALL in self.fixed and self.STALL in rows:
            trace, _, ms = rows[self.STALL]
            extras["stall_trial"] = {"s": ms / 1e3, "status": trace.status,
                                     "iterations": trace.iterations_used,
                                     "circuits": trace.circuit_executions}
        return failures, extras


class GradWide:
    """Barren-plateau protocol at n = 8..10: the exact gradient routes on wide registers."""

    name = "grad-wide"
    op = "gradient call; latency samples = every call at n = 10"
    SIZES = (8, 9, 10)
    THETAS_PER_N = 10

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self) -> dict:
        return {"bc": "dirichlet", "n": list(self.SIZES), "layers": LAYERS,
                "thetas_per_n": self.THETAS_PER_N,
                "theta": "uniform [0, 4pi) from derive_seed(seed, n, k)",
                "calls_per_theta": ["grad_cost", "term_gradient(even X)",
                                    "term_gradient(odd X)", "grad_numerator"]}

    def setup(self) -> None:
        self.problems = build_problems(self.SIZES)
        self.terms, self.thetas = {}, {}
        for n, problem in self.problems.items():
            x_low = tuple(operators.FACTOR_X if q == 0 else operators.FACTOR_I for q in range(n))
            self.terms[n] = (operators.ObservableTerm(-1.0, x_low, (0,)),
                             operators.ObservableTerm(-1.0, x_low, (1,)))
            self.thetas[n] = [_uniform_theta(self.seed, problem.circuit, n, k)
                              for k in range(self.THETAS_PER_N)]

    def run_pass(self) -> PassResult:
        result = PassResult()
        largest = self.SIZES[-1]
        for n in self.SIZES:
            problem = self.problems[n]
            op, circuit, f = problem.operator, problem.circuit, problem.source
            even, odd = self.terms[n]
            for theta in self.thetas[n]:
                calls = ((gradient.grad_cost, op, circuit, theta, f),
                         (gradient.term_gradient, even, circuit, theta),
                         (gradient.term_gradient, odd, circuit, theta),
                         (gradient.grad_numerator, circuit, theta, f))
                for fn, *args in calls:
                    result.attempted += 1
                    value, ms = _timed(fn, *args)
                    grad = value.grad if isinstance(value, gradient.GradientReport) else value
                    norm = float(np.linalg.norm(grad))
                    if not np.isfinite(norm):
                        result.failed += 1
                        continue
                    result.ops += 1
                    if n == largest:
                        result.op_ms.append(ms)
                    result.signature.append(norm)
        return result

    def check(self, first: PassResult) -> tuple[list[str], dict]:
        """Criterion 07's oracle: grad_cost against central differences of cost."""
        failures, worst = [], 0.0
        for n, problem in self.problems.items():
            op, circuit, f = problem.operator, problem.circuit, problem.source
            theta = self.thetas[n][0]
            analytic = gradient.grad_cost(op, circuit, theta, f).grad
            numeric = gradient.finite_difference_gradient(
                lambda t: cost.cost(op, circuit, t, f).energy, theta)
            rel = float(np.max(np.abs(analytic - numeric) / (1.0 + np.abs(numeric))))
            worst = max(worst, rel)
            if not rel < 1e-5:
                failures.append(f"n={n}: grad_cost vs finite differences rel {rel:.3g}")
        return failures, {"fd_worst_rel": worst, "checks": len(self.SIZES)}


class Shots:
    """``shot-error-vs-s`` (n = 2..4) then ``grad-similarity-vs-s`` (n = 3)."""

    name = "shots"
    op = ("sampled estimate (cost estimate or sampled gradient); one latency sample per pass: "
          "the pass's sampled_gradient time / its sampled gradients")
    # Criteria 05 and 06 calibrated their slope bands on these seeds.  At other
    # seeds the 10-repeat slopes leave the bands for about one seed in three
    # (seed 1 gives -1.35 at n = 2), so the bands are checked here.
    SLOPE_SEEDS = {"shot_error": 505, "grad_similarity": 606}
    HOEFFDING_DELTA = 1e-9
    COST_SIZES = (2, 3, 4)
    GRAD_SIZE = 3
    REPEATS = 10

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self) -> dict:
        return {"bc": "dirichlet", "layers": LAYERS, "shots": list(SHOT_GRID),
                "repeats": self.REPEATS, "shot_error_n": list(self.COST_SIZES),
                "grad_similarity_n": [self.GRAD_SIZE],
                "theta": "uniform [0, 4pi) from derive_seed(seed, n)",
                "estimate_seeds": "derive_seed(seed, n, shots, repeat)"}

    def setup(self) -> None:
        self.problems = build_problems(sorted({*self.COST_SIZES, self.GRAD_SIZE}))

    def _estimate(self, result: PassResult, fn, *args):
        """The estimate and its milliseconds, or ``(None, 0.0)`` when it raised."""
        result.attempted += 1
        try:
            value, ms = _timed(fn, *args)
        except sampling.UnstableEstimateError:
            result.failed += 1
            result.counts["unstable"] = result.counts.get("unstable", 0) + 1
            return None, 0.0
        result.ops += 1
        return value, ms

    def _shot_error(self, seed: int, result: PassResult) -> dict:
        """Per (n, shots): the term means of every repeat's estimate."""
        means = {}
        for n in self.COST_SIZES:
            p = self.problems[n]
            theta = _uniform_theta(seed, p.circuit, n)
            circuits = cost.measured_circuit_count(p.operator)
            for shots in SHOT_GRID:
                for repeat in range(self.REPEATS):
                    out, _ = self._estimate(result, sampling.sample_cost_estimates,
                                            p.operator, p.circuit, theta, p.source, shots,
                                            sampling.derive_seed(seed, n, shots, repeat))
                    result.counts["shots"] = result.counts.get("shots", 0) + shots * circuits
                    if out is not None:
                        means.setdefault((n, shots), []).append(
                            (out[0].energy, [e.mean for e in out[1]]))
                        result.signature.append(out[0].energy)
        return means

    def _grad_similarity(self, seed: int, result: PassResult) -> dict:
        """Per shots: the sampled gradient of every repeat."""
        n = self.GRAD_SIZE
        p = self.problems[n]
        theta = _uniform_theta(seed, p.circuit, n)
        terms = len(p.operator.terms)
        per_gradient = (1 + terms) + p.circuit.parameter_count * (1 + 2 * terms)
        sampled, total_ms = {}, 0.0
        for shots in SHOT_GRID:
            for repeat in range(self.REPEATS):
                grad, ms = self._estimate(result, sampling.sampled_gradient, p.operator,
                                          p.circuit, theta, p.source, shots,
                                          sampling.derive_seed(seed, n, shots, repeat))
                result.counts["shots"] = result.counts.get("shots", 0) + shots * per_gradient
                if grad is not None:
                    sampled.setdefault(shots, []).append(grad)
                    result.signature.append(float(np.sum(grad)))
                    total_ms += ms
        if sampled:
            result.op_ms.append(total_ms / sum(map(len, sampled.values())))
        return sampled

    def run_pass(self) -> PassResult:
        result = PassResult()
        result.data = {"means": self._shot_error(self.seed, result),
                       "sampled": self._grad_similarity(self.seed, result)}
        return result

    def _mse_slopes(self, seed: int, means: dict) -> dict:
        slopes = {}
        for n in self.COST_SIZES:
            p = self.problems[n]
            exact = cost.cost(p.operator, p.circuit, _uniform_theta(seed, p.circuit, n),
                              p.source).energy
            mse = [np.mean([(energy - exact) ** 2 for energy, _ in means.get((n, s), [])]
                           or [np.nan]) for s in SHOT_GRID]
            slopes[f"mse_slope_n{n}"] = _loglog_slope(SHOT_GRID, mse)
        return slopes

    def _cosine_slope(self, seed: int, sampled: dict) -> dict:
        p = self.problems[self.GRAD_SIZE]
        theta = _uniform_theta(seed, p.circuit, self.GRAD_SIZE)
        exact = gradient.grad_cost(p.operator, p.circuit, theta, p.source).grad
        exact_norm = np.linalg.norm(exact)
        dissimilarity = []
        for s in SHOT_GRID:
            values = []
            for grad in sampled.get(s, []):
                denom = exact_norm * np.linalg.norm(grad)
                # an all-zero sampled gradient carries no direction information
                values.append(1.0 - (float(exact @ grad / denom) if denom > 0 else 0.0))
            dissimilarity.append(max(np.mean(values), 1e-300) if values else np.nan)
        return {f"cosine_slope_n{self.GRAD_SIZE}": _loglog_slope(SHOT_GRID, dissimilarity)}

    def _hoeffding_violations(self, means: dict) -> int:
        """Term estimates farther from the exact term mean than Hoeffding allows.

        A shot of a term takes values in [-|c|, |c|], so the mean of S shots
        lies within 2|c| sqrt(ln(2/delta) / 2S) of the exact mean except with
        probability delta.
        """
        violations = 0
        for n in self.COST_SIZES:
            p = self.problems[n]
            psi = states.prepare_ansatz_state(
                p.circuit, _uniform_theta(self.seed, p.circuit, n))
            sup = states.prepare_superposition_state(p.source, psi)
            exact = [(sampling.term_shot_moments(sampling.ancilla_x_term(n), sup)[0], 1.0)]
            exact += [(sampling.term_shot_moments(t, psi, p.operator.axes)[0], abs(t.coefficient))
                      for t in p.operator.terms]
            for shots in SHOT_GRID:
                radius = np.sqrt(np.log(2.0 / self.HOEFFDING_DELTA) / (2.0 * shots))
                for _, term_means in means.get((n, shots), []):
                    violations += sum(abs(m - mu) > 2.0 * c * radius
                                      for m, (mu, c) in zip(term_means, exact))
        return violations

    def check(self, first: PassResult) -> tuple[list[str], dict]:
        """The run's own term estimates against Hoeffding bounds, and the
        slope bands of criteria 05 and 06 on those criteria's seeds."""
        failures = []
        violations = self._hoeffding_violations(first.data["means"])
        if violations:
            failures.append(f"{violations} term estimates outside their Hoeffding bound")
        extras = {"run_seed_slopes": {**self._mse_slopes(self.seed, first.data["means"]),
                                      **self._cosine_slope(self.seed, first.data["sampled"])}}
        scratch = PassResult()
        mse_seed = self.SLOPE_SEEDS["shot_error"]
        cos_seed = self.SLOPE_SEEDS["grad_similarity"]
        reference = {**self._mse_slopes(mse_seed, self._shot_error(mse_seed, scratch)),
                     **self._cosine_slope(cos_seed, self._grad_similarity(cos_seed, scratch))}
        extras["reference_slopes"] = reference
        for name, slope in reference.items():
            low, high = (-1.3, -0.8) if name.startswith("mse") else (-1.3, -0.7)
            if not low <= slope <= high:
                failures.append(f"{name} {slope:.3f} outside [{low}, {high}]")
        if scratch.failed:
            failures.append(f"{scratch.failed} reference estimates raised")
        extras["checks"] = 1 + len(reference) + 1
        return failures, extras


class BfgsExactFull(BfgsExact):
    """All of criterion 04, n = 2..5, for the count reproduction at seed 42.

    Not a timed workload of BENCHMARK.json: one pass takes 63-85 s on a
    2-core machine, and its length swings with the seed.
    """

    name = "bfgs-exact-full"

    def __init__(self, seed: int):
        super().__init__(seed, sizes=(2, 3, 4, 5), stall=False)


WORKLOADS = {cls.name: cls for cls in (BfgsExact, GradWide, Shots, BfgsExactFull)}


MICRO_BUDGET_S = 0.15


def micro_table(seed: int) -> dict[str, float]:
    """Median microseconds per call of the layer entry points (untraced).

    Each entry repeats its call until ``MICRO_BUDGET_S`` has passed and at
    least five calls were timed, after one warm-up call.
    """
    def median_us(fn, *args) -> float:
        fn(*args)
        samples, spent = [], 0.0
        while len(samples) < 5 or spent < MICRO_BUDGET_S:
            start = time.perf_counter()
            fn(*args)
            samples.append(time.perf_counter() - start)
            spent += samples[-1]
        return float(np.median(samples)) * 1e6

    table = {}
    for n in (5, 8, 10):
        p = optimize.make_problem(n, DIRICHLET, LAYERS)
        theta = _uniform_theta(seed, p.circuit, 99, n)
        table[f"states.prepare_ansatz_state.us_n{n}"] = median_us(
            states.prepare_ansatz_state, p.circuit, theta)
        table[f"cost.cost.us_n{n}"] = median_us(cost.cost, p.operator, p.circuit, theta, p.source)
        table[f"gradient.grad_cost.us_n{n}"] = median_us(
            gradient.grad_cost, p.operator, p.circuit, theta, p.source)
        table[f"sampling.sample_cost_estimates.us_n{n}"] = median_us(
            sampling.sample_cost_estimates, p.operator, p.circuit, theta, p.source, 1024, seed)
    p = optimize.make_problem(3, DIRICHLET, LAYERS)
    theta = _uniform_theta(seed, p.circuit, 99, 3)
    for shots in (64, 16384):
        table[f"sampling.sampled_gradient.us_n3_s{shots}"] = median_us(
            sampling.sampled_gradient, p.operator, p.circuit, theta, p.source, shots, seed)
    return table
