"""Experiment harness: reproduces the study's figures as CSV-emitting subcommands.

Every experiment writes ``results.csv`` (one row per measurement),
``manifest.txt`` (configuration, seeds, python and numpy versions, BLAS kernel, summaries)
and ``fig_*.dat`` plot-data files (whitespace-separated x, y, yerr columns) into
the output directory.  Each optimizing study (``solve``, ``solution-field``,
``trace-distance-vs-n``, ``iterations-vs-n``) also writes ``trials.csv``, one row
per BFGS trial under :data:`TRIAL_COLUMNS`; its means and stds are aggregated from
those rows over the trials that did not abort.  All runs are deterministic given
(config, seed).

Usage: ``vqa-poisson <experiment> [--config FILE] [--FLAG VALUE ...]`` with one
flag per :data:`FLAGS` entry (a config file takes the same names as keys); an
experiment rejects the flags it does not read.  :data:`FLAGS` holds each flag's
default and :data:`STUDIES` each experiment's default ``--n`` and runner.  The
manifest has one line per flag the experiment reads, keyed by the flag's field.
Exit codes: 0 success, 2 usage error (a bad flag or value, or an unreadable
config file), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import ctypes
import platform
import sys
from dataclasses import astuple
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__
from .cost import baseline_cost, cost, measured_circuit_count
from .gradient import grad_cost, grad_numerator, term_gradient
from .operators import (DEFAULT_EPSILON, DENSE_QUBIT_CAP, BoundaryCondition, Mesh2D,
                        assemble_fem_2d_dense, build_fem_2d, build_matrix, reassemble_dense)
from .optimize import (GradNorm, OptimizationConfig, TraceDistance, TrialsResult, draw_theta,
                       make_problem, run_trials)
from .resources import count_baseline_circuits, resource_report
from .sampling import (UnstableEstimateError, _row_means, derive_seed, sample_cost,
                       sampled_gradient)
from .states import ansatz_amplitudes, prepare_ansatz_state

METHODS = ("proposed", "baseline")
MAX_SHOTS = 1 << 62  # the largest power of two numpy's multinomial takes as a count
STATEVECTOR_QUBIT_CAP = 10


class UsageError(Exception):
    """A bad flag, value or config file: exit 2."""


def _parse_range(text: str) -> range:
    """LO..HI from an integer or an inclusive LO:HI range, 1 <= LO <= HI."""
    try:
        lo, hi = (int(x) for x in text.split(":")) if ":" in text else (int(text),) * 2
    except ValueError as err:
        raise UsageError(f"cannot parse integer or LO:HI range from {text!r}") from err
    if lo < 1 or hi < lo:
        raise UsageError(f"invalid value or range {text!r}: need 1 <= LO <= HI")
    return range(lo, hi + 1)


def _powers_of_two(text: str) -> list[int]:
    counts = _parse_range(text)
    out = [1 << k for k in range(counts[-1].bit_length()) if 1 << k in counts]
    if not out:
        raise UsageError(f"no powers of two inside shot range {text}")
    return out


class Flag(NamedTuple):
    """A flag and config key: its cast, --help, readers, default, and (test, rule) on a value."""
    cast: Callable[[str], Any]
    help: str
    readers: frozenset[str]
    default: str | None  # parsed as a given value; None: set by the study or the bc
    check: tuple[Callable[[Any], bool], str] = (lambda value: True, "")
    field: str = ""  # its manifest key, when that is not the flag's name


_OPTIMIZING = frozenset({"solve", "solution-field", "trace-distance-vs-n", "iterations-vs-n"})
_ONE_N = frozenset({"solve", "solution-field", "fem2d-verify"})  # each runs a single n
_SHOT_GRID = frozenset({"shot-error-vs-s", "grad-similarity-vs-s"})
_DRAWN = _OPTIMIZING | _SHOT_GRID | {"barren-plateau"}  # each simulates a seeded problem
_ONE_D = _DRAWN | {"circuit-count-vs-n"}  # each reads a 1D operator and ansatz
_EVERY = _ONE_D | {"fem2d-verify"}  # fem2d-verify builds its meshes from --n alone
_AT_LEAST_0, _AT_LEAST_1 = (lambda v: v >= 0, ">= 0"), (lambda v: v >= 1, ">= 1")
_POSITIVE = (lambda v: 0 < v < np.inf, "finite and > 0")

FLAGS = {
    "bc": Flag(BoundaryCondition, "periodic, dirichlet or neumann", _ONE_D, "dirichlet"),
    "n": Flag(_parse_range, "qubit count N or range LO:HI (default: the experiment's)", _EVERY,
              None, field="n_values"),
    "layers": Flag(int, "ansatz layers", _ONE_D, "5", _AT_LEAST_0),
    "trials": Flag(int, "trials per qubit count", _OPTIMIZING | {"barren-plateau"}, "10",
                   _AT_LEAST_1),
    "shots": Flag(_powers_of_two, "powers of two in LO:HI", _SHOT_GRID, "64:16384",
                  (lambda v: v[-1] <= MAX_SHOTS, "at most 2^62"), "shot_values"),
    "repeats": Flag(int, "estimates per shot count", _SHOT_GRID, "10", _AT_LEAST_1),
    "seed": Flag(int, "master seed of every draw", _DRAWN, "1234", _AT_LEAST_0),
    "epsilon": Flag(float, "regularization (default: the bc's)", _DRAWN, None,
                    (lambda v: 0 <= v < np.inf, "finite and >= 0")),
    "tol": Flag(float, "trace-distance tolerance", frozenset({"iterations-vs-n"}), "0.1",
                _POSITIVE),
    "grad_threshold": Flag(float, "gradient-norm stopping threshold",
                           _OPTIMIZING - {"iterations-vs-n"}, "1e-6", _POSITIVE),
    "max_iterations": Flag(int, "BFGS iteration cap per trial", _OPTIMIZING, "2000",
                           _AT_LEAST_0),
    "method": Flag(str, "proposed, or baseline for shot-error-vs-s", _EVERY, "proposed",
                   (lambda v: v in METHODS, f"one of {METHODS}")),
    "out": Flag(Path, "output directory", _EVERY, "out",
                # a dangling symlink does not exist, but mkdir cannot pass it either
                (lambda p: all(q.is_dir() for q in (p, *p.parents)
                               if q.exists() or q.is_symlink()),
                 "a directory path that passes through no file or dangling symlink")),
}


def build_parser() -> argparse.ArgumentParser:
    description = "Poisson-equation VQA experiments (statevector simulation)."
    parser = argparse.ArgumentParser(prog="vqa-poisson", description=description)
    parser.add_argument("experiment", choices=STUDIES)
    parser.add_argument("--config", type=Path, help="flat key=value file; flags override it")
    for name, flag in FLAGS.items():
        default = "" if flag.default is None else f" (default {flag.default})"
        parser.add_argument(f"--{name.replace('_', '-')}", help=flag.help + default)
    return parser


def _read_config_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read config file {path}: {err}") from err
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {line!r} is not key=value")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in FLAGS:
            raise UsageError(f"config key {key!r} in {path} is not a flag name")
        values[key] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """The experiment and each flag it reads, by field: the flag's default, then the
    config file's value, then the command line's."""
    experiment = args.experiment
    values = _read_config_file(args.config) if args.config else {}
    values.update({k: v for k, v in vars(args).items() if k in FLAGS and v is not None})
    values.setdefault("n", STUDIES[experiment].n)

    config = argparse.Namespace(experiment=experiment)
    for name, flag in FLAGS.items():
        if experiment not in flag.readers:
            if name in values:
                takers = ", ".join(e for e in STUDIES if e in flag.readers)
                raise UsageError(f"{experiment} does not read --{name.replace('_', '-')}; "
                                 f"only {takers} take it")
            continue
        text = values.get(name, flag.default)
        if text is None:  # epsilon: the boundary condition's default
            config.epsilon = DEFAULT_EPSILON[config.bc]
            continue
        try:
            value = flag.cast(text)
        except ValueError as err:
            raise UsageError(f"invalid {name} value {text!r}") from err
        ok, rule = flag.check
        if not ok(value):
            raise UsageError(f"{name} must be {rule}, got {text!r}")
        setattr(config, flag.field or name, value)

    n = config.n_values
    rules = [
        (config.method == "proposed" or experiment == "shot-error-vs-s",
         f"method {config.method!r} is for shot-error-vs-s; {experiment} runs the proposed one"),
        (len(n) == 1 or experiment not in _ONE_N,
         f"{experiment} runs one n, not the range {n[0]}:{n[-1]}"),
        (n[-1] <= STATEVECTOR_QUBIT_CAP, f"n capped at {STATEVECTOR_QUBIT_CAP} qubits"),
        (experiment != "fem2d-verify" or 2 * n[-1] <= DENSE_QUBIT_CAP,
         f"fem2d-verify reassembles meshes of up to 2n qubits, capped at {DENSE_QUBIT_CAP}"),
    ]
    if "epsilon" in vars(config):
        rules.append((config.epsilon > 0 or config.bc is BoundaryCondition.DIRICHLET,
                      f"{config.bc.value} boundaries need epsilon > 0: the operator is "
                      "singular without it"))
    for ok, message in rules:
        if not ok:
            raise UsageError(message)
    return config


def _fmt(value) -> str:
    if isinstance(value, (list, range)):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, BoundaryCondition):
        return value.value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _write_table(path: Path, header: list[str], rows: list[list]) -> None:
    """A header line and one line per row: comma-separated in a ``.csv`` file,
    whitespace-separated under a ``# `` header in a ``fig_*.dat`` plot file."""
    sep, prefix = (" ", "# ") if path.suffix == ".dat" else (",", "")
    lines = [prefix + sep.join(header)]
    lines += [sep.join(_fmt(cell) for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS runs (by CPU, or ``OPENBLAS_CORETYPE``),
    or ``unknown`` without that library or symbol; kernels round differently."""
    for lib in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):  # not loadable, or no such symbol
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return (corename() or b"unknown").decode("ascii", "replace")
    return "unknown"


def _write_manifest(path: Path, config: argparse.Namespace, summary: list[str]) -> None:
    lines = [f"package = vqa-poisson {__version__}"]
    lines += [f"{key} = {_fmt(value)}" for key, value in vars(config).items() if key != "out"]
    lines += [f"python = {platform.python_version()}", f"numpy = {np.__version__}",
              f"blas_kernel = {_blas_kernel()}", *summary]
    path.write_text("\n".join(lines) + "\n")


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(np.log10(x), np.log10(y), 1)[0])


TRIAL_COLUMNS = ["n", "trial", "status", "iterations", "circuit_executions", "energy", "r_opt",
                 "trace_distance", "grad_norm"]


def _trial_table(config: argparse.Namespace, out: Path, terminal):
    """Each n's seeded problem and its config.trials BFGS trials: one row per trial
    under TRIAL_COLUMNS, written to ``trials.csv``, and (problem, TrialsResult) by n."""
    rows, runs = [], {}
    for n in config.n_values:
        problem = make_problem(n, config.bc, config.layers, config.epsilon)
        runs[n] = problem, run_trials(problem, OptimizationConfig(
            config.max_iterations, terminal, config.trials, config.seed))
        rows += [[n, k, t.status, t.iterations_used, t.circuit_executions, t.final_report.energy,
                  t.final_report.r_opt, t.trace_distance, t.final_gradient_norm]
                 for k, t in enumerate(runs[n][1].traces)]
    _write_table(out / "trials.csv", TRIAL_COLUMNS, rows)
    return rows, runs


def _statuses(result: TrialsResult) -> str:
    return ",".join(f"{status}:{count}" for status, count in result.statuses.items())


def _mean_std(values) -> list[float]:
    """[mean, std] of the values, or [nan, nan] when there are none."""
    values = np.asarray(values, dtype=float)
    return [values.mean(), values.std()] if values.size else [np.nan, np.nan]


def _kept(rows: list[list], n: int) -> list[list]:
    """The trial-table rows at n a study's statistics take: every one that did not abort."""
    return [row for row in rows if row[0] == n and not row[2].startswith("aborted")]


def _aggregate(rows: list[list], n: int, column: str) -> list[float]:
    """[mean, std] of a trial-table column over the :func:`_kept` trials at n."""
    return _mean_std([row[TRIAL_COLUMNS.index(column)] for row in _kept(rows, n)])


def _run_solve(config: argparse.Namespace, out: Path) -> tuple[list[str], int]:
    trials, runs = _trial_table(config, out, GradNorm(config.grad_threshold))
    [(n, (problem, result))] = runs.items()
    _write_table(out / "results.csv", TRIAL_COLUMNS[1:], [row[1:] for row in trials])
    means = [f"mean_{c} = {_fmt(_aggregate(trials, n, c)[0])}"
             for c in ("iterations", "trace_distance", "energy")]
    return [f"statuses = {_statuses(result)}", *means,
            f"classical_norm = {_fmt(problem.classical().norm)}"], 0


def _run_solution_field(config: argparse.Namespace, out: Path) -> tuple[list[str], int]:
    trials, runs = _trial_table(config, out, GradNorm(config.grad_threshold))
    [(n, (problem, result))] = runs.items()
    classical = problem.classical().u
    solutions = [t.final_report.r_opt * ansatz_amplitudes(problem.circuit, t.final_theta)
                 for t in result.traces]
    header = ["node", "classical"] + [f"trial_{k}" for k in range(len(solutions))]
    field = [[node, classical[node]] + [sol[node] for sol in solutions] for node in range(1 << n)]
    _write_table(out / "results.csv", header, field)
    kept = [2 + row[1] for row in _kept(trials, n)]  # their trial_<k> columns
    _write_table(out / "fig_solution_field.dat", ["node", "classical", "mean", "std"],
                 [[*row[:2], *_mean_std([row[k] for k in kept])] for row in field])
    return [f"statuses = {_statuses(result)}",
            f"mean_trace_distance = {_fmt(_aggregate(trials, n, 'trace_distance')[0])}"], 0


def _run_trace_distance_vs_n(config: argparse.Namespace, out: Path) -> tuple[list[str], int]:
    trials, runs = _trial_table(config, out, GradNorm(config.grad_threshold))
    rows = [[n, config.bc.value, config.trials, result.statuses.get("converged", 0),
             *_aggregate(trials, n, "trace_distance"), *_aggregate(trials, n, "iterations"),
             *_aggregate(trials, n, "energy")] for n, (_, result) in runs.items()]
    _write_table(out / "results.csv",
                 ["n", "bc", "trials", "converged", "mean_trace_distance", "std_trace_distance",
                  "mean_iterations", "std_iterations", "mean_energy", "std_energy"], rows)
    _write_table(out / "fig_trace_distance.dat", ["n", "mean", "std"],
                 [[n, *_aggregate(trials, n, "trace_distance")] for n in runs])
    return [f"statuses_n{n} = {_statuses(result)}" for n, (_, result) in runs.items()], 0


def _fixed_point(config: argparse.Namespace, n: int):
    """Operator, ansatz, source and seeded evaluation point of a fixed-theta study."""
    problem = make_problem(n, config.bc, config.layers, config.epsilon)
    return (problem.operator, problem.circuit, problem.source,
            draw_theta(problem.circuit, derive_seed(config.seed, n)))


def _run_circuit_count_vs_n(config: argparse.Namespace, out: Path) -> tuple[list[str], int]:
    rows, res_rows = [], []
    for n in config.n_values:
        report = resource_report(n, config.layers, config.bc)
        rows.append([n, config.bc.value, report.t_c, count_baseline_circuits(n)])
        res_rows.append([n, report.t_c, report.t_g, *astuple(report.shift),
                         *astuple(report.state_prep)])
    _write_table(out / "results.csv", ["n", "bc", "circuits_proposed", "circuits_baseline"], rows)
    _write_table(out / "resources.csv",
                 ["n", "t_c", "t_g", "shift_rel_phase_toffolis", "shift_toffolis",
                  "shift_cnot", "shift_x", "total_qubits_with_ancilla",
                  "ansatz_depth", "encoding_depth", "shift_depth_bound"], res_rows)
    _write_table(out / "fig_circuit_count.dat", ["n", "proposed", "baseline"],
                 [[r[0], r[2], r[3]] for r in rows])
    return [], 0


def _run_iterations_vs_n(config: argparse.Namespace, out: Path) -> tuple[list[str], int]:
    trials, runs = _trial_table(config, out, TraceDistance(config.tol))
    rows = [[n, config.bc.value, config.tol, config.trials, result.statuses.get("converged", 0),
             *_aggregate(trials, n, "iterations"), *_aggregate(trials, n, "trace_distance")]
            for n, (_, result) in runs.items()]
    _write_table(out / "results.csv",
                 ["n", "bc", "tolerance", "trials", "converged", "mean_iterations",
                  "std_iterations", "mean_trace_distance", "std_trace_distance"], rows)
    fig_rows = [[n, *_aggregate(trials, n, "iterations")] for n in runs]
    _write_table(out / "fig_iterations.dat", ["n", "mean", "std"], fig_rows)
    summary = [f"statuses_n{n} = {_statuses(result)}" for n, (_, result) in runs.items()]
    n, mean, _ = np.array(fig_rows, float).T
    if len(n) > 1 and all(mean > 0):
        summary.append(f"loglog_slope_iterations = {_fmt(_loglog_slope(n, mean))}")
    return summary, 0


def _sample_baseline_cost(eig_a, f: np.ndarray, psi: np.ndarray, shots: int,
                          seed: int) -> float:
    """Dense-matrix-backed shot model of the prior method's cost from A's eigenpairs (lam, V).

    Samples A^2 on |psi> in A's eigenbasis, then X (x) A on (|0>|f> + |1>|psi>)/sqrt(2),
    whose spectrum is read off A's: values (lam, -lam) on (|0> +- |1>)/sqrt(2) (x) v, with
    probabilities proportional to ((V^T f + V^T psi)^2, (V^T f - V^T psi)^2).  Both draw in
    that order on one ``np.random.default_rng(seed)``; each is unbiased for its
    expectation, plugged into <A^2> - <psi|A|f>^2.
    """
    rng = np.random.default_rng(seed)
    lam, vectors = eig_a
    vf, vpsi = vectors.T.dot(f), vectors.T.dot(psi)
    settings = ((lam ** 2, vpsi ** 2), (np.r_[lam, -lam], np.r_[vf + vpsi, vf - vpsi] ** 2))
    est_a2, est_af = [float(_row_means(weights / weights.sum(), values, shots, rng))
                      for values, weights in settings]
    return est_a2 - est_af * est_af


def _shot_grid(config: argparse.Namespace, out: Path, fig: str, statistic: str,
               columns: list[str], measure_at) -> tuple[list[str], int]:
    """Repeat ``measure_at(n)(shots, seed)`` over each n's shot grid; its cells
    follow (n, shots, repeat) in a results row, and the fig plots the last one.
    An estimate whose sampled denominator is not positive writes a row of nan
    cells, stays out of the fig and the slope, and counts in ``unstable_n<N>``."""
    rows, summary = [], []
    for n in config.n_values:
        measure = measure_at(n)
        fig_rows, unstable = [], 0
        for shots in config.shot_values:
            values = []
            for repeat in range(config.repeats):
                try:
                    cells = measure(shots, derive_seed(config.seed, n, shots, repeat))
                except UnstableEstimateError:
                    cells = [np.nan] * len(columns)
                    unstable += 1
                else:
                    values.append(cells[-1])
                rows.append([n, shots, repeat, *cells])
            fig_rows.append([shots, *_mean_std(values)])
        _write_table(out / f"fig_{fig}_n{n}.dat",
                     ["shots", f"mean_{statistic}", f"std_{statistic}"], fig_rows)
        if unstable:
            summary.append(f"unstable_n{n} = {unstable}")
        stable = [r for r in fig_rows if not np.isnan(r[1])]
        if len(stable) > 1:  # a line through one shot count has no slope
            slope = _loglog_slope(np.array([r[0] for r in stable], float),
                                  np.array([max(r[1], 1e-300) for r in stable]))
            summary.append(f"slope_n{n} = {_fmt(slope)}")
    _write_table(out / "results.csv", ["n", "shots", "repeat", *columns], rows)
    return summary, 0


def _run_shot_error_vs_s(config: argparse.Namespace, out: Path) -> tuple[list[str], int]:
    model = []  # per n: settings measured per estimate, circuits per cost evaluation

    def measure_at(n: int):
        op, circuit, f, theta = _fixed_point(config, n)
        if config.method == "baseline":
            psi = prepare_ansatz_state(circuit, theta)
            matrix = build_matrix(n, config.bc, config.epsilon)
            counts, exact = (2, count_baseline_circuits(n)), baseline_cost(matrix, psi, f).cost
            eig_a = np.linalg.eigh(matrix)

            def estimate(shots: int, seed: int) -> float:
                return _sample_baseline_cost(eig_a, f.amplitudes, psi.amplitudes, shots, seed)
        else:
            counts, exact = (measured_circuit_count(op),) * 2, cost(op, circuit, theta, f).energy

            def estimate(shots: int, seed: int) -> float:
                return sample_cost(op, circuit, theta, f, shots, seed).energy
        model.extend([f"measurements_per_estimate_n{n} = {counts[0]}",
                      f"circuits_per_cost_n{n} = {counts[1]}"])

        def measure(shots: int, seed: int) -> list[float]:
            value = estimate(shots, seed)
            error = (value - exact) ** 2
            return [value, exact, error / exact ** 2 if exact else np.nan, error]
        return measure

    summary, code = _shot_grid(config, out, "shot_error", "sq_error",
                               ["estimate", "exact", "relative_squared_error", "squared_error"],
                               measure_at)
    return model + summary, code


def _run_grad_similarity_vs_s(config: argparse.Namespace, out: Path) -> tuple[list[str], int]:
    def measure_at(n: int):
        op, circuit, f, theta = _fixed_point(config, n)
        exact = grad_cost(op, circuit, theta, f).grad
        exact_norm = np.linalg.norm(exact)

        def measure(shots: int, seed: int) -> list[float]:
            sampled = sampled_gradient(op, circuit, theta, f, shots, seed)
            denom = exact_norm * np.linalg.norm(sampled)
            return [1.0 - (float(exact @ sampled / denom) if denom > 0 else 0.0)]
        return measure

    return _shot_grid(config, out, "grad_similarity", "dissimilarity",
                      ["one_minus_cosine"], measure_at)


def barren_plateau_norms(n: int, layers: int, bc: BoundaryCondition, epsilon: float,
                         seed: int, trials: int) -> list[list[float]]:
    """Per-seed gradient norms of the cost and its three observable groups."""
    problem = make_problem(n, bc, layers, epsilon)
    op, circuit, f = problem.operator, problem.circuit, problem.source
    even, odd = op.terms[:2]  # X on qubit 0, unshifted and shifted by one
    rows = []
    for k in range(trials):
        theta = draw_theta(circuit, derive_seed(seed, n, k))
        rows.append([
            float(grad_cost(op, circuit, theta, f).norm),
            float(np.linalg.norm(term_gradient(even, circuit, theta))),
            float(np.linalg.norm(term_gradient(odd, circuit, theta))),
            float(np.linalg.norm(grad_numerator(circuit, theta, f))),
        ])
    return rows


def _run_barren_plateau(config: argparse.Namespace, out: Path) -> tuple[list[str], int]:
    rows = []
    series = {name: [] for name in ("cost", "even", "odd", "numerator")}
    for n in config.n_values:
        norms = barren_plateau_norms(n, config.layers, config.bc,
                                     config.epsilon, config.seed, config.trials)
        rows += [[n, k, *trial] for k, trial in enumerate(norms)]
        for col, name in enumerate(("cost", "even", "odd", "numerator")):
            series[name].append([n, *_mean_std([trial[col] for trial in norms])])
    _write_table(out / "results.csv",
                 ["n", "seed_index", "grad_norm_cost", "grad_norm_even",
                  "grad_norm_odd", "grad_norm_numerator"], rows)
    for name, fig_rows in series.items():
        _write_table(out / f"fig_barren_plateau_{name}.dat", ["n", "mean", "std"], fig_rows)
    return [], 0


def _run_fem2d_verify(config: argparse.Namespace, out: Path) -> tuple[list[str], int]:
    cap = config.n_values[-1]
    rows = []
    for nx in range(1, cap + 1):
        for ny in range(1, cap + 1):
            mesh = Mesh2D(nx, ny)
            op = build_fem_2d(mesh)
            dense = reassemble_dense(op)
            reference = assemble_fem_2d_dense(mesh)
            exact = bool(np.array_equal(dense, reference))
            reference -= dense  # in place: at the 12-qubit cap a full temporary is 128 MiB
            max_err = float(np.abs(reference, out=reference).max())
            rows.append([nx, ny, len(op.terms), op.constant_offset, max_err, exact])
    _write_table(out / "results.csv",
                 ["n_x", "n_y", "terms", "constant_offset", "max_abs_error", "exact_match"], rows)
    all_exact = all(row[-1] for row in rows)
    return [f"all_exact = {1 if all_exact else 0}"], 0 if all_exact else 1


class Study(NamedTuple):
    n: str  # default --n
    run: Callable[[argparse.Namespace, Path], tuple[list[str], int]]


STUDIES = {
    "solve": Study("5", _run_solve),
    "solution-field": Study("5", _run_solution_field),
    "trace-distance-vs-n": Study("2:5", _run_trace_distance_vs_n),
    "circuit-count-vs-n": Study("2:10", _run_circuit_count_vs_n),
    "iterations-vs-n": Study("2:5", _run_iterations_vs_n),
    "shot-error-vs-s": Study("2:4", _run_shot_error_vs_s),
    "grad-similarity-vs-s": Study("3", _run_grad_similarity_vs_s),
    "barren-plateau": Study("2:8", _run_barren_plateau),
    "fem2d-verify": Study("2", _run_fem2d_verify),
}


def run(config: argparse.Namespace) -> int:
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    summary, code = STUDIES[config.experiment].run(config, out)
    _write_manifest(out / "manifest.txt", config, summary)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except Exception as err:  # runtime failure -> diagnostic + exit 1
        print(f"runtime failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
