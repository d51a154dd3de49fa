"""Output contracts of the studies: every number a run writes is recomputed.

Each test runs a study at smoke size, reads ``results.csv``, the fig files and
the manifest by column or key name, and recomputes each written number from an
independent source: the estimators at the seeds the study documents for the
result cells, each optimizing trial from :func:`minimize` at its documented
seed, the result rows for the fig means and spreads, ``np.polyfit`` on the
fig's own columns for the slopes, and the resource counts for the circuit counts.
"""

import math
from collections import Counter

import numpy as np
import pytest

from vqa_poisson import (BoundaryCondition, UnstableEstimateError, cost,
                         count_baseline_circuits, derive_seed, grad_cost, make_problem,
                         resource_report, sample_cost, sampled_gradient)
from vqa_poisson.cli import barren_plateau_norms, main
from vqa_poisson.optimize import (GradNorm, OptimizationConfig, TraceDistance, draw_theta,
                                  minimize)
from vqa_poisson.states import ansatz_amplitudes

# files write 12 significant digits
WRITTEN = dict(rel=1e-11, abs=1e-300)


def _cell(text):
    """A written number, or the text of a label cell (a status, a boundary condition)."""
    try:
        return float(text)
    except ValueError:
        return text


def _read_csv(path):
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), map(_cell, line.split(",")))) for line in lines]


def _read_fig(path):
    header, *lines = path.read_text().splitlines()
    assert header.startswith("# ")
    return [dict(zip(header[2:].split(), map(float, line.split()))) for line in lines]


def _read_manifest(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


def _run(tmp_path, experiment, flags):
    out = tmp_path / experiment
    assert main([experiment, *flags, "--out", str(out)]) == 0
    return out, _read_csv(out / "results.csv"), _read_manifest(out / "manifest.txt")


def _point(manifest, n):
    """The study's evaluation point at n, rebuilt from the manifest's config."""
    bc = BoundaryCondition(manifest["bc"])
    problem = make_problem(n, bc, int(manifest["layers"]), float(manifest["epsilon"]))
    theta = draw_theta(problem.circuit, derive_seed(int(manifest["seed"]), n))
    return problem.operator, problem.circuit, problem.source, theta


def _check_fig_and_slopes(out, rows, manifest, fig, statistic, column):
    """Each n's fig from the result rows, its slope from the fig, its unstable count."""
    shot_values = [int(s) for s in manifest["shot_values"].split(",")]
    for n in sorted({int(row["n"]) for row in rows}):
        at_n = [row for row in rows if row["n"] == n]
        fig_rows = _read_fig(out / f"fig_{fig}_n{n}.dat")
        assert [row["shots"] for row in fig_rows] == shot_values
        for fig_row in fig_rows:
            cells = [row[column] for row in at_n if row["shots"] == fig_row["shots"]]
            assert len(cells) == int(manifest["repeats"])
            values = [cell for cell in cells if not math.isnan(cell)]
            if values:
                # the rows' rounding moves a spread by up to 1e-12 of the values
                spread = dict(rel=1e-11, abs=1e-11 * max(map(abs, values)))
                assert fig_row[f"mean_{statistic}"] == pytest.approx(np.mean(values), **WRITTEN)
                assert fig_row[f"std_{statistic}"] == pytest.approx(np.std(values), **spread)
            else:
                assert math.isnan(fig_row[f"mean_{statistic}"])
                assert math.isnan(fig_row[f"std_{statistic}"])
        unstable = sum(math.isnan(row[column]) for row in at_n)
        assert int(manifest.get(f"unstable_n{n}", 0)) == unstable
        stable = [row for row in fig_rows if not math.isnan(row[f"mean_{statistic}"])]
        if len(stable) > 1:
            shots = np.log10([row["shots"] for row in stable])
            means = np.log10([row[f"mean_{statistic}"] for row in stable])
            slope = np.polyfit(shots, means, 1)[0]
            assert float(manifest[f"slope_n{n}"]) == pytest.approx(slope, rel=1e-9)
        else:
            assert f"slope_n{n}" not in manifest


@pytest.mark.parametrize("flags", [
    ["--n", "2:3", "--shots", "64:1024", "--repeats", "3"],
    ["--n", "2:3", "--shots", "1:64", "--repeats", "4", "--seed", "5"],
], ids=["stable", "low-shots"])
def test_shot_error_outputs_are_recomputed(tmp_path, flags):
    out, rows, manifest = _run(tmp_path, "shot-error-vs-s", flags)
    seed = int(manifest["seed"])
    for n in sorted({int(row["n"]) for row in rows}):
        op, circuit, f, theta = _point(manifest, n)
        exact = cost(op, circuit, theta, f).energy
        for row in (row for row in rows if row["n"] == n):
            shots, repeat = int(row["shots"]), int(row["repeat"])
            try:
                estimate = sample_cost(op, circuit, theta, f, shots,
                                       derive_seed(seed, n, shots, repeat)).energy
            except UnstableEstimateError:
                assert all(math.isnan(row[key]) for key in
                           ("estimate", "exact", "relative_squared_error", "squared_error"))
                continue
            assert row["estimate"] == pytest.approx(estimate, **WRITTEN)
            assert row["exact"] == pytest.approx(exact, **WRITTEN)
            squared = (estimate - exact) ** 2
            assert row["squared_error"] == pytest.approx(squared, **WRITTEN)
            assert row["relative_squared_error"] == pytest.approx(squared / exact ** 2,
                                                                  **WRITTEN)
    _check_fig_and_slopes(out, rows, manifest, "shot_error", "sq_error", "squared_error")


@pytest.mark.parametrize("flags", [
    ["--n", "2:3", "--shots", "64:1024", "--repeats", "3"],
    ["--n", "2", "--bc", "neumann", "--shots", "1:64", "--repeats", "4"],
], ids=["dirichlet", "neumann-low-shots"])
def test_grad_similarity_outputs_are_recomputed(tmp_path, flags):
    out, rows, manifest = _run(tmp_path, "grad-similarity-vs-s", flags)
    seed = int(manifest["seed"])
    for n in sorted({int(row["n"]) for row in rows}):
        op, circuit, f, theta = _point(manifest, n)
        exact = grad_cost(op, circuit, theta, f).grad
        for row in (row for row in rows if row["n"] == n):
            shots, repeat = int(row["shots"]), int(row["repeat"])
            try:
                sampled = sampled_gradient(op, circuit, theta, f, shots,
                                           derive_seed(seed, n, shots, repeat))
            except UnstableEstimateError:
                assert math.isnan(row["one_minus_cosine"])
                continue
            norms = np.linalg.norm(exact) * np.linalg.norm(sampled)
            cosine = np.dot(exact, sampled) / norms if norms > 0 else 0.0
            assert row["one_minus_cosine"] == pytest.approx(1.0 - cosine, **WRITTEN)
    _check_fig_and_slopes(out, rows, manifest, "grad_similarity", "dissimilarity",
                          "one_minus_cosine")


TRIAL_COLUMNS = ("n,trial,status,iterations,circuit_executions,energy,r_opt,trace_distance,"
                 "grad_norm")


def _trials(manifest, n):
    """The study's problem at n and its trials, each from :func:`minimize` at
    ``derive_seed(seed, trial)``, with the manifest's config."""
    problem = make_problem(n, BoundaryCondition(manifest["bc"]), int(manifest["layers"]),
                           float(manifest["epsilon"]))
    terminal = (TraceDistance(float(manifest["tol"])) if "tol" in manifest
                else GradNorm(float(manifest["grad_threshold"])))
    config = OptimizationConfig(int(manifest["max_iterations"]), terminal)
    seed = int(manifest["seed"])
    return problem, [minimize(problem, config, derive_seed(seed, trial))
                     for trial in range(int(manifest["trials"]))]


def _check_trial_table(out, manifest):
    """Step one of an optimizing study's check: each ``trials.csv`` row is its
    trial from :func:`minimize`.  Returns the rows and each n's problem and trials."""
    assert (out / "trials.csv").read_text().splitlines()[0] == TRIAL_COLUMNS
    table = _read_csv(out / "trials.csv")
    runs = {int(n): _trials(manifest, int(n)) for n in manifest["n_values"].split(",")}
    assert [(row["n"], row["trial"]) for row in table] == [
        (n, k) for n, (_, traces) in runs.items() for k in range(len(traces))]
    for row in table:
        trace = runs[row["n"]][1][int(row["trial"])]
        assert row["status"] == trace.status
        assert row["iterations"] == trace.iterations_used
        assert row["circuit_executions"] == trace.circuit_executions
        assert row["energy"] == pytest.approx(trace.final_report.energy, **WRITTEN)
        assert row["r_opt"] == pytest.approx(trace.final_report.r_opt, **WRITTEN)
        assert row["trace_distance"] == pytest.approx(trace.trace_distance, **WRITTEN)
        assert row["grad_norm"] == pytest.approx(trace.final_gradient_norm, **WRITTEN)
    return table, runs


# Step two reads the trial table alone: a study's statistics take the trials
# that did not abort, and its status line counts ``aborted:<why>`` as aborted.

def _kept(table, n, column):
    return [row[column] for row in table
            if row["n"] == n and not row["status"].startswith("aborted")]


def _status_line(table, n):
    counts = Counter(row["status"].split(":")[0] for row in table if row["n"] == n)
    return ",".join(f"{status}:{count}" for status, count in sorted(counts.items()))


def _converged(table, n):
    return sum(row["status"] == "converged" for row in table if row["n"] == n)


def _check_mean_std(written, values):
    """A written [mean, std], or [mean] alone, of the values; the values' rounding
    moves either by up to 1e-12 of the largest value, which matters where they
    differ in sign."""
    spread = dict(rel=1e-11, abs=1e-11 * max(map(abs, values)))
    assert written == pytest.approx([np.mean(values), np.std(values)][:len(written)], **spread)


@pytest.mark.parametrize("flags, converged", [
    (["--n", "2:3", "--trials", "2", "--max-iterations", "60"], [2, 2]),
    # n = 3 needs about 30 iterations: its trials are capped, and the count tells
    (["--n", "2:3", "--trials", "2", "--max-iterations", "20"], [2, 0]),
], ids=["converged", "capped-at-n3"])
def test_trace_distance_outputs_are_recomputed(tmp_path, flags, converged):
    out, rows, manifest = _run(tmp_path, "trace-distance-vs-n", flags)
    table, _ = _check_trial_table(out, manifest)
    fig_rows = _read_fig(out / "fig_trace_distance.dat")
    assert [row["n"] for row in rows] == [row["n"] for row in fig_rows] == [2, 3]
    for row, fig_row in zip(rows, fig_rows):
        n = row["n"]
        assert manifest[f"statuses_n{int(n)}"] == _status_line(table, n)
        assert row["bc"] == manifest["bc"]
        assert row["trials"] == int(manifest["trials"])
        assert row["converged"] == _converged(table, n)
        distances = _kept(table, n, "trace_distance")
        _check_mean_std([row["mean_trace_distance"], row["std_trace_distance"]], distances)
        _check_mean_std([fig_row["mean"], fig_row["std"]], distances)
        _check_mean_std([row["mean_iterations"], row["std_iterations"]],
                        _kept(table, n, "iterations"))
        _check_mean_std([row["mean_energy"], row["std_energy"]], _kept(table, n, "energy"))
    assert [row["converged"] for row in rows] == converged


@pytest.mark.parametrize("flags", [
    ["--n", "2", "--trials", "2", "--max-iterations", "60"],
    ["--n", "3", "--trials", "2", "--max-iterations", "20"],
], ids=["converged", "capped"])
def test_solve_outputs_are_recomputed(tmp_path, flags):
    out, rows, manifest = _run(tmp_path, "solve", flags)
    table, runs = _check_trial_table(out, manifest)
    [(n, (problem, _))] = runs.items()
    # results.csv is the trial table without its n column
    assert rows == [{key: value for key, value in row.items() if key != "n"} for row in table]
    assert manifest["statuses"] == _status_line(table, n)
    for column in ("iterations", "trace_distance", "energy"):
        _check_mean_std([float(manifest[f"mean_{column}"])], _kept(table, n, column))
    assert float(manifest["classical_norm"]) == pytest.approx(
        np.linalg.norm(problem.classical().u), **WRITTEN)


@pytest.mark.parametrize("flags, converged", [
    (["--n", "2:3", "--trials", "2", "--tol", "0.3", "--max-iterations", "60"], [2, 2]),
    # one n = 3 trial needs 17 iterations: it is capped, and the count tells
    (["--n", "2:3", "--trials", "2", "--tol", "0.3", "--max-iterations", "10"], [2, 1]),
], ids=["converged", "capped-at-n3"])
def test_iterations_outputs_are_recomputed(tmp_path, flags, converged):
    out, rows, manifest = _run(tmp_path, "iterations-vs-n", flags)
    table, _ = _check_trial_table(out, manifest)
    fig_rows = _read_fig(out / "fig_iterations.dat")
    assert [row["n"] for row in rows] == [row["n"] for row in fig_rows] == [2, 3]
    for row, fig_row in zip(rows, fig_rows):
        n = row["n"]
        assert manifest[f"statuses_n{int(n)}"] == _status_line(table, n)
        assert row["bc"] == manifest["bc"]
        assert row["tolerance"] == float(manifest["tol"])
        assert row["trials"] == int(manifest["trials"])
        assert row["converged"] == _converged(table, n)
        iterations = _kept(table, n, "iterations")
        _check_mean_std([row["mean_iterations"], row["std_iterations"]], iterations)
        _check_mean_std([fig_row["mean"], fig_row["std"]], iterations)
        _check_mean_std([row["mean_trace_distance"], row["std_trace_distance"]],
                        _kept(table, n, "trace_distance"))
    assert [row["converged"] for row in rows] == converged
    slope = np.polyfit(np.log10([row["n"] for row in fig_rows]),
                       np.log10([row["mean"] for row in fig_rows]), 1)[0]
    assert float(manifest["loglog_slope_iterations"]) == pytest.approx(slope, rel=1e-9)


@pytest.mark.parametrize("flags", [
    ["--n", "2", "--trials", "2", "--max-iterations", "60"],
    ["--n", "3", "--trials", "2", "--max-iterations", "20"],
], ids=["converged", "capped"])
def test_solution_field_outputs_are_recomputed(tmp_path, flags):
    out, rows, manifest = _run(tmp_path, "solution-field", flags)
    table, runs = _check_trial_table(out, manifest)
    [(n, (problem, traces))] = runs.items()
    trials = [f"trial_{k}" for k in range(len(traces))]
    assert list(rows[0]) == ["node", "classical", *trials]
    assert [row["node"] for row in rows] == list(range(1 << n))
    classical = problem.classical().u
    # each trial's solution field is r_opt times the ansatz state at its final theta
    fields = [t.final_report.r_opt * ansatz_amplitudes(problem.circuit, t.final_theta)
              for t in traces]
    fig_rows = _read_fig(out / "fig_solution_field.dat")
    for row, fig_row in zip(rows, fig_rows, strict=True):
        node = int(row["node"])
        assert row["classical"] == pytest.approx(classical[node], **WRITTEN)
        for trial, field in zip(trials, fields):
            assert row[trial] == pytest.approx(field[node], **WRITTEN)
        assert fig_row["node"] == node
        assert fig_row["classical"] == row["classical"]
        _check_mean_std([fig_row["mean"], fig_row["std"]], [row[trial] for trial in trials])
    assert manifest["statuses"] == _status_line(table, n)
    _check_mean_std([float(manifest["mean_trace_distance"])], _kept(table, n, "trace_distance"))


@pytest.mark.parametrize("bc", ["periodic", "dirichlet", "neumann"])
def test_circuit_count_outputs_are_recomputed(tmp_path, bc):
    out, rows, manifest = _run(tmp_path, "circuit-count-vs-n",
                               ["--n", "1:4", "--bc", bc, "--layers", "3"])
    fig_rows = _read_fig(out / "fig_circuit_count.dat")
    resources = _read_csv(out / "resources.csv")
    assert [row["n"] for row in rows] == [row["n"] for row in fig_rows] == [1, 2, 3, 4]
    assert [row["n"] for row in resources] == [1, 2, 3, 4]
    for row, fig_row, res in zip(rows, fig_rows, resources):
        n = int(row["n"])
        report = resource_report(n, int(manifest["layers"]), BoundaryCondition(bc))
        assert row["bc"] == bc
        assert row["circuits_proposed"] == fig_row["proposed"] == report.t_c
        assert row["circuits_baseline"] == fig_row["baseline"] == count_baseline_circuits(n)
        shift, depth = report.shift, report.state_prep
        assert [res["t_c"], res["t_g"]] == [report.t_c, report.t_g]
        assert [res["shift_rel_phase_toffolis"], res["shift_toffolis"], res["shift_cnot"],
                res["shift_x"], res["total_qubits_with_ancilla"]] == [
            shift.rel_phase_toffolis, shift.toffolis, shift.cnot, shift.x,
            shift.total_qubits_with_ancilla]
        assert [res["ansatz_depth"], res["encoding_depth"], res["shift_depth_bound"]] == [
            depth.ansatz_depth, depth.encoding_depth, depth.shift_depth_bound]


def test_barren_plateau_outputs_are_recomputed(tmp_path):
    out, rows, manifest = _run(tmp_path, "barren-plateau", ["--n", "2:3", "--trials", "3"])
    names = ("cost", "even", "odd", "numerator")
    for n in (2, 3):
        at_n = [row for row in rows if row["n"] == n]
        assert [row["seed_index"] for row in at_n] == [0, 1, 2]
        norms = barren_plateau_norms(n, int(manifest["layers"]), BoundaryCondition(manifest["bc"]),
                                     float(manifest["epsilon"]), int(manifest["seed"]), 3)
        for row, trial in zip(at_n, norms):
            assert [row[f"grad_norm_{name}"] for name in names] == pytest.approx(trial, **WRITTEN)
    for name in names:
        fig_rows = _read_fig(out / f"fig_barren_plateau_{name}.dat")
        assert [row["n"] for row in fig_rows] == [2, 3]
        for fig_row in fig_rows:
            _check_mean_std([fig_row["mean"], fig_row["std"]],
                            [row[f"grad_norm_{name}"] for row in rows if row["n"] == fig_row["n"]])
