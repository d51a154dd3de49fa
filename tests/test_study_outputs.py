"""Output contracts of the studies: every number a run writes is recomputed.

Each test runs a study at smoke size, reads ``results.csv``, the fig files and
the manifest by column or key name, and recomputes each written number from an
independent source: the estimators at the seeds the study documents for the
result cells, each optimizing trial from :func:`minimize` at its documented
seed, the result rows for the fig means and spreads, and ``np.polyfit`` on the
fig's own columns for the slopes.
"""

import math
from collections import Counter

import numpy as np
import pytest

from vqa_poisson import (BoundaryCondition, UnstableEstimateError, cost, derive_seed,
                         grad_cost, make_problem, sample_cost, sampled_gradient)
from vqa_poisson.cli import main
from vqa_poisson.optimize import GradNorm, OptimizationConfig, draw_theta, minimize

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


def _trials(manifest, n):
    """The study's problem at n and its trials, each from :func:`minimize` at
    ``derive_seed(seed, trial)``, with the manifest's config."""
    problem = make_problem(n, BoundaryCondition(manifest["bc"]), int(manifest["layers"]),
                           float(manifest["epsilon"]))
    config = OptimizationConfig(int(manifest["max_iterations"]),
                                GradNorm(float(manifest["grad_threshold"])))
    seed = int(manifest["seed"])
    return problem, [minimize(problem, config, derive_seed(seed, trial))
                     for trial in range(int(manifest["trials"]))]


def _statuses(traces):
    """Count per status, ``aborted:<why>`` counted as aborted, and the trials the
    studies average: every one that did not abort."""
    counts = Counter(t.status.split(":")[0] for t in traces)
    return counts, [t for t in traces if not t.status.startswith("aborted")]


def _check_mean_std(written, values):
    mean, std = written
    assert mean == pytest.approx(np.mean(values), **WRITTEN)
    assert std == pytest.approx(np.std(values), rel=1e-11, abs=1e-11 * max(map(abs, values)))


@pytest.mark.parametrize("flags, converged", [
    (["--n", "2:3", "--trials", "2", "--max-iterations", "60"], [2, 2]),
    # n = 3 needs about 30 iterations: its trials are capped, and the count tells
    (["--n", "2:3", "--trials", "2", "--max-iterations", "20"], [2, 0]),
], ids=["converged", "capped-at-n3"])
def test_trace_distance_outputs_are_recomputed(tmp_path, flags, converged):
    out, rows, manifest = _run(tmp_path, "trace-distance-vs-n", flags)
    fig_rows = _read_fig(out / "fig_trace_distance.dat")
    assert [row["n"] for row in rows] == [row["n"] for row in fig_rows] == [2, 3]
    for row, fig_row in zip(rows, fig_rows):
        n = int(row["n"])
        _, traces = _trials(manifest, n)
        counts, done = _statuses(traces)
        assert manifest[f"statuses_n{n}"] == ",".join(f"{k}:{v}" for k, v in sorted(counts.items()))
        assert row["bc"] == manifest["bc"]
        assert row["trials"] == len(traces)
        assert row["converged"] == counts["converged"]
        distances = [t.trace_distance for t in done]
        _check_mean_std([row["mean_trace_distance"], row["std_trace_distance"]], distances)
        _check_mean_std([fig_row["mean"], fig_row["std"]], distances)
        _check_mean_std([row["mean_iterations"], row["std_iterations"]],
                        [t.iterations_used for t in done])
        _check_mean_std([row["mean_energy"], row["std_energy"]],
                        [t.final_report.energy for t in done])
    assert [row["converged"] for row in rows] == converged


@pytest.mark.parametrize("flags", [
    ["--n", "2", "--trials", "2", "--max-iterations", "60"],
    ["--n", "3", "--trials", "2", "--max-iterations", "20"],
], ids=["converged", "capped"])
def test_solve_outputs_are_recomputed(tmp_path, flags):
    out, rows, manifest = _run(tmp_path, "solve", flags)
    problem, traces = _trials(manifest, int(manifest["n_values"]))
    assert [int(row["trial"]) for row in rows] == list(range(len(traces)))
    for row, trace in zip(rows, traces):
        assert row["status"] == trace.status
        assert row["iterations"] == trace.iterations_used
        assert row["circuit_executions"] == trace.circuit_executions
        assert row["energy"] == pytest.approx(trace.final_report.energy, **WRITTEN)
        assert row["r_opt"] == pytest.approx(trace.final_report.r_opt, **WRITTEN)
        assert row["trace_distance"] == pytest.approx(trace.trace_distance, **WRITTEN)
        assert row["grad_norm"] == pytest.approx(trace.final_gradient_norm, **WRITTEN)
    counts, done = _statuses(traces)
    assert manifest["statuses"] == ",".join(f"{k}:{v}" for k, v in sorted(counts.items()))
    for key, values in (("mean_iterations", [t.iterations_used for t in done]),
                        ("mean_trace_distance", [t.trace_distance for t in done]),
                        ("mean_energy", [t.final_report.energy for t in done])):
        assert float(manifest[key]) == pytest.approx(np.mean(values), **WRITTEN)
    assert float(manifest["classical_norm"]) == pytest.approx(
        np.linalg.norm(problem.classical().u), **WRITTEN)
