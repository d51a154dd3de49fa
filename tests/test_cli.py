import platform
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from vqa_poisson import (AnsatzCircuit, Bands, BoundaryCondition, DEFAULT_EPSILON,
                         ObservableTerm, OptimizationConfig, PoissonOperator, PoissonProblem,
                         TrialsResult, baseline_cost, build_matrix, decompose, make_problem,
                         minimize, prepare_ansatz_state, prepare_source_state)
from vqa_poisson import cli
from vqa_poisson.cli import (FLAGS, STUDIES, UsageError, barren_plateau_norms, build_parser,
                             main, resolve_config)
from vqa_poisson.gradient import grad_cost, grad_numerator, term_gradient
from vqa_poisson.optimize import GradNorm, draw_theta
from vqa_poisson.operators import FACTOR_I, FACTOR_X
from vqa_poisson.sampling import derive_seed
from vqa_poisson.states import ansatz_amplitudes

EXPECTED_HEADERS = {
    "solve": "trial,status,iterations,circuit_executions,energy,r_opt,trace_distance,grad_norm",
    "solution-field": "node,classical,trial_0,trial_1",
    "trace-distance-vs-n": ("n,bc,trials,converged,mean_trace_distance,std_trace_distance,"
                            "mean_iterations,std_iterations,mean_energy,std_energy"),
    "circuit-count-vs-n": "n,bc,circuits_proposed,circuits_baseline",
    "iterations-vs-n": ("n,bc,tolerance,trials,converged,mean_iterations,std_iterations,"
                        "mean_trace_distance,std_trace_distance"),
    "shot-error-vs-s": "n,shots,repeat,estimate,exact,relative_squared_error,squared_error",
    "grad-similarity-vs-s": "n,shots,repeat,one_minus_cosine",
    "barren-plateau": "n,seed_index,grad_norm_cost,grad_norm_even,grad_norm_odd,grad_norm_numerator",
    "fem2d-verify": "n_x,n_y,terms,constant_offset,max_abs_error,exact_match",
}

FAST_ARGS = {
    "solve": ["--n", "2", "--trials", "2", "--max-iterations", "60"],
    "solution-field": ["--n", "2", "--trials", "2", "--max-iterations", "60"],
    "trace-distance-vs-n": ["--n", "2:3", "--trials", "2", "--max-iterations", "60"],
    "circuit-count-vs-n": ["--n", "2:4"],
    "iterations-vs-n": ["--n", "2:3", "--trials", "2", "--tol", "0.3",
                        "--max-iterations", "60"],
    "shot-error-vs-s": ["--n", "2", "--shots", "64:256", "--repeats", "2"],
    "grad-similarity-vs-s": ["--n", "2", "--shots", "64:256", "--repeats", "2"],
    "barren-plateau": ["--n", "2:3", "--trials", "2"],
    "fem2d-verify": ["--n", "1"],
}


@pytest.mark.parametrize("experiment", sorted(EXPECTED_HEADERS))
def test_headers_are_stable(experiment, tmp_path):
    out = tmp_path / experiment
    code = main([experiment, *FAST_ARGS[experiment], "--out", str(out)])
    assert code == 0
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header == EXPECTED_HEADERS[experiment]
    # the manifest names the flags the experiment reads, in FLAGS order, and no other
    read = [flag.field or name for name, flag in FLAGS.items()
            if experiment in flag.readers and name != "out"]
    keys = [line.split(" = ")[0] for line in (out / "manifest.txt").read_text().splitlines()]
    assert keys[:len(read) + 2] == ["package", "experiment", *read]
    assert not {flag.field or name for name, flag in FLAGS.items()} & set(keys[len(read) + 2:])


def test_runs_are_byte_deterministic(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["shot-error-vs-s", "--n", "2", "--shots", "64:512",
                     "--repeats", "3", "--seed", "7", "--out", str(out)])
        assert code == 0
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_circuit_count_column_is_constant(tmp_path):
    for bc, count in (("periodic", "3"), ("dirichlet", "4"), ("neumann", "5")):
        out = tmp_path / bc
        assert main(["circuit-count-vs-n", "--n", "1:6", "--bc", bc, "--out", str(out)]) == 0
        rows = [row.split(",") for row in (out / "results.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == [str(n) for n in range(1, 7)]
        # on one qubit the Neumann projector-times-identity term folds into the offset
        first = "4" if bc == "neumann" else count
        assert [row[2] for row in rows] == [first] + [count] * 5
        assert (out / "resources.csv").exists()
        assert (out / "fig_circuit_count.dat").exists()


def test_resources_csv_header_and_row(tmp_path):
    out = tmp_path / "res"
    assert main(["circuit-count-vs-n", "--n", "5", "--bc", "dirichlet",
                 "--out", str(out)]) == 0
    assert (out / "resources.csv").read_text().splitlines() == [
        "n,t_c,t_g,shift_rel_phase_toffolis,shift_toffolis,shift_cnot,shift_x,"
        "total_qubits_with_ancilla,ansatz_depth,encoding_depth,shift_depth_bound",
        "5,4,120,6,2,1,1,7,11,2,25",
    ]


def test_fem2d_verify_emits_exact_matches(tmp_path):
    out = tmp_path / "fem"
    assert main(["fem2d-verify", "--n", "2", "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(row.endswith(",1") for row in rows)
    assert "all_exact = 1" in (out / "manifest.txt").read_text()


def test_solution_field_fig_columns(tmp_path):
    out = tmp_path / "sf"
    assert main(["solution-field", *FAST_ARGS["solution-field"], "--out", str(out)]) == 0
    fig = (out / "fig_solution_field.dat").read_text().splitlines()
    assert fig[0] == "# node classical mean std"
    assert len(fig) == 1 + 4  # header + 2^2 nodes


def test_manifest_records_config(tmp_path):
    out = tmp_path / "m"
    assert main(["shot-error-vs-s", "--n", "2", "--shots", "64:128",
                 "--repeats", "2", "--seed", "99", "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "seed = 99" in manifest
    assert "experiment = shot-error-vs-s" in manifest
    assert "slope_n2 = " in manifest


@pytest.mark.parametrize("experiment", ["shot-error-vs-s", "grad-similarity-vs-s"])
@pytest.mark.parametrize("shots", ["64:64", "64:127"])
def test_one_point_shot_grid_writes_no_slope(experiment, shots, tmp_path):
    # both grids keep only 64 shots: no line to fit, so no slope and no fit warning
    out = tmp_path / "one"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([experiment, "--n", "2", "--shots", shots, "--repeats", "1",
                     "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "shot_values = 64\n" in manifest
    assert "slope_" not in manifest


@pytest.mark.parametrize("experiment,flags", [
    ("shot-error-vs-s", ["--n", "2:4", "--shots", "1:64", "--repeats", "10"]),
    ("grad-similarity-vs-s", ["--n", "3", "--shots", "1:8"]),
])
def test_unstable_estimates_are_counted_not_fatal(experiment, flags, tmp_path):
    # at these shot counts some sampled denominators are not positive
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([experiment, *flags, "--out", str(tmp_path)]) == 0
    manifest = (tmp_path / "manifest.txt").read_text()
    counts = {int(n): int(k) for n, k in re.findall(r"^unstable_n(\d+) = (\d+)$", manifest, re.M)}
    assert counts and min(counts.values()) > 0
    rows = [line.split(",") for line in (tmp_path / "results.csv").read_text().splitlines()[1:]]
    unstable = [row for row in rows if "nan" in row[3:]]
    assert all(cell == "nan" for row in unstable for cell in row[3:])
    assert sorted(counts.items()) == sorted(
        (n, sum(row[0] == str(n) for row in unstable)) for n in counts)
    # each fig row averages the stable estimates at its shot count only
    fig = next(tmp_path.glob("fig_*_n*.dat")).name.rsplit("_n", 1)[0]
    for n in {int(row[0]) for row in rows}:
        for line in (tmp_path / f"{fig}_n{n}.dat").read_text().splitlines()[1:]:
            shots, mean, _ = line.split()
            stable = [float(row[-1]) for row in rows
                      if row[:2] == [str(n), shots] and row[-1] != "nan"]
            if stable:
                assert float(mean) == pytest.approx(np.mean(stable), rel=1e-11)
            else:
                assert mean == "nan"


def test_manifest_configuration_lines_are_pinned(tmp_path):
    assert main(["shot-error-vs-s", "--bc", "periodic", "--n", "2:3", "--shots", "64:256",
                 "--repeats", "1", "--seed", "9", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "manifest.txt").read_text().splitlines()[:10] == [
        "package = vqa-poisson 0.1.0",
        "experiment = shot-error-vs-s",
        "bc = periodic",
        "n_values = 2,3",
        "layers = 5",
        "shot_values = 64,128,256",
        "repeats = 1",
        "seed = 9",
        "epsilon = 0.001",
        "method = proposed",
    ]


def test_manifest_records_numpy_and_the_blas_kernel_after_the_configuration(tmp_path):
    assert main(["fem2d-verify", "--n", "1", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    assert lines[4:7] == [f"python = {platform.python_version()}", f"numpy = {np.__version__}",
                          f"blas_kernel = {cli._blas_kernel()}"]
    assert re.fullmatch(r"\w+", cli._blas_kernel())  # a kernel name, or unknown


@pytest.mark.parametrize("method, counts", [("proposed", {2: (4, 4), 3: (4, 4)}),
                                           ("baseline", {2: (2, 14), 3: (2, 20)})])
def test_shot_error_states_its_measurement_model(method, counts, tmp_path):
    # Dirichlet: 1 + T = 4 circuits measured per estimate and per cost evaluation;
    # the baseline measures two settings but counts 6n + 2 circuits per cost
    assert main(["shot-error-vs-s", "--n", "2:3", "--shots", "64:128", "--repeats", "2",
                 "--method", method, "--out", str(tmp_path)]) == 0
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    for n, (measured, circuits) in counts.items():
        assert f"measurements_per_estimate_n{n} = {measured}" in manifest
        assert f"circuits_per_cost_n{n} = {circuits}" in manifest
    rows = [[float(cell) for cell in line.split(",")]
            for line in (tmp_path / "results.csv").read_text().splitlines()[1:]]
    assert len(rows) == 8
    for _, _, _, estimate, exact, relative, squared in rows:
        assert squared == pytest.approx((estimate - exact) ** 2, rel=1e-9)
        assert relative == pytest.approx(squared / exact ** 2, rel=1e-9)


def test_relative_error_is_nan_where_the_exact_cost_is_zero(tmp_path, monkeypatch):
    class Zero:
        energy = 0.0

    monkeypatch.setattr(cli, "cost", lambda *args: Zero())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["shot-error-vs-s", "--n", "2", "--shots", "64", "--repeats", "2",
                     "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "results.csv").read_text().splitlines()[1:]]
    assert [row[5] for row in rows] == ["nan", "nan"]
    assert [float(row[6]) for row in rows] == pytest.approx([float(row[3]) ** 2 for row in rows])


@pytest.mark.parametrize("bc", list(BoundaryCondition))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_baseline_shot_model_converges_to_the_exact_baseline_cost(bc, n):
    # 2^50 shots per setting leave a statistical error near 1e-8 <A^2>; the tolerance
    # scales with <A^2> = 1/r^2 because at n = 1 the cost cancels to about 1e-6
    problem = make_problem(n, bc)
    psi = prepare_ansatz_state(problem.circuit, draw_theta(problem.circuit, derive_seed(7, n)))
    matrix = build_matrix(n, bc, DEFAULT_EPSILON[bc])
    exact = baseline_cost(matrix, psi, problem.source)
    value = cli._sample_baseline_cost(np.linalg.eigh(matrix), problem.source.amplitudes,
                                      psi.amplitudes, 1 << 50, derive_seed(7, n, 1))
    assert abs(value - exact.cost) <= 1e-5 / exact.r ** 2


def test_runtime_failure_exits_one_with_a_diagnostic(tmp_path, monkeypatch, capsys):
    def failing(config, out):
        raise RuntimeError("simulated failure")

    monkeypatch.setitem(STUDIES, "solve", STUDIES["solve"]._replace(run=failing))
    assert main(["solve", "--n", "2", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "runtime failure: simulated failure\n"  # no traceback


def test_blas_kernel_is_unknown_without_the_library_or_its_symbol(tmp_path, monkeypatch):
    class NoSymbols:
        def __init__(self, path):
            pass

    monkeypatch.setattr(cli.ctypes, "CDLL", NoSymbols)
    assert cli._blas_kernel() == "unknown"

    def unloadable(path):
        raise OSError(path)

    monkeypatch.setattr(cli.ctypes, "CDLL", unloadable)
    assert cli._blas_kernel() == "unknown"
    monkeypatch.setattr(cli.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert cli._blas_kernel() == "unknown"


@pytest.mark.parametrize("bc", list(BoundaryCondition))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_barren_plateau_norms_match_the_inline_protocol(bc, n):
    """Hand-built even/odd terms and a [0, 4 pi] draw per seed, bit for bit."""
    epsilon, seed, trials = DEFAULT_EPSILON[bc], 21, 2
    op, circuit, f = decompose(n, bc, epsilon), AnsatzCircuit(n, 3), prepare_source_state(n)
    even = ObservableTerm(-1.0, tuple(FACTOR_X if q == 0 else FACTOR_I for q in range(n)), (0,))
    odd = ObservableTerm(-1.0, even.factors, (1,))
    expected = []
    for k in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(derive_seed(seed, n, k)))
        theta = rng.uniform(0.0, 4.0 * np.pi, circuit.parameter_count)
        expected.append([float(grad_cost(op, circuit, theta, f).norm),
                         float(np.linalg.norm(term_gradient(even, circuit, theta))),
                         float(np.linalg.norm(term_gradient(odd, circuit, theta))),
                         float(np.linalg.norm(grad_numerator(circuit, theta, f)))])
    assert np.array_equal(barren_plateau_norms(n, 3, bc, epsilon, seed, trials), expected)


def test_config_file_with_cli_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("n = 1\nseed = 5\n# comment\n")
    out = tmp_path / "cfg"
    assert main(["barren-plateau", "--config", str(config), "--n", "2", "--trials", "1",
                 "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "seed = 5" in manifest           # from file
    assert "n_values = 2" in manifest       # CLI --n 2 overrides file's n = 1


def test_usage_errors_exit_two(tmp_path):
    assert main(["solve", "--n", "abc", "--out", str(tmp_path)]) == 2
    assert main(["solve", "--n", "99", "--out", str(tmp_path)]) == 2
    undecodable = tmp_path / "binary.cfg"
    undecodable.write_bytes(b"seed = 5\n\xff\n")
    for unreadable in (tmp_path / "missing.cfg", tmp_path, undecodable):
        assert main(["solve", "--config", str(unreadable), "--out", str(tmp_path)]) == 2
    bad_flags = [
        ["shot-error-vs-s", "--shots", "abc"],
        ["shot-error-vs-s", "--shots", "0:64"],
        ["grad-similarity-vs-s", "--shots", "64:abc"],
        ["shot-error-vs-s", "--n", "2", "--shots", "64:1000000000000000000000",
         "--repeats", "1"],
        ["solve", "--shots", "-5"],
        ["fem2d-verify", "--shots", "64"],
        ["solve", "--layers", "-1"],
        ["solve", "--max-iterations", "-1"],
        ["iterations-vs-n", "--tol", "0"],
        ["solve", "--grad-threshold=-1e-6"],
        ["solve", "--grad-threshold", "nan"],
        ["solve", "--n", "2", "--trials", "2", "--grad-threshold", "inf"],
        ["iterations-vs-n", "--n", "2", "--trials", "1", "--tol", "inf"],
        ["solve", "--epsilon=-1e-3"],
        ["solve", "--n", "2", "--epsilon", "inf"],
        ["trace-distance-vs-n", "--n", "2", "--bc", "periodic", "--epsilon", "inf",
         "--trials", "1"],
        ["solve", "--bc", "periodic", "--epsilon", "0", "--n", "2"],
        ["solve", "--bc", "neumann", "--epsilon", "0", "--n", "3"],
        ["solve", "--seed", "-1"],
        ["fem2d-verify", "--n", "7"],
        ["solve", "--n", "2:4", "--trials", "1"],
        ["solution-field", "--n", "2:3", "--trials", "1"],
        ["fem2d-verify", "--n", "1:2"],
        ["solve", "--n", "2", "--trials", "1", "--method", "baseline"],
        ["grad-similarity-vs-s", "--n", "2", "--method", "baseline"],
        ["barren-plateau", "--n", "2", "--method", "baseline"],
    ]
    for flags in bad_flags:
        assert main([*flags, "--out", str(tmp_path)]) == 2, flags
    bad_config = tmp_path / "bad.cfg"
    for text in ("layers = two\n", "mode = sampeld\n", "method = basline\n",
                 "layer = 3\n", "trails = 1\n", "seed = -1\n", "epsilon = inf\n",
                 "tol = inf\n", "grad_threshold = inf\n", "method = baseline\n"):
        bad_config.write_text(text)
        assert main(["solve", "--config", str(bad_config), "--n", "2", "--trials", "1",
                     "--out", str(tmp_path)]) == 2, text
    # a config line without "=" and a shot range holding no power of two: exit 2
    # before the --out directory is made
    no_equals = tmp_path / "no-equals.cfg"
    no_equals.write_text("seed 5\n")
    never = tmp_path / "never"
    for flags in (["solve", "--config", str(no_equals), "--n", "2", "--trials", "1"],
                  ["shot-error-vs-s", "--n", "2", "--shots", "3:3", "--repeats", "1"]):
        assert main([*flags, "--out", str(never)]) == 2, flags
        assert not never.exists(), flags
    with pytest.raises(SystemExit):
        main(["not-an-experiment"])
    with pytest.raises(SystemExit):
        main(["solve", "--mode", "sampled", "--shots", "0"])


@pytest.mark.parametrize("flags", [["fem2d-verify", "--n", "1"],
                                   ["barren-plateau", "--n", "1", "--trials", "1"],
                                   ["shot-error-vs-s", "--n", "1", "--shots", "64",
                                    "--repeats", "1"]])
def test_proposed_method_is_accepted_everywhere(flags, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("method = proposed\n")
    assert main([*flags, "--method", "proposed", "--out", str(tmp_path / "flag")]) == 0
    assert main([*flags, "--config", str(config), "--out", str(tmp_path / "file")]) == 0


@pytest.mark.parametrize("flags, unread", [
    (["solve", "--n", "2", "--trials", "1", "--repeats", "7", "--tol", "0.5"], "repeats = 7\n"),
    (["circuit-count-vs-n", "--n", "2", "--trials", "4", "--max-iterations", "9"],
     "max_iterations = 9\n"),
])
def test_study_flags_the_experiment_does_not_read_exit_two(flags, unread, tmp_path, capsys):
    out = tmp_path / "run"
    assert main([*flags, "--out", str(out)]) == 2
    assert "does not read" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text(unread)
    assert main([*flags[:3], "--config", str(config), "--out", str(out)]) == 2
    assert "does not read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, value", [("bc", "neumann"), ("layers", "2"), ("seed", "5"),
                                         ("epsilon", "0.01"), ("trials", "2")])
def test_fem2d_verify_rejects_the_flags_it_does_not_read(name, value, tmp_path, capsys):
    out, config = tmp_path / "run", tmp_path / "run.cfg"
    config.write_text(f"{name} = {value}\n")
    for given in ([f"--{name}", value], ["--config", str(config)]):
        assert main(["fem2d-verify", "--n", "1", *given, "--out", str(out)]) == 2
        assert "does not read" in capsys.readouterr().err
    assert not out.exists()


def test_each_experiment_takes_exactly_its_study_flags():
    values = {"bc": "neumann", "n": "2", "layers": "2", "trials": "2", "shots": "64:128",
              "repeats": "2", "seed": "3", "epsilon": "0.01", "tol": "0.2",
              "grad_threshold": "1e-5", "max_iterations": "5", "method": "proposed",
              "out": "out"}
    assert set(values) == set(FLAGS)
    assert set().union(*(flag.readers for flag in FLAGS.values())) == set(STUDIES)
    for name, flag in FLAGS.items():
        for experiment in STUDIES:
            args = build_parser().parse_args(
                [experiment, "--n", "2", f"--{name.replace('_', '-')}", values[name]])
            if experiment in flag.readers:
                resolve_config(args)
            else:
                with pytest.raises(UsageError, match="does not read"):
                    resolve_config(args)


def test_readme_flag_table_matches_the_readers():
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| flags | taken by |") + 2
    documented = {}
    for row in lines[start:lines.index("", start)]:
        flags, takers = row.strip("|").split("|")
        named = set(re.findall(r"`([a-z0-9-]+)`", takers))
        taken = set(STUDIES) - named if "every experiment but" in takers else named
        for name in re.findall(r"`--([a-z-]+)", flags):
            documented[name.replace("-", "_")] = taken
    # a flag every experiment reads needs no row
    assert documented == {name: flag.readers for name, flag in FLAGS.items()
                          if flag.readers != set(STUDIES)}


def test_qubit_range_past_the_cap_exits_two_without_listing_it(tmp_path):
    # a list of 10^12 qubit counts would not fit in memory; the range is capped unlisted
    assert main(["solve", "--n", f"1:{10 ** 12}", "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("under", [(), ("sub",)], ids=["file", "under-file"])
def test_out_through_a_file_exits_two_and_keeps_the_file(under, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_bytes(b"kept")
    assert main(["solve", "--n", "2", "--trials", "1", "--out", str(afile.joinpath(*under))]) == 2
    assert "out must be" in capsys.readouterr().err
    assert afile.read_bytes() == b"kept"


@pytest.mark.parametrize("under", [(), ("sub",)], ids=["link", "under-link"])
def test_out_through_a_dangling_symlink_exits_two_and_keeps_the_link(under, tmp_path, capsys):
    link = tmp_path / "blink"
    link.symlink_to(tmp_path / "missing-target")
    assert main(["solve", "--n", "2", "--trials", "1", "--out", str(link.joinpath(*under))]) == 2
    assert "out must be" in capsys.readouterr().err
    assert link.is_symlink() and link.readlink() == tmp_path / "missing-target"
    assert not (tmp_path / "missing-target").exists()


def test_solve_manifest_counts_trial_statuses(tmp_path):
    assert main(["solve", "--n", "2", "--trials", "2", "--max-iterations", "1",
                 "--out", str(tmp_path)]) == 0
    assert "statuses = max_iterations:2" in (tmp_path / "manifest.txt").read_text().splitlines()


def test_aborted_trials_stay_out_of_study_means(tmp_path, monkeypatch):
    op = PoissonOperator((1,), BoundaryCondition.DIRICHLET, (), -1.0)  # always singular
    singular = PoissonProblem(op, AnsatzCircuit(1, 0), prepare_source_state(1),
                              Bands(np.ones(2), np.zeros(1), 0.0))  # the 2 x 2 identity
    config = OptimizationConfig(max_iterations=3)
    aborted = minimize(singular, config, trial_seed=0)
    problem = make_problem(2, BoundaryCondition.DIRICHLET)
    ordinary = [minimize(problem, config, trial_seed=seed) for seed in (1, 2)]
    result = TrialsResult([ordinary[0], aborted, ordinary[1]])
    assert aborted.status.startswith("aborted:")
    assert cli._statuses(result) == "aborted:1,max_iterations:2"
    # the trial table keeps the aborted trial; the aggregation leaves it out
    monkeypatch.setattr(cli, "run_trials", lambda problem, config: result)
    study = resolve_config(build_parser().parse_args(["solve", "--n", "2", "--trials", "3"]))
    rows, runs = cli._trial_table(study, tmp_path, GradNorm(1e-6))
    assert runs[2][1] is result
    assert [row[:3] for row in rows] == [[2, k, t.status] for k, t in enumerate(result.traces)]
    written = [line.split(",") for line in (tmp_path / "trials.csv").read_text().splitlines()]
    assert [cells[2] for cells in written[1:]] == [t.status for t in result.traces]
    # every other cell reads back as a float: the aborted trial's energy, r_opt,
    # trace_distance and |g| all spell "no value" as nan
    numbers = np.array([[float(c) for c in cells[:2] + cells[3:]] for cells in written[1:]])
    assert np.all(np.isnan(numbers[1, 4:])) and np.all(np.isfinite(numbers[[0, 2]]))
    energies = [t.final_report.energy for t in ordinary]
    assert cli._aggregate(rows, 2, "energy") == [np.mean(energies), np.std(energies)]
    distances = [t.trace_distance for t in ordinary]
    assert cli._aggregate(rows, 2, "trace_distance") == [np.mean(distances), np.std(distances)]
    assert np.all(np.isnan(cli._aggregate(rows, 3, "energy")))  # no trials at n = 3


def test_aborted_trial_stays_out_of_solution_field_fig(tmp_path, monkeypatch):
    study = resolve_config(build_parser().parse_args(["solution-field", "--n", "2"]))
    problem = make_problem(2, study.bc, study.layers, study.epsilon)
    op = PoissonOperator((2,), study.bc, (), -1.0)  # always singular, on the same circuit
    singular = PoissonProblem(op, problem.circuit, prepare_source_state(2),
                              Bands(np.ones(4), np.zeros(3), 0.0))  # the 4 x 4 identity
    config = OptimizationConfig(max_iterations=3)
    aborted = minimize(singular, config, trial_seed=0)
    ordinary = [minimize(problem, config, trial_seed=seed) for seed in (1, 2)]
    assert aborted.status.startswith("aborted:")
    result = TrialsResult([ordinary[0], aborted, ordinary[1]])
    monkeypatch.setattr(cli, "run_trials", lambda problem, config: result)
    assert main(["solution-field", "--n", "2", "--trials", "3", "--out", str(tmp_path)]) == 0
    # results.csv keeps every trial's column; the fig averages those that did not abort
    header, *lines = (tmp_path / "results.csv").read_text().splitlines()
    assert header == "node,classical,trial_0,trial_1,trial_2"
    field = np.array([[float(c) for c in line.split(",")] for line in lines])
    assert np.all(np.isnan(field[:, 3])) and np.all(np.isfinite(field[:, [2, 4]]))
    fig = np.loadtxt(tmp_path / "fig_solution_field.dat")
    solutions = np.array([t.final_report.r_opt * ansatz_amplitudes(problem.circuit, t.final_theta)
                          for t in ordinary])
    scale = dict(rel=1e-11, abs=1e-11 * np.abs(solutions).max())
    assert fig[:, 2] == pytest.approx(solutions.mean(axis=0), **scale)
    assert fig[:, 3] == pytest.approx(solutions.std(axis=0), **scale)


def test_shot_range_rejected_for_single_shot_experiments(tmp_path):
    assert main(["solve", "--shots", "64:128", "--out", str(tmp_path)]) == 2
