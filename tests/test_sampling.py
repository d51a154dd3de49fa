import sys

import numpy as np
import pytest

from vqa_poisson import (AnsatzCircuit, BoundaryCondition, CustomSource, ObservableTerm,
                         PoissonOperator, Statevector, StepFunctionSource,
                         UnstableEstimateError, ancilla_x_term, build_fdm_kron, cost,
                         count_sampled_gradient_circuits, decompose, derive_seed, grad_cost,
                         numerator_hadamard, predict_mse, prepare_ansatz_state,
                         prepare_source_state, prepare_superposition_state, sample_cost,
                         sample_cost_estimates, sample_term, sampled_gradient, shifted_state,
                         term_shot_moments)
from vqa_poisson import sampling, states
from vqa_poisson.operators import FACTOR_I, FACTOR_P0, FACTOR_X

from conftest import random_theta

DIRICHLET = BoundaryCondition.DIRICHLET


def x_term(n, coeff=-1.0, shift=0):
    return ObservableTerm(coeff, tuple(FACTOR_X if q == 0 else FACTOR_I for q in range(n)),
                          (shift,))


def test_eigenstate_sampling_has_zero_variance():
    plus = Statevector(np.full(2, 1 / np.sqrt(2)))
    est = sample_term(x_term(1, coeff=-1.0), plus, shots=64, seed=7)
    assert est.mean == -1.0
    assert est.sample_variance == 0.0
    assert est.shots == 64


def test_projector_term_misses_deterministically():
    term = ObservableTerm(1.0, (FACTOR_I, FACTOR_P0), (0,))
    est = sample_term(term, Statevector.basis(2, 2), shots=32, seed=1)
    assert est.mean == 0.0


def test_sampling_concentrates_at_root_s():
    # <I (x) X> on |00> is 0; binomial concentration at S = 1e4
    est = sample_term(x_term(2, coeff=1.0), Statevector.zero(2), shots=10**4, seed=11)
    assert abs(est.mean) < 5.0 / np.sqrt(10**4)


def test_sample_term_rejects_bad_shots():
    with pytest.raises(ValueError):
        sample_term(x_term(1), Statevector.zero(1), shots=0, seed=0)


def test_determinism_and_stream_independence():
    # generic (non-stabilizer) state so shots actually fluctuate
    psi = prepare_ansatz_state(AnsatzCircuit(3, 3), np.linspace(0.2, 2.8, 12))
    a = sample_term(x_term(3), psi, shots=500, seed=42)
    b = sample_term(x_term(3), psi, shots=500, seed=42)
    assert a == b
    assert a.sample_variance > 0
    others = [sample_term(x_term(3), psi, shots=500, seed=s).mean for s in range(43, 48)]
    assert any(mean != a.mean for mean in others)


def test_derive_seed_is_stable_and_keyed():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
    assert derive_seed(42, 1) != derive_seed(43, 1)


def test_unbiasedness_of_term_means():
    psi = prepare_ansatz_state(AnsatzCircuit(2, 2), np.linspace(0.3, 3.1, 6))
    term = x_term(2, coeff=-1.0, shift=1)
    exact, variance = term_shot_moments(term, psi)
    assert variance > 0
    reps, shots = 200, 1000
    means = [sample_term(term, psi, shots, derive_seed(99, r)).mean for r in range(reps)]
    tolerance = 4.0 * np.sqrt(variance) / np.sqrt(reps * shots)
    assert abs(np.mean(means) - exact) < tolerance


def test_term_shot_moments_match_expectation():
    from vqa_poisson import expectation
    psi = prepare_ansatz_state(AnsatzCircuit(3, 2),
                               np.linspace(0.1, 2.0, 9))
    op = decompose(3, BoundaryCondition.NEUMANN, 1e-3)
    for term in op.terms:
        mean, variance = term_shot_moments(term, psi, op.axes)
        assert mean == pytest.approx(expectation(term, psi, op.axes), abs=1e-12)
        assert variance >= -1e-15


def test_ancilla_term_samples_the_numerator():
    psi = prepare_ansatz_state(AnsatzCircuit(2, 1), np.array([0.3, 0.9, 1.4, 0.2]))
    f = prepare_source_state(2)
    sup = prepare_superposition_state(f, psi)
    mean, _ = term_shot_moments(ancilla_x_term(2), sup)
    assert mean == pytest.approx(numerator_hadamard(psi, f), abs=1e-12)


def test_sample_cost_converges_to_exact(rng):
    op = decompose(2, DIRICHLET)
    circuit = AnsatzCircuit(2, 2)
    f = prepare_source_state(2)
    theta = random_theta(rng, circuit)
    exact = cost(op, circuit, theta, f)
    report, estimates = sample_cost_estimates(op, circuit, theta, f, 200_000, seed=3)
    assert len(estimates) == 1 + len(op.terms)
    assert report.energy == pytest.approx(exact.energy, abs=0.02)
    assert report.numerator == pytest.approx(exact.numerator, abs=0.02)


def test_sample_cost_is_deterministic(rng):
    op = decompose(3, DIRICHLET)
    circuit = AnsatzCircuit(3, 2)
    f = prepare_source_state(3)
    theta = random_theta(rng, circuit)
    a = sample_cost(op, circuit, theta, f, 256, seed=5)
    b = sample_cost(op, circuit, theta, f, 256, seed=5)
    assert a == b


def test_sample_cost_supports_per_term_shots(rng):
    op = decompose(2, DIRICHLET)
    circuit = AnsatzCircuit(2, 1)
    f = prepare_source_state(2)
    theta = random_theta(rng, circuit)
    shots = [64, 128, 256, 512]
    _, estimates = sample_cost_estimates(op, circuit, theta, f, shots, seed=8)
    assert [e.shots for e in estimates] == shots
    with pytest.raises(ValueError):
        sample_cost_estimates(op, circuit, theta, f, [64, 64], seed=8)


def test_unstable_denominator_raises():
    # negative offset forces every sampled denominator below zero
    op = PoissonOperator((1,), DIRICHLET, (), -1.0)
    circuit = AnsatzCircuit(1, 0)
    f = prepare_source_state(1)
    with pytest.raises(UnstableEstimateError):
        sample_cost(op, circuit, np.array([0.2]), f, 16, seed=0)


def test_predict_mse_basics():
    assert predict_mse(0.5, [0.0, 0.0], 100).predicted_mse == 0.0
    single = predict_mse(0.7, [0.3, 0.2], 100).predicted_mse
    doubled = predict_mse(0.7, [0.3, 0.2], 200).predicted_mse
    assert doubled == pytest.approx(single / 2.0, rel=1e-12)


def test_predict_mse_frozen_example():
    # r = 2/3, sigma1^2 = 0.5, one denominator term sigma^2 = 0.25, S = 100
    prediction = predict_mse(2.0 / 3.0, [0.5, 0.25], 100)
    assert prediction.predicted_mse == pytest.approx(19.0 / 8100.0, rel=1e-12)


def test_predict_mse_rejects_bad_shots():
    with pytest.raises(ValueError):
        predict_mse(0.5, [0.1, 0.1], [100, 0])


def test_empirical_mse_tracks_prediction(rng):
    n, shots, reps = 2, 1024, 100
    op = decompose(n, DIRICHLET)
    circuit = AnsatzCircuit(n, 5)
    f = prepare_source_state(n)
    theta = random_theta(rng, circuit)
    exact = cost(op, circuit, theta, f)
    psi = prepare_ansatz_state(circuit, theta)
    sup = prepare_superposition_state(f, psi)
    variances = [term_shot_moments(ancilla_x_term(n), sup)[1]]
    variances += [term_shot_moments(t, psi, op.axes)[1] for t in op.terms]
    predicted = predict_mse(exact.r_opt, variances, shots).predicted_mse
    errors = []
    for r in range(reps):
        est = sample_cost(op, circuit, theta, f, shots, derive_seed(12, r))
        errors.append((est.energy - exact.energy) ** 2)
    empirical = float(np.mean(errors))
    assert empirical < 3.0 * predicted
    assert empirical > predicted / 3.0


def test_sampled_gradient_approaches_exact(rng):
    op = decompose(2, DIRICHLET)
    circuit = AnsatzCircuit(2, 2)
    f = prepare_source_state(2)
    theta = random_theta(rng, circuit)
    exact = grad_cost(op, circuit, theta, f).grad
    sampled = sampled_gradient(op, circuit, theta, f, 100_000, seed=21)
    np.testing.assert_allclose(sampled, exact, atol=0.02)


def test_sampled_streams_are_pinned():
    # Golden values at one fixed seed.  Criteria 05/06 and the benchmark's slope
    # checks are calibrated on these streams; a change here moves all of them.
    n = 2
    op = decompose(n, BoundaryCondition.NEUMANN, 1e-3)
    circuit = AnsatzCircuit(n, 1)
    f = prepare_source_state(n)
    theta = np.random.default_rng(derive_seed(11, n)).uniform(0, 4 * np.pi,
                                                              circuit.parameter_count)
    report, estimates = sample_cost_estimates(op, circuit, theta, f,
                                              [64, 128, 256, 512, 1024], 2024)
    np.testing.assert_allclose([e.mean for e in estimates],
                               [-0.71875, 0.390625, -0.4609375, -0.234375, -0.0087890625],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose([e.sample_variance for e in estimates],
                               [0.49107142857142855, 0.8540846456692913, 0.790625,
                                0.1797945205479452, 0.24527947061339198], rtol=1e-12)
    assert report.energy == pytest.approx(-0.1530650037268001, rel=1e-12)
    np.testing.assert_allclose(
        sampled_gradient(op, circuit, theta, f, 256, 2024),
        [-0.14027662245319894, 0.004226843694758651, 0.1546887283831384,
         0.07522014170333281], rtol=1e-12)


def test_shot_values_match_per_qubit_reference():
    from vqa_poisson.sampling import _measurement_distribution
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        for _ in range(10):
            factors = tuple(rng.choice([FACTOR_I, FACTOR_X, FACTOR_P0], size=n))
            term = ObservableTerm(float(rng.normal()), factors, (0,))
            _, values = _measurement_distribution(term, Statevector.zero(n), None)
            idx = np.arange(1 << n)
            expected = np.full(1 << n, term.coefficient)
            for q, f in enumerate(factors):
                if f == FACTOR_X:
                    expected = expected * (1.0 - 2.0 * ((idx >> q) & 1))
                elif f == FACTOR_P0:
                    expected = expected * (((idx >> q) & 1) == 0)
            np.testing.assert_array_equal(values, expected)


def test_count_moments_match_per_shot_expansion():
    psi = prepare_ansatz_state(AnsatzCircuit(3, 2), np.linspace(0.4, 2.9, 9))
    term = decompose(3, BoundaryCondition.NEUMANN, 1e-3).terms[-1]
    probs, values = sampling._measurement_distribution(term, psi, None)
    for shots, seed in ((2, 1), (64, 2), (1000, 3), (16384, 4)):
        est = sample_term(term, psi, shots, seed)
        counts = sampling.draw_counts(probs, shots, seed)
        assert counts.sum() == shots
        samples = np.repeat(values, counts)
        assert est.mean == pytest.approx(samples.mean(), abs=1e-12)
        assert est.sample_variance == pytest.approx(samples.var(ddof=1), abs=1e-12)


def test_sampled_gradient_draws_its_circuit_count(monkeypatch):
    op = decompose(2, BoundaryCondition.NEUMANN, 1e-3)
    circuit = AnsatzCircuit(2, 1)
    f = prepare_source_state(2)
    draws = []  # (distributions drawn, shots) per draw_counts call
    draw = sampling.draw_counts
    monkeypatch.setattr(sampling, "draw_counts",
                        lambda probs, shots, seed: draws.append(
                            (np.atleast_2d(probs).shape[0], shots)) or draw(probs, shots, seed))
    sampled_gradient(op, circuit, np.linspace(0.1, 1.0, 4), f, [8, 16, 32, 64, 128], 3)
    rows = [r for r, _ in draws]
    assert sum(rows) == count_sampled_gradient_circuits(op, circuit.parameter_count) == 41
    # one stream per measured group: (1 + T) single draws for the base cost,
    # then (1 + 2T) draws of all P rows, each at its slot's shots
    terms = len(op.terms)
    assert len(draws) == (1 + terms) + (1 + 2 * terms) == 14
    assert draws[:5] == [(1, 8), (1, 16), (1, 32), (1, 64), (1, 128)]
    assert draws[5:] == [(4, 8)] + [(4, s) for s in (16, 32, 64, 128)] * 2


def test_identical_rows_draw_independent_counts(monkeypatch):
    # one stream per group must still give every row its own draw, not one
    # draw broadcast to all rows
    psi = prepare_ansatz_state(AnsatzCircuit(3, 2), np.linspace(0.4, 2.9, 9))
    rows = np.tile(np.real(psi.amplitudes), (6, 1))
    drawn = []
    draw = sampling.draw_counts
    monkeypatch.setattr(sampling, "draw_counts",
                        lambda *args: drawn.append(draw(*args)) or drawn[-1])
    means = sampling._row_means(*sampling._row_distributions(x_term(3), rows, None), 1024,
                                derive_seed(17, 2, 0))
    (counts,) = drawn
    assert counts.shape == (6, 8)
    assert len({tuple(row) for row in counts}) > 1
    assert len(set(means)) > 1


def test_row_counts_sum_to_shots():
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(16), size=5)
    for shots in (1, 64, 1000):
        np.testing.assert_array_equal(sampling.draw_counts(probs, shots, 9).sum(axis=1),
                                      [shots] * 5)


def test_single_distribution_stream_is_unchanged():
    probs = np.random.default_rng(4).dirichlet(np.ones(8))
    for shots, seed in ((64, 0), (1024, 2024), (16384, derive_seed(7, 1))):
        expected = np.random.default_rng(np.random.SeedSequence(seed)).multinomial(shots, probs)
        assert np.array_equal(sampling.draw_counts(probs, shots, seed), expected)


def _step_source(phase):
    step = StepFunctionSource()
    return CustomSource(lambda s: Statevector(phase * step.apply(s).amplitudes))


@pytest.mark.parametrize("phase", [1.0, np.exp(0.3j), 1j])
def test_sampled_gradient_approaches_exact_on_two_axes(phase):
    op = build_fdm_kron(2, 2, BoundaryCondition.NEUMANN, 1e-3)
    circuit = AnsatzCircuit(op.n_qubits, 2)
    f = prepare_source_state(op.n_qubits, _step_source(phase))
    # a theta whose gradient norm (0.11 for the real source) is well above the shot noise
    theta = random_theta(np.random.default_rng(0), circuit)
    exact = grad_cost(op, circuit, theta, f).grad
    sampled = sampled_gradient(op, circuit, theta, f, 100_000, seed=23)
    # Re<psi|i f> = 0 for a real psi, so the i|f> gradient vanishes
    scale = max(np.linalg.norm(exact), 1e-3)
    assert np.linalg.norm(sampled - exact) < 0.05 * scale


def _per_circuit_sampled_gradient(op, circuit, theta, f, shots_per_term, seed):
    """The sampled gradient built circuit by circuit: the base cost from
    :func:`sample_cost_estimates` at ``derive_seed(seed, 0)``, every shifted state
    prepared on its own, and one distribution build per shifted circuit."""
    base, _ = sample_cost_estimates(op, circuit, theta, f, shots_per_term, derive_seed(seed, 0))
    shots = sampling._shots_per_term(shots_per_term, 1 + len(op.terms))
    count = circuit.parameter_count

    def half_pi_states(offset):
        out = []
        for i in range(count):
            shifted = np.array(theta, dtype=float)
            shifted[i] += offset
            out.append(prepare_ansatz_state(circuit, shifted))
        return out

    def group_means(slot, term, group_states, axes, key):
        dists = [sampling._measurement_distribution(term, s, axes) for s in group_states]
        counts = sampling.draw_counts(np.array([p for p, _ in dists]), shots[slot],
                                      derive_seed(seed, *key))
        return counts @ dists[0][1] / shots[slot]

    sups = [prepare_superposition_state(f, shifted_state(circuit, theta, i))
            for i in range(count)]
    g_num = group_means(0, ancilla_x_term(op.n_qubits), sups, None, (1,))
    branch_sums = []
    for branch, offset in ((2, np.pi / 2.0), (3, -np.pi / 2.0)):
        total = np.zeros(count)
        for k, term in enumerate(op.terms):
            total += group_means(k + 1, term, half_pi_states(offset), op.axes, (branch, k))
        branch_sums.append(total)
    d_den = 0.5 * (branch_sums[0] - branch_sums[1])
    num, den = base.numerator, base.denominator
    return -0.5 * num * g_num / den + 0.5 * num * num * d_den / (den * den)


@pytest.mark.parametrize("phase", [1.0, 1j, np.exp(0.3j)], ids=["real", "i", "phase"])
@pytest.mark.parametrize("operator", [
    decompose(3, DIRICHLET),
    decompose(3, BoundaryCondition.NEUMANN, 1e-3),
    decompose(3, BoundaryCondition.PERIODIC, 1e-3),
    build_fdm_kron(2, 2, BoundaryCondition.NEUMANN, 1e-3),
], ids=["dirichlet", "neumann", "periodic", "fdm2x2"])
def test_sampled_gradient_equals_per_circuit_construction(operator, phase):
    circuit = AnsatzCircuit(operator.n_qubits, 1)
    f = prepare_source_state(operator.n_qubits, _step_source(phase))
    slot_shots = [16 * (k + 1) for k in range(1 + len(operator.terms))]
    for shots in (1, 64, 16384, slot_shots):
        for seed in (0, 9):
            theta = random_theta(np.random.default_rng(seed), circuit)
            try:
                expected = _per_circuit_sampled_gradient(operator, circuit, theta, f, shots, seed)
            except UnstableEstimateError:
                with pytest.raises(UnstableEstimateError):
                    sampled_gradient(operator, circuit, theta, f, shots, seed)
                continue
            assert np.array_equal(sampled_gradient(operator, circuit, theta, f, shots, seed),
                                  expected)


def test_sampled_gradient_sweeps_once_and_builds_each_slot_once(monkeypatch):
    op = decompose(3, DIRICHLET)
    circuit = AnsatzCircuit(3, 5)
    f = prepare_source_state(3)
    sweeps, builds, prepared = [], [], []
    sweep = states._forward_sweep
    monkeypatch.setattr(states, "_forward_sweep",
                        lambda circ, half, rows: sweeps.append(rows) or sweep(circ, half, rows))
    build = sampling._row_distributions
    monkeypatch.setattr(sampling, "_row_distributions",
                        lambda term, rows, axes: builds.append(len(rows)) or build(term, rows, axes))
    prepare = states.prepare_ansatz_state
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("vqa_poisson"):
            if getattr(module, "prepare_ansatz_state", None) is prepare:
                monkeypatch.setattr(module, "prepare_ansatz_state",
                                    lambda *args: prepared.append(args) or prepare(*args))
    theta = random_theta(np.random.default_rng(1), circuit)
    sampled_gradient(op, circuit, theta, f, 1024, 5)
    count = circuit.parameter_count
    # one forward sweep of theta and its 3P shifts
    assert sweeps == [3 * count + 1] == [55]
    # one distribution build per measured slot: the numerator on theta and the pi
    # shifts, each term on theta and the +-pi/2 shifts
    assert builds == [count + 1] + [2 * count + 1] * len(op.terms)
    assert len(builds) == 1 + len(op.terms) == 4
    assert prepared == []


def test_unstable_gradient_base_raises_before_any_group_draw(monkeypatch):
    base = decompose(2, BoundaryCondition.NEUMANN, 1e-3)
    # a large negative offset forces every sampled denominator below zero
    op = PoissonOperator(base.axes, base.bc, base.terms, -100.0)
    circuit = AnsatzCircuit(2, 1)
    draws = []
    draw = sampling.draw_counts
    monkeypatch.setattr(sampling, "draw_counts",
                        lambda probs, shots, seed: draws.append(np.ndim(probs))
                        or draw(probs, shots, seed))
    with pytest.raises(UnstableEstimateError):
        sampled_gradient(op, circuit, np.linspace(0.1, 1.0, 4), prepare_source_state(2), 64, 3)
    # the 1 + T single-row base draws, and no draw of a shifted group
    assert draws == [1] * (1 + len(op.terms))
