import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vqa_poisson import (AnsatzCircuit, Statevector, prepare_ansatz_state, prepare_source_state,
                         prepare_superposition_state)
from vqa_poisson import states
from vqa_poisson.states import (_apply_column, _column_factors, _hadamard_factors, _matrices,
                                _ry_factors, ansatz_adjoint, ansatz_amplitude_rows,
                                ansatz_amplitudes)

from conftest import random_real_state


def _column(rows, k_hi, k_lo_t):
    """The column kernel on flat (rows, 2^n) amplitudes."""
    return _apply_column(_matrices(rows), k_hi, k_lo_t).reshape(rows.shape)


def test_h_on_single_qubit():
    rows = _column(Statevector.zero(1).amplitudes[None], *_hadamard_factors(1, 1))
    np.testing.assert_allclose(rows, [[1 / np.sqrt(2), 1 / np.sqrt(2)]])


def test_ry_pi_rotates_to_one():
    state = prepare_ansatz_state(AnsatzCircuit(1, 0), np.array([np.pi]))
    np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-15)


def test_cz_flips_sign_of_11():
    # R_Y(pi/2) on both qubits gives the uniform state; the layer's CZ, then R_Y(0)
    theta = np.array([np.pi / 2, np.pi / 2, 0.0, 0.0])
    out = prepare_ansatz_state(AnsatzCircuit(2, 1), theta)
    np.testing.assert_allclose(out.amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_statevector_is_real_and_refuses_an_imaginary_part(rng):
    real = rng.normal(size=8)
    state = Statevector(real)
    assert state.amplitudes.dtype == np.float64
    assert state.amplitudes is real  # a float64 vector is wrapped, not copied
    zero_imaginary = Statevector(real.astype(np.complex128))
    assert zero_imaginary.amplitudes.dtype == np.float64
    assert zero_imaginary.amplitudes.flags.c_contiguous
    assert np.array_equal(zero_imaginary.amplitudes, real)
    with pytest.raises(ValueError, match="amplitudes must be real"):
        Statevector(real + 1e-300j * (np.arange(8) == 5))
    with pytest.raises(ValueError, match="amplitudes must be real"):
        Statevector(np.exp(0.3j) * prepare_source_state(3).amplitudes)
    assert Statevector([1, 0]).amplitudes.dtype == np.float64
    for made in (Statevector.zero(3), Statevector.basis(3, 5), prepare_source_state(3)):
        assert made.amplitudes.dtype == np.float64


def test_ansatz_state_wraps_the_read_only_record(rng):
    circuit = AnsatzCircuit(3, 2)
    theta = rng.uniform(0, 4 * np.pi, circuit.parameter_count)
    state = prepare_ansatz_state(circuit, theta)
    assert state.amplitudes is ansatz_amplitudes(circuit, theta)
    assert not state.amplitudes.flags.writeable


def test_statevector_rejects_bad_lengths():
    with pytest.raises(ValueError):
        Statevector(np.ones(3))
    with pytest.raises(ValueError):
        Statevector(np.ones(1))
    with pytest.raises(ValueError):
        Statevector(np.full((2, 2), 0.5))


def test_norm_preservation_over_random_sequences(rng):
    # 1000 random gates in total across 200 sequences on real rows; an H or an
    # R_Y is one kernel column with identities elsewhere, a CZ its +-1 diagonal
    for _ in range(200):
        n = int(rng.integers(1, 6))
        rows = random_real_state(rng, n).amplitudes[None]
        for _ in range(5):
            kind = rng.integers(0, 4)
            q = int(rng.integers(0, n))
            if kind == 0:
                rows = _column(rows, *_hadamard_factors(n, 1 << q))
            elif kind == 1:
                half_angles = np.where(np.arange(n) == q, rng.uniform(0, np.pi), 0.0)
                rows = _column(rows, *_ry_factors(half_angles))
            elif kind == 2 and n > 1:
                p = int(rng.integers(0, n - 1))
                rows = rows * _cz_signs(n, p, p + 1)
            elif n > 1:
                p = int(rng.integers(0, n - 1))
                rows = rows * _cz_signs(n, p, n - 1)
        assert rows.dtype == np.float64
        assert abs(np.linalg.norm(rows) - 1.0) < 1e-10


def test_ansatz_zero_angles_is_identity_on_vacuum():
    circuit = AnsatzCircuit(2, 1)
    state = prepare_ansatz_state(circuit, np.zeros(circuit.parameter_count))
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)


def test_ansatz_single_ry_column():
    circuit = AnsatzCircuit(1, 0)
    state = prepare_ansatz_state(circuit, np.array([np.pi / 2]))
    np.testing.assert_allclose(state.amplitudes, [np.cos(np.pi / 4), np.sin(np.pi / 4)])


def test_ansatz_parameter_count_and_pairs():
    circuit = AnsatzCircuit(4, 3)
    assert circuit.parameter_count == 16
    assert circuit.entangler_pairs(0) == [(0, 1), (2, 3)]
    assert circuit.entangler_pairs(1) == [(1, 2)]


@pytest.mark.parametrize("n", range(1, 11))
def test_ansatz_state_matches_single_qubit_gate_reference(n, rng):
    for layers in range(4):
        circuit = AnsatzCircuit(n, layers)
        theta = rng.uniform(0, 4 * np.pi, circuit.parameter_count)
        # one R_Y at a time by the two-term formula, independent of the column kernel
        reference = np.zeros((1, 1 << n))
        reference[0, 0] = 1.0
        for column in range(layers + 1):
            if column:
                for a, b in circuit.entangler_pairs(column - 1):
                    reference = reference * _cz_signs(n, a, b)
            for q in range(n):
                reference = _two_term_gate(reference, q, _ry_matrix(theta[column * n + q])[None])
        state = prepare_ansatz_state(circuit, theta)
        np.testing.assert_allclose(state.amplitudes, reference[0], rtol=0, atol=1e-14)


def _column_gates(circuit, theta, column):
    """The (n, 2, 2) R_Y gates of one column, from the test's own 2x2 matrices."""
    n = circuit.n_qubits
    return np.array([_ry_matrix(angle) for angle in theta[column * n:(column + 1) * n]])


def _cz_brick(circuit, column, rows):
    for a, b in circuit.entangler_pairs(column - 1):
        rows = rows * _cz_signs(circuit.n_qubits, a, b)
    return rows


def _gate_by_gate_state(circuit, theta):
    """The circuit applied to |0...0> one gate at a time, where an R_Y column is
    one gate of the column kernel."""
    reference = np.zeros((1, 1 << circuit.n_qubits))
    reference[0, 0] = 1.0
    for column in range(circuit.n_layers + 1):
        if column:
            reference = _cz_brick(circuit, column, reference)
        gates = _column_gates(circuit, theta, column)
        reference = _column(reference, *_column_factors(gates))
    return reference[0]


def _thetas_with_exact_angles(rng, circuit):
    """A uniform theta, and one with about half its entries exactly 0, pi or 2 pi."""
    theta = rng.uniform(0, 4 * np.pi, circuit.parameter_count)
    exact = rng.choice([0.0, np.pi, 2 * np.pi], circuit.parameter_count)
    return theta, np.where(rng.random(circuit.parameter_count) < 0.5, exact, theta)


@pytest.mark.parametrize("n", range(1, 11))
def test_ansatz_state_is_bit_identical_to_gate_by_gate_reference(n, rng):
    """Exact angles give exact zeros; an amplitude that is exactly zero may
    differ from the reference only in its sign, which np.array_equal ignores."""
    for layers in range(4):
        circuit = AnsatzCircuit(n, layers)
        for theta in _thetas_with_exact_angles(rng, circuit):
            assert np.array_equal(ansatz_amplitudes(circuit, theta),
                                  _gate_by_gate_state(circuit, theta))


def _reference_adjoint(circuit, theta, lam):
    """The adjoint gradient from the stacked (psi, lam) pair and (index, sign)
    tables: each column's readout 0.5 * ((sign * psi_c[index]) @ lam_c), then the
    pair un-applied with the column's transposed factors and the CZ brick."""
    n = circuit.n_qubits
    idx = np.arange(1 << n)
    masks = (1 << np.arange(n))[:, None]
    index, sign = idx ^ masks, np.where(idx & masks, 1.0, -1.0)
    rows = np.stack([_gate_by_gate_state(circuit, theta), lam])
    grad = np.empty(circuit.parameter_count)
    for column in range(circuit.n_layers, -1, -1):
        psi_c, lam_c = rows
        grad[column * n:(column + 1) * n] = 0.5 * ((sign * psi_c[index]) @ lam_c)
        if column:
            k_hi, k_lo_t = _column_factors(_column_gates(circuit, theta, column))
            rows = _cz_brick(circuit, column, _column(rows, k_hi.T, k_lo_t.T))
    return grad


@pytest.mark.parametrize("n", range(1, 11))
def test_adjoint_is_bit_identical_to_the_pair_sweep_reference(n, rng):
    """Cold, the sweep un-applies (psi / 2, -psi / 2, lam) and gathers its tables
    from the first two rows; warm, it reads the stored tables.  Both keep every
    bit of the reference's pair sweep."""
    for layers in range(4):
        circuit = AnsatzCircuit(n, layers)
        for theta in _thetas_with_exact_angles(rng, circuit):
            lam, other = rng.normal(size=(2, 1 << n))
            states._theta_factors.cache_clear()
            assert np.array_equal(ansatz_adjoint(circuit, theta, lam),
                                  _reference_adjoint(circuit, theta, lam))
            assert np.array_equal(ansatz_adjoint(circuit, theta, other),
                                  _reference_adjoint(circuit, theta, other))


@pytest.mark.parametrize("n", range(1, 11))
def test_batched_sweep_matches_per_theta_states(n, rng):
    """A stack of rows goes through ``matmul`` and one theta through
    ``ndarray.dot``: the same GEMMs, bit for bit, at every size the
    barren-plateau workload runs."""
    for layers in range(6):
        circuit = AnsatzCircuit(n, layers)
        # one row as a cost estimate sweeps theta alone, five as a batch, and the
        # 3P + 1 rows of a sampled gradient: theta and its P pi and 2P +-pi/2 shifts
        for count in (1, 5, 3 * circuit.parameter_count + 1):
            thetas = rng.uniform(0, 4 * np.pi, (count, circuit.parameter_count))
            rows = ansatz_amplitude_rows(circuit, thetas)
            assert rows.shape == (count, 1 << n)
            for theta, row in zip(thetas, rows):
                assert np.array_equal(row, ansatz_amplitudes(circuit, theta))


@pytest.mark.parametrize("n", [*range(1, 13), 14])
def test_ry_factors_are_the_gate_stacks_column_factors(n, rng):
    """The R_Y factor build gives the bytes of the Kronecker chain of the
    explicit R_Y gates, zeros' signs included, with a column axis and with
    the column x row axes of a batched sweep."""
    exact = np.array([0.0, np.pi / 2, np.pi])
    for shape in ((6, n), (4, 3, n)) if n < 14 else ((6, n),):
        half_angles = rng.uniform(0, 2 * np.pi, shape)
        half_angles = np.where(rng.random(shape) < 0.5, rng.choice(exact, shape), half_angles)
        for half in (half_angles, np.swapaxes(half_angles, 0, -2)):
            cos, sin = np.cos(half), np.sin(half)
            gates = np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)
            for built, chained in zip(_ry_factors(half), _column_factors(gates), strict=True):
                assert built.shape == chained.shape
                assert built.tobytes() == chained.tobytes()


def test_ansatz_amplitudes_are_read_only(rng):
    circuit = AnsatzCircuit(3, 2)
    psi = ansatz_amplitudes(circuit, rng.uniform(0, 4 * np.pi, circuit.parameter_count))
    with pytest.raises(ValueError):
        psi[0] = 1.0


def test_theta_records_stay_bounded(rng):
    circuit = AnsatzCircuit(10, 5)
    lam = rng.normal(size=1 << 10)
    for _ in range(100):
        theta = rng.uniform(0, 4 * np.pi, circuit.parameter_count)
        ansatz_adjoint(circuit, theta, lam)
    assert states._theta_factors.cache_info().currsize <= 1


def test_batched_sweep_rejects_wrong_shape():
    circuit = AnsatzCircuit(2, 1)
    with pytest.raises(ValueError):
        ansatz_amplitude_rows(circuit, np.zeros(4))
    with pytest.raises(ValueError):
        ansatz_amplitude_rows(circuit, np.zeros((3, 5)))


def test_ansatz_rejects_wrong_theta_length():
    circuit = AnsatzCircuit(3, 5)
    with pytest.raises(ValueError):
        prepare_ansatz_state(circuit, np.zeros(5))


@settings(max_examples=25, deadline=None)
@seed(20240817)
@given(st.integers(0, 2**32 - 1))
def test_ansatz_state_is_real_unit_vector(entropy):
    rng = np.random.default_rng(entropy)
    circuit = AnsatzCircuit(3, 5)
    state = prepare_ansatz_state(circuit, rng.uniform(0, 4 * np.pi, circuit.parameter_count))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10
    assert np.max(np.abs(state.amplitudes.imag)) < 1e-12


def test_step_source_small_registers():
    np.testing.assert_allclose(prepare_source_state(2).amplitudes,
                               [0.5, 0.5, -0.5, -0.5], atol=1e-15)
    np.testing.assert_allclose(prepare_source_state(1).amplitudes,
                               [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-15)


def test_step_source_three_qubits_is_step():
    state = prepare_source_state(3)
    expected = np.concatenate([np.full(4, 1 / np.sqrt(8)), np.full(4, -1 / np.sqrt(8))])
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_step_source_equals_the_gate_by_gate_build():
    """The closed-form source is X on the top qubit, then one H column per
    qubit through the column kernel, byte for byte."""
    for n in range(1, 17):
        amps = _matrices(Statevector.basis(n, 1 << (n - 1)).amplitudes)
        for q in range(n):
            # uncached: the n = 16 factors would crowd the measurement rotations' cache
            amps = _apply_column(amps, *_hadamard_factors.__wrapped__(n, 1 << q))
        assert prepare_source_state(n).amplitudes.tobytes() == amps.reshape(-1).tobytes()


def test_superposition_of_equal_states():
    zero = Statevector.zero(1)
    sup = prepare_superposition_state(zero, zero)
    np.testing.assert_allclose(sup.amplitudes,
                               [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])


def test_superposition_of_orthogonal_states():
    sup = prepare_superposition_state(Statevector.basis(1, 0), Statevector.basis(1, 1))
    np.testing.assert_allclose(sup.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_superposition_rejects_size_mismatch():
    with pytest.raises(ValueError):
        prepare_superposition_state(Statevector.zero(1), Statevector.zero(2))


@settings(max_examples=30, deadline=None)
@seed(20240817)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_ancilla_x_expectation_equals_real_overlap(entropy, n):
    rng = np.random.default_rng(entropy)
    a = random_real_state(rng, n)
    b = random_real_state(rng, n)
    sup = prepare_superposition_state(a, b)
    # <X on ancilla> done directly on the amplitude vector
    half = 1 << n
    x_expect = 2.0 * np.real(np.vdot(sup.amplitudes[:half], sup.amplitudes[half:]))
    assert abs(x_expect - np.real(np.vdot(a.amplitudes, b.amplitudes))) < 1e-12


def _dense_gate(n, qubit, gate):
    """The 2^n x 2^n matrix of ``gate`` on ``qubit`` (qubit 0 least significant)."""
    return np.kron(np.kron(np.eye(1 << (n - qubit - 1)), gate), np.eye(1 << qubit))


def _cz_signs(n, a, b):
    """+-1 diagonal of one controlled-Z."""
    idx = np.arange(1 << n)
    return 1.0 - 2.0 * ((idx >> a) & (idx >> b) & 1)


def _ry_matrix(angle):
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]])


def _two_term_gate(rows, qubit, gates):
    """Each amplitude as the two-term sum g[b, 0] x[bit q clear] + g[b, 1] x[bit q set],
    b its own bit q, with ``gates[r]`` the 2x2 gate of row r."""
    idx = np.arange(rows.shape[-1])
    low = idx & ~(1 << qubit)
    bit = (idx >> qubit) & 1
    return gates[:, bit, 0] * rows[:, low] + gates[:, bit, 1] * rows[:, low | 1 << qubit]


def _kernel(rows, gates):
    """The column kernel on a (rows, 2^n) array, the column given as its
    (..., n, 2, 2) gate stack."""
    return _column(rows, *_column_factors(gates))


@pytest.mark.parametrize("n", range(1, 13))
def test_gate_kernel_matches_dense_kronecker_oracle(n, rng):
    """The column kernel with one gate on a qubit and identities elsewhere, at
    every qubit, at the sweeps' row counts (1, the adjoint's three rows, the
    3P of a parameter-shift sweep), and with a different gate on every qubit; dense
    Kronecker oracle up to n = 8, the two-term formula from n = 9, where the
    high and low halves of the register split unevenly at odd n."""
    identities = np.broadcast_to(np.eye(2), (n, 2, 2))
    for count in (1, 3, 90):
        rows = rng.normal(size=(count, 1 << n))
        gate = rng.normal(size=(2, 2))
        per_row = rng.normal(size=(count, 2, 2))
        angles = rng.uniform(0, 4 * np.pi, count)
        ry = np.array([_ry_matrix(a) for a in angles])
        for q in range(n):
            on_q = np.arange(n) == q
            half_angles = np.where(on_q, angles[:, None] / 2.0, 0.0)
            # (kernel result, the 2x2 gate each row gets); the last is one R_Y
            # angle per row, as the batched sweep builds its factors
            cases = ((_kernel(rows, np.where(on_q[:, None, None], gate, identities)),
                      np.array([gate] * count)),
                     (_kernel(rows, np.where(on_q[:, None, None], per_row[:, None], identities)),
                      per_row),
                     (_column(rows, *_ry_factors(half_angles)), ry))
            for amps, oracle in cases:
                if n <= 8:
                    expected = [_dense_gate(n, q, g) @ row for g, row in zip(oracle, rows)]
                else:
                    expected = _two_term_gate(rows, q, oracle)
                np.testing.assert_allclose(amps, expected, rtol=0, atol=1e-14)
        column = rng.normal(size=(count, n, 2, 2)) / 2.0
        expected = rows
        for q in range(n):
            expected = _two_term_gate(expected, q, column[:, q])
        np.testing.assert_allclose(_kernel(rows, column), expected, rtol=0, atol=1e-14)
