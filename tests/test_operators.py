import itertools

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vqa_poisson import (BoundaryCondition, Mesh2D, ObservableTerm, Statevector,
                         assemble_fem_2d_dense, build_fem_2d, build_matrix,
                         decompose, reassemble_dense, shift_amplitudes)
from vqa_poisson.operators import DENSE_QUBIT_CAP, FACTOR_I, FACTOR_X, term_dense

from conftest import random_real_state

ALL_BCS = list(BoundaryCondition)


def test_dirichlet_two_nodes():
    np.testing.assert_array_equal(build_matrix(1, BoundaryCondition.DIRICHLET),
                                  [[2.0, -1.0], [-1.0, 2.0]])


def test_neumann_two_nodes():
    np.testing.assert_array_equal(build_matrix(1, BoundaryCondition.NEUMANN),
                                  [[1.0, -1.0], [-1.0, 1.0]])


def test_dense_matrix_is_capped_like_reassembly():
    # raised before allocating: 13 qubits would be 512 MiB, 15 qubits 8 GiB
    with pytest.raises(ValueError, match=f"capped at {DENSE_QUBIT_CAP} qubits"):
        build_matrix(DENSE_QUBIT_CAP + 1, BoundaryCondition.PERIODIC)


def test_periodic_regularized_four_nodes():
    mat = build_matrix(2, BoundaryCondition.PERIODIC, epsilon=1e-3)
    expected = np.array([
        [2.001, -1, 0, -1],
        [-1, 2.001, -1, 0],
        [0, -1, 2.001, -1],
        [-1, 0, -1, 2.001],
    ])
    np.testing.assert_allclose(mat, expected)
    # and it matches the decomposition reassembly exactly
    np.testing.assert_array_equal(
        mat, reassemble_dense(decompose(2, BoundaryCondition.PERIODIC, 1e-3)))


@pytest.mark.parametrize("bc,count", [
    (BoundaryCondition.PERIODIC, 2),
    (BoundaryCondition.DIRICHLET, 3),
    (BoundaryCondition.NEUMANN, 4),
])
def test_measured_term_counts(bc, count):
    op = decompose(3, bc)
    assert len(op.terms) == count
    assert op.constant_offset == 2.0


def test_neumann_single_qubit_folds_identity_term():
    op = decompose(1, BoundaryCondition.NEUMANN)
    assert len(op.terms) == 3
    assert op.constant_offset == 1.0
    np.testing.assert_array_equal(reassemble_dense(op),
                                  build_matrix(1, BoundaryCondition.NEUMANN))


@pytest.mark.parametrize("bc", ALL_BCS)
@pytest.mark.parametrize("n", range(1, 7))
def test_reassembly_matches_direct_matrix(bc, n):
    epsilon = 0.0 if bc is BoundaryCondition.DIRICHLET else 1e-3
    op = decompose(n, bc, epsilon)
    np.testing.assert_array_equal(reassemble_dense(op), build_matrix(n, bc, epsilon))


def test_shift_moves_basis_states():
    out = shift_amplitudes(Statevector.basis(2, 3).amplitudes, (2,), (1,))
    np.testing.assert_array_equal(out, Statevector.basis(2, 0).amplitudes)
    out = shift_amplitudes(Statevector.basis(2, 1).amplitudes, (2,), (-1,))
    np.testing.assert_array_equal(out, Statevector.basis(2, 0).amplitudes)
    # two axes (1, 2): |x=1, y=3> (index 1 + 3*2) moves to |x=0, y=0>
    out = shift_amplitudes(Statevector.basis(3, 7).amplitudes, (1, 2), (1, 1))
    np.testing.assert_array_equal(out, Statevector.basis(3, 0).amplitudes)
    for shifts in ((1,), (0, 0, 0)):  # one shift per axis, zero shifts included
        with pytest.raises(ValueError, match=r"for the axes \(1, 2\)"):
            shift_amplitudes(Statevector.basis(3, 7).amplitudes, (1, 2), shifts)


def test_shift_fixes_uniform_state():
    uniform = np.full(8, 1 / np.sqrt(8))
    for power in (-3, 1, 5):
        np.testing.assert_array_equal(shift_amplitudes(uniform, (3,), (power,)), uniform)
        np.testing.assert_array_equal(shift_amplitudes(uniform, (1, 2), (power, -power)),
                                      uniform)


@pytest.mark.parametrize("axes", [(1,), (3,), (5,), (2, 2), (1, 3), (2, 1, 2)])
def test_shift_matches_per_axis_index_arithmetic(axes):
    # amplitude at |i> moves to the index whose axis-k field is (field_k(i) + s_k) mod 2^a_k
    size = 1 << sum(axes)
    idx = np.arange(size)
    amps = np.random.default_rng(len(axes)).normal(size=size)
    for shifts in itertools.product(range(-2, 3), repeat=len(axes)):
        target = np.zeros_like(idx)
        low = 0
        for a, s in zip(axes, shifts):
            target |= ((((idx >> low) & ((1 << a) - 1)) + s) % (1 << a)) << low
            low += a
        expected = np.empty(size)
        expected[target] = amps
        np.testing.assert_array_equal(shift_amplitudes(amps, axes, shifts), expected)


@settings(max_examples=40, deadline=None)
@seed(20240817)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(-10, 10))
def test_shift_roundtrip_is_exact(entropy, n, power):
    state = random_real_state(np.random.default_rng(entropy), n)
    shifted = shift_amplitudes(state.amplitudes, (n,), (power,))
    back = shift_amplitudes(shifted, (n,), (-power,))
    np.testing.assert_array_equal(back, state.amplitudes)


def test_even_and_odd_pairings_interchange_under_shift():
    n = 3
    size = 1 << n
    x_low = tuple(FACTOR_X if q == 0 else FACTOR_I for q in range(n))
    even = np.eye(size) + term_dense(ObservableTerm(-1.0, x_low, (0,)), (n,))
    odd = np.eye(size) + term_dense(ObservableTerm(-1.0, x_low, (1,)), (n,))
    # P^{-1} A_even P == A_odd with P the +1 cyclic shift
    perm = np.zeros((size, size))
    for i in range(size):
        perm[(i + 1) % size, i] = 1.0
    np.testing.assert_array_equal(perm.T @ even @ perm, odd)
    np.testing.assert_array_equal(even + odd, build_matrix(n, BoundaryCondition.PERIODIC))


@pytest.mark.parametrize("n", range(1, 7))
def test_dirichlet_spectrum(n):
    size = 1 << n
    eigs = np.linalg.eigvalsh(build_matrix(n, BoundaryCondition.DIRICHLET))
    k = np.arange(1, size + 1)
    expected = 4.0 * np.sin(k * np.pi / (2 * (size + 1))) ** 2
    np.testing.assert_allclose(np.sort(eigs), np.sort(expected), atol=1e-9)
    assert eigs.min() > 0


@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_fem_2d_matches_brute_force_assembly(nx, ny):
    mesh = Mesh2D(nx, ny)
    op = build_fem_2d(mesh)
    np.testing.assert_array_equal(reassemble_dense(op), assemble_fem_2d_dense(mesh))


def test_fem_2d_offset_and_term_count():
    op = build_fem_2d(Mesh2D(2, 2))
    assert op.constant_offset == 4.0 * (4.0 / 6.0)
    assert len(op.terms) == 12
    assert {t.axis_shifts for t in op.terms} == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_dense_reassembly_cap():
    op = decompose(13, BoundaryCondition.DIRICHLET)
    with pytest.raises(ValueError):
        reassemble_dense(op)
