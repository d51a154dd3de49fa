import numpy as np
import pytest

from vqa_poisson import (BoundaryCondition, ObservableTerm, PoissonOperator, Statevector,
                         decompose)
from vqa_poisson.operators import FACTOR_I


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_real_state(rng, n_qubits: int) -> Statevector:
    amps = rng.normal(size=1 << n_qubits)
    return Statevector(amps / np.linalg.norm(amps))


def random_theta(rng, circuit) -> np.ndarray:
    return rng.uniform(0.0, 4.0 * np.pi, circuit.parameter_count)


def fdm_two_axes() -> PoissonOperator:
    """Neumann finite differences on two 2-qubit axis registers, epsilon 1e-3: the
    Kronecker sum of the 1D terms, each embedded on one axis, |0><0| factors included."""
    base = decompose(2, BoundaryCondition.NEUMANN)
    terms = [ObservableTerm(t.coefficient, t.factors + (FACTOR_I, FACTOR_I),
                            (t.axis_shifts[0], 0)) for t in base.terms]
    terms += [ObservableTerm(t.coefficient, (FACTOR_I, FACTOR_I) + t.factors,
                             (0, t.axis_shifts[0])) for t in base.terms]
    return PoissonOperator((2, 2), BoundaryCondition.NEUMANN, tuple(terms),
                           2.0 * base.constant_offset + 1e-3)
