"""Held-out audit of the seeded stochastic criteria 05 and 06 (opt-in).

Criteria 05 and 06 each check a log-log slope at one pinned base seed, and at
other seeds their bands miss often on noise alone, so a pass at the pinned
seed says little about a change to the sampled streams or estimators.  This
audit runs both protocols unchanged at base seeds 10000-10199, which no other
test uses, prints how many seeds fail each, and fails if either count exceeds
its reference by more than three binomial standard errors of the difference.

Deselected by default; run it with ``pytest -m heldout -s tests/test_heldout.py``
(about 10 s on a 2-core machine with one BLAS thread).
"""

import numpy as np
import pytest

from vqa_poisson import (AnsatzCircuit, BoundaryCondition, UnstableEstimateError, cost,
                         decompose, derive_seed, grad_cost, prepare_source_state, sample_cost,
                         sampled_gradient)

pytestmark = pytest.mark.heldout

DIRICHLET = BoundaryCondition.DIRICHLET
SEEDS = range(10000, 10200)
SHOT_GRID = [2**k for k in range(6, 15)]
# Seeds out of 200 that fail each criterion with one keyed random stream per
# measured group, the layout the package drew from before each sampled
# estimate took one generator.
REFERENCE_FAILURES = {"05": 67, "06": 49}


def _slope(values) -> float:
    return float(np.polyfit(np.log10(SHOT_GRID), np.log10(values), 1)[0])


def _point(n: int, seed: int):
    op, circuit, f = decompose(n, DIRICHLET), AnsatzCircuit(n, 5), prepare_source_state(n)
    rng = np.random.default_rng(derive_seed(seed, n))
    return op, circuit, f, rng.uniform(0, 4 * np.pi, circuit.parameter_count)


def _criterion_05_passes(seed: int) -> bool:
    """Criterion 05 at base seed `seed`: the cost MSE slope at n = 2, 3, 4."""
    for n in (2, 3, 4):
        op, circuit, f, theta = _point(n, seed)
        exact = cost(op, circuit, theta, f).energy
        mse = [np.mean([(sample_cost(op, circuit, theta, f, shots,
                                     derive_seed(seed, n, shots, r)).energy - exact) ** 2
                        for r in range(10)]) for shots in SHOT_GRID]
        if not -1.3 <= _slope(mse) <= -0.8:
            return False
    return True


def _criterion_06_passes(seed: int) -> bool:
    """Criterion 06 at base seed `seed`: the gradient dissimilarity slope at n = 3."""
    n = 3
    op, circuit, f, theta = _point(n, seed)
    exact = grad_cost(op, circuit, theta, f).grad
    exact_norm = np.linalg.norm(exact)
    dissimilarity = []
    for shots in SHOT_GRID:
        values = []
        for r in range(10):
            sampled = sampled_gradient(op, circuit, theta, f, shots,
                                       derive_seed(seed, n, shots, r))
            denom = exact_norm * np.linalg.norm(sampled)
            values.append(1.0 - (float(exact @ sampled / denom) if denom > 0 else 0.0))
        dissimilarity.append(np.mean(values))
    return -1.3 <= _slope(dissimilarity) <= -0.7


def _passes(protocol, seed: int) -> bool:
    """An estimate that raises fails the protocol, as it would fail the criterion."""
    try:
        return protocol(seed)
    except UnstableEstimateError:
        return False


@pytest.mark.parametrize("criterion, protocol", [("05", _criterion_05_passes),
                                                 ("06", _criterion_06_passes)])
def test_heldout_failure_count_stays_near_its_reference(criterion, protocol):
    failures = sum(not _passes(protocol, seed) for seed in SEEDS)
    reference = REFERENCE_FAILURES[criterion]
    trials = len(SEEDS)
    pooled = (failures + reference) / (2 * trials)
    bound = 3.0 * np.sqrt(2 * trials * pooled * (1.0 - pooled))
    print(f"criterion {criterion}: {failures}/{trials} held-out seeds fail "
          f"(reference {reference}, bound +{bound:.1f})")
    assert failures - reference <= bound
