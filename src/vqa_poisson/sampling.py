"""Shot-based (Monte Carlo) estimation of the measured terms and the MSE model.

Measurement protocol per term: apply the register shifts, rotate every X
factor into the computational basis with a Hadamard, draw outcome counts for
all shots at once from the squared amplitudes (one multinomial draw), and
score each outcome as coefficient * (+-1 per X bit) * (0/1 per projector
bit).  Every measured group draws from one independently derived stream:
a term in a cost estimate, or the P shifted rows of one (slot, branch) in the
gradient, whose rows are independent multinomial draws from that stream.
Group estimates are uncorrelated, and all are deterministic in the seed.
A sampled gradient simulates 3P + 1 rows (theta and its 3P shifts) in one
forward sweep and builds each measured slot's outcome distributions once,
over every row the slot measures: 1 + T builds for T terms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cost import CostReport, ancilla_x_term, cost_report
from .gradient import parameter_shift_gradient
from .operators import ObservableTerm, PoissonOperator, _factor_masks, shift_amplitudes
from .states import (AnsatzCircuit, Statevector, _HADAMARD, _apply_single_qubit, _real_if_real,
                     ansatz_amplitudes, superposition_rows)


class UnstableEstimateError(RuntimeError):
    """Sampled denominator came out non-positive; raise the shot count."""


@dataclass(frozen=True)
class ShotEstimate:
    mean: float
    sample_variance: float
    shots: int
    seed: int


@dataclass(frozen=True)
class MsePrediction:
    predicted_mse: float


def derive_seed(seed: int, *key: int) -> int:
    """Stable 64-bit child seed for (seed, key...); keys partition streams."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def draw_counts(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Outcome counts of `shots` draws from `probs`, on the stream of `seed`.

    A (rows, outcomes) `probs` gives one independent count row per
    probability row, all from the one stream.
    """
    return np.random.default_rng(np.random.SeedSequence(seed)).multinomial(shots, probs)


def _row_distributions(term: ObservableTerm, rows: np.ndarray,
                       axes: tuple[int, ...] | None) -> tuple[np.ndarray, np.ndarray]:
    """(outcome probabilities per row, per-outcome shot values) for one term
    measured on every row of a (rows, 2^n) amplitude array."""
    if rows.shape[-1] != 1 << term.n_qubits:
        raise ValueError(
            f"term acts on {term.n_qubits} qubits, rows have {rows.shape[-1]} amplitudes"
        )
    axes = (term.n_qubits,) if axes is None else axes
    rotated = shift_amplitudes(rows, axes, term.axis_shifts)
    xmask = _factor_masks(term.factors)[0]
    if xmask:
        rotated = np.array(rotated)  # the Hadamards act in place; never on `rows` itself
        for q in range(term.n_qubits):
            if xmask >> q & 1:
                _apply_single_qubit(rotated, q, _HADAMARD)
    probs = np.real(rotated.conj() * rotated)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs, _shot_values(term)


@functools.lru_cache(maxsize=256)
def _shot_values(term: ObservableTerm) -> np.ndarray:
    """Per-outcome shot value of a term, built once per term like
    :func:`~vqa_poisson.operators.gather_table`."""
    xmask, pmask = _factor_masks(term.factors)
    idx = np.arange(1 << term.n_qubits)
    # Bit 0 of `parity` ends up as the parity of the X bits of each outcome.
    parity = idx & xmask
    step = 1
    while step < term.n_qubits:
        parity ^= parity >> step
        step *= 2
    values = term.coefficient * (1.0 - 2.0 * (parity & 1)) * ((idx & pmask) == 0)
    values.setflags(write=False)
    return values


def _measurement_distribution(term: ObservableTerm, state: Statevector,
                              axes: tuple[int, ...] | None) -> tuple[np.ndarray, np.ndarray]:
    """(outcome probabilities, per-outcome shot values) for one term."""
    probs, values = _row_distributions(term, _real_if_real(state.amplitudes)[None], axes)
    return probs[0], values


def term_shot_moments(term: ObservableTerm, state: Statevector,
                      axes: tuple[int, ...] | None = None) -> tuple[float, float]:
    """Exact single-shot mean and variance of the term's measurement."""
    probs, values = _measurement_distribution(term, state, axes)
    mean = float(probs @ values)
    second = float(probs @ (values * values))
    return mean, second - mean * mean


def _shot_estimate(probs: np.ndarray, values: np.ndarray, shots: int,
                   seed: int) -> ShotEstimate:
    """Estimate from the counts of `shots` draws of one outcome distribution
    (a row of :func:`_row_distributions`) on the stream of `seed`."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    counts = draw_counts(probs, shots, seed)
    mean = float(counts @ values / shots)
    variance = float(counts @ (values - mean) ** 2 / (shots - 1)) if shots > 1 else 0.0
    return ShotEstimate(mean=mean, sample_variance=variance, shots=shots, seed=seed)


def _row_means(probs: np.ndarray, values: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Shot-estimated mean of every probability row, all rows drawn on the stream of `seed`."""
    return draw_counts(probs, shots, seed) @ values / shots


def sample_term(term: ObservableTerm, state: Statevector, shots: int, seed: int,
                axes: tuple[int, ...] | None = None) -> ShotEstimate:
    """Monte Carlo estimate of one term expectation from the counts of `shots` samples."""
    return _shot_estimate(*_measurement_distribution(term, state, axes), shots, seed)


def _shots_per_term(shots_per_term: int | Sequence[int], count: int) -> list[int]:
    if isinstance(shots_per_term, (int, np.integer)):
        return [int(shots_per_term)] * count
    shots = [int(s) for s in shots_per_term]
    if len(shots) != count:
        raise ValueError(f"expected {count} shot counts, got {len(shots)}")
    return shots


def sample_cost_estimates(op: PoissonOperator, circuit: AnsatzCircuit,
                          theta: np.ndarray, f: Statevector,
                          shots_per_term: int | Sequence[int],
                          seed: int) -> tuple[CostReport, tuple[ShotEstimate, ...]]:
    """Plug-in cost estimate plus the per-term shot estimates.

    Estimate index 0 is the numerator (ancilla X on the superposition state);
    the rest follow the operator's term order.  Estimate k draws on the stream
    of ``derive_seed(seed, k)``.  The returned tuple length is the number of
    circuits executed for one cost evaluation.
    """
    psi = ansatz_amplitudes(circuit, theta)[None]
    sup = superposition_rows(_real_if_real(f.amplitudes), psi)
    shots = _shots_per_term(shots_per_term, 1 + len(op.terms))
    slots = [(ancilla_x_term(op.n_qubits), sup, None)] + [(t, psi, op.axes) for t in op.terms]
    estimates = []
    for slot, (term, rows, axes) in enumerate(slots):
        probs, values = _row_distributions(term, rows, axes)
        estimates.append(_shot_estimate(probs[0], values, shots[slot], derive_seed(seed, slot)))
    report = _plug_in_report(
        estimates[0].mean, op.constant_offset + sum(e.mean for e in estimates[1:]), shots)
    return report, tuple(estimates)


def _plug_in_report(num: float, den: float, shots: list[int]) -> CostReport:
    if den <= 0.0:
        raise UnstableEstimateError(
            f"sampled denominator {den} is not positive at {shots} shots"
        )
    return cost_report(num, den)


def sample_cost(op: PoissonOperator, circuit: AnsatzCircuit, theta: np.ndarray,
                f: Statevector, shots_per_term: int | Sequence[int],
                seed: int) -> CostReport:
    """Shot-based cost estimate (see :func:`sample_cost_estimates`)."""
    report, _ = sample_cost_estimates(op, circuit, theta, f, shots_per_term, seed)
    return report


def predict_mse(r_opt: float, variances: Sequence[float],
                shots: int | Sequence[int]) -> MsePrediction:
    """Closed-form MSE of the plug-in cost estimator.

    ``variances[0]`` is the single-shot variance of the numerator sample, the
    rest belong to the denominator terms:
    mse = r^2 (v_1/S_1 + (1/4) r^2 sum_{i>=2} v_i/S_i).
    """
    shot_list = _shots_per_term(shots, len(variances))
    if any(s < 1 for s in shot_list):
        raise ValueError("all shot counts must be >= 1")
    r2 = r_opt * r_opt
    den_part = sum(v / s for v, s in zip(variances[1:], shot_list[1:]))
    return MsePrediction(predicted_mse=r2 * (variances[0] / shot_list[0] + 0.25 * r2 * den_part))


def sampled_gradient(op: PoissonOperator, circuit: AnsatzCircuit, theta: np.ndarray,
                     f: Statevector, shots_per_term: int | Sequence[int],
                     seed: int) -> np.ndarray:
    """Shot-based cost gradient via :func:`~vqa_poisson.gradient.parameter_shift_gradient`.

    Each slot's outcome distributions are built once, over theta and every
    shifted row the slot measures.  The base cost at theta draws the streams
    of :func:`sample_cost_estimates` at ``derive_seed(seed, 0)``, and a
    non-positive base denominator raises before any shifted circuit is drawn.
    Each measured group of P shifted circuits draws its P count rows from one
    stream keyed by the group: ``(1,)`` for the pi-shifted numerator and
    ``(branch, k)`` for term k at theta +- pi/2 (branch 2 and 3).
    """
    shots = _shots_per_term(shots_per_term, 1 + len(op.terms))
    base_seed = derive_seed(seed, 0)

    def measure(slot, term, rows, axes):
        probs, values = _row_distributions(term, rows, axes)
        base = _shot_estimate(probs[0], values, shots[slot], derive_seed(base_seed, slot))
        return base.mean, lambda index, key: _row_means(probs[index], values, shots[slot],
                                                        derive_seed(seed, *key))

    return parameter_shift_gradient(op, circuit, theta, f, measure,
                                    lambda num, den: _plug_in_report(num, den, shots))
