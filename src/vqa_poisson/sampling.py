"""Shot-based (Monte Carlo) estimation of the measured terms and the MSE model.

Measurement protocol per term: apply the register shifts, rotate every X
factor into the computational basis with a Hadamard, draw outcome counts for
all shots at once from the squared amplitudes (one multinomial draw), and
score each outcome as coefficient * (+-1 per X bit) * (0/1 per projector
bit).  An estimate is the mean of its scored shots and carries that mean only:
the MSE model reads the exact single-shot variances of :func:`term_shot_moments`.
Each estimate draws every circuit it measures from one
``np.random.default_rng(seed)`` in a fixed order (:func:`draw_counts`): a cost
estimate its 1 + T slots, a sampled gradient the same base draws and then its
shifted groups.  Every row is an independent multinomial draw, and every
estimate is deterministic in its seed.
One builder, :func:`_slots`, lays out the 1 + T measured slots of both
estimators from one forward sweep, and each slot's outcome distributions are
built once, over every row the slot measures (1 + T builds for T terms); a
gradient hands the measured arrays to
:func:`~vqa_poisson.gradient.parameter_shift_gradient`.  Distributions depend
on the operator, the circuit, theta and f, not on the shots or the seed, so one
4-entry cache keyed on those four (theta and f by their bytes) and on whether
the shifts are swept keeps them read-only: repeated estimates at one theta, as
in a shot-count study, sweep and build once and then only draw.  A gradient
entry holds 8 [(P + 1) 2^(n+1) + T (2P + 1) 2^n] bytes: 25 KB at n = 4 and
about 4 MB at n = 10 (L = 5, Dirichlet).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cost import CostReport, ancilla_x_term, cost_report
from .gradient import parameter_shift_gradient
from .operators import ObservableTerm, PoissonOperator, _factor_masks, shift_amplitudes
from .states import (AnsatzCircuit, Statevector, _apply_column, _checked_theta,
                     _hadamard_factors, _matrices, ansatz_amplitude_rows, superposition_rows)


class UnstableEstimateError(RuntimeError):
    """Sampled denominator came out non-positive; raise the shot count."""


@dataclass(frozen=True)
class ShotEstimate:
    mean: float


@dataclass(frozen=True)
class MsePrediction:
    predicted_mse: float


def derive_seed(seed: int, *key: int) -> int:
    """Stable 64-bit child seed for (seed, key...); keys partition streams:
    ``SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)``."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


def draw_counts(probs: np.ndarray, shots: int, rng) -> np.ndarray:
    """Outcome counts of `shots` draws from each row of `probs`, in row order, on `rng`:
    a generator where it stands, or a seed's ``np.random.default_rng(seed)`` from its start."""
    return np.random.default_rng(rng).multinomial(shots, probs)


def _row_distributions(term: ObservableTerm, rows: np.ndarray,
                       axes: tuple[int, ...] | None) -> tuple[np.ndarray, np.ndarray]:
    """(outcome probabilities per row, per-outcome shot values) for one term
    measured on every row of a (rows, 2^n) amplitude array."""
    if rows.shape[-1] != 1 << term.n_qubits:
        raise ValueError(f"term acts on {term.n_qubits} qubits, "
                         f"rows have {rows.shape[-1]} amplitudes")
    axes = (term.n_qubits,) if axes is None else axes
    rotated = shift_amplitudes(rows, axes, term.axis_shifts)
    xmask = _factor_masks(term.factors)[0]
    if xmask:
        rotated = _apply_column(_matrices(rotated), *_hadamard_factors(term.n_qubits, xmask))
        rotated = rotated.reshape(rows.shape)
    probs = rotated * rotated
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


def term_shot_moments(term: ObservableTerm, state: Statevector,
                      axes: tuple[int, ...] | None = None) -> tuple[float, float]:
    """Exact single-shot mean and variance of the term's measurement."""
    probs, values = _row_distributions(term, state.amplitudes[None], axes)
    mean = float(probs[0] @ values)
    second = float(probs[0] @ (values * values))
    return mean, second - mean * mean


def _row_means(probs: np.ndarray, values: np.ndarray, shots: int, rng) -> np.ndarray:
    """Shot-estimated mean of each `probs` row (one 1-D row: a scalar), drawn on `rng`."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    return draw_counts(probs, shots, rng).dot(values) / shots


def sample_term(term: ObservableTerm, state: Statevector, shots: int, seed: int,
                axes: tuple[int, ...] | None = None) -> ShotEstimate:
    """Monte Carlo estimate of one term expectation from the counts of `shots` samples."""
    probs, values = _row_distributions(term, state.amplitudes[None], axes)
    return ShotEstimate(float(_row_means(probs[0], values, shots, seed)))


def _slots(op: PoissonOperator, circuit: AnsatzCircuit, theta: np.ndarray, f: Statevector,
           shifted: bool) -> list[tuple[ObservableTerm, np.ndarray, tuple[int, ...] | None]]:
    """The 1 + T measured slots at theta in draw order, ``(term, rows, axes)`` with row 0
    at theta, from one forward sweep.

    Slot 0 is the numerator's ancilla X on superpositions of f with ansatz rows, slot k + 1
    is ``op.terms[k]`` on ansatz rows.  A cost estimate sweeps theta alone.  A sampled
    gradient (``shifted``) sweeps 3P + 1 rows: theta, then its P pi shifts, its P +pi/2
    shifts and its P -pi/2 shifts; slot 0 measures theta and its pi shifts, each term
    slot theta and its 2P +-pi/2 shifts.  No circuit superposes a shifted and an
    unshifted ansatz state.
    """
    count = circuit.parameter_count
    thetas = theta[None]
    if shifted:
        params = range(count)
        shifts = np.tile(theta, (3, count, 1))
        shifts[:, params, params] += np.array([[np.pi], [np.pi / 2.0], [-np.pi / 2.0]])
        thetas = np.vstack([thetas, shifts.reshape(-1, count)])
    rows = ansatz_amplitude_rows(circuit, thetas)
    sup = superposition_rows(f.amplitudes, rows[:count + 1])
    term_rows = np.delete(rows, np.s_[1:count + 1], axis=0)
    return ([(ancilla_x_term(op.n_qubits), sup, None)]
            + [(term, term_rows, op.axes) for term in op.terms])


@functools.lru_cache(maxsize=4)
def _slot_distributions(shifted: bool, op: PoissonOperator, circuit: AnsatzCircuit,
                        theta_bytes: bytes,
                        f_bytes: bytes) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Read-only (probs, values) of every slot :func:`_slots` measures at one theta and f,
    built once."""
    dists = tuple(_row_distributions(*slot) for slot in _slots(
        op, circuit, np.frombuffer(theta_bytes), Statevector(np.frombuffer(f_bytes)), shifted))
    for probs, _ in dists:
        probs.setflags(write=False)
    return dists


def _distributions(shifted: bool, op: PoissonOperator, circuit: AnsatzCircuit,
                   theta: np.ndarray, f: Statevector) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """:func:`_slot_distributions` keyed on a checked theta's bytes and f's amplitude bytes."""
    theta = _checked_theta(circuit, theta)
    return _slot_distributions(shifted, op, circuit, theta.tobytes(), f.amplitudes.tobytes())


def sample_cost_estimates(op: PoissonOperator, circuit: AnsatzCircuit,
                          theta: np.ndarray, f: Statevector, shots: int,
                          seed: int) -> tuple[CostReport, tuple[ShotEstimate, ...]]:
    """Plug-in cost estimate plus the per-term shot estimates, `shots` draws each.

    Estimate index 0 is the numerator (ancilla X on the superposition state);
    the rest follow the operator's term order, which is also the order in which
    they draw from one ``np.random.default_rng(seed)``.  The returned tuple length
    is the number of circuits executed for one cost evaluation.
    """
    return _base_estimate(op, _distributions(False, op, circuit, theta, f), shots,
                          np.random.default_rng(seed))


def _base_estimate(op: PoissonOperator, dists: Sequence[tuple[np.ndarray, np.ndarray]],
                   shots: int, rng) -> tuple[CostReport, tuple[ShotEstimate, ...]]:
    """Plug-in cost from row 0 of every slot, drawn on `rng` in slot order; a
    non-positive sampled denominator raises :class:`UnstableEstimateError`."""
    means = [float(_row_means(probs[0], values, shots, rng)) for probs, values in dists]
    den = op.constant_offset + sum(means[1:])
    if den <= 0.0:
        raise UnstableEstimateError(f"sampled denominator {den} is not positive at {shots} shots")
    return cost_report(means[0], den), tuple(map(ShotEstimate, means))


def sample_cost(op: PoissonOperator, circuit: AnsatzCircuit, theta: np.ndarray,
                f: Statevector, shots: int, seed: int) -> CostReport:
    """Shot-based cost estimate (see :func:`sample_cost_estimates`)."""
    report, _ = sample_cost_estimates(op, circuit, theta, f, shots, seed)
    return report


def predict_mse(r_opt: float, variances: Sequence[float], shots: int) -> MsePrediction:
    """Closed-form MSE of the plug-in cost estimator at `shots` draws per term.

    ``variances[0]`` is the single-shot variance of the numerator sample, the
    rest belong to the denominator terms:
    mse = r^2 (v_1 + (1/4) r^2 sum_{i>=2} v_i) / S.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    r2 = r_opt * r_opt
    den_part = sum(v / shots for v in variances[1:])
    return MsePrediction(predicted_mse=r2 * (variances[0] / shots + 0.25 * r2 * den_part))


def sampled_gradient(op: PoissonOperator, circuit: AnsatzCircuit, theta: np.ndarray,
                     f: Statevector, shots: int, seed: int) -> np.ndarray:
    """Shot-based cost gradient via :func:`~vqa_poisson.gradient.parameter_shift_gradient`.

    Only the first call at a theta sweeps its 3P shifts and builds the slots'
    distributions; later calls read them from the cache and only draw, all on one
    ``np.random.default_rng(seed)``.  The base cost at theta is drawn first and equals
    :func:`sample_cost_estimates` at `seed`, so a non-positive base denominator raises
    before any shifted circuit is drawn.  Then each group of P shifted circuits draws
    its P count rows: the pi-shifted numerator, each term at theta + pi/2, then each
    term at theta - pi/2.
    """
    dists = _distributions(True, op, circuit, theta, f)
    rng = np.random.default_rng(seed)
    base, _ = _base_estimate(op, dists, shots, rng)
    count = circuit.parameter_count
    (num_probs, num_values), terms = dists[0], dists[1:]
    return parameter_shift_gradient(
        base, _row_means(num_probs[1:], num_values, shots, rng),
        [_row_means(probs[1:count + 1], values, shots, rng) for probs, values in terms],
        [_row_means(probs[count + 1:], values, shots, rng) for probs, values in terms])
