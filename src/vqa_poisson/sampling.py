"""Shot-based (Monte Carlo) estimation of the measured terms and the MSE model.

Measurement protocol per term: apply the register shifts, rotate every X
factor into the computational basis with a Hadamard, draw outcome counts for
all shots at once from the squared amplitudes (one multinomial draw), and
score each outcome as coefficient * (+-1 per X bit) * (0/1 per projector
bit).  An estimate is the mean of its scored shots and carries that mean only:
the MSE model reads the exact single-shot variances of :func:`term_shot_moments`.
Every measured group draws from one independently derived stream: a term in a
cost estimate, or the P shifted rows of one (slot, branch) in the gradient,
whose rows are independent multinomial draws from that stream.  Group
estimates are uncorrelated, and all are deterministic in the seed.
One builder, :func:`_slots`, lays out the 1 + T measured slots of both
estimators from one forward sweep: theta alone for a cost estimate, theta and
its 3P shifts for a sampled gradient.  Each slot's outcome distributions are
built once, over every row the slot measures (1 + T builds for T terms), and a
gradient hands the measured arrays to
:func:`~vqa_poisson.gradient.parameter_shift_gradient`.  Distributions
depend on the operator, the circuit, theta and f, not on the shots or the
seed, so one 4-entry cache keyed on those four (theta and f by their bytes)
and on whether the shifts are swept keeps them read-only for both estimators.
Repeated estimates at one theta, as in a shot-count study, sweep and build once
and then only draw.  A gradient entry holds 8 [(P + 1) 2^(n+1) + T (2P + 1) 2^n]
bytes: 25 KB at n = 4 and about 4 MB at n = 10 (L = 5, Dirichlet).

A stream is ``SeedSequence(entropy=seed, spawn_key=key)`` -> its 64-bit child
seed (:func:`derive_seed`) -> PCG64 seeded by ``SeedSequence(child)``, which is
``np.random.default_rng(child)`` (:func:`draw_counts`).  The package assembles
numpy's entropy words itself (the seed's little-endian uint32 words, zero-padded
to the pool size of 4 when there is a key, then each key element's words), lets
``SeedSequence`` mix them in C and hashes the pool as ``generate_state`` does:
numpy's streams bit for bit, without numpy's Python-level coercion and
``generate_state`` glue.  On a 2-core Xeon with one BLAS thread (timeit
medians) a keyed ``derive_seed`` takes about 6 us against numpy's 12 us, and a
stream's generator about 10 us against 11 us.
"""

from __future__ import annotations

import functools
import operator
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


_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence pool size and the INIT_B and MULT_B of its generate_state hash
_POOL_SIZE, _INIT_B, _MULT_B = 4, 0x8B51F9DD, 0x58F38DED


def _hash_multipliers(count: int) -> tuple[tuple[int, int], ...]:
    """(xor, multiplier) pair of each output word of SeedSequence.generate_state:
    the hash constant starts at INIT_B and is multiplied by MULT_B once per word."""
    pairs, const = [], _INIT_B
    for _ in range(count):
        nxt = const * _MULT_B & _MASK32
        pairs.append((const, nxt))
        const = nxt
    return tuple(pairs)


_HASH = _hash_multipliers(2 * _POOL_SIZE)


def _int_words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative integer, as numpy coerces entropy."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _state_words(seed: int, key: tuple[int, ...], count: int) -> list[int]:
    """The first `count` uint32 words of
    ``SeedSequence(entropy=seed, spawn_key=key).generate_state(count)``.

    Assembles the entropy words as numpy does (the seed's words, zero-padded to
    the pool size when there is a key, then each key element's words), lets
    ``SeedSequence`` mix them into its pool in C and hashes the pool here.
    """
    words = _int_words(seed)
    if key:
        words += [0] * (_POOL_SIZE - len(words))
        for element in key:
            words += _int_words(element)
    pool = np.random.SeedSequence(np.array(words, dtype=np.uint32)).pool.tolist()
    out = []
    for i in range(count):
        xor, mult = _HASH[i]
        word = (pool[i % _POOL_SIZE] ^ xor) * mult & _MASK32
        out.append(word ^ word >> 16)
    return out


def derive_seed(seed: int, *key: int) -> int:
    """Stable 64-bit child seed for (seed, key...); keys partition streams.

    Equals ``int(SeedSequence(entropy=seed, spawn_key=key).generate_state(1, np.uint64)[0])``.
    """
    low, high = _state_words(seed, key, 2)
    return low | high << 32


@functools.cache
def _fixed_state_class() -> type:
    """An ISeedSequence that hands PCG64 precomputed state words.  Built on first
    use, so that importing the package does not load ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.state) or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds {len(self.state)} uint64 words only")
            return self.state

    return FixedState


def _generator(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)``: PCG64 seeded by ``SeedSequence(seed)``."""
    words = np.array(_state_words(seed, (), 2 * _POOL_SIZE), dtype="<u4")
    state = words.view("<u8").astype(np.uint64, copy=False)  # as numpy pairs the words
    return np.random.Generator(np.random.PCG64(_fixed_state_class()(state)))


def draw_counts(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Outcome counts of `shots` draws from `probs`, on the stream of `seed`.

    A (rows, outcomes) `probs` gives one independent count row per
    probability row, all from the one stream.
    """
    return _generator(seed).multinomial(shots, probs)


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


def _row_means(probs: np.ndarray, values: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Shot-estimated mean of each `probs` row (one 1-D row: a scalar), on the stream of `seed`."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    return draw_counts(probs, shots, seed).dot(values) / shots


def sample_term(term: ObservableTerm, state: Statevector, shots: int, seed: int,
                axes: tuple[int, ...] | None = None) -> ShotEstimate:
    """Monte Carlo estimate of one term expectation from the counts of `shots` samples."""
    probs, values = _row_distributions(term, state.amplitudes[None], axes)
    return ShotEstimate(float(_row_means(probs[0], values, shots, seed)))


def _slots(op: PoissonOperator, circuit: AnsatzCircuit, theta: np.ndarray, f: Statevector,
           shifted: bool) -> list[tuple[ObservableTerm, np.ndarray, tuple[int, ...] | None]]:
    """The 1 + T measured slots at theta, ``(term, rows, axes)`` with row 0 at theta, from
    one forward sweep.

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
    the rest follow the operator's term order.  Estimate k draws on the stream
    of ``derive_seed(seed, k)``.  The returned tuple length is the number of
    circuits executed for one cost evaluation.
    """
    return _base_estimate(op, _distributions(False, op, circuit, theta, f), shots, seed)


def _base_estimate(op: PoissonOperator, dists: Sequence[tuple[np.ndarray, np.ndarray]],
                   shots: int, seed: int) -> tuple[CostReport, tuple[ShotEstimate, ...]]:
    """Plug-in cost from row 0 of every slot, slot k drawn on ``derive_seed(seed, k)``;
    a non-positive sampled denominator raises :class:`UnstableEstimateError`."""
    means = [float(_row_means(probs[0], values, shots, derive_seed(seed, slot)))
             for slot, (probs, values) in enumerate(dists)]
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
    distributions; later calls read them from the cache and only draw.  The
    base cost at theta is :func:`sample_cost_estimates`' estimate at
    ``derive_seed(seed, 0)``, drawn before any shifted circuit, so a
    non-positive base denominator raises before any group is drawn.
    Each measured group of P shifted circuits draws its P count rows of `shots`
    draws from one stream keyed by the group: ``(1,)`` for the pi-shifted
    numerator, then ``(2, k)`` for term k at theta + pi/2 and ``(3, k)`` at
    theta - pi/2.
    """
    dists = _distributions(True, op, circuit, theta, f)
    base, _ = _base_estimate(op, dists, shots, derive_seed(seed, 0))
    count = circuit.parameter_count

    def shifted(slot: int, rows: slice, *key: int) -> np.ndarray:
        probs, values = dists[slot]
        return _row_means(probs[rows], values, shots, derive_seed(seed, *key))

    terms = range(len(op.terms))
    return parameter_shift_gradient(
        base, shifted(0, np.s_[1:], 1), [shifted(k + 1, np.s_[1:count + 1], 2, k) for k in terms],
        [shifted(k + 1, np.s_[count + 1:], 3, k) for k in terms])
