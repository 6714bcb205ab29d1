"""Dense complex state-vector engine for t qudits of prime dimension d.

The amplitude vector has length d^t; the flat index is read as base-d
digits c_1 c_2 ... c_t with qudit 1 the most significant digit, matching
left-to-right ket order. Provides GHZ-type preparation, the single-qudit
Fourier transform over Z_d and its inverse, the generalized Pauli shift
|c> -> |c+m mod d>, and computational-basis measurement: bulk sampling
through one sampler, and single-qudit collapse as weighted branches.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .zmod import is_prime

DIMENSION_GUARD = 2**24

# Tolerance hierarchy: strict at construction, looser for accumulated
# drift across operations, loosest at the measurement gate.
CONSTRUCTION_NORM_TOL = 1e-12
OPERATION_NORM_TOL = 1e-9
MEASUREMENT_NORM_TOL = 1e-6


class DimensionGuardError(ValueError):
    """Raised when a run would exceed an in-memory guard: d^t amplitudes,
    tap branches, or outcome entries (shots x t)."""


class UnnormalizedStateError(ValueError):
    pass


class QuditState:
    """Immutable-by-convention amplitude vector over t qudits of dimension d."""

    __slots__ = ("d", "t", "amplitudes")

    def __init__(
        self,
        d: int,
        t: int,
        amplitudes: Iterable[complex],
        *,
        norm_tol: float = CONSTRUCTION_NORM_TOL,
    ):
        if t < 1:
            raise ValueError("qudit count must be >= 1")
        if not is_prime(d):
            raise ValueError(f"qudit dimension {d} must be prime")
        check_guard(d, t)
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.shape != (d**t,):
            raise ValueError(f"expected {d ** t} amplitudes, got {amps.shape}")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > norm_tol:
            raise UnnormalizedStateError(
                f"squared norm {norm_sq} deviates from 1 beyond {norm_tol}"
            )
        self.d = d
        self.t = t
        self.amplitudes = amps

    def dim(self) -> int:
        return self.d**self.t

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class MeasurementOutcome:
    """Computational-basis digits, one per qudit, each in [0, d-1]."""

    digits: tuple[int, ...]

    def label(self) -> str:
        return "-".join(str(c) for c in self.digits)


def indices_to_digits(indices: Sequence[int], d: int, t: int) -> np.ndarray:
    """Base-d digits of each flat index, shape (len(indices), t), qudit 1 first."""
    powers = d ** np.arange(t - 1, -1, -1, dtype=np.int64)
    return np.asarray(indices, dtype=np.int64)[:, None] // powers % d


def index_to_digits(index: int, d: int, t: int) -> tuple[int, ...]:
    return tuple(indices_to_digits([index], d, t)[0].tolist())


def digits_to_index(digits: Sequence[int], d: int) -> int:
    index = 0
    for c in digits:
        index = index * d + c
    return index


def check_guard(d: int, t: int, branches: int = 1) -> None:
    """Reject ``branches`` states of d^t amplitudes held at once beyond the guard."""
    if branches * d**t > DIMENSION_GUARD:
        held = f"{branches} branches of " if branches > 1 else ""
        raise DimensionGuardError(
            f"{held}state dimension d^t = {d}^{t} exceeds guard {DIMENSION_GUARD}"
        )


def prepare_ghz(t: int, d: int) -> QuditState:
    """(1/sqrt(d)) sum_c |c>|c>...|c> — the protocol's entangled resource."""
    check_guard(d, t)
    amps = np.zeros(d**t, dtype=np.complex128)
    stride = (d**t - 1) // (d - 1) if d > 1 else 1  # index of |c c ... c> is c*stride
    amps[np.arange(d) * stride] = 1.0 / np.sqrt(d)
    return QuditState(d, t, amps)


def qft_matrix(d: int) -> np.ndarray:
    """d-dimensional Fourier matrix F[b, a] = omega^{ab}/sqrt(d), omega = e^{2 pi i/d}."""
    grid = np.outer(np.arange(d), np.arange(d))
    return np.exp(2j * np.pi * grid / d) / np.sqrt(d)


def _apply_single_qudit(state: QuditState, position: int,
                        matrix: np.ndarray) -> QuditState:
    if not 1 <= position <= state.t:
        raise ValueError(f"position {position} out of range 1..{state.t}")
    d, t = state.d, state.t
    reshaped = state.amplitudes.reshape(d ** (position - 1), d, d ** (t - position))
    out = np.einsum("ba,iak->ibk", matrix, reshaped)
    return QuditState(d, t, out.reshape(-1), norm_tol=OPERATION_NORM_TOL)


def apply_qft(state: QuditState, position: int) -> QuditState:
    """|a> -> (1/sqrt(d)) sum_b e^{+2 pi i ab/d} |b> on one tensor factor."""
    return _apply_single_qudit(state, position, qft_matrix(state.d))


def apply_iqft(state: QuditState, position: int) -> QuditState:
    """Conjugate-phase inverse of apply_qft."""
    return _apply_single_qudit(state, position, qft_matrix(state.d).conj().T)


def apply_shift(state: QuditState, position: int, m: int) -> QuditState:
    """Generalized Pauli shift |c> -> |c+m mod d>; pure basis relabeling.

    m is normalized mod d, so negative or oversized shifts are accepted.
    """
    if not 1 <= position <= state.t:
        raise ValueError(f"position {position} out of range 1..{state.t}")
    d, t = state.d, state.t
    reshaped = state.amplitudes.reshape(d ** (position - 1), d, d ** (t - position))
    out = np.roll(reshaped, m % d, axis=1)
    return QuditState(d, t, out.reshape(-1), norm_tol=OPERATION_NORM_TOL)


def post_transform_state(shadows: Sequence[int], d: int) -> QuditState:
    """Steps 4-5 on the dense engine: the GHZ state, then the QFT and
    X^{shadow_u} on every qudit u."""
    state = prepare_ghz(len(shadows), d)
    for position, shadow in enumerate(shadows, start=1):
        state = apply_shift(apply_qft(state, position), position, shadow)
    return state


def analytic_post_transform_state(t: int, d: int,
                                  shadows: Sequence[int]) -> QuditState:
    """Closed form of the state after per-qudit QFT + shift on the GHZ state.

    Uniform superposition (amplitude d^{-(t-1)/2}) over the d^{t-1} basis
    states whose digit sum is congruent to the shadow sum mod d.
    """
    if len(shadows) != t:
        raise ValueError(f"expected {t} shadows, got {len(shadows)}")
    check_guard(d, t)
    target = sum(s % d for s in shadows) % d
    idx = np.arange(d**t)
    digit_sum = np.zeros(d**t, dtype=np.int64)
    for _ in range(t):
        digit_sum += idx % d
        idx //= d
    amps = np.zeros(d**t, dtype=np.complex128)
    amps[digit_sum % d == target] = d ** (-(t - 1) / 2)
    return QuditState(d, t, amps)


def _normalized(probs: np.ndarray) -> np.ndarray:
    norm = float(probs.sum())
    if abs(norm - 1.0) > MEASUREMENT_NORM_TOL:
        raise UnnormalizedStateError("unnormalized state")
    return probs / norm


def sample_indices(
    probs: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``shots`` flat indices of a probability vector in one call.

    The one sampler behind measure_all, measure_position, sample_counts
    and the protocol's quantum phase.
    """
    return rng.choice(probs.size, size=shots, p=_normalized(probs))


def measure_all(state: QuditState, rng: np.random.Generator) -> MeasurementOutcome:
    """Sample one computational-basis outcome over all t qudits."""
    index = int(sample_indices(state.probabilities(), 1, rng)[0])
    return MeasurementOutcome(index_to_digits(index, state.d, state.t))


def marginal_distribution(state: QuditState, position: int) -> np.ndarray:
    """Reduced computational-basis distribution of one qudit."""
    if not 1 <= position <= state.t:
        raise ValueError(f"position {position} out of range 1..{state.t}")
    d, t = state.d, state.t
    probs = _normalized(state.probabilities())
    reshaped = probs.reshape(d ** (position - 1), d, d ** (t - position))
    return reshaped.sum(axis=(0, 2))


def collapse_branches(
    state: QuditState, position: int
) -> list[tuple[float, int, QuditState]]:
    """Projective measurement of one qudit as weighted outcomes.

    Returns one (probability, digit, collapsed and renormalized state) per
    digit of nonzero probability; the probabilities sum to 1. The branches
    are held at once, so together they count against the dimension guard.
    """
    d, t = state.d, state.t
    marginal = marginal_distribution(state, position)
    digits = np.flatnonzero(marginal > 0).tolist()
    check_guard(d, t, len(digits))
    reshaped = state.amplitudes.reshape(d ** (position - 1), d, d ** (t - position))
    branches = []
    for digit in digits:
        collapsed = np.zeros_like(reshaped)
        collapsed[:, digit, :] = reshaped[:, digit, :] / np.sqrt(marginal[digit])
        branches.append((float(marginal[digit]), digit,
                         QuditState(d, t, collapsed.reshape(-1),
                                    norm_tol=OPERATION_NORM_TOL)))
    return branches


def measure_position(
    state: QuditState, position: int, rng: np.random.Generator
) -> tuple[int, QuditState]:
    """Projectively measure one qudit; returns (digit, collapsed state)."""
    branches = collapse_branches(state, position)
    weights = np.array([probability for probability, _, _ in branches])
    _, digit, collapsed = branches[int(sample_indices(weights, 1, rng)[0])]
    return digit, collapsed


def sample_counts(
    state: QuditState, shots: int, seed: int | np.random.Generator
) -> dict[tuple[int, ...], int]:
    """Bulk shot sampling; returns outcome digits -> count."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    indices = sample_indices(state.probabilities(), shots, rng)
    counts = np.bincount(indices, minlength=state.dim())
    return {
        index_to_digits(i, state.d, state.t): int(c)
        for i, c in enumerate(counts)
        if c > 0
    }
