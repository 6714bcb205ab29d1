"""Dense complex state-vector engine for t qudits of prime dimension d: the
oracle the affine engine (``qsms.affine``) is checked against, and what
``qsms verify`` runs on. Runs and attacks never import it.

The amplitude vector has length d^t; the flat index is read as base-d
digits c_1 c_2 ... c_t with qudit 1 the most significant digit, matching
left-to-right ket order. Provides GHZ-type preparation, the single-qudit
Fourier transform over Z_d and its inverse, the generalized Pauli shift
|c> -> |c+m mod d>, the closed form of the post-transform state, and
computational-basis measurement, with single-qudit collapse as weighted
branches. A state is checked once, where a caller builds it; gates and
collapse derive their states from it without checking again.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .zmod import DimensionGuardError, check_modulus
from .zmod import is_prime  # noqa: F401 (not called here: perfbench/tracer.py patches it)

DIMENSION_GUARD = 2**24

# Strict where a caller builds a state; looser where a measurement reads one
# that gates have carried through accumulated drift.
CONSTRUCTION_NORM_TOL = 1e-12
MEASUREMENT_NORM_TOL = 1e-6


class UnnormalizedStateError(ValueError):
    pass


class QuditState:
    """Immutable-by-convention amplitude vector over t qudits of dimension d."""

    __slots__ = ("d", "t", "amplitudes")

    def __init__(self, d: int, t: int, amplitudes: Iterable[complex]):
        if t < 1:
            raise ValueError("qudit count must be >= 1")
        check_modulus(d)
        check_guard(d, t)
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.shape != (d**t,):
            raise ValueError(f"expected {d ** t} amplitudes, got {amps.shape}")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > CONSTRUCTION_NORM_TOL:
            raise UnnormalizedStateError(
                f"squared norm {norm_sq} deviates from 1 beyond {CONSTRUCTION_NORM_TOL}"
            )
        self.d = d
        self.t = t
        self.amplitudes = amps

    def _derived(self, amplitudes: np.ndarray) -> "QuditState":
        """A state on the same qudits from a norm-preserving map of this one."""
        state = object.__new__(QuditState)
        state.d, state.t, state.amplitudes = self.d, self.t, amplitudes.reshape(-1)
        return state

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def check_guard(d: int, t: int, branches: int = 1) -> None:
    """Reject ``branches`` states of d^t amplitudes held at once beyond the guard."""
    if branches * d**t > DIMENSION_GUARD:
        held = f"{branches} branches of " if branches > 1 else ""
        raise DimensionGuardError(
            f"{held}state dimension d^t = {d}^{t} exceeds guard {DIMENSION_GUARD}"
        )


def _split(state: QuditState, values: np.ndarray, position: int) -> np.ndarray:
    """``values``, one per basis state, with axes (qudits before ``position``,
    qudit ``position``, qudits after)."""
    if not 1 <= position <= state.t:
        raise ValueError(f"position {position} out of range 1..{state.t}")
    d, t = state.d, state.t
    return values.reshape(d ** (position - 1), d, d ** (t - position))


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
    split = _split(state, state.amplitudes, position)
    return state._derived(np.einsum("ba,iak->ibk", matrix, split))


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
    split = _split(state, state.amplitudes, position)
    return state._derived(np.roll(split, m % state.d, axis=1))


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


# perfbench/tracer.py patches this name until it is rebuilt on spans (ROADMAP item 1).
def measure_all(state: QuditState, rng: np.random.Generator) -> tuple[int, ...]:
    """Sample one computational-basis outcome: its digits, qudit 1 first."""
    probs = _normalized(state.probabilities())
    index = rng.choice(probs.size, p=probs)
    return tuple(int(c) for c in np.unravel_index(index, (state.d,) * state.t))


def marginal_distribution(state: QuditState, position: int) -> np.ndarray:
    """Reduced computational-basis distribution of one qudit."""
    probs = _normalized(state.probabilities())
    return _split(state, probs, position).sum(axis=(0, 2))


def collapse_branches(
    state: QuditState, position: int
) -> list[tuple[float, int, QuditState]]:
    """Projective measurement of one qudit as weighted outcomes.

    Returns one (probability, digit, collapsed and renormalized state) per
    digit of nonzero probability; the probabilities sum to 1. The branches
    are held at once, so together they count against the dimension guard.
    """
    marginal = marginal_distribution(state, position)
    digits = np.flatnonzero(marginal > 0).tolist()
    check_guard(state.d, state.t, len(digits))
    split = _split(state, state.amplitudes, position)
    branches = []
    for digit in digits:
        collapsed = np.zeros_like(split)
        collapsed[:, digit, :] = split[:, digit, :] / np.sqrt(marginal[digit])
        branches.append((float(marginal[digit]), digit, state._derived(collapsed)))
    return branches


# perfbench/tracer.py patches this name until it is rebuilt on spans (ROADMAP item 1).
def measure_position(
    state: QuditState, position: int, rng: np.random.Generator
) -> tuple[int, QuditState]:
    """Projectively measure one qudit; returns (digit, collapsed state)."""
    branches = collapse_branches(state, position)
    _, digit, collapsed = branches[rng.choice(len(branches),
                                              p=[p for p, _, _ in branches])]
    return digit, collapsed
