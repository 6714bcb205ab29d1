"""Affine-subspace engine for the protocol's quantum phase over Z_d.

Before the Fourier layer, every state the summation phase holds is a
uniform, equal-phase superposition over an affine subspace offset + V of
Z_d^t: the GHZ state is V = span(1, ..., 1), and a computational-basis
measurement of one qudit keeps that form. The QFT and X^shadow on every
qudit then make each computational-basis outcome uniform over
V^perp + shadows; the offset only sets phases, which that measurement does
not see. This is the CSS case of the Z_d stabilizer formalism (Gottesman
1999, quant-ph/9802007), so a state holds O(t^2) integers where the dense
``qudit`` engine holds d^t amplitudes. The dense engine is the oracle this
one is tested against.
"""
from __future__ import annotations

import operator

import numpy as np

from .zmod import DimensionGuardError, check_modulus, row_reduce

# Most outcomes a tap may return: one weight each, beside the one state they
# all share.
BRANCH_GUARD = 2**12
# Most outcome digits (shots x t) a run may hold, 16 to 64 MiB in ``digit_dtype(d)``,
# and most entries (t x t) of a state's basis, its dual or the Lagrange weights.
OUTCOME_GUARD = 2**24


def digit_dtype(d: int) -> np.dtype:
    """A run's per-shot digits' dtype: the narrowest that holds 2d - 2."""
    return np.min_scalar_type(2 * d - 2)


class AffineState:
    """Uniform superposition over {offset + r @ basis mod d : r in Z_d^k}.

    ``offset`` has shape (t,) and ``basis`` shape (k, t) with independent
    rows, all entries int64 in [0, d). ``columns``, if known, is (unit, rest,
    rest basis): row j of the basis is 1 at column ``unit[j]`` and 0 at the
    others in ``unit``. Immutable by convention: states share arrays.
    """

    __slots__ = ("d", "t", "offset", "basis", "columns")

    def __init__(self, d: int, offset: np.ndarray, basis: np.ndarray, columns=None):
        self.d = d
        self.t = len(offset)
        self.offset = offset
        self.basis = basis
        self.columns = columns


def check_branches(count: int) -> None:
    """Reject a tap with more outcomes (branches) than the guard allows."""
    if count > BRANCH_GUARD:
        raise DimensionGuardError(f"{count} tap branches exceed guard {BRANCH_GUARD}")


def check_qudits(t: int) -> None:
    """Reject a qudit count whose t x t arrays exceed the guard."""
    if t * t > OUTCOME_GUARD:
        raise DimensionGuardError(
            f"state entries t x t = {t} x {t} = {t * t} exceed guard {OUTCOME_GUARD}")


def prepare_ghz(t: int, d: int) -> AffineState:
    """(1/sqrt(d)) sum_c |c>|c>...|c>: offset 0, basis the all-ones row."""
    if t < 1:
        raise ValueError("qudit count must be >= 1")
    check_modulus(d)
    check_qudits(t)
    return AffineState(d, np.zeros(t, dtype=np.int64), np.ones((1, t), dtype=np.int64))


def _column(state: AffineState, position: int) -> int:
    if not 1 <= position <= state.t:
        raise ValueError(f"position {position} out of range 1..{state.t}")
    return position - 1


def collapse(state: AffineState, position: int) -> tuple:
    """Projective measurement of one qudit: (weights, kept, pivot), weight c
    the probability of digit c in Z_d.

    If the support varies the qudit, each digit c has weight 1/d and leaves
    ``kept`` (digit 0's state) with offset ``kept.offset + c * pivot`` mod d:
    every digit shares one basis, the subspace of V that fixes the qudit. Else
    the weights are one-hot at the qudit's one digit, ``kept`` is ``state``
    and ``pivot`` None."""
    d, col = state.d, _column(state, position)
    check_branches(d)
    rows = np.flatnonzero(state.basis[:, col])
    if rows.size == 0:
        return (np.arange(d) == state.offset[col]).astype(float), state, None
    # Scale one row to 1 at the qudit and clear the qudit from the others.
    pivot = state.basis[rows[0]] * pow(int(state.basis[rows[0], col]), -1, d) % d
    rest = np.delete(state.basis, rows[0], axis=0)
    rest = (rest - rest[:, col:col + 1] * pivot) % d
    kept = (state.offset - state.offset[col] * pivot) % d  # digit 0 at the qudit
    return np.full(d, 1.0 / d), AffineState(d, kept, rest), pivot


def _dual(basis: np.ndarray, d: int) -> tuple[np.ndarray, list[int], list[int]]:
    """Independent rows spanning V^perp = {w : v . w = 0 mod d for all v in V},
    V the row span of ``basis`` (shape (k, t)), with their free columns, on
    which they are the identity, and their pivot columns."""
    reduced, pivots = row_reduce(basis, d)
    free = [c for c in range(basis.shape[1]) if c not in pivots]
    null = np.zeros((len(free), basis.shape[1]), dtype=np.int64)
    null[np.arange(len(free)), free] = 1
    null[:, pivots] = -reduced[:, free].T % d
    return null, free, pivots


def fourier_shift(state: AffineState, shadows) -> AffineState:
    """QFT then X^{shadow_u} on every qudit u, up to phases: every
    computational-basis outcome is uniform over V^perp + shadows."""
    if len(shadows) != state.t:
        raise ValueError(f"expected {state.t} shadows, got {len(shadows)}")
    offset = np.array(shadows, dtype=np.int64) % state.d
    basis, free, pivots = _dual(state.basis, state.d)
    return AffineState(state.d, offset, basis, (free, pivots, basis[:, pivots]))


def is_summation_coset(state: AffineState, total: int) -> bool:
    """Whether the support of ``state``, built by ``fourier_shift``, is exactly
    {x : sum(x) = total mod d}: rank t - 1 (the identity on the free columns in
    ``columns``), every row summing to 0 mod d and the offset to ``total``."""
    free = state.columns[0]
    return (len(free) == state.t - 1
            and np.array_equal(state.basis[:, free], np.eye(len(free)))
            and not (state.basis.sum(axis=1) % state.d).any()
            and int(state.offset.sum()) % state.d == total % state.d)


def sample(state: AffineState, shots: int, rng: np.random.Generator) -> np.ndarray:
    """``shots`` computational-basis outcomes, shape (shots, t), in one draw:
    offset + r @ basis mod d for uniform r in Z_d^k, in ``digit_dtype(d)``.

    The result is the transpose of a (t, shots) array, so each qudit's
    digits are contiguous. Drawing n1 then n2 shots takes the same values
    from ``rng`` as drawing n1 + n2 at once.
    """
    d, offset, dtype = state.d, state.offset, digit_dtype(state.d)
    # Column unit[j] copies coefficient j; only the rest need the product.
    unit, rest, basis = state.columns or ([], np.arange(state.t), state.basis)
    # Drawn in int64, so the narrow dtype leaves the stream's values as they are.
    drawn = rng.integers(0, d, size=(shots, len(state.basis)))
    out = np.empty((state.t, shots), dtype=dtype)
    copied = drawn[:, :len(unit)].T.astype(dtype, order="C")
    copied += offset[unit, None].astype(dtype)
    # Exact in ``dtype``: a coefficient plus an offset digit is some x <= 2d - 2,
    # and unsigned x - d wraps above x when x < d, so min(x, x - d) is x mod d.
    np.minimum(copied, copied - dtype.type(d), out=copied)
    out[unit] = copied
    acc = offset[rest, None]
    # Exact in int64: a residue plus a block of ``step`` products stays below 2^63.
    step = max(1, (2**63 - d) // (d - 1) ** 2)
    for start in range(0, len(basis), step):
        block = basis[start:start + step].T @ drawn.T[start:start + step]
        block += acc
        block -= block // d * d  # block mod d, in place: exact, as the block is >= 0
        acc = block
    out[rest] = acc
    return out.T


def support_mask(state: AffineState) -> np.ndarray:
    """Whether each of the d^t basis states lies in the support, by flat index
    with qudit 1 the most significant digit; for checks against the dense
    engine, so d^t must fit in memory."""
    d = state.d
    mask = np.ones(d**state.t, dtype=bool)
    # x is in offset + V iff w . x = w . offset for every w spanning V^perp.
    for row in _dual(state.basis, d)[0].tolist():
        acc = np.zeros(1, dtype=np.int64)
        for coeff in row:
            acc = ((acc[:, None] + np.arange(d) * coeff) % d).reshape(-1)
        mask &= acc == sum(map(operator.mul, row, state.offset.tolist())) % d
    return mask
