"""Exact arithmetic in a prime field Z_d.

Every residue carries its modulus, so runs over different primes can coexist
in the same process; mixing moduli is an error, never a silent coercion.
"""
from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Moduli must fit in a 64-bit machine word.
_MAX_MODULUS = 2**63 - 1
# Bulk int64 arithmetic is exact below this modulus: a product of two
# residues stays below 2^62.
INT64_MODULUS_BOUND = 2**31


class ConfigError(ValueError):
    pass


def _integer(name: str, value) -> int:
    """``value`` as an int; bools, floats and strings are rejected."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _sequence(name: str, values, item=_integer) -> tuple:
    """``values`` as a tuple of ``item(f"{name}[i]", value)``; a string is no list."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    return tuple(item(f"{name}[{i}]", v) for i, v in enumerate(values))


def check_points(points: Sequence[int], d: int) -> None:
    """Shamir's rule for integer evaluation points: distinct and nonzero mod d,
    since x = 0 holds the secret."""
    reduced = {p % d for p in points}
    if len(reduced) != len(points) or 0 in reduced:
        raise ConfigError("evaluation points must be distinct (no duplicate) and nonzero mod d")


class DimensionGuardError(ValueError):
    """Raised when a run would exceed a guard: tap branches, outcome entries,
    t x t state entries, share messages, the int64 modulus, or d^t amplitudes."""


def check_int64_modulus(d: int) -> None:
    """Reject a modulus outside [2, 2^31), the range of exact int64 arithmetic."""
    if not 2 <= d < INT64_MODULUS_BOUND:
        raise DimensionGuardError(f"modulus {d} outside [2, 2^31) for exact int64 arithmetic")


def check_modulus(d) -> int:
    """``d`` as an int, by the one rule for a run's, a sum's or a state's modulus:
    prime, checked first at any size, then in ``check_int64_modulus``'s range."""
    d = _integer("d", d)
    if not is_prime(d):
        raise ConfigError(f"d={d} is not prime")
    check_int64_modulus(d)
    return d


# Miller-Rabin with these bases is exact for every n < 3.3 * 10^24, so for
# every 64-bit n (Sorenson & Webster 2015).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 2^64; memoized,
    because every FieldElement re-checks its modulus."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    # n - 1 = m * 2^s with m odd.
    s = ((n - 1) & (1 - n)).bit_length() - 1
    m = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, m, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldElement:
    """A residue modulo a prime, normalized into [0, modulus-1]."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        modulus = _integer("modulus", self.modulus)
        if not 2 <= modulus <= _MAX_MODULUS:
            raise ConfigError(f"modulus must be in [2, 2^63): got {modulus}")
        if not is_prime(modulus):
            raise ConfigError(f"modulus {modulus} is not prime")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "value", _integer("value", self.value) % modulus)

    def _require_same_modulus(self, other: "FieldElement") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}"
            )

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._require_same_modulus(other)
        return FieldElement(self.value + other.value, self.modulus)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._require_same_modulus(other)
        return FieldElement(self.value - other.value, self.modulus)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._require_same_modulus(other)
        return FieldElement(self.value * other.value, self.modulus)

    def inv(self) -> "FieldElement":
        """Multiplicative inverse; pow(v, -1, d) runs extended Euclid."""
        if self.value == 0:
            raise ZeroDivisionError("no inverse of zero")
        return FieldElement(pow(self.value, -1, self.modulus), self.modulus)


def lagrange_coefficient(u: int, points: list[int], d: int) -> FieldElement:
    """Interpolation weight at x=0 for the u-th point of a qualified set.

    Computes the product of x_z / (x_z - x_u) over all other points z,
    entirely in Z_d. ``u`` is 1-based. Differences are normalized into
    [0, d-1] before inversion, so signed fractions like 1/(1-2) are fine.
    """
    u, points, d = _integer("u", u), _sequence("points", points), _integer("d", d)
    coeff = FieldElement(1, d)  # checks d
    if len(points) < 1:
        raise ConfigError("need at least one evaluation point")
    check_points(points, d)
    if not 1 <= u <= len(points):
        raise ConfigError(f"index {u} out of range for {len(points)} points")
    x_u = FieldElement(points[u - 1], d)
    for z, p in enumerate(points, start=1):
        if z == u:
            continue
        x_z = FieldElement(p, d)
        coeff = coeff * x_z * (x_z - x_u).inv()
    return coeff


def residues(values, d: int) -> np.ndarray:
    """``values`` (any nesting of integer sequences) mod d as an int64 array, each
    Python int reduced exactly first; d must pass ``check_int64_modulus``."""
    check_int64_modulus(d)
    return (np.array(values, dtype=object) % d).astype(np.int64)


def lagrange_weights(points, d: int) -> np.ndarray:
    """Every point's interpolation weight at x=0 within ``points``, in int64 as
    ``residues`` gives them: entry u is ``lagrange_coefficient(u + 1, points,
    d)``. The points must be distinct and nonzero mod d (else ``ValueError``).

    Weight u is the product of all points over x_u times the product of
    (x_z - x_u) for z != u: one ``pow`` inverts each such denominator.
    """
    x = residues(points, d)
    factors = (x[None, :] - x[:, None]) % d  # row u, column z: x_z - x_u
    np.fill_diagonal(factors, x)
    denominators = np.ones(len(x), dtype=x.dtype)
    for column in factors.T:
        denominators = denominators * column % d
    numerator = 1
    for v in x.tolist():
        numerator = numerator * v % d
    return residues([pow(v, -1, d) for v in denominators.tolist()], d) * numerator % d


def smallest_valid_prime(n: int) -> int:
    """Smallest prime d with n < d <= 2n, so Z_d has n distinct nonzero
    evaluation points. Bertrand's postulate puts one there for every n >= 1.
    """
    n = _integer("n", n)
    if n < 1:
        raise ConfigError("player count must be >= 1")
    return next(d for d in range(n + 1, 2 * n + 1) if is_prime(d))


def row_reduce(matrix, d: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a 2-D integer matrix over Z_d, d prime.

    Returns the nonzero rows of the form, every entry in [0, d), and the
    column of each row's leading 1, pivoting on columns left to right.
    Computed in int64, so d must pass ``check_int64_modulus``.
    """
    check_int64_modulus(d)
    m = np.array(matrix, dtype=np.int64) % d
    pivots: list[int] = []
    for col in range(m.shape[1]):
        rank = len(pivots)
        if rank == m.shape[0]:
            break
        below = np.flatnonzero(m[rank:, col])
        if below.size == 0:
            continue
        if below[0]:  # the pivot row is not yet at ``rank``
            m[[rank, rank + below[0]]] = m[[rank + below[0], rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), -1, d) % d
        factors = m[:, col].copy()
        factors[rank] = 0
        m -= factors[:, None] * m[rank]
        m %= d
        pivots.append(col)
    return m[: len(pivots)], pivots
