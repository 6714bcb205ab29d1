"""Threshold secret sharing over Z_d: dealing, homomorphic addition,
reconstruction, and the Lagrange-weighted "shadow" form of a share.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .zmod import (ConfigError, FieldElement, _integer, _sequence, check_points,
                   lagrange_coefficient)


class InsufficientSharesError(ValueError):
    pass


@dataclass(frozen=True)
class Polynomial:
    """Dealer polynomial; coefficient 0 is the constant term (the secret)."""

    coefficients: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("polynomial needs at least a constant term")
        d = self.coefficients[0].modulus
        if any(c.modulus != d for c in self.coefficients):
            raise ValueError("all coefficients must share one modulus")

    @property
    def modulus(self) -> int:
        return self.coefficients[0].modulus

    @property
    def secret(self) -> FieldElement:
        return self.coefficients[0]

    @classmethod
    def from_ints(cls, coeffs: Sequence[int], d: int) -> "Polynomial":
        return cls(tuple(FieldElement(c, d) for c in coeffs))

    @classmethod
    def random(
        cls, secret: int, degree: int, d: int, rng: np.random.Generator
    ) -> "Polynomial":
        coeffs = [secret] + [int(rng.integers(0, d)) for _ in range(degree)]
        return cls.from_ints(coeffs, d)

    def evaluate(self, x: int | FieldElement) -> FieldElement:
        if not isinstance(x, FieldElement):
            x = FieldElement(x, self.modulus)
        acc = FieldElement(0, self.modulus)
        for c in reversed(self.coefficients):  # Horner
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class Share:
    """One polynomial evaluation (x_i, f(x_i)) held by a player."""

    x: FieldElement
    value: FieldElement

    def __post_init__(self) -> None:
        if self.x.modulus != self.value.modulus:
            raise ValueError("share point and value must share one modulus")
        if self.x.value == 0:
            raise ValueError("evaluation point must be nonzero (x=0 is the secret)")

    def to_json(self) -> dict:
        return {
            "x": self.x.value,
            "value": self.value.value,
            "modulus": self.x.modulus,
        }


@dataclass(frozen=True)
class Shadow:
    """A share scaled by its Lagrange coefficient; shadows of a qualified
    set sum to the reconstructed secret mod d."""

    owner: int
    value: FieldElement

    def to_json(self) -> dict:
        return {"owner": self.owner, "value": self.value.value,
                "modulus": self.value.modulus}


def generate_shares(poly: Polynomial, points: Sequence[int], d: int) -> list[Share]:
    """Evaluate the dealer polynomial at each player's point."""
    d, points = _integer("d", d), _sequence("points", points)
    if poly.modulus != d:
        raise ConfigError("polynomial modulus does not match d")
    check_points(points, d)
    if len(points) < len(poly.coefficients):
        raise ConfigError("need at least threshold many evaluation points")
    return [Share(FieldElement(p, d), poly.evaluate(p)) for p in points]


def add_shares(a: Share, b: Share) -> Share:
    """Pointwise share addition: shares of f and g become shares of f+g."""
    if a.x.modulus != b.x.modulus:
        raise ValueError("modulus mismatch between shares")
    if a.x.value != b.x.value:
        raise ValueError(
            f"cannot add shares at different points: {a.x.value} vs {b.x.value}"
        )
    return Share(a.x, a.value + b.value)


def reconstruct(
    shares: Sequence[Share], d: int, threshold: int | None = None
) -> FieldElement:
    """Lagrange-interpolate the constant term from a qualified set of shares.

    The operation itself cannot know the dealer's threshold; pass it as
    ``threshold`` to get an explicit insufficiency check.
    """
    if threshold is not None and len(shares) < threshold:
        raise InsufficientSharesError(
            f"insufficient shares: got {len(shares)}, need {threshold}"
        )
    if not shares:
        raise InsufficientSharesError("insufficient shares: got 0")
    points = [s.x.value for s in shares]
    total = FieldElement(0, d)
    for v, share in enumerate(shares, start=1):
        total = total + share.value * lagrange_coefficient(v, points, d)
    return total


def compute_shadow(
    share: Share, u: int, qualified_points: Sequence[int], d: int
) -> Shadow:
    """Scale a share by its Lagrange coefficient within the qualified set."""
    if not 1 <= u <= len(qualified_points):
        raise ValueError(f"index {u} out of range")
    if qualified_points[u - 1] % d != share.x.value:
        raise ValueError(
            f"share point {share.x.value} is not entry {u} of the qualified set"
        )
    coeff = lagrange_coefficient(u, list(qualified_points), d)
    return Shadow(owner=u, value=share.value * coeff)
