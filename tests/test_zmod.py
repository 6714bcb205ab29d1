import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qsms import affine, qudit
from qsms.zmod import (
    DimensionGuardError,
    FieldElement,
    check_int64_modulus,
    is_prime,
    lagrange_coefficient,
    lagrange_weights,
    residues,
    row_reduce,
    smallest_valid_prime,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def brute_force_inverse(a: int, d: int) -> int:
    """Independent oracle: exhaustive search for the inverse."""
    for b in range(1, d):
        if (a * b) % d == 1:
            return b
    raise AssertionError(f"{a} has no inverse mod {d}")


def test_add_paper_pattern():
    assert (FieldElement(9, 11) + FieldElement(7, 11)).value == 5


def test_add_identity():
    assert (FieldElement(0, 11) + FieldElement(6, 11)).value == 6


def test_add_derived():
    assert (FieldElement(10, 11) + FieldElement(10, 11)).value == 9


def test_mul_paper_value():
    assert (FieldElement(9, 11) * FieldElement(3, 11)).value == 5


def test_mul_identity():
    assert (FieldElement(1, 11) * FieldElement(8, 11)).value == 8


def test_mul_derived():
    assert (FieldElement(7, 11) * FieldElement(8, 11)).value == 1


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError, match="modulus mismatch"):
        FieldElement(1, 11) + FieldElement(1, 13)
    with pytest.raises(ValueError, match="modulus mismatch"):
        FieldElement(1, 11) * FieldElement(1, 13)


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError, match="not prime"):
        FieldElement(1, 10)


def test_inv_examples():
    assert FieldElement(2, 11).inv().value == 6
    assert FieldElement(1, 11).inv().value == 1
    assert FieldElement(10, 11).inv().value == 10


def test_inv_zero_rejected():
    with pytest.raises(ZeroDivisionError, match="no inverse of zero"):
        FieldElement(0, 11).inv()


@pytest.mark.parametrize("d", SMALL_PRIMES)
def test_inv_matches_brute_force(d):
    for a in range(1, d):
        assert FieldElement(a, d).inv().value == brute_force_inverse(a, d)


def test_lagrange_coefficient_forced_by_worked_example():
    # m_1 = 9 * coeff = 5 and m_2 = 6 * coeff = 4 pin these values.
    assert lagrange_coefficient(1, [1, 2, 3], 11).value == 3
    assert lagrange_coefficient(2, [1, 2, 3], 11).value == 8


def test_lagrange_coefficient_single_point():
    assert lagrange_coefficient(1, [4], 11).value == 1


def test_lagrange_coefficient_rejects_bad_points():
    with pytest.raises(ValueError, match="duplicate"):
        lagrange_coefficient(1, [1, 1, 2], 11)
    with pytest.raises(ValueError, match="nonzero"):
        lagrange_coefficient(1, [1, 11], 11)
    with pytest.raises(ValueError):
        lagrange_coefficient(0, [1, 2], 11)
    with pytest.raises(ValueError, match="at least one"):
        lagrange_coefficient(1, [], 11)


@pytest.mark.parametrize("d", [5, 7, 11, 13])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lagrange_coefficients_sum_to_one(d, k):
    # Interpolating the constant polynomial 1 at x=0.
    points = list(range(1, k + 1))
    total = sum(lagrange_coefficient(u, points, d).value for u in range(1, k + 1))
    assert total % d == 1


@st.composite
def _point_sets(draw):
    """(points, d): distinct nonzero points mod d, some shifted by ±d."""
    d = draw(st.sampled_from([3, 11, 101, 2**31 - 1]))
    points = draw(st.lists(st.integers(1, d - 1), min_size=1,
                           max_size=min(8, d - 1), unique=True))
    # Points beyond [0, d) are reduced mod d first.
    return [p + d * draw(st.integers(-1, 1)) for p in points], d


@given(case=_point_sets())
@example(case=(list(range(1, 151)), 211))  # the t=150 target size
@settings(deadline=None)  # the oracle's FieldElement loop, at 150 points
def test_lagrange_weights_match_lagrange_coefficient(case):
    points, d = case
    weights = lagrange_weights(points, d)
    assert weights.dtype == np.int64
    assert weights.tolist() == [lagrange_coefficient(u, points, d).value
                                for u in range(1, len(points) + 1)]


@pytest.mark.parametrize("points", [[1, 2, 1], [1, 11, 2], [3, 0]])
def test_lagrange_weights_reject_repeated_or_zero_points(points):
    with pytest.raises(ValueError):
        lagrange_weights(points, 11)


def test_residues_dtype_follows_int64_bound():
    assert residues([-1, 12], 11).tolist() == [10, 1]
    # Python ints beyond int64 are reduced exactly before the cast.
    big = residues([[-1], [2**70 + 5]], 2**31 - 1)
    assert big.dtype == np.int64 and big.tolist() == [[2**31 - 2], [(2**70 + 5) % (2**31 - 1)]]
    for d in (2**31 + 11, 2**61 - 1):
        with pytest.raises(DimensionGuardError, match="2\\^31"):
            residues([1], d)


def test_check_int64_modulus_is_the_one_range():
    for d in (2, 11, 2**31 - 1):
        check_int64_modulus(d)
    for d in (-1, 0, 1, 2**31, 2**31 + 11, 2**61 - 1):
        with pytest.raises(DimensionGuardError, match=r"^modulus -?\d+ outside \[2, 2\^31\)"):
            check_int64_modulus(d)
    # One class, a ValueError, whichever module a caller takes it from.
    assert issubclass(DimensionGuardError, ValueError)
    assert affine.DimensionGuardError is qudit.DimensionGuardError is DimensionGuardError


def test_smallest_valid_prime_examples():
    assert smallest_valid_prime(7) == 11
    assert smallest_valid_prime(1) == 2
    assert smallest_valid_prime(8) == 11


@pytest.mark.parametrize("n", range(1, 200))
def test_smallest_valid_prime_in_range(n):
    d = smallest_valid_prime(n)
    assert is_prime(d)
    assert n < d <= 2 * n


@given(
    d=st.sampled_from(SMALL_PRIMES),
    a=st.integers(0, 12),
    b=st.integers(0, 12),
    c=st.integers(0, 12),
)
def test_field_axioms(d, a, b, c):
    fa, fb, fc = (FieldElement(v, d) for v in (a, b, c))
    assert (fa + fb).value == (fb + fa).value
    assert (fa * fb).value == (fb * fa).value
    assert ((fa + fb) + fc).value == (fa + (fb + fc)).value
    assert ((fa * fb) * fc).value == (fa * (fb * fc)).value
    if fa.value != 0:
        assert (fa * fa.inv()).value == 1


def _trial_division(n: int) -> bool:
    """Independent oracle: no divisor in 2..sqrt(n)."""
    return n >= 2 and all(n % p for p in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


@pytest.mark.parametrize("n", [2**31 - 1, 2**61 - 1, 2**64 - 59])
def test_is_prime_large_primes(n):
    assert is_prime(n)


@pytest.mark.parametrize(
    "n",
    [
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,  # Carmichael
        321197185,  # Carmichael
        3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to every prime base up to 23
        4294967291 * 4294967279,  # two primes just below 2^32
        (2**31 - 1) ** 2,
    ],
)
def test_is_prime_rejects_pseudoprimes_and_composites(n):
    assert not is_prime(n)


def _span(rows, d):
    """Oracle: every combination of the rows, enumerated."""
    return {tuple(np.dot(c, rows) % d)
            for c in itertools.product(range(d), repeat=len(rows))}


@given(d=st.sampled_from([2, 3, 5]), k=st.integers(0, 3), t=st.integers(1, 4),
       data=st.data())
def test_row_reduce_matches_span_enumeration(d, k, t, data):
    matrix = np.array(data.draw(st.lists(st.lists(st.integers(-20, 20), min_size=t,
                                                  max_size=t), min_size=k, max_size=k)),
                      dtype=np.int64).reshape(k, t)
    reduced, pivots = row_reduce(matrix, d)
    assert reduced.shape == (len(pivots), t) and pivots == sorted(pivots)
    assert ((reduced >= 0) & (reduced < d)).all()
    # Each leading 1 is the only nonzero entry of its column.
    assert (reduced[:, pivots] == np.eye(len(pivots), dtype=np.int64)).all()
    assert _span(reduced, d) == _span(matrix % d, d)
    assert len(_span(matrix % d, d)) == d ** len(pivots)


def test_row_reduce_rejects_modulus_beyond_int64():
    with pytest.raises(ValueError, match="2\\^31"):
        row_reduce(np.ones((1, 2), dtype=np.int64), 2**31 + 11)
