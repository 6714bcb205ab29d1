"""The Python API's input boundary: every invalid argument to an exported
entry point raises a ConfigError (or a guard, a legitimate reconstruction,
too few shares or an inverse of zero), never a bare TypeError or a silent
coercion."""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsms import (FieldElement, Polynomial, RunConfig, aggregate, collusion_inference,
                  generate_shares, lagrange_coefficient, run_protocol, smallest_valid_prime)
from qsms import adversary, affine, cli, protocol, qudit, shamir, zmod
from qsms.adversary import ThresholdReachedError
from qsms.shamir import InsufficientSharesError, Share
from qsms.zmod import ConfigError, DimensionGuardError

_POINT_MESSAGE = r"^evaluation points must be distinct \(no duplicate\) and nonzero mod d$"


def test_config_error_is_one_class():
    assert protocol.ConfigError is zmod.ConfigError
    assert shamir.ConfigError is adversary.ConfigError is zmod.ConfigError
    assert issubclass(ConfigError, ValueError)
    assert protocol._integer is zmod._integer and protocol._sequence is zmod._sequence


@pytest.mark.parametrize("points", [(1, 1, 2), (1, 12, 2), (0, 1, 2), (1, 11, 2)])
def test_three_callers_reject_the_same_points_with_one_message(points):
    # Shamir's rule, from resolved(), lagrange_coefficient and generate_shares.
    calls = [lambda: RunConfig(secrets=(1,), n=3, t=2, d=11, evaluation_points=points,
                               allow_out_of_range_prime=True).resolved(),
             lambda: lagrange_coefficient(1, points, 11),
             lambda: generate_shares(Polynomial.from_ints([1, 2], 11), points, 11)]
    messages = set()
    for call in calls:
        with pytest.raises(ConfigError, match=_POINT_MESSAGE) as excinfo:
            call()
        messages.add(str(excinfo.value))
    assert len(messages) == 1


# Each site that takes a modulus, checked by zmod.check_modulus alone.
_MODULUS_SITES = {
    "resolved": lambda d: RunConfig(secrets=(1,), n=7, t=3, d=d,
                                    allow_out_of_range_prime=True).resolved(),
    "aggregate": lambda d: aggregate([[1, 2]], d),
    "collusion_inference": lambda d: collusion_inference([], t=3, d=d),
    "verify": None,  # through cli.main: an exit code and one stderr line
    "affine.prepare_ghz": lambda d: affine.prepare_ghz(2, d),
    "qudit.QuditState": lambda d: qudit.QuditState(d, 1, [1.0]),
}


@pytest.mark.parametrize("d, error, match", [
    (4, ConfigError, r"^d=4 is not prime$"),
    (2**31 + 11, DimensionGuardError, r"^modulus 2147483659 outside \[2, 2\^31\)"),
])
@pytest.mark.parametrize("site", list(_MODULUS_SITES))
def test_every_site_rejects_a_modulus_by_one_rule(site, d, error, match, capsys):
    if site != "verify":
        with pytest.raises(error, match=match):
            _MODULUS_SITES[site](d)
        return
    code = cli.main(["verify", "--d", str(d), "--t", "2", "--shadows", "0,0"])
    assert code == (cli.EXIT_GUARD if error is DimensionGuardError else cli.EXIT_USAGE)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and re.match(match, err.removeprefix("error: "))


@pytest.mark.parametrize("t", [0, -3])
def test_collusion_rejects_a_threshold_below_one(t):
    # t < 1 was reported as a threshold reached: a legitimate reconstruction.
    with pytest.raises(ConfigError, match=rf"^threshold must satisfy t >= 1, got t={t}$"):
        collusion_inference([], t=t, d=11)


@pytest.mark.parametrize("t", [12, 2**60 - 1])
def test_collusion_takes_a_threshold_above_d(t):
    # t = 2^60 - 1 once built a (k, t + 1) system: numpy's "array is too big".
    shares = [Share(FieldElement(x, 11), FieldElement(v, 11)) for x, v in [(1, 4), (12, 7)]]
    assert collusion_inference(shares, t=t, d=11).details["candidates"] == []
    assert collusion_inference(shares[:1], t=t, d=11).details["candidate_count"] == 11


@pytest.mark.parametrize("digits, d, match", [
    ([[0.5, 1]], 11, "^digits must be an integer array"),  # was [1]: 0.5 truncated
    ([[True, False]], 11, "^digits must be an integer array"),
    (np.array(3), 11, "^digits must be an integer array"),  # 0-d: was IndexError
    ([[1], [2, 3]], 11, "^digits must be an integer array"),  # ragged: numpy's ValueError
    ("12", 11, "^digits must be an integer array"),
    ([[1, 2]], 1, r"^d=1 is not prime$"),
    ([[1, 2]], 4, r"^d=4 is not prime$"),
    ([[1, 2]], 2**70, r"^d=1180591620717411303424 is not prime$"),  # was an object array
    ([[1, 2]], None, r"^d must be an integer, got None$"),  # was TypeError
    ([[1, 2]], 11.0, r"^d must be an integer, got 11\.0$"),
    ([[1, 11]], 11, r"^digit 11 outside \[0, 11\)$"),
    ([[True, 2]], 11, "^digits must be an integer array"),  # was [3]: True read as 1
])
def test_aggregate_rejects_bad_input(digits, d, match):
    with pytest.raises(ConfigError, match=match):
        aggregate(digits, d)


def test_aggregate_rejects_a_prime_beyond_int64_arithmetic():
    with pytest.raises(DimensionGuardError, match=r"2\^31"):
        aggregate([[1, 2]], 2**61 - 1)


@pytest.mark.parametrize("call, match", [
    (lambda: FieldElement(3.7, 11), r"^value must be an integer, got 3\.7$"),  # was 3
    (lambda: FieldElement(1, 11.0), r"^modulus must be an integer, got 11\.0$"),
    (lambda: FieldElement(True, 11), "^value must be an integer"),
    (lambda: FieldElement(1, 10), "^modulus 10 is not prime$"),
    (lambda: FieldElement(1, 2**64), r"^modulus must be in \[2, 2\^63\)"),
    (lambda: smallest_valid_prime("3"), "^n must be an integer, got '3'$"),
    (lambda: smallest_valid_prime(0), "^player count must be >= 1$"),
    (lambda: lagrange_coefficient(1, ["a"], 11), r"^points\[0\] must be an integer"),
    (lambda: lagrange_coefficient(1.0, [1], 11), "^u must be an integer"),
    (lambda: lagrange_coefficient(1, [1], 11.0), "^d must be an integer"),
    (lambda: lagrange_coefficient(1, [1], 12), "^modulus 12 is not prime$"),
    (lambda: lagrange_coefficient(3, [1, 2], 11), "^index 3 out of range for 2 points$"),
    # Was dealt at x = 1.
    (lambda: generate_shares(Polynomial.from_ints([1, 2], 11), [1.5, 2], 11),
     r"^points\[0\] must be an integer, got 1\.5$"),
    (lambda: generate_shares(Polynomial.from_ints([1, 2], 11), [1, 2], 13),
     "^polynomial modulus does not match d$"),
    (lambda: generate_shares(Polynomial.from_ints([1, 2, 3], 11), [1, 2], 11),
     "^need at least threshold many evaluation points$"),
])
def test_object_api_takes_integers_only(call, match):
    with pytest.raises(ConfigError, match=match):
        call()


def test_object_api_takes_numpy_integers_as_ints():
    element = FieldElement(np.int64(14), np.int64(11))
    assert (element.value, element.modulus) == (3, 11)
    assert type(element.value) is int and type(element.modulus) is int
    assert smallest_valid_prime(np.int64(7)) == 11


@pytest.mark.parametrize("call", [lambda c: run_protocol(c),
                                  lambda c: adversary.intercept_resend(c),
                                  lambda c: adversary.dealt_shares(c, [1]),
                                  lambda c: adversary.intercept_and_measure(c, [(1,), (2,)])])
def test_a_config_must_be_a_run_config(call):
    # A dict once raised AttributeError.
    with pytest.raises(ConfigError, match="^config is no RunConfig or ResolvedConfig: dict$"):
        call({"secrets": [1], "n": 3, "t": 2})


_INT = st.integers(-3, 40)
_ARG = st.recursive(st.one_of(_INT, st.integers(), st.none(), st.booleans(), st.floats(),
                              st.text(max_size=3)),
                    lambda inner: st.lists(inner, max_size=4), max_leaves=12)
_POINTS = st.one_of(st.lists(_INT, max_size=5), _ARG)
_MODULUS = st.one_of(st.sampled_from([2, 5, 11, 2**31 - 1, 2**61 - 1]), _ARG)
_SMALL_RUN = RunConfig(secrets=(1,), n=3, t=2, shots=8)
_CONFIGS = st.one_of(_ARG, st.dictionaries(st.text(max_size=3), _ARG, max_size=3),
                     st.sampled_from([_SMALL_RUN, _SMALL_RUN.resolved()]))
_CLEAN_ERRORS = (ConfigError, DimensionGuardError, InsufficientSharesError,
                 ThresholdReachedError, ZeroDivisionError)


# One bug reported at a time: pytest takes minutes to render several at once.
@settings(max_examples=300, deadline=None, report_multiple_bugs=False)
@given(digits=st.one_of(st.lists(st.lists(_INT, max_size=4), max_size=3), _ARG),
       value=_ARG, modulus=_MODULUS, n=st.one_of(st.integers(-3, 10**6), _ARG), u=_ARG,
       points=_POINTS, coefficients=st.lists(st.integers(0, 10), min_size=1, max_size=4),
       config=_CONFIGS, t=st.one_of(_INT, _ARG),
       shares=st.lists(st.tuples(st.integers(1, 10), _INT), max_size=4))
def test_entry_points_raise_only_clean_errors(digits, value, modulus, n, u, points,
                                              coefficients, config, t, shares):
    poly = Polynomial.from_ints(coefficients, 11)
    coalition = [Share(FieldElement(x, 11), FieldElement(v, 11)) for x, v in shares]
    calls = [lambda: aggregate(digits, modulus), lambda: FieldElement(value, modulus),
             lambda: smallest_valid_prime(n), lambda: lagrange_coefficient(u, points, modulus),
             lambda: generate_shares(poly, points, modulus), lambda: run_protocol(config),
             lambda: collusion_inference(coalition, t, 11)]
    for call in calls:
        try:
            call()
        except _CLEAN_ERRORS:
            continue
