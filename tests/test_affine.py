import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsms import affine, qudit
from qsms.protocol import post_transform

# Every shape the dense oracle holds cheaply, d=2 and t=1 included.
SHAPES = [(d, t) for d in (2, 3, 5, 7, 11, 13) for t in range(1, 13) if d**t <= 4096]


def dense_branches(shadows, d, collapse):
    """The quantum phase on the dense engine, collapsing the send to slot 2
    if ``collapse``; also returns that send's in-flight marginal, which the
    protocol's tap sees (none when t = 1, which has no send)."""
    t = len(shadows)
    branches, marginals = [(1.0, None, qudit.prepare_ghz(t, d))], []
    if t >= 2:
        marginals.append(qudit.marginal_distribution(branches[0][2], 2))
        if collapse:
            branches = qudit.collapse_branches(branches[0][2], 2)
    for position, shadow in enumerate(shadows, start=1):
        branches = [(w, lb, qudit.apply_shift(qudit.apply_qft(s, position), position, shadow))
                    for w, lb, s in branches]
    return branches, marginals


def collapse_branches(state, position):
    """``affine.collapse`` as one (weight, digit, collapsed state) per digit of
    nonzero weight: digit c's state is the kept one with offset
    ``kept.offset + c * pivot``, or the kept one itself if the qudit does not vary."""
    weights, kept, pivot = affine.collapse(state, position)
    if pivot is None:
        (digit,) = np.flatnonzero(weights).tolist()
        return [(1.0, digit, kept)]
    return [(w, c, affine.AffineState(kept.d, (kept.offset + c * pivot) % kept.d, kept.basis))
            for c, w in enumerate(weights)]


def collapse_marginal(state, position):
    """One qudit's computational-basis distribution on the affine engine:
    ``collapse``'s weights, weight c digit c's."""
    return affine.collapse(state, position)[0]


def _assert_same_branches(branches, oracle):
    """Affine and dense branches agree: labels, weights, and each state's
    computational-basis distribution, uniform on the affine support."""
    assert [lb for _, lb, _ in branches] == [lb for _, lb, _ in oracle]
    np.testing.assert_allclose([w for w, _, _ in branches], [w for w, _, _ in oracle],
                               rtol=0, atol=1e-12)
    for (_, _, state), (_, _, dense) in zip(branches, oracle):
        support = affine.support_mask(state)
        probabilities = dense.probabilities()
        assert np.array_equal(support, probabilities > 1e-12)
        np.testing.assert_allclose(probabilities, support / support.sum(),
                                   rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_affine_engine_matches_dense_engine(data):
    d, t = data.draw(st.sampled_from(SHAPES))
    shadows = data.draw(st.lists(st.integers(0, d - 1), min_size=t, max_size=t))
    collapse = data.draw(st.booleans())
    marginals, sent = [], []

    def tap(state):
        marginals.append(collapse_marginal(state, 2))
        sent.append(state)
        return affine.collapse(state, 2)[:2] if collapse else ([1.0], state)

    weights, shifted = post_transform(shadows, d, tap)
    oracle, oracle_marginals = dense_branches(shadows, d, collapse)
    # Every branch ends in the one post-transform state; a collapse's weight c
    # is digit c's, the one branch of no collapse has no digit.
    digits = range(d) if len(weights) > 1 else [None]
    _assert_same_branches([(w, c, shifted) for w, c in zip(weights, digits)], oracle)
    if collapse and sent:  # each digit's collapsed state, before the Fourier layer
        _assert_same_branches(collapse_branches(sent[0], 2),
                              qudit.collapse_branches(qudit.prepare_ghz(len(shadows), d), 2))
    assert len(marginals) == len(oracle_marginals)
    for got, want in zip(marginals, oracle_marginals):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _dense_collapse(state, position):
    """``qudit.collapse_branches`` less the digits that only rounding after a
    Fourier layer leaves with a nonzero probability."""
    return [branch for branch in qudit.collapse_branches(state, position)
            if branch[0] > 1e-12]


def _collapse_each(branches, collapse, position):
    """Every branch collapsed at ``position``, each label extended by the digit."""
    return [(w * p, labels + (label,), out) for w, labels, state in branches
            for p, label, out in collapse(state, position)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_collapses_in_sequence_match_dense_engine(data):
    """``collapse`` and its weights by digit at every position,
    one collapse after another, from the GHZ state or from its post-transform
    state, against their dense oracles."""
    d, t = data.draw(st.sampled_from(SHAPES))
    positions = data.draw(st.lists(st.integers(1, t), max_size=3))
    branches = [(1.0, (), affine.prepare_ghz(t, d))]
    oracle = [(1.0, (), qudit.prepare_ghz(t, d))]
    if data.draw(st.booleans()):
        shadows = data.draw(st.lists(st.integers(0, d - 1), min_size=t, max_size=t))
        branches = [(1.0, (), post_transform(shadows, d)[1])]
        oracle = [(w, (), s) for w, _, s in dense_branches(shadows, d, collapse=False)[0]]
    for position in [*positions, None]:
        for (_, _, state), (_, _, dense) in zip(branches, oracle):
            for at in range(1, t + 1):
                np.testing.assert_allclose(collapse_marginal(state, at),
                                           qudit.marginal_distribution(dense, at),
                                           rtol=0, atol=1e-12)
        if position is not None:
            branches = _collapse_each(branches, collapse_branches, position)
            oracle = _collapse_each(oracle, _dense_collapse, position)
            _assert_same_branches(branches, oracle)


@pytest.mark.parametrize("d", [2, 11, 4093])
def test_collapse_of_a_fixed_qudit_is_one_hot_at_its_digit(d):
    # Qudit 2 does not vary on the support {(r, 5, 2 + r)}: one weight per
    # digit of Z_d, all of it on the offset's digit, and the state kept as it is.
    state = affine.AffineState(d, np.array([0, 5 % d, 2 % d]), np.array([[1, 0, 1]]))
    weights, kept, pivot = affine.collapse(state, 2)
    assert weights.shape == (d,) and weights.dtype == np.float64
    assert np.flatnonzero(weights).tolist() == [5 % d] and weights[5 % d] == 1.0
    assert kept is state and pivot is None
    np.testing.assert_array_equal(affine.collapse(state, 1)[0], np.full(d, 1 / d))


def test_collapse_counts_a_fixed_qudit_against_the_guard(monkeypatch):
    # Its one-hot weights hold d entries, so d is checked before they are built.
    monkeypatch.setattr(affine, "BRANCH_GUARD", 10)
    state = affine.AffineState(11, np.zeros(3, dtype=np.int64), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(affine.DimensionGuardError, match="^11 tap branches exceed guard 10$"):
        affine.collapse(state, 2)


@pytest.mark.parametrize("d,t", [(2, 1), (2, 5), (3, 4), (11, 3)])
def test_sample_stays_on_the_support(d, t):
    rng = np.random.default_rng(d * t)
    state = affine.fourier_shift(affine.prepare_ghz(t, d), list(range(t)))
    digits = affine.sample(state, 2000, rng)
    flat = digits @ d ** np.arange(t - 1, -1, -1)
    support = affine.support_mask(state)
    assert support[flat].all()
    # 2000 draws cover every outcome of a support of at most 121 states.
    assert np.unique(flat).size == support.sum()


def test_sample_exact_near_int64_modulus_bound():
    # A dot product of 3 terms of (d-1)^2 would wrap in int64.
    d, t = 2**31 - 1, 4
    offset = np.arange(t, dtype=np.int64) + d - t
    state = affine.AffineState(d, offset, np.full((3, t), d - 1, dtype=np.int64))
    got = affine.sample(state, 50, np.random.default_rng(0))
    coeffs = np.random.default_rng(0).integers(0, d, size=(50, 3)).tolist()
    want = [[(int(o) + sum(c * (d - 1) for c in row)) % d for o in offset]
            for row in coeffs]
    assert got.tolist() == want


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from([2, 3, 11, 2**31 - 1]), k=st.integers(0, 4),
       t=st.integers(1, 6), data=st.data())
def test_sample_matches_integer_formula(d, k, t, data):
    # A state built without ``fourier_shift`` knows no unit columns, so every
    # column goes through the product; entries 0, 1 and d - 1 are its edges.
    entry = st.one_of(st.sampled_from([0, 1, d - 1]), st.integers(0, d - 1))
    basis = np.array(data.draw(st.lists(st.lists(entry, min_size=t, max_size=t),
                                        min_size=k, max_size=k)),
                     dtype=np.int64).reshape(k, t)
    offset = np.array(data.draw(st.lists(st.integers(0, d - 1), min_size=t,
                                         max_size=t)), dtype=np.int64)
    got = affine.sample(affine.AffineState(d, offset, basis), 20,
                        np.random.default_rng(k * t))
    coeffs = np.random.default_rng(k * t).integers(0, d, size=(20, k)).tolist()
    want = [[(o + sum(c * b for c, b in zip(row, column))) % d
             for o, column in zip(offset.tolist(), basis.T.tolist())]
            for row in coeffs]
    assert got.tolist() == want


@pytest.mark.parametrize("d,t", [(2, 1), (11, 3), (211, 150)])
def test_fourier_shift_names_the_unit_columns_sample_copies(d, t):
    # The unit columns the post-transform state names copy their coefficient
    # plus an offset digit; the same state without them takes the product
    # path on every column, and both give the same digits in the same dtype.
    state = affine.fourier_shift(affine.prepare_ghz(t, d), [d - 1 - u % d for u in range(t)])
    unit, rest, basis = state.columns
    assert sorted([*unit, *rest]) == list(range(t)) and len(unit) == len(state.basis)
    np.testing.assert_array_equal(state.basis[:, unit], np.eye(len(unit), dtype=np.int64))
    np.testing.assert_array_equal(basis, state.basis[:, rest])
    bare = affine.AffineState(d, state.offset, state.basis)
    assert bare.columns is None
    got = affine.sample(state, 300, np.random.default_rng(t))
    want = affine.sample(bare, 300, np.random.default_rng(t))
    assert got.dtype == want.dtype == affine.digit_dtype(d)
    np.testing.assert_array_equal(got, want)


def test_prepare_ghz_checks_its_inputs():
    with pytest.raises(ValueError, match="qudit count"):
        affine.prepare_ghz(0, 11)
    with pytest.raises(ValueError, match="prime"):
        affine.prepare_ghz(3, 4)
    with pytest.raises(affine.DimensionGuardError, match="2\\^31"):
        affine.prepare_ghz(2, 2**31 + 11)
