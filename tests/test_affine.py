import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsms import affine, qudit
from qsms.protocol import post_transform_branches

# Every shape the dense oracle holds cheaply, d=2 and t=1 included.
SHAPES = [(d, t) for d in (2, 3, 5, 7, 11, 13) for t in range(1, 13) if d**t <= 4096]


def dense_branches(shadows, d, collapsed):
    """The quantum phase on the dense engine, collapsing the legs in
    ``collapsed``; also returns every in-flight marginal, in the order the
    protocol's tap sees them."""
    t = len(shadows)
    branches, marginals = [(1.0, (), qudit.prepare_ghz(t, d))], []
    for position in range(2, t + 1):
        tapped = []
        for weight, labels, state in branches:
            marginals.append(qudit.marginal_distribution(state, position))
            outs = (qudit.collapse_branches(state, position) if position in collapsed
                    else [(1.0, None, state)])
            tapped += [(weight * p, labels + (label,), out) for p, label, out in outs]
        branches = tapped
    for position, shadow in enumerate(shadows, start=1):
        branches = [(w, lb, qudit.apply_shift(qudit.apply_qft(s, position), position, shadow))
                    for w, lb, s in branches]
    return branches, marginals


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_affine_engine_matches_dense_engine(data):
    d, t = data.draw(st.sampled_from(SHAPES))
    shadows = data.draw(st.lists(st.integers(0, d - 1), min_size=t, max_size=t))
    collapsed = data.draw(st.sets(st.integers(2, max(t, 2)))) if t > 1 else set()
    marginals = []

    def tap(state, position):
        marginals.append(affine.marginal_distribution(state, position))
        if position in collapsed:
            return affine.collapse_branches(state, position)
        return [(1.0, None, state)]

    branches = post_transform_branches(shadows, d, tap)
    oracle, oracle_marginals = dense_branches(shadows, d, collapsed)
    assert [lb for _, lb, _ in branches] == [lb for _, lb, _ in oracle]
    np.testing.assert_allclose([w for w, _, _ in branches], [w for w, _, _ in oracle],
                               rtol=0, atol=1e-12)
    assert len(marginals) == len(oracle_marginals)
    for got, want in zip(marginals, oracle_marginals):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for (_, _, state), (_, _, dense) in zip(branches, oracle):
        support = affine.support_mask(state)
        probabilities = dense.probabilities()
        assert np.array_equal(support, probabilities > 1e-12)
        np.testing.assert_allclose(probabilities, support / support.sum(),
                                   rtol=0, atol=1e-12)


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
