import itertools

import numpy as np
import pytest

from qsms.qudit import (
    DimensionGuardError,
    QuditState,
    UnnormalizedStateError,
    analytic_post_transform_state,
    apply_iqft,
    apply_qft,
    apply_shift,
    marginal_distribution,
    measure_all,
    measure_position,
    post_transform_state,
    prepare_ghz,
    qft_matrix,
)


def basis_state(d, t, digits):
    amps = np.zeros(d**t, dtype=complex)
    amps[np.ravel_multi_index(digits, (d,) * t)] = 1.0
    return QuditState(d, t, amps)


def random_state(d, t, rng):
    amps = rng.normal(size=d**t) + 1j * rng.normal(size=d**t)
    return QuditState(d, t, amps / np.linalg.norm(amps))


def test_prepare_ghz_reference_cases():
    state = prepare_ghz(3, 11)
    nz = np.flatnonzero(np.abs(state.amplitudes) > 1e-12)
    assert len(nz) == 11
    for i in nz:
        digits = np.unravel_index(i, (11,) * 3)
        assert len(set(digits)) == 1
        assert state.amplitudes[i] == pytest.approx(1 / np.sqrt(11))

    single = prepare_ghz(1, 2)
    np.testing.assert_allclose(single.amplitudes, [1 / np.sqrt(2)] * 2)

    pair = prepare_ghz(2, 3)
    expected = np.zeros(9)
    expected[[0, 4, 8]] = 1 / np.sqrt(3)
    np.testing.assert_allclose(pair.amplitudes, expected, atol=1e-12)


def test_prepare_ghz_guards():
    with pytest.raises(DimensionGuardError):
        prepare_ghz(8, 13)
    with pytest.raises(ValueError, match="prime"):
        prepare_ghz(2, 4)


def test_qft_hadamard_columns():
    plus = apply_qft(basis_state(2, 1, (0,)), 1)
    np.testing.assert_allclose(plus.amplitudes, [1, 1] / np.sqrt(2), atol=1e-12)
    minus = apply_qft(basis_state(2, 1, (1,)), 1)
    np.testing.assert_allclose(minus.amplitudes, [1, -1] / np.sqrt(2), atol=1e-12)


def test_qft_d3_matches_matrix_oracle():
    w = np.exp(2j * np.pi / 3)
    got = apply_qft(basis_state(3, 1, (1,)), 1)
    np.testing.assert_allclose(
        got.amplitudes, np.array([1, w, w**2]) / np.sqrt(3), atol=1e-12
    )


def test_qft_on_tensor_factor_matches_kron_oracle():
    # Full-space oracle: I (x) F (x) I applied as one dense matrix.
    rng = np.random.default_rng(3)
    d, t, pos = 3, 3, 2
    state = random_state(d, t, rng)
    full = np.kron(np.kron(np.eye(d), qft_matrix(d)), np.eye(d))
    expected = full @ state.amplitudes
    got = apply_qft(state, pos)
    np.testing.assert_allclose(got.amplitudes, expected, atol=1e-12)


def test_iqft_inverts_qft():
    rng = np.random.default_rng(5)
    for d, t in [(2, 2), (3, 2), (5, 1), (11, 2)]:
        state = random_state(d, t, rng)
        for pos in range(1, t + 1):
            back = apply_iqft(apply_qft(state, pos), pos)
            np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-10)
    back = apply_iqft(apply_qft(basis_state(3, 1, (2,)), 1), 1)
    assert back.amplitudes[2] == pytest.approx(1.0, abs=1e-10)


def test_iqft_d2_is_hadamard():
    got = apply_iqft(basis_state(2, 1, (0,)), 1)
    np.testing.assert_allclose(got.amplitudes, [1, 1] / np.sqrt(2), atol=1e-12)


def test_shift_relabels_basis():
    got = apply_shift(basis_state(11, 1, (3,)), 1, 5)
    assert abs(got.amplitudes[8]) == pytest.approx(1.0)
    got = apply_shift(basis_state(11, 1, (7,)), 1, 7)
    assert abs(got.amplitudes[3]) == pytest.approx(1.0)


def test_shift_zero_is_identity():
    rng = np.random.default_rng(7)
    state = random_state(5, 2, rng)
    got = apply_shift(state, 1, 0)
    np.testing.assert_allclose(got.amplitudes, state.amplitudes)


def test_shift_is_permutation_and_normalizes_m():
    state = random_state(5, 1, np.random.default_rng(9))
    np.testing.assert_allclose(
        apply_shift(state, 1, 7).amplitudes, apply_shift(state, 1, 2).amplitudes
    )
    with pytest.raises(ValueError, match="position"):
        apply_shift(state, 2, 1)


@pytest.mark.parametrize("d", range(2, 17))
def test_qft_matrix_unitarity(d):
    f = qft_matrix(d)
    assert np.max(np.abs(f.conj().T @ f - np.eye(d))) <= 1e-10


def analytic_oracle(t, d, shadows):
    """Enumeration oracle for the post-transform state."""
    amps = np.zeros(d**t, dtype=complex)
    for a in itertools.product(range(d), repeat=t):
        if sum(a) % d == 0:
            digits = tuple((ai + mi) % d for ai, mi in zip(a, shadows))
            amps[np.ravel_multi_index(digits, (d,) * t)] = d ** (-(t - 1) / 2)
    return amps


def test_analytic_state_paper_parameters():
    state = analytic_post_transform_state(3, 11, (5, 4, 7))
    nz = np.flatnonzero(np.abs(state.amplitudes) > 1e-12)
    assert len(nz) == 121
    for i in nz:
        assert state.amplitudes[i] == pytest.approx(1 / 11)
        assert sum(np.unravel_index(i, (11,) * 3)) % 11 == 5


def test_analytic_state_single_qudit():
    state = analytic_post_transform_state(1, 7, (4,))
    assert abs(state.amplitudes[4]) == pytest.approx(1.0)


def test_analytic_state_small_support():
    state = analytic_post_transform_state(2, 3, (1, 2))
    nz = set(zip(*np.unravel_index(np.flatnonzero(np.abs(state.amplitudes) > 1e-12),
                                   (3, 3))))
    assert nz == {(1, 2), (2, 1), (0, 0)}
    np.testing.assert_allclose(state.amplitudes, analytic_oracle(2, 3, (1, 2)))


def test_analytic_state_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    for d, t in [(2, 3), (3, 3), (5, 2), (7, 2)]:
        shadows = tuple(int(x) for x in rng.integers(0, d, size=t))
        state = analytic_post_transform_state(t, d, shadows)
        np.testing.assert_allclose(state.amplitudes, analytic_oracle(t, d, shadows))


def test_simulated_equals_analytic():
    rng = np.random.default_rng(13)
    for d, t in [(2, 2), (3, 2), (3, 3), (5, 3), (7, 2), (11, 3)]:
        for _ in range(5):
            shadows = tuple(int(x) for x in rng.integers(0, d, size=t))
            sim = post_transform_state(shadows, d)
            ana = analytic_post_transform_state(t, d, shadows)
            assert np.max(np.abs(sim.amplitudes - ana.amplitudes)) <= 1e-9


def test_measure_all_deterministic_on_basis_state():
    rng = np.random.default_rng(0)
    assert measure_all(basis_state(11, 1, (5,)), rng) == (5,)


def test_measure_all_digit_sum_law():
    rng = np.random.default_rng(1)
    state = analytic_post_transform_state(3, 11, (5, 4, 7))
    for _ in range(200):
        assert sum(measure_all(state, rng)) % 11 == 5


def test_measure_all_ghz_statistics():
    rng = np.random.default_rng(2)
    state = prepare_ghz(2, 3)
    counts = {(c, c): 0 for c in range(3)}
    shots = 10_000
    for _ in range(shots):
        counts[measure_all(state, rng)] += 1  # KeyError on any off-diagonal outcome
    sigma = (shots * (1 / 3) * (2 / 3)) ** 0.5
    for c in counts.values():
        assert abs(c - shots / 3) < 5 * sigma


def test_measure_all_rejects_unnormalized_state():
    state = prepare_ghz(2, 3)
    state.amplitudes[0] += 0.1  # corrupt past the measurement gate
    with pytest.raises(UnnormalizedStateError, match="unnormalized"):
        measure_all(state, np.random.default_rng(0))


def test_measure_position_collapses_ghz():
    rng = np.random.default_rng(3)
    digit, collapsed = measure_position(prepare_ghz(3, 5), 2, rng)
    expected = np.zeros(5**3, dtype=complex)
    expected[np.ravel_multi_index((digit, digit, digit), (5,) * 3)] = 1.0
    np.testing.assert_allclose(collapsed.amplitudes, expected, atol=1e-12)


def test_marginal_distribution_uniform_on_ghz_leg():
    for pos in (1, 2, 3):
        marginal = marginal_distribution(prepare_ghz(3, 11), pos)
        np.testing.assert_allclose(marginal, np.full(11, 1 / 11), atol=1e-12)


def test_norm_preserved_across_protocol_pass():
    state = post_transform_state((5, 4, 7), 11)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-9
