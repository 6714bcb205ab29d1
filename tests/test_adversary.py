import itertools

import numpy as np
import pytest

from qsms.adversary import (
    ThresholdReachedError,
    collusion_inference,
    intercept_and_measure,
    intercept_resend,
    tv_distance,
    uniformity_bound,
)
from qsms.protocol import RunConfig, phase_distribution, run_protocol
from qsms.qudit import (
    collapse_branches,
    digits_to_index,
    index_to_digits,
    indices_to_digits,
    prepare_ghz,
)
from qsms.shamir import Share
from qsms.zmod import FieldElement


def test_tv_distance():
    assert tv_distance({"a": 1.0}, {"a": 1.0}) == 0.0
    assert tv_distance({"a": 1.0}, {"b": 1.0}) == 1.0
    assert tv_distance({"a": 0.5, "b": 0.5}, {"a": 1.0}) == pytest.approx(0.5)


def test_intercept_uniform_marginal_d11():
    report = intercept_and_measure(
        [(2, 3), (7, 9)], n=7, t=3, d=11, shots=100_000, seed=0
    )
    assert report.passed
    assert abs(report.guess_rate - 1 / 11) < 0.02
    for dist in report.distributions.values():
        for p in dist.values():
            assert abs(p - 1 / 11) < 0.01


def test_intercept_coin_baseline_d2():
    report = intercept_and_measure(
        [(0,), (1,)], n=2, t=2, d=2, shots=10_000, seed=1
    )
    assert report.passed
    assert abs(report.guess_rate - 0.5) < 0.03


def test_intercept_secret_independence():
    report = intercept_and_measure(
        [(2, 3), (7, 9)], n=7, t=3, d=11, shots=100_000, seed=2
    )
    key = "(2, 3) vs (7, 9)"
    assert report.tv_distances[key] <= 0.02


def test_intercept_requires_two_pairs():
    with pytest.raises(ValueError, match="two secret"):
        intercept_and_measure([(2, 3)], n=7, t=3, d=11, shots=10)


def exact_attacked_aggregate(d, t, shadows):
    """Oracle: enumerate the exact aggregate distribution when one GHZ leg
    is measured before the transform. Collapse makes the state a product
    of identical basis kets, so each transformed leg is independently
    uniform and the aggregate is uniform over Z_d."""
    dist = {}
    for c in range(d):  # attacker outcome, probability 1/d
        for a in itertools.product(range(d), repeat=t):
            s = (sum(a) + sum(shadows)) % d
            dist[s] = dist.get(s, 0.0) + (1 / d) * (1 / d) ** t * d
    total = sum(dist.values())
    return {k: v / total for k, v in dist.items()}


def test_exact_oracle_is_uniform():
    dist = exact_attacked_aggregate(2, 2, (1, 0))
    assert dist == {0: pytest.approx(0.5), 1: pytest.approx(0.5)}


@pytest.mark.parametrize("d", [2, 3, 5])
def test_collapse_branches_aggregate_equals_exact_oracle(d):
    # Exact, no sampling: weight each branch's post-transform distribution
    # and fold it onto the aggregate digit sum.
    shadows = (1, d - 1)
    joint, labels = phase_distribution(shadows, d, tap=collapse_branches)
    assert labels == [(c,) for c in range(d)]
    np.testing.assert_allclose(joint.sum(axis=1), np.full(d, 1 / d), atol=1e-12)
    sums = indices_to_digits(np.arange(d**2), d, 2).sum(axis=1) % d
    dist = np.bincount(sums, weights=joint.sum(axis=0), minlength=d)
    oracle = exact_attacked_aggregate(d, 2, shadows)
    assert max(abs(dist[s] - oracle[s]) for s in range(d)) <= 1e-12


def test_tap_collapse_matches_exact_oracle_d2():
    # Pure quantum phase at d=2, t=2: measure the sent leg, then run the
    # honest transform. The 4-dim enumeration oracle says the aggregate
    # becomes uniform over Z_2.
    from collections import Counter

    from qsms.protocol import run_quantum_phase

    rng = np.random.default_rng(3)

    shots = 4000
    outcomes = run_quantum_phase([1, 1], 2, shots, rng, tap=collapse_branches)
    counts = Counter(sum(o) % 2 for o in outcomes.digits.tolist())
    empirical = {str(k): v / shots for k, v in counts.items()}
    oracle = {str(k): v for k, v in exact_attacked_aggregate(2, 2, (1, 1)).items()}
    assert tv_distance(empirical, oracle) <= uniformity_bound(2, shots)


def test_intercept_resend_disturbs_aggregate():
    cfg = RunConfig(secrets=(1, 0), n=2, t=2, d=3, shots=64, seed=3)
    report = intercept_resend(cfg, tap_position=2, shots=4000, seed=4)
    assert report.passed
    # Downstream damage: attacked aggregate spreads toward uniform while
    # the honest run is constant.
    assert report.details["honest_result"] == 1
    assert report.tv_distances["attacked aggregate vs honest"] > 0.3


def test_intercept_resend_attacker_sees_uniform_d11():
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=32, seed=5,
                    polynomials=((2, 1, 1), (3, 1, 1)))
    report = intercept_resend(cfg, tap_position=2, shots=2048, seed=6)
    assert report.passed
    assert report.details["honest_result"] == 5
    assert abs(report.guess_rate - 1 / 11) < 0.05


def test_no_tap_control_identical_to_honest():
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=16, seed=7)
    honest = run_protocol(cfg)
    controlled = run_protocol(cfg, tap=lambda state, pos: [(1.0, None, state)])
    assert controlled.to_json() == honest.to_json()


def _paper_shares():
    h_row = [9, 6, 7, 1, 10, 1, 7]
    return [
        Share(FieldElement(x, 11), FieldElement(v, 11))
        for x, v in zip(range(1, 8), h_row)
    ]


def test_collusion_two_of_three_sees_all_candidates():
    shares = _paper_shares()
    report = collusion_inference([shares[1], shares[2]], t=3, d=11)
    assert report.passed
    assert report.details["candidate_count"] == 11
    assert report.details["candidates"] == list(range(11))


def test_collusion_threshold_set_rejected():
    shares = _paper_shares()
    with pytest.raises(ThresholdReachedError, match="legitimate"):
        collusion_inference(shares[:3], t=3, d=11)


def test_collusion_single_colluder_d5():
    cfg = RunConfig(secrets=(3,), n=3, t=2, d=5, shots=1, seed=8)
    transcript = run_protocol(cfg)
    report = collusion_inference([transcript.combined_shares[0]], t=2, d=5)
    assert report.passed
    assert report.details["candidate_count"] == 5


def test_collusion_candidates_uniformly_weighted():
    shares = _paper_shares()
    report = collusion_inference([shares[0]], t=3, d=11)
    weights = report.distributions["candidate_secrets"].values()
    assert all(w == pytest.approx(1 / 11) for w in weights)


def test_broadcast_values_leak_nothing_about_shadows():
    # Enumerate all (shadow vector, offset vector) pairs consistent with a
    # fixed broadcast tuple at t=3, d=11: every value of each individual
    # shadow appears equally often.
    d, t = 11, 3
    broadcast = (3, 9, 4)
    per_value = [dict() for _ in range(t)]
    for m in itertools.product(range(d), repeat=t):
        a = tuple((b - mi) % d for b, mi in zip(broadcast, m))
        if sum(a) % d != 0:
            continue
        for u in range(t):
            per_value[u][m[u]] = per_value[u].get(m[u], 0) + 1
    for u in range(t):
        assert set(per_value[u]) == set(range(d))
        assert len(set(per_value[u].values())) == 1


def test_ghz_leg_marginal_exactly_uniform():
    # Analytic side of the uniform-marginal law used by every intercept
    # style attack (entangle-measure, collective, coherent included).
    state = prepare_ghz(3, 11)
    probs = np.abs(state.amplitudes) ** 2
    for pos in range(1, 4):
        reshaped = probs.reshape(11 ** (pos - 1), 11, 11 ** (3 - pos))
        np.testing.assert_allclose(reshaped.sum(axis=(0, 2)),
                                   np.full(11, 1 / 11), atol=1e-12)


def test_post_transform_leg_marginal_uniform():
    from qsms.qudit import analytic_post_transform_state, marginal_distribution
    state = analytic_post_transform_state(3, 11, (5, 4, 7))
    for pos in range(1, 4):
        np.testing.assert_allclose(marginal_distribution(state, pos),
                                   np.full(11, 1 / 11), atol=1e-12)
