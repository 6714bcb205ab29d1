import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsms.protocol import (
    ConfigError,
    Message,
    RunConfig,
    aggregate,
    combine_local,
    deal,
    phase_distribution,
    prepare_run,
    run_protocol,
    run_quantum_phase,
)
from qsms.qudit import DimensionGuardError, analytic_post_transform_state
from qsms.shamir import reconstruct

PAPER_CONFIG = RunConfig(
    secrets=(2, 3),
    n=7,
    t=3,
    d=11,
    shots=32,
    seed=42,
    polynomials=((2, 1, 1), (3, 1, 1)),
)


def test_deal_reproduces_reference_rows():
    cfg = PAPER_CONFIG.resolved()
    polys, players, messages = deal(cfg.secrets, cfg, np.random.default_rng(0))
    f_row = [p.dealer_shares[0].value.value for p in players]
    g_row = [p.dealer_shares[1].value.value for p in players]
    assert f_row == [4, 8, 3, 0, 10, 0, 3]
    assert g_row == [5, 9, 4, 1, 0, 1, 4]
    assert len(messages) == 14


def test_deal_constant_polynomial():
    cfg = RunConfig(secrets=(4,), n=3, t=2, d=5, polynomials=((4, 0),),
                    shots=1).resolved()
    _, players, _ = deal((4,), cfg, np.random.default_rng(0))
    assert all(p.dealer_shares[0].value.value == 4 for p in players)


def test_deal_random_polynomials_round_trip():
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=1, seed=0).resolved()
    rng = np.random.default_rng(1)
    polys, players, _ = deal(cfg.secrets, cfg, rng)
    for k, secret in enumerate(cfg.secrets):
        shares = [p.dealer_shares[k] for p in players[2:5]]
        assert reconstruct(shares, cfg.d, threshold=cfg.t).value == secret


def test_combine_local_reference_row():
    cfg = PAPER_CONFIG.resolved()
    _, players, _ = deal(cfg.secrets, cfg, np.random.default_rng(0))
    h_row = [combine_local(p).value.value for p in players]
    assert h_row == [9, 6, 7, 1, 10, 1, 7]
    # Per-dealer shares are discarded after combination.
    assert all(p.dealer_shares is None for p in players)


def test_combine_local_single_dealer_is_identity():
    cfg = RunConfig(secrets=(4,), n=3, t=2, d=5, shots=1).resolved()
    _, players, _ = deal(cfg.secrets, cfg, np.random.default_rng(2))
    before = [p.dealer_shares[0].value.value for p in players]
    assert [combine_local(p).value.value for p in players] == before


def test_prepare_run_shadows():
    prepared = prepare_run(PAPER_CONFIG.resolved(), np.random.default_rng(0))
    assert prepared.shadows == [5, 4, 7]


def test_run_quantum_phase_digit_sum_law():
    rng = np.random.default_rng(3)
    for out in run_quantum_phase([5, 4, 7], 11, 50, rng).digits:
        assert sum(out) % 11 == 5


def test_run_quantum_phase_single_player():
    rng = np.random.default_rng(4)
    for out in run_quantum_phase([6], 11, 20, rng).digits:
        assert tuple(out) == (6,)


def test_run_quantum_phase_small_support():
    rng = np.random.default_rng(5)
    outcomes = {tuple(o) for o in run_quantum_phase([1, 2], 3, 500, rng).digits.tolist()}
    assert outcomes <= {(1, 2), (2, 1), (0, 0)}
    assert len(outcomes) == 3  # 500 shots cover a 3-element support


SMALL_SHAPES = [(d, t) for d in (2, 3, 5, 7, 11, 13) for t in range(1, 13)
                if d**t <= 4096]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sampled_distribution_matches_analytic_state(data):
    d, t = data.draw(st.sampled_from(SMALL_SHAPES))
    shadows = data.draw(st.lists(st.integers(0, d - 1), min_size=t, max_size=t))
    joint, labels = phase_distribution(shadows, d)
    analytic = np.abs(analytic_post_transform_state(t, d, shadows).amplitudes) ** 2
    assert joint.shape == (1, d**t) and labels == [()]
    np.testing.assert_allclose(joint[0], analytic, rtol=0, atol=1e-9)
    digits = run_quantum_phase(shadows, d, 64, np.random.default_rng(d * t)).digits
    assert digits.shape == (64, t)
    assert (digits.sum(axis=1) % d == sum(shadows) % d).all()


def test_tap_branches_count_against_guard():
    # 4097 branches of a 2^12-amplitude state exceed 2^24; the tap hands
    # back the same state object, so nothing large is allocated.
    def tap(state, position):
        return [(1 / 4097, k, state) for k in range(4097)]

    with pytest.raises(DimensionGuardError, match="branches"):
        run_quantum_phase([0] * 12, 2, 8, np.random.default_rng(0), tap=tap)


def test_aggregate():
    assert aggregate([(5, 4, 7), (0, 0, 0)], 11).tolist() == [5, 0]
    assert aggregate([(1, 2), (2, 1), (0, 0)], 3).tolist() == [0, 0, 0]
    with pytest.raises(ValueError, match="digit"):
        aggregate([(11,)], 11)


def test_run_protocol_reference_result():
    transcript = run_protocol(PAPER_CONFIG)
    assert transcript.result == 5
    assert transcript.result_binary == "101"
    assert [s.value.value for s in transcript.shadows] == [5, 4, 7]
    assert set(transcript.per_shot_sums) == {5}


def test_run_protocol_zero_secrets():
    transcript = run_protocol(RunConfig(secrets=(0, 0), n=4, t=2, d=5, shots=8))
    assert transcript.result == 0
    assert transcript.result_binary == "0"


def test_run_protocol_random_configs_match_integer_oracle():
    rng = random.Random(6)
    for _ in range(100):
        d = rng.choice([5, 7, 11, 13])
        n = rng.randint(3, min(7, d - 1))
        t = rng.randint(2, min(3, n))
        k = rng.randint(1, 3)
        secrets = tuple(rng.randrange(d) for _ in range(k))
        cfg = RunConfig(secrets=secrets, n=n, t=t, d=d, shots=4,
                        seed=rng.randrange(2**32), allow_out_of_range_prime=True)
        assert run_protocol(cfg).result == sum(secrets) % d


def test_any_qualified_set_gives_same_result():
    for subset in itertools.combinations(range(1, 8), 3):
        cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=2, seed=9,
                        qualified=subset, polynomials=((2, 1, 1), (3, 1, 1)))
        assert run_protocol(cfg).result == 5


def test_shot_variability_with_constant_aggregate():
    transcript = run_protocol(PAPER_CONFIG)
    assert len({tuple(o) for o in transcript.outcomes.tolist()}) > 1
    assert set(transcript.per_shot_sums) == {5}


def test_transcript_privacy_shape():
    transcript = run_protocol(PAPER_CONFIG)
    points = transcript.config.evaluation_points
    for msg in transcript.messages:
        if msg.kind == "share":
            receiver_index = int(msg.receiver[1:])
            assert msg.payload["x"] == points[receiver_index - 1]
        elif msg.kind == "particle":
            # Quantum sends carry no classical payload beyond the slot.
            assert set(msg.payload) == {"position"}


def test_player_records_hold_only_own_data():
    prepared = prepare_run(PAPER_CONFIG.resolved(), np.random.default_rng(0))
    points = PAPER_CONFIG.resolved().evaluation_points
    for player in prepared.players:
        assert player.combined.x.value == points[player.index - 1]


def test_transcript_determinism():
    a = run_protocol(PAPER_CONFIG).to_json()
    b = run_protocol(PAPER_CONFIG).to_json()
    assert a == b


def test_transcript_json_sections():
    doc = run_protocol(PAPER_CONFIG).to_dict()
    for key in ("config", "shares", "shadows", "messages", "histogram",
                "result", "result_binary", "seed"):
        assert key in doc
    assert doc["histogram"]["shots"] == 32
    assert all("-" in label for label in doc["histogram"]["counts"])


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(secrets=(2,), n=3, t=4), "threshold"),
        (dict(secrets=(2,), n=3, t=2, d=4), "not prime"),
        (dict(secrets=(2,), n=3, t=2, d=23), "outside"),
        (dict(secrets=(9,), n=3, t=2, d=3), "secret"),
        (dict(secrets=(2,), n=3, t=2, d=3), "evaluation points"),
        (dict(secrets=(2,), n=3, t=2, d=5, qualified=(1, 1)), "distinct"),
        (dict(secrets=(2,), n=3, t=2, d=5, shots=0), "shots"),
        (dict(secrets=(2,), n=3, t=2, d=5, polynomials=((1, 0),)), "constant"),
    ],
)
def test_config_validation(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        RunConfig(**kwargs).resolved()


def test_config_prime_override():
    cfg = RunConfig(secrets=(2,), n=3, t=2, d=23,
                    allow_out_of_range_prime=True).resolved()
    assert cfg.d == 23
    assert run_protocol(cfg).result == 2


def test_default_prime_selection():
    # Smallest prime that hosts n distinct nonzero points: d = 11 for n = 7,
    # matching the worked example's choice.
    cfg = RunConfig(secrets=(1,), n=7, t=3, shots=1).resolved()
    assert cfg.d == 11
    assert RunConfig(secrets=(1,), n=2, t=2, shots=1).resolved().d == 3
