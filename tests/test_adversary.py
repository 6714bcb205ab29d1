import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsms import adversary, affine, cli, protocol
from qsms.adversary import (
    AttackReport,
    ThresholdReachedError,
    collusion_inference,
    intercept_and_measure,
    intercept_resend,
    tv_distance,
    uniformity_bound,
)
from qsms.adversary import measure_leg
from qsms.affine import AffineState, support_mask
from qsms.protocol import ConfigError, RunConfig, post_transform, run_protocol
from qsms.qudit import prepare_ghz
from qsms.shamir import Share
from qsms.zmod import DimensionGuardError, FieldElement, is_prime


def test_tv_distance():
    assert tv_distance({"a": 1.0}, {"a": 1.0}) == 0.0
    assert tv_distance({"a": 1.0}, {"b": 1.0}) == 1.0
    assert tv_distance({"a": 0.5, "b": 0.5}, {"a": 1.0}) == pytest.approx(0.5)


def test_intercept_uniform_marginal_d11():
    report = intercept_and_measure(
        RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=100_000, seed=0), [(2, 3), (7, 9)]
    )
    assert report.passed
    assert abs(report.guess_rate - 1 / 11) < 0.02
    for dist in report.distributions.values():
        for p in dist.values():
            assert abs(p - 1 / 11) < 0.01


def test_intercept_rejects_d2_baseline_d3():
    # Z_2 has one nonzero evaluation point, too few for n=2 players; d = n is
    # outside (n, 2n], so only the allowance lets it reach the point rule.
    with pytest.raises(ConfigError, match="evaluation points"):
        intercept_and_measure(RunConfig(secrets=(0,), n=2, t=2, d=2, shots=10_000, seed=1,
                                        allow_out_of_range_prime=True), [(0,), (1,)])
    report = intercept_and_measure(
        RunConfig(secrets=(0,), n=2, t=2, d=3, shots=10_000, seed=1), [(0,), (1,)]
    )
    assert report.passed
    assert abs(report.guess_rate - 1 / 3) < 0.03


def test_intercept_secret_independence():
    report = intercept_and_measure(
        RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=100_000, seed=2), [(2, 3), (7, 9)]
    )
    key = "(2, 3) vs (7, 9)"
    assert report.tv_distances[key] <= 0.02


def _product_state(t, d):
    """|0...0>: the state of a protocol that sent no GHZ state."""
    return AffineState(d, np.zeros(t, dtype=np.int64), np.zeros((0, t), dtype=np.int64))


def test_intercept_observes_the_state_the_protocol_sends(monkeypatch):
    # A protocol that sent |0...0> instead of the GHZ state would hand the
    # eavesdropper a fixed digit; the check must catch it.
    monkeypatch.setattr(affine, "prepare_ghz", _product_state)
    report = intercept_and_measure(RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=1000),
                                   [(2, 3), (7, 9)])
    assert not report.passed
    assert report.guess_rate == 1.0


def test_intercept_resend_observes_the_state_the_protocol_sends(monkeypatch):
    # The same broken protocol under the resending attacker: every shot reads digit 0.
    monkeypatch.setattr(affine, "prepare_ghz", _product_state)
    report = intercept_resend(RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=1000))
    assert not report.passed
    assert report.guess_rate == 1.0 and report.distributions["attacker"] == {"0": 1.0}


def test_intercept_requires_two_pairs(capsys):
    # The Python API raises the ConfigError whose line the CLI prints, exit 2.
    config = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=10)
    for pairs in ([], [(2, 3)]):
        with pytest.raises(ConfigError, match="^need at least two secret tuples to compare$"):
            intercept_and_measure(config, pairs)
    # Not a list of lists: a ConfigError that names the argument, not a TypeError.
    for pairs in (5, 3.5, None):
        with pytest.raises(ConfigError, match="^secret_pairs must be a list, got "):
            intercept_and_measure(config, pairs)
    assert cli.main(["attack", "--kind", "intercept", "--secret-pairs", "2,3"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: need at least two secret tuples to compare\n"


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
    weights, state = post_transform(shadows, d, tap=measure_leg)
    np.testing.assert_allclose(weights, np.full(d, 1 / d), atol=1e-12)
    # Every branch ends in the one post-transform state.
    joint = sum(w * support_mask(state) / support_mask(state).sum() for w in weights)
    sums = np.add.outer(np.arange(d), np.arange(d)).reshape(-1) % d
    dist = np.bincount(sums, weights=joint, minlength=d)
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
    outcomes = run_quantum_phase([1, 1], 2, shots, rng, tap=measure_leg)
    counts = Counter(sum(o) % 2 for o in outcomes.digits.tolist())
    empirical = {str(k): v / shots for k, v in counts.items()}
    oracle = {str(k): v for k, v in exact_attacked_aggregate(2, 2, (1, 1)).items()}
    assert tv_distance(empirical, oracle) <= uniformity_bound(2, shots)


def test_intercept_resend_disturbs_aggregate():
    cfg = RunConfig(secrets=(1, 0), n=2, t=2, d=3, shots=4000, seed=4)
    report = intercept_resend(cfg)
    assert report.passed
    # Downstream damage: attacked aggregate spreads toward uniform while
    # the honest run is constant.
    assert report.details["honest_result"] == 1
    assert report.tv_distances["attacked aggregate vs honest"] > 0.3


def test_intercept_resend_attacker_sees_uniform_d11():
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=2048, seed=6,
                    polynomials=((2, 1, 1), (3, 1, 1)))
    report = intercept_resend(cfg)
    assert report.passed
    assert report.details["honest_result"] == 5
    assert abs(report.guess_rate - 1 / 11) < 0.05


def test_intercept_resend_runs_one_fourier_layer_and_one_draw_per_run(monkeypatch):
    # The d collapse branches share a basis, so they end in one state: one
    # Fourier layer and one draw, where one per branch would make 11 of each.
    # The honest result comes from the shadows, with no second run.
    calls = {"fourier_shift": 0, "sample": 0}
    for name in calls:
        original = getattr(affine, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(affine, name, counted)
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=4096, seed=6)
    assert intercept_resend(cfg).passed
    assert calls == {"fourier_shift": 1, "sample": 1}


@pytest.mark.parametrize("kind", ["intercept", "intercept-resend"])
def test_tap_attacks_draw_through_the_protocol_once_per_run(kind, monkeypatch):
    # Both attacks collapse the leg with one tap and split the shots among
    # its branches with the protocol's one draw: once per secret tuple, or
    # once for the attacked run. The eavesdropper's digits count every shot.
    draws = []

    def recorded(weights, shots, rng, original=protocol.branch_counts):
        np.testing.assert_allclose(weights, np.full(11, 1 / 11), rtol=0, atol=1e-15)
        draws.append(original(weights, shots, rng))
        return draws[-1]

    monkeypatch.setattr(protocol, "branch_counts", recorded)
    monkeypatch.setattr(adversary, "branch_counts", recorded)
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=3000, seed=4)
    if kind == "intercept":
        report = intercept_and_measure(cfg, [(2, 3), (7, 9), (1, 1)])
        seen = list(report.distributions.values())
    else:
        report = intercept_resend(cfg)
        seen = [report.distributions["attacker"]]
    assert len(draws) == len(seen)
    for counts, dist in zip(draws, seen):
        assert counts.sum() == 3000
        assert dist == {str(k): c / 3000 for k, c in enumerate(counts.tolist()) if c}


def test_intercept_resend_builds_three_states(monkeypatch):
    # The GHZ state, the one state the collapse keeps, and the post-transform
    # state: no state per digit.
    built = []

    class Recorded(AffineState):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(affine, "AffineState", Recorded)
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=4096, seed=6)
    assert intercept_resend(cfg).passed
    assert len(built) == 3


def _margin_reports():
    """Each report with the statistic its uniformity bound checks."""
    intercept = intercept_and_measure(
        RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=20_000, seed=0), [(2, 3), (7, 9)])
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=2048, seed=6)
    resend = intercept_resend(cfg)
    return [(intercept, max(intercept.tv_distances.values())),
            (resend, resend.tv_distances["attacker vs uniform"])]


def test_attack_reports_bound_margins():
    for report, tv in _margin_reports():
        details = report.details
        assert details["tv_margin"] == details["tv_bound"] - tv
        assert details["guess_rate_margin"] == (
            details["guess_rate_bound"] - abs(report.guess_rate - report.baseline)
        )
        assert report.passed and min(details["tv_margin"],
                                     details["guess_rate_margin"]) >= 0


@pytest.mark.parametrize("bound", ["uniformity_bound", "guess_rate_bound"])
def test_negative_margin_fails_the_report(bound, monkeypatch):
    monkeypatch.setattr(adversary, bound, lambda d, shots: 0.0)
    margin = "tv_margin" if bound == "uniformity_bound" else "guess_rate_margin"
    for report, _ in _margin_reports():
        assert report.details[margin] < 0
        assert not report.passed


def test_no_tap_control_identical_to_honest():
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=16, seed=7)
    honest = run_protocol(cfg)
    controlled = run_protocol(cfg, tap=lambda state: ([1.0], state))
    assert controlled.to_json() == honest.to_json()


def test_report_json_matches_stdlib_encoder(monkeypatch):
    # The transcript's writer renders each report, failing ones included.
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=500, seed=1)
    intercept = intercept_and_measure(cfg, [(2, 3), (7, 9)])
    collusion = collusion_inference(adversary.dealt_shares(cfg.resolved(), [2, 3]), t=3, d=11)
    assert collusion.tv_distances == {}
    reports = [intercept, intercept_resend(cfg), collusion,
               # Floats that repr writes with an exponent, a string to escape.
               replace(intercept, target='P["2"] \u00e9', guess_rate=1.5e-07,
                       details={"tiny": 5e-324, "big": 1e22, "none": None, "list": []})]
    # A GHZ state sent as |0...0>: the failing report of a broken protocol.
    monkeypatch.setattr(affine, "prepare_ghz", lambda t, d: AffineState(
        d, np.zeros(t, dtype=np.int64), np.zeros((0, t), dtype=np.int64)))
    failing = intercept_and_measure(cfg, [(2, 3), (7, 9)])
    assert not failing.passed and failing.guess_rate == 1.0
    for report in [*reports, failing]:
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)


def test_intercept_runs_no_fourier_layer(monkeypatch):
    # The tap reads the leg before any QFT, so Step 5 is never run.
    def refuse(*args):
        raise AssertionError("Fourier layer applied")

    monkeypatch.setattr(affine, "fourier_shift", refuse)
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=500, seed=1)
    assert intercept_and_measure(cfg, [(2, 3), (7, 9)]).passed


def test_intercept_sends_step_4_once_and_deals_nothing(monkeypatch):
    # Step 4 reads only t and d and comes before any share is used.
    def no_deal(*args):
        raise AssertionError("deal reached")

    sends = []
    monkeypatch.setattr(adversary, "deal", no_deal)
    monkeypatch.setattr(adversary, "send_ghz",
                        lambda *args: sends.append(args) or protocol.send_ghz(*args))
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=500, seed=1)
    assert intercept_and_measure(cfg, [(2, 3), (7, 9), (1, 1)]).passed
    assert sends == [(3, 11, measure_leg)]


def test_intercept_draws_from_a_runs_shot_generator():
    # Each tuple's branch counts, in order, from the generator a run at the seed draws from.
    report = intercept_and_measure(RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=500,
                                             seed=4), [(2, 3), (7, 9)])
    rng = protocol.run_generator(4, protocol.SHOTS)
    for dist in report.distributions.values():
        counts = protocol.branch_counts(np.full(11, 1 / 11), 500, rng)
        assert dist == {str(k): c / 500 for k, c in enumerate(counts.tolist()) if c}


def test_intercept_and_dealt_shares_each_build_one_generator(monkeypatch):
    built = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args: built.append(args) or default_rng(*args))
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=500, seed=4)
    intercept_and_measure(cfg, [(2, 3), (7, 9)])
    assert len(built) == 1  # the shot stream alone
    adversary.dealt_shares(cfg, [1, 2])
    assert len(built) == 2  # and then the deal stream alone


def test_dealt_shares_computes_no_shadows(monkeypatch):
    def refuse(*args):
        raise AssertionError("shadows computed")

    monkeypatch.setattr(protocol, "lagrange_weights", refuse)
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, seed=1).resolved()
    assert len(adversary.dealt_shares(cfg, [1, 2])) == 2


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


@pytest.mark.parametrize("d,t,k", [(5, 3, 1), (5, 3, 2), (7, 2, 1), (3, 4, 2)])
def test_collusion_matches_enumeration_oracle(d, t, k):
    # Oracle: every polynomial of degree < t, evaluated point by point.
    # Perfect secrecy: each secret keeps d^(t-k-1) consistent polynomials.
    rng = np.random.default_rng(d * 100 + t * 10 + k)
    coeffs = rng.integers(0, d, size=t)
    shares = [Share(FieldElement(x, d), FieldElement(
        sum(int(c) * x**j for j, c in enumerate(coeffs)), d)) for x in range(1, k + 1)]
    oracle = {}
    for cand in itertools.product(range(d), repeat=t):
        if all(sum(c * s.x.value**j for j, c in enumerate(cand)) % d == s.value.value
               for s in shares):
            oracle[cand[0]] = oracle.get(cand[0], 0) + 1
    assert oracle == {s: d ** (t - k - 1) for s in range(d)}
    report = collusion_inference(shares, t=t, d=d)
    assert report.passed
    assert report.details["candidates"] == sorted(oracle)
    assert report.distributions["candidate_secrets"] == {
        str(s): c / sum(oracle.values()) for s, c in sorted(oracle.items())
    }


def test_collusion_counts_beyond_enumeration():
    # 101^50 candidate polynomials: far too many to enumerate. 49 colluders
    # leave exactly one polynomial per secret.
    d, t = 101, 50
    coeffs = np.random.default_rng(50).integers(0, d, size=t).tolist()
    shares = [Share(FieldElement(x, d), FieldElement(
        sum(c * pow(x, j, d) for j, c in enumerate(coeffs)), d)) for x in range(1, t)]
    report = collusion_inference(shares, t=t, d=d)
    assert report.passed
    assert report.details["candidates"] == list(range(d))
    # One colluder fewer: d polynomials per secret, the same distribution.
    assert collusion_inference(shares[1:], t=t, d=d).to_dict() == {
        **report.to_dict(), "scenario": {**report.to_dict()["scenario"],
                                         "target": "48 colluders"}}


def test_collusion_inconsistent_shares_fail():
    # Two different values at one point: no polynomial fits, nothing survives.
    shares = [Share(FieldElement(1, 5), FieldElement(v, 5)) for v in (1, 2)]
    report = collusion_inference(shares, t=3, d=5)
    assert not report.passed
    assert report.details["candidate_count"] == 0


def test_collusion_threshold_set_rejected():
    shares = _paper_shares()
    with pytest.raises(ThresholdReachedError, match="legitimate"):
        collusion_inference(shares[:3], t=3, d=11)


@pytest.mark.parametrize("shares,d,match", [
    # Shares over Z_13 read mod 11 would report 11 candidates and pass.
    ([Share(FieldElement(1, 13), FieldElement(12, 13))], 11,
     r"^shares over Z_13 analysed with d=11$"),
    (_paper_shares()[:2], 9, r"^d=9 is not prime$"),
    ([], 9, r"^d=9 is not prime$"),
])
def test_collusion_rejects_a_wrong_modulus(shares, d, match):
    with pytest.raises(ConfigError, match=match):
        collusion_inference(shares, t=3, d=d)


@pytest.mark.parametrize("t, d, name", [(None, 11, "t"), ("3", 11, "t"), (2.0, 11, "t"),
                                        (True, 11, "t"), (3, None, "d"), (3, "11", "d")])
def test_collusion_rejects_a_non_integer_t_or_d(t, d, name):
    with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
        collusion_inference(_paper_shares()[:2], t=t, d=d)


def test_collusion_single_colluder_d5():
    cfg = RunConfig(secrets=(3,), n=3, t=2, d=5, shots=1, seed=8)
    transcript = run_protocol(cfg)
    report = collusion_inference([transcript.combined_shares[0]], t=2, d=5)
    assert report.passed
    assert report.details["candidate_count"] == 5


@pytest.mark.parametrize("config", [
    RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=64, seed=1),
    RunConfig(secrets=(4, 12), n=7, t=4, d=13, shots=1, seed=2**31 - 1),
    RunConfig(secrets=(3,), n=3, t=2, d=5, shots=8, seed=0,
              polynomials=((3, 1),)),
])
def test_dealt_shares_are_the_shares_a_run_deals(config):
    # The coalition's shares without a quantum phase: the same deal generator.
    players = [3, 1]
    want = run_protocol(config).combined_shares
    assert adversary.dealt_shares(config.resolved(), players) == [want[2], want[0]]


@pytest.mark.parametrize("config", [
    RunConfig(secrets=(2, 3), n=7, t=3, shots=100),
    # d outside (n, 2n]: its resolution was checked with the allowance.
    RunConfig(secrets=(2, 3), n=7, t=3, d=101, shots=100, seed=5,
              allow_out_of_range_prime=True),
])
def test_attacks_take_a_run_config_or_its_resolution(config):
    pairs, resolved = [(2, 3), (7, 9)], config.resolved()
    assert (intercept_and_measure(resolved, pairs).to_json()
            == intercept_and_measure(config, pairs).to_json())
    assert intercept_resend(resolved).to_json() == intercept_resend(config).to_json()
    assert adversary.dealt_shares(resolved, [3, 1]) == adversary.dealt_shares(config, [3, 1])


@pytest.mark.parametrize("players", [[0, 7], [-1], [1, 8], [2, 2]])
def test_dealt_shares_rejects_a_player_outside_1_to_n(players):
    # Player 0 once took player 7's share, -1 player 6's; 8 raised IndexError.
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, seed=1).resolved()
    with pytest.raises(ConfigError, match=r"^colluders must be distinct players in 1\.\.7$"):
        adversary.dealt_shares(cfg, players)


_RECORD_FREE_CONFIG = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=500, seed=0)
_SMALL_RUN = ["run", "--secrets", "2,3", "--n", "7", "--t", "3", "--d", "11",
              "--shots", "64"]
# Each job returns a value that is true when it succeeded.
_RECORD_FREE_JOBS = {
    "intercept": lambda tmp: intercept_and_measure(
        _RECORD_FREE_CONFIG, [(2, 3), (7, 9)]).shots == 500,
    "intercept-resend": lambda tmp: intercept_resend(_RECORD_FREE_CONFIG).passed,
    "run_protocol-to_json": lambda tmp: run_protocol(_RECORD_FREE_CONFIG).to_json(),
    "cli-demo-output": lambda tmp: cli.main(
        ["demo", "--shots", "64", "--output", str(tmp / "demo.json")]) == cli.EXIT_OK,
    "cli-run-json": lambda tmp: cli.main([*_SMALL_RUN, "--format", "json"]) == cli.EXIT_OK,
    "cli-run-csv": lambda tmp: cli.main([*_SMALL_RUN, "--format", "csv"]) == cli.EXIT_OK,
    "cli-run-pretty": lambda tmp: cli.main([*_SMALL_RUN, "--format", "pretty"]) == cli.EXIT_OK,
}


@pytest.mark.parametrize("job", list(_RECORD_FREE_JOBS))
def test_run_path_builds_no_records(job, monkeypatch, tmp_path, capsys):
    # Runs, their writers and the tap attacks read the prepared run's integers.
    def refuse(*args, **kwargs):
        raise AssertionError("player record built")

    for name in ("PlayerState", "Shadow", "Share"):
        monkeypatch.setattr(protocol, name, refuse)
    assert _RECORD_FREE_JOBS[job](tmp_path)
    assert capsys.readouterr().err == ""


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


# Fuzzed attack arguments stay small: n <= 12, shots <= 300, collusion's d <= 40.
_ARG_INT = st.integers(-2, 40)
_ARG = st.one_of(_ARG_INT, st.none(), st.booleans(), st.floats(-1, 40), st.text(max_size=3),
                 st.lists(_ARG_INT, max_size=3))
_ARG_LIST = st.one_of(st.lists(_ARG_INT, max_size=4), _ARG)
_ARG_ROWS = st.one_of(st.lists(st.lists(_ARG_INT, max_size=4), max_size=3), _ARG)
# Two or three secret tuples, each secret below every d a fuzzed config may have.
_SECRET_PAIRS = st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=3), min_size=2,
                         max_size=3)
# Config fields a fuzzed config may replace; d also beyond the branch guard.
_CONFIG_FIELDS = {"secrets": _ARG_LIST, "n": _ARG, "t": _ARG, "shots": _ARG, "seed": _ARG,
                  "d": st.one_of(_ARG, st.sampled_from([4099, 2**31 - 1])),
                  "qualified": _ARG_LIST, "evaluation_points": _ARG_LIST,
                  "polynomials": _ARG_ROWS}


@st.composite
def _attack_configs(draw):
    """A valid config (n <= 12, prime d in (n, 2n] or left out) with up to
    three fields replaced, as a RunConfig or, if it resolves, its resolution."""
    n = draw(st.integers(2, 12))
    d = draw(st.sampled_from([None, *[p for p in range(n + 1, 2 * n + 1) if is_prime(p)]]))
    fields = {"secrets": draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)),
              "n": n, "t": draw(st.integers(2, n)), "d": d,
              "shots": draw(st.integers(1, 300)), "seed": draw(st.integers(0, 2**64))}
    for key in draw(st.lists(st.sampled_from(sorted(_CONFIG_FIELDS)), max_size=3)):
        fields[key] = draw(_CONFIG_FIELDS[key])
    config = RunConfig(**fields, allow_out_of_range_prime=draw(st.booleans()))
    if draw(st.booleans()):
        try:
            return config.resolved()
        except (ConfigError, DimensionGuardError):
            pass
    return config


@st.composite
def _colluder_shares(draw):
    """(shares, t, d): Share records at nonzero points of one Z_p, p <= 13,
    and t and d near a coalition's, either of them possibly replaced."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    shares = draw(st.lists(st.builds(lambda x, v: Share(FieldElement(x, p), FieldElement(v, p)),
                                     st.integers(1, p - 1), _ARG_INT), max_size=5))
    return (shares, draw(st.one_of(st.integers(1, 6), _ARG)),
            draw(st.one_of(st.just(p), _ARG)))


# One bug reported at a time: pytest takes minutes to render several at once.
@settings(max_examples=200, deadline=None, report_multiple_bugs=False)
@given(config=_attack_configs(), colluders=_ARG_LIST, coalition=_colluder_shares(),
       pairs=st.one_of(_SECRET_PAIRS, st.lists(_ARG_LIST, max_size=3), _ARG))
def test_attack_entry_points_raise_only_clean_errors(config, pairs, colluders, coalition):
    # Every attack entry point of the Python API reports, or refuses its
    # arguments with a ConfigError, a guard or a legitimate reconstruction.
    attacks = [lambda: intercept_and_measure(config, pairs), lambda: intercept_resend(config),
               lambda: adversary.dealt_shares(config, colluders),
               lambda: collusion_inference(*coalition)]
    for attack in attacks:
        try:
            result = attack()
        except (ConfigError, DimensionGuardError, ThresholdReachedError):
            continue
        assert isinstance(result, (AttackReport, list))
