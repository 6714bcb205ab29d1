import functools
import itertools
import json
import random
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qsms.protocol import (
    ConfigError,
    ProtocolTranscript,
    RunConfig,
    _json_list,
    aggregate,
    combine,
    deal,
    post_transform_branches,
    prepare_run,
    run_protocol,
    run_quantum_phase,
)
from qsms import affine, cli, protocol, qudit, shamir, zmod
from qsms.affine import DimensionGuardError, collapse_branches, support_mask
from qsms.qudit import analytic_post_transform_state
from qsms.shamir import (
    Polynomial,
    Share,
    add_shares,
    compute_shadow,
    generate_shares,
    reconstruct,
)
from qsms.zmod import FieldElement

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
    rows = deal(cfg, np.random.default_rng(0))
    assert rows.dtype == np.int64
    assert rows.tolist() == [[4, 8, 3, 0, 10, 0, 3], [5, 9, 4, 1, 0, 1, 4]]
    messages = run_protocol(PAPER_CONFIG).messages
    assert [m["kind"] for m in messages] == ["share"] * 14 + ["particle"] * 2


def test_deal_constant_polynomial():
    cfg = RunConfig(secrets=(4,), n=3, t=2, d=5, polynomials=((4, 0),),
                    shots=1).resolved()
    rows = deal(cfg, np.random.default_rng(0))
    assert rows.tolist() == [[4, 4, 4]]


def test_deal_random_polynomials_round_trip():
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=1, seed=0).resolved()
    rng = np.random.default_rng(1)
    rows = deal(cfg, rng)
    for row, secret in zip(rows.tolist(), cfg.secrets):
        shares = [Share(FieldElement(x, cfg.d), FieldElement(v, cfg.d))
                  for x, v in zip(cfg.evaluation_points, row)][2:5]
        assert reconstruct(shares, cfg.d, threshold=cfg.t).value == secret


def test_combine_local_reference_row():
    cfg = PAPER_CONFIG.resolved()
    rows = deal(cfg, np.random.default_rng(0))
    assert combine(rows, cfg.d).tolist() == [9, 6, 7, 1, 10, 1, 7]
    # Player records hold only the combined share, never the per-dealer ones.
    players = prepare_run(cfg, np.random.default_rng(0)).players
    assert [p.combined.value.value for p in players] == [9, 6, 7, 1, 10, 1, 7]
    assert not hasattr(players[0], "dealer_shares")


def test_combine_local_single_dealer_is_identity():
    cfg = RunConfig(secrets=(4,), n=3, t=2, d=5, shots=1).resolved()
    rows = deal(cfg, np.random.default_rng(2))
    assert combine(rows, cfg.d).tolist() == rows[0].tolist()


def test_prepare_run_shadows():
    prepared = prepare_run(PAPER_CONFIG.resolved(), np.random.default_rng(0))
    assert prepared.shadows == [5, 4, 7]
    assert [prepared.players[i - 1].shadow.value.value for i in (1, 2, 3)] == [5, 4, 7]


# Small primes, and moduli on both sides of the int64 bound 2^31: 2^31 - 1
# (int64 arrays), 2147483659 (the first prime above 2^31) and 2^61 - 1
# (exact Python ints in object arrays).
ORACLE_MODULI = (3, 5, 7, 11, 13, 101, 2**31 - 1, 2147483659, 2**61 - 1)


@st.composite
def _classical_configs(draw):
    d = draw(st.sampled_from(ORACLE_MODULI))
    t = draw(st.integers(2, min(12, d - 1)))
    n = draw(st.integers(t, min(t + 4, d - 1)))
    points = draw(st.lists(st.integers(1, d - 1), min_size=n, max_size=n, unique=True))
    # Points and pinned coefficients beyond [0, d) are reduced mod d.
    points = [p + d * draw(st.integers(-1, 1)) for p in points]
    dealers = draw(st.integers(1, 4))
    secrets = draw(st.lists(st.integers(0, d - 1), min_size=dealers, max_size=dealers))
    polynomials = None
    if draw(st.booleans()):
        polynomials = [
            [s + d * draw(st.integers(-1, 1))]
            + draw(st.lists(st.integers(-d, 2 * d), min_size=t - 1, max_size=t - 1))
            for s in secrets
        ]
    qualified = draw(st.permutations(range(1, n + 1)))[:t]
    return RunConfig(secrets=secrets, n=n, t=t, d=d, qualified=qualified,
                     evaluation_points=points, shots=1, seed=draw(st.integers(0, 2**32)),
                     polynomials=polynomials, allow_out_of_range_prime=True).resolved()


@settings(max_examples=150, deadline=None)
@given(cfg=_classical_configs())
def test_classical_phase_matches_object_api(cfg):
    d, t = cfg.d, cfg.t
    prepared = prepare_run(cfg, np.random.default_rng(cfg.seed))
    # The object API, with the per-dealer scalar draws of the same stream.
    rng = np.random.default_rng(cfg.seed)
    polys = (
        [Polynomial.from_ints(p, d) for p in cfg.polynomials]
        if cfg.polynomials is not None
        else [Polynomial.random(s, t - 1, d, rng) for s in cfg.secrets]
    )
    assert prepared.dealer_rows.dtype == (np.int64 if d < 2**31 else object)
    assert prepared.dealer_rows.tolist() == [
        [poly.evaluate(x).value for x in cfg.evaluation_points] for poly in polys
    ]
    dealt = [generate_shares(poly, cfg.evaluation_points, d) for poly in polys]
    # The transcript's message view reads only the config and the dealer
    # rows, which the prepared run holds too: no quantum phase runs at d >= 2^31.
    messages = ProtocolTranscript.messages.fget(prepared)
    assert [m["payload"] for m in messages if m["kind"] == "share"] == [
        s.to_json() for row in dealt for s in row
    ]
    combined = [functools.reduce(add_shares, column) for column in zip(*dealt)]
    assert [p.combined for p in prepared.players] == combined
    assert [prepared.combined_share(i) for i in range(1, cfg.n + 1)] == combined
    qualified_points = [cfg.evaluation_points[i - 1] for i in cfg.qualified]
    shadows = [compute_shadow(combined[i - 1], u, qualified_points, d)
               for u, i in enumerate(cfg.qualified, start=1)]
    assert [prepared.players[i - 1].shadow for i in cfg.qualified] == shadows
    assert prepared.shadows == [s.value.value for s in shadows]
    qualified_shares = [combined[i - 1] for i in cfg.qualified]
    assert reconstruct(qualified_shares, d, threshold=t).value == sum(cfg.secrets) % d


def test_prepare_run_stays_off_the_per_product_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-product field arithmetic on the run path")

    monkeypatch.setattr(shamir.Polynomial, "evaluate", refuse)
    monkeypatch.setattr(shamir, "lagrange_coefficient", refuse)
    monkeypatch.setattr(zmod, "lagrange_coefficient", refuse)
    cfg = RunConfig(secrets=(3, 5), n=60, t=50, d=101, shots=1).resolved()
    prepared = prepare_run(cfg, np.random.default_rng(0))
    assert sum(prepared.shadows) % cfg.d == 8


def test_run_path_stays_off_the_dense_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense qudit engine on the run path")

    for name, value in list(vars(qudit).items()):
        if not name.startswith("_") and callable(value):
            monkeypatch.setattr(qudit, name, refuse)
    assert run_protocol(PAPER_CONFIG).result == 5

    tapped = run_protocol(PAPER_CONFIG, tap=lambda state: collapse_branches(state, 2))
    assert sorted(set(tapped.tap_labels)) == list(range(11))
    for argv in (["--kind", "intercept"], ["--kind", "intercept-resend"],
                 ["--kind", "collusion", "--colluders", "1,2"]):
        assert cli.main(["attack", "--shots", "2000", *argv]) == cli.EXIT_OK


def test_tap_probabilities_must_sum_to_one():
    with pytest.raises(ValueError, match=r"^tap branch probabilities sum to 0.25, not 1$"):
        run_protocol(PAPER_CONFIG, tap=lambda state: [(0.25, None, state)])


def _weighted_tap(weights):
    """A tap that splits the send to slot 2 into one branch per weight, every
    branch passing the state on unchanged."""
    def tap(state):
        return [(w, i, state) for i, w in enumerate(weights)]
    return tap


@pytest.mark.parametrize("shots", [1, 100, 8192])
@pytest.mark.parametrize("branches", [1, 2, 11, 121])
def test_branch_draw_matches_rng_choice(branches, shots, monkeypatch):
    # rng.choice is the oracle: the same branches, and the stream left where
    # it leaves it, which is where the outcome draw starts.
    weights = np.arange(1, branches + 1) / (branches * (branches + 1) / 2)
    at_sample = []

    def sample(state, count, rng):
        at_sample.append(rng.bit_generator.state)
        return np.zeros((count, state.t), dtype=np.int64)

    monkeypatch.setattr(affine, "sample", sample)
    phase = run_quantum_phase([5, 4, 7], 11, shots, np.random.default_rng(3),
                              _weighted_tap(weights.tolist()))
    oracle = np.random.default_rng(3)
    want = oracle.choice(branches, size=shots, p=weights / weights.sum())
    assert phase.branch.dtype == want.dtype
    assert np.array_equal(phase.branch, want)
    assert at_sample == [oracle.bit_generator.state]


@pytest.mark.parametrize("weights", [[1.5, -0.5], [float("nan"), 1.0],
                                     [float("inf"), 1.0]])
def test_branch_draw_rejects_what_rng_choice_rejects(weights):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(2, size=4, p=np.array(weights))
    with pytest.raises(ValueError, match="tap branch probabilities"):
        run_quantum_phase([5, 4, 7], 11, 4, np.random.default_rng(0),
                          _weighted_tap(weights))


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
    [(weight, label, state)] = post_transform_branches(shadows, d)
    support = support_mask(state)
    analytic = np.abs(analytic_post_transform_state(t, d, shadows).amplitudes) ** 2
    assert weight == 1.0 and label is None
    np.testing.assert_allclose(support / support.sum(), analytic, rtol=0, atol=1e-9)
    digits = run_quantum_phase(shadows, d, 64, np.random.default_rng(d * t)).digits
    assert digits.shape == (64, t)
    assert (digits.sum(axis=1) % d == sum(shadows) % d).all()


def test_tap_branches_count_against_guard(monkeypatch):
    # The tap is caller code: the branches it returns are counted.
    monkeypatch.setattr(affine, "BRANCH_GUARD", 4096)
    calls = []

    def tap(state):
        calls.append(state)
        return [(1 / 4097, k, state) for k in range(4097)]

    with pytest.raises(DimensionGuardError, match="^4097 tap branches exceed guard 4096$"):
        run_quantum_phase([0] * 3, 2, 8, np.random.default_rng(0), tap=tap)
    assert len(calls) == 1


def test_collapse_beyond_guard_is_refused_before_its_branches_are_built(monkeypatch):
    monkeypatch.setattr(affine, "BRANCH_GUARD", 10)
    built = []

    class Recorded(affine.AffineState):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(affine, "AffineState", Recorded)
    with pytest.raises(DimensionGuardError, match="^11 tap branches exceed guard 10$"):
        post_transform_branches([0] * 3, 11, tap=lambda state: collapse_branches(state, 2))
    assert len(built) == 1  # the GHZ state alone


def test_tap_sees_the_one_send_to_slot_2(monkeypatch):
    # Called once, on the GHZ state itself, whatever t is; its labels are the
    # transcript's, one per branch.
    prepared, calls = [], []

    def prepare_ghz(t, d, original=affine.prepare_ghz):
        prepared.append(original(t, d))
        return prepared[-1]

    def tap(state):
        calls.append(state)
        return [(0.25, "kept", state), (0.75, "again", state)]

    monkeypatch.setattr(affine, "prepare_ghz", prepare_ghz)
    cfg = RunConfig(secrets=(1, 2), n=7, t=5, d=11, shots=64, seed=3)
    transcript = run_protocol(cfg, tap=tap)
    assert len(prepared) == 1 and len(calls) == 1 and calls[0] is prepared[0]
    assert transcript.tap_labels == ["kept", "again"]
    # With t = 1 there is no send, so no tap.
    phase = run_quantum_phase([6], 11, 4, np.random.default_rng(0), tap=tap)
    assert len(calls) == 1 and phase.labels == [None]


def _per_branch_quantum_phase(shadows, d, shots, rng, tap):
    """The quantum phase with one Fourier layer per tap branch, each shot's
    branch from ``rng.choice``, then one coefficient draw for every shot in
    shot order, shot j's digits offset + r_j @ basis mod d in its own
    branch's state: the oracle for the shared layer and draw of
    ``run_quantum_phase``."""
    ghz = affine.prepare_ghz(len(shadows), d)
    branches = [(1.0, None, ghz)] if tap is None else tap(ghz)
    states = [affine.fourier_shift(state, shadows) for _, _, state in branches]
    weights = np.array([weight for weight, _, _ in branches])
    branch = rng.choice(len(weights), size=shots, p=weights / weights.sum())
    coeffs = rng.integers(0, d, size=(shots, len(states[0].basis)))
    digits = np.array([(states[b].offset + r @ states[b].basis) % d
                       for b, r in zip(branch.tolist(), coeffs)], dtype=np.int64)
    return digits, branch, [label for _, label, _ in branches]


def _copied(branches):
    """The branches with equal but distinct basis arrays."""
    return [(p, label, affine.AffineState(s.d, s.offset, s.basis.copy()))
            for p, label, s in branches]


# Taps on the send to slot 2: collapse, or collapse into distinct basis arrays.
_LEG_TAPS = {
    "collapse": lambda state: collapse_branches(state, 2),
    "copies": lambda state: _copied(collapse_branches(state, 2)),
}


@st.composite
def _tapped_phases(draw):
    """(shadows, d, shots, seed, tap): d <= 31, t <= 5, 1..300 shots, and
    one tap from ``_LEG_TAPS`` by name, or None for no tap."""
    d = draw(st.sampled_from([2, *_ODD_PRIMES]))
    t = draw(st.integers(2, 5))
    shadows = draw(st.lists(st.integers(0, d - 1), min_size=t, max_size=t))
    tap = draw(st.sampled_from([None, *_LEG_TAPS]))
    return shadows, d, draw(st.integers(1, 300)), draw(st.integers(0, 2**32)), tap


@settings(max_examples=60, deadline=None)
@given(case=_tapped_phases())
@example(case=([5, 4, 7], 11, 300, 1, "collapse"))  # intercept-resend's tap
@example(case=([5, 4, 7], 11, 300, 1, "copies"))
def test_run_quantum_phase_matches_per_branch_oracle(case):
    shadows, d, shots, seed, name = case
    tap = None if name is None else _LEG_TAPS[name]
    phase = run_quantum_phase(shadows, d, shots, np.random.default_rng(seed), tap=tap)
    digits, branch, labels = _per_branch_quantum_phase(
        shadows, d, shots, np.random.default_rng(seed), tap)
    np.testing.assert_array_equal(phase.digits, digits)
    np.testing.assert_array_equal(phase.branch, branch)
    assert phase.labels == labels


def test_tap_branches_must_share_one_basis():
    # Passing with probability 1/2 and collapsing otherwise leaves branches in
    # two bases; the run is refused before anything is drawn.
    def mixed(state):
        return [(0.5, "pass", state)] + [
            (p / 2, label, out) for p, label, out in collapse_branches(state, 2)]

    rng = np.random.default_rng(2)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="^tap branches must share one basis$"):
        run_quantum_phase([1, 2, 3, 4], 5, 300, rng, tap=mixed)
    assert rng.bit_generator.state == before
    with pytest.raises(ValueError, match="^tap returned no branches$"):
        run_quantum_phase([1, 2, 3, 4], 5, 300, rng, tap=lambda state: [])
    assert rng.bit_generator.state == before


def _short_dual(basis, d, original=affine._dual):
    """``_dual`` one row short: its first free column counted as a pivot."""
    null, free, pivots = original(basis, d)
    return null[1:], free[1:], sorted([free[0], *pivots])


def _shifted_offset(state, shadows, original=affine.fourier_shift):
    """Qudit 1's offset digit one higher."""
    out = original(state, shadows)
    offset = out.offset.copy()
    offset[0] = (offset[0] + 1) % out.d
    return affine.AffineState(out.d, offset, out.basis, out.columns)


def _unbalanced_row(state, shadows, original=affine.fourier_shift):
    """Row 0 no longer sums to 0 mod d; the identity on the free columns stays."""
    out = original(state, shadows)
    basis = out.basis.copy()
    basis[0, out.columns[1][0]] += 1
    basis %= out.d
    return affine.AffineState(out.d, out.offset, basis, (out.columns[0], out.columns[1],
                                                         basis[:, out.columns[1]]))


@pytest.mark.parametrize("name, mutant", [("_dual", _short_dual),
                                          ("fourier_shift", _shifted_offset),
                                          ("fourier_shift", _unbalanced_row)])
def test_honest_run_checks_the_summation_coset_before_drawing(name, mutant, monkeypatch):
    # The sampled check passes each mutant at 1 shot, and the first two at
    # any count: the short dual keeps the result (5) on 11 of the 121 coset
    # rows, the shifted offset gives 6. The exact check fails each at 1 shot.
    monkeypatch.setattr(affine, name, mutant)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(AssertionError,
                       match="^honest post-transform state is not the summation coset$"):
        run_quantum_phase([5, 4, 7], 11, 1, rng)
    assert rng.bit_generator.state == before
    with pytest.raises(AssertionError, match="summation coset"):
        run_protocol(replace(PAPER_CONFIG, shots=1))


@pytest.mark.parametrize("n, t, d", [(60, 50, 101), (200, 150, 211), (300, 300, 307)])
def test_honest_runs_at_target_size_pass_the_coset_check(n, t, d):
    cfg = RunConfig(secrets=(3, 5), n=n, t=t, d=d, shots=1)
    assert run_protocol(cfg).per_shot_sums.tolist() == [8]


@pytest.mark.parametrize("d", [2**31 + 11, 2**61 - 1])
def test_quantum_phase_rejects_modulus_beyond_int64(d):
    # Products of two residues must stay below 2^63, so d < 2^31.
    cfg = RunConfig(secrets=(1,), n=7, t=3, d=d, shots=4,
                    allow_out_of_range_prime=True)
    with pytest.raises(DimensionGuardError, match="2\\^31"):
        run_protocol(cfg)
    assert run_protocol(replace(cfg, d=2**31 - 1, shots=4)).result == 1


def test_aggregate():
    assert aggregate([(5, 4, 7), (0, 0, 0)], 11).tolist() == [5, 0]
    assert aggregate([(1, 2), (2, 1), (0, 0)], 3).tolist() == [0, 0, 0]
    with pytest.raises(ValueError, match="digit"):
        aggregate([(11,)], 11)


@st.composite
def _digit_arrays(draw):
    """(digits, d): a (shots, t) array with 0 to 50 shots, C- or F-ordered,
    or a single row of t digits."""
    d = draw(st.sampled_from([2, 3, 11, 101, 2**31 - 1]))
    t = draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(t,), (0, t), (draw(st.integers(1, 50)), t)]))
    digits = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, d - 1)))
    return (np.asfortranarray(digits) if draw(st.booleans()) else digits), d


@given(case=_digit_arrays())
@example(case=(np.empty((0, 3), dtype=np.int64), 11))
@example(case=(np.array([5, 4, 7]), 11))
@example(case=(np.asfortranarray([[5, 4, 7], [10, 10, 10]]), 11))
def test_aggregate_matches_row_sum(case):
    digits, d = case
    np.testing.assert_array_equal(aggregate(digits, d), np.sum(digits, axis=-1) % d)


@given(case=_digit_arrays(), data=st.data())
def test_aggregate_names_first_digit_out_of_range(case, data):
    digits, d = case
    assume(digits.size)
    digits = digits.copy(order="A")
    at = data.draw(st.integers(0, digits.size - 1))
    digits.flat[at] = data.draw(st.sampled_from([-1, d, 2 * d + 3]))
    first = next(v for v in digits.ravel().tolist() if not 0 <= v < d)
    with pytest.raises(ValueError, match=rf"^digit {first} outside \[0, {d}\)$"):
        aggregate(digits, d)


def test_run_protocol_reference_result():
    transcript = run_protocol(PAPER_CONFIG)
    assert transcript.result == 5
    assert transcript.result_binary == "101"
    assert transcript.shadows == [5, 4, 7]
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
        if msg["kind"] == "share":
            receiver_index = int(msg["receiver"][1:])
            assert msg["payload"]["x"] == points[receiver_index - 1]
        elif msg["kind"] == "particle":
            # Quantum sends carry no classical payload beyond the slot.
            assert set(msg["payload"]) == {"position"}


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


_ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@st.composite
def _transcripts(draw):
    """An honest run (t=2..4, d <= 31, 1..300 shots) or an intercept-resend
    run tapping slot 2, whose per-shot sums vary."""
    tapped = draw(st.booleans())
    t = draw(st.integers(2, 4))
    d = draw(st.sampled_from([p for p in _ODD_PRIMES if t < p]))
    n = draw(st.integers(t, d - 1))
    secrets = tuple(draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=3)))
    cfg = RunConfig(secrets=secrets, n=n, t=t, d=d, shots=draw(st.integers(1, 300)),
                    seed=draw(st.integers(0, 2**32)), allow_out_of_range_prime=True)

    def tap(state):
        return collapse_branches(state, 2)

    return run_protocol(cfg, tap=tap if tapped else None)


@settings(max_examples=60, deadline=None)
@given(transcript=_transcripts())
# t=50: every row is distinct, and the table sorts on 50 key columns.
@example(transcript=run_protocol(RunConfig(secrets=(3, 5), n=60, t=50, d=101, shots=2000)))
# Config values the writer renders itself: points written as given (one
# negative, one >= d), a qualified set out of order, pinned polynomials and a
# modulus of ten digits.
@example(transcript=run_protocol(RunConfig(secrets=(3, 5), n=6, t=3, d=11, shots=40,
                                           evaluation_points=(-1, 12, 3, 4, 5, 6))))
@example(transcript=run_protocol(RunConfig(secrets=(3, 5), n=7, t=3, d=11, shots=40,
                                           qualified=(5, 2, 7))))
@example(transcript=run_protocol(RunConfig(secrets=(3, 5), n=7, t=3, d=11, shots=40,
                                           polynomials=((3, 1, 10), (5, 0, 2)))))
@example(transcript=run_protocol(RunConfig(secrets=(3, 5), n=4, t=3, d=2**31 - 1,
                                           shots=40, allow_out_of_range_prime=True)))
def test_to_json_matches_stdlib_encoder(transcript):
    """The stdlib encoder is the oracle for the bulk writer's bytes."""
    text = transcript.to_json()
    _assert_same_text(text, json.dumps(transcript.to_dict(), indent=2))
    round_trips = json.loads(text) == transcript.to_dict()
    assert round_trips


_BLOCK = protocol.SHOTS_PER_BLOCK


@pytest.mark.parametrize("tapped", [False, True])
@pytest.mark.parametrize("shots", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_write_json_to_a_file_matches_stdlib_encoder(shots, tapped, tmp_path):
    """The streamed writer's bytes on either side of each block boundary,
    with and without a tap whose per-shot sums vary."""
    def tap(state):
        return collapse_branches(state, 2)

    transcript = run_protocol(RunConfig(secrets=(4, 9), n=7, t=3, d=11, shots=shots,
                                        seed=shots), tap=tap if tapped else None)
    path = tmp_path / "transcript.json"
    with open(path, "w") as fh:
        transcript.write_json(fh)
    want = json.dumps(transcript.to_dict(), indent=2)
    _assert_same_text(path.read_text(), want)
    assert transcript.to_json() == want


@pytest.mark.parametrize("shots", [2, _BLOCK, _BLOCK + 1])
def test_per_shot_sums_unequal_in_the_last_shot_match_stdlib_encoder(shots):
    """Equal sums are written as one repeated text; one that differs, in the
    last block, must still be written."""
    honest = run_protocol(RunConfig(secrets=(4, 9), n=7, t=3, d=11, shots=shots))
    sums = honest.per_shot_sums.copy()
    sums[-1] = (sums[-1] + 1) % 11
    transcript = replace(honest, per_shot_sums=sums)
    _assert_same_text(transcript.to_json(), json.dumps(transcript.to_dict(), indent=2))


# (n, t, d): 2d - 2 = 252 fills uint8; d = 131 needs uint16; t * (d - 1) =
# 91800 at t = 300, d = 307 overflows a uint16 accumulator.
@pytest.mark.parametrize("n,t,d,dtype", [(100, 60, 127, np.uint8),
                                         (100, 60, 131, np.uint16),
                                         (300, 300, 307, np.uint16)])
def test_narrow_digits_are_exact(n, t, d, dtype):
    secrets = (d - 1, d - 2, 5)
    transcript = run_protocol(RunConfig(secrets=secrets, n=n, t=t, d=d, shots=500))
    assert affine.digit_dtype(d) == dtype
    assert transcript.outcomes.dtype == dtype
    assert transcript.per_shot_sums.dtype == dtype
    assert set(transcript.per_shot_sums.tolist()) == {sum(secrets) % d}
    reference = [sum(row) % d for row in transcript.outcomes.tolist()]
    assert transcript.per_shot_sums.tolist() == reference
    assert max(max(row) for row in transcript.outcomes.tolist()) < d
    # An honest run's sums stay far below t * (d - 1), so the accumulator's
    # width is checked on the largest digits.
    top = np.full((3, t), d - 1, dtype=dtype)
    assert aggregate(top, d).tolist() == [t * (d - 1) % d] * 3


@pytest.mark.parametrize("digits,d,text", [
    (np.array([[3, -1], [0, 0]]), 11, "digit -1 outside [0, 11)"),
    (np.array([[3, 11], [12, 0]]), 11, "digit 11 outside [0, 11)"),
    (np.full((2, 300), 306).tolist() + [[307] * 300], 307, "digit 307 outside [0, 307)"),
    (np.array([[200, 3]], dtype=np.uint8), 127, "digit 200 outside [0, 127)"),
])
def test_aggregate_rejects_digits_outside_the_field(digits, d, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        aggregate(digits, d)


def _assert_same_text(got: str, want: str) -> None:
    """``got == want``, a failure reported by lengths and the first differing
    offset: pytest's own diff of two transcripts can take a minute."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        context = slice(max(0, at - 30), at + 30)
        pytest.fail(f"texts differ: lengths {len(got)} and {len(want)}, first at "
                    f"offset {at}: {got[context]!r} != {want[context]!r}")


def _small_run(d, n, t, repeat=1, **config):
    """A 500-shot run, its outcome rows repeated ``repeat`` times."""
    transcript = run_protocol(RunConfig(secrets=(3, 5), n=n, t=t, d=d, shots=500,
                                        **config))
    return replace(transcript, outcomes=np.repeat(transcript.outcomes, repeat, axis=0))


def _last_digit_rows(d, n, t):
    """A 500-shot run's rows with the first row's leading t - 1 digits: the
    rows differ only in their last digit."""
    transcript = _small_run(d, n, t)
    outcomes = transcript.outcomes.copy()
    outcomes[:, :-1] = outcomes[0, :-1]
    return replace(transcript, outcomes=outcomes)


@settings(max_examples=60, deadline=None)
@given(transcript=_transcripts())
# 50 uint8 key columns over 8192 shots.
@example(transcript=run_protocol(RunConfig(secrets=(3, 5), n=60, t=50, d=101, shots=8192)))
# uint8 columns with digits of 128 and more (d=211), and short and long rows
# at d=29, also with each row repeated so that counts exceed 1.
@example(transcript=_small_run(211, 110, 8))
@example(transcript=_small_run(211, 110, 9))
@example(transcript=_small_run(29, 20, 12))
@example(transcript=_small_run(29, 20, 13))
@example(transcript=_small_run(29, 20, 13, repeat=3))
# uint16 columns (d=257) and uint32 columns (d=65537).
@example(transcript=_small_run(257, 130, 5))
@example(transcript=_small_run(65537, 4, 3, repeat=2, allow_out_of_range_prime=True))
# Rows that tie on every key but the last.
@example(transcript=_last_digit_rows(211, 110, 9))
@example(transcript=_last_digit_rows(7, 4, 3))
def test_histogram_matches_row_unique_oracle(transcript):
    cfg = transcript.config
    rows, counts = np.unique(transcript.outcomes, axis=0, return_counts=True)
    oracle = {
        "d": cfg.d, "t": cfg.t, "shots": len(transcript.outcomes), "seed": transcript.seed,
        "counts": {"-".join(str(c) for c in row): n
                   for row, n in sorted(zip(map(tuple, rows.tolist()), counts.tolist()))},
    }
    histogram = transcript.histogram()
    assert histogram == oracle
    # The order of the counts counts too. Compared as lists, not as one JSON
    # text: a failing diff of a 400 kB line takes pytest minutes.
    assert list(histogram["counts"]) == list(oracle["counts"])


def _written(value, depth):
    """``value`` written the way ``to_json`` writes a per-shot array: each
    list by ``_json_list``, each int by ``str``."""
    if not isinstance(value, list):
        return str(value)
    return "".join(_json_list([_written(v, depth + 1) for v in value], depth))


@given(value=hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                                    max_side=6)).map(np.ndarray.tolist),
       depth=st.integers(0, 2))
@example(value=[[3, 1, 4]], depth=1)  # one row
@example(value=[[0, 10]] * 300, depth=1)
@example(value=[], depth=1)
@example(value=[[], [], []], depth=1)
def test_json_list_matches_stdlib_encoder(value, depth):
    expected = json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)
    assert _written(value, depth) == expected


def test_resolved_bounds_outcome_entries(monkeypatch):
    monkeypatch.setattr(protocol, "OUTCOME_GUARD", 15)
    cfg = RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=5)
    assert cfg.resolved().shots == 5
    with pytest.raises(DimensionGuardError,
                       match=r"^outcome entries shots x t = 6 x 3 = 18 exceed guard 15$"):
        replace(cfg, shots=6).resolved()


def test_resolved_bounds_share_messages(monkeypatch):
    monkeypatch.setattr(protocol, "MESSAGE_GUARD", 13)
    cfg = RunConfig(secrets=(2,), n=7, t=3, d=11, shots=5)
    assert cfg.resolved().secrets == (2,)
    with pytest.raises(DimensionGuardError,
                       match=r"^share messages dealers x n = 2 x 7 = 14 exceed guard 13$"):
        replace(cfg, secrets=(2, 3)).resolved()


def test_resolved_61_bit_prime_returns_promptly():
    start = time.perf_counter()
    cfg = RunConfig(secrets=(1,), n=7, t=3, d=2**61 - 1,
                    allow_out_of_range_prime=True).resolved()
    assert cfg.d == 2**61 - 1
    assert time.perf_counter() - start < 1.0


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
        (dict(secrets=(2,), n=3, t=2, d=5, seed=-1), "seed"),
    ],
)
def test_config_validation(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        RunConfig(**kwargs).resolved()


@pytest.mark.parametrize("bad", [3.0, True, "3"])
@pytest.mark.parametrize("name", ["n", "t", "d", "shots", "seed"])
def test_resolved_rejects_non_integer_field(name, bad):
    kwargs = dict(secrets=(2, 3), n=7, t=3, d=11, shots=4, seed=0)
    kwargs[name] = bad
    with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
        RunConfig(**kwargs).resolved()


@pytest.mark.parametrize(
    "name,value,match",
    [
        ("secrets", (2.7, 3), r"secrets\[0\] must be an integer, got 2.7"),
        ("secrets", "12", "secrets must be a list"),
        ("secrets", (True, 3), r"secrets\[0\] must be an integer"),
        ("qualified", (1, 2, 3.0), r"qualified\[2\] must be an integer"),
        ("evaluation_points", (1, 2, 3, "4", 5, 6, 7), r"evaluation_points\[3\]"),
        ("polynomials", ((2, 1, 1.5), (3, 1, 1)), r"polynomials\[0\]\[2\]"),
        ("polynomials", (2, 3), r"polynomials\[0\] must be a list"),
    ],
)
def test_resolved_rejects_non_integer_entry(name, value, match):
    kwargs = dict(secrets=(2, 3), n=7, t=3, d=11)
    kwargs[name] = value
    with pytest.raises(ConfigError, match=match):
        RunConfig(**kwargs).resolved()


def test_resolved_accepts_numpy_integers():
    cfg = RunConfig(secrets=np.array([2, 3]), n=np.int64(7), t=np.int32(3),
                    d=np.int64(11), shots=np.int64(4)).resolved()
    assert cfg == RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=4).resolved()
    assert all(type(v) is int for v in (cfg.n, cfg.t, cfg.d, cfg.shots, *cfg.secrets))


def test_from_mapping_applies_overrides():
    cfg = RunConfig.from_mapping(
        {"secrets": [2, 3], "n": 7, "t": 3, "d": 11, "shots": 8}, shots=4, seed=1
    )
    assert cfg.resolved() == RunConfig(
        secrets=(2, 3), n=7, t=3, d=11, shots=4, seed=1
    ).resolved()


@pytest.mark.parametrize(
    "values,match",
    [
        ([2, 3], "JSON object, got list"),
        ("12", "JSON object, got str"),
        ({"secrets": [1], "n": 3, "t": 2, "qualifed": [1, 2]}, "unknown config key.* qualifed"),
        ({"secrets": [1], "n": 3, "t": 2, "allow_out_of_range_prime": True}, "unknown"),
        ({"n": 3}, "missing secrets, t"),
    ],
)
def test_from_mapping_rejects(values, match):
    with pytest.raises(ConfigError, match=match):
        RunConfig.from_mapping(values)


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
