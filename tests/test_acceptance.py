"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line so the whole gate can be read off `pytest -v -s`.
"""
import math
import time
from collections import Counter

import numpy as np
import pytest

from qsms.adversary import collusion_inference, intercept_and_measure, intercept_resend
from qsms.protocol import RunConfig, run_protocol
from qsms.qudit import (
    analytic_post_transform_state,
    apply_iqft,
    apply_qft,
    apply_shift,
    prepare_ghz,
    qft_matrix,
)
from qsms.shamir import (
    Polynomial,
    add_shares,
    compute_shadow,
    generate_shares,
    reconstruct,
)
from qsms.zmod import is_prime

DEMO = RunConfig(
    secrets=(2, 3), n=7, t=3, d=11, shots=8192, seed=42,
    polynomials=((2, 1, 1), (3, 1, 1)),
)


@pytest.fixture(scope="module")
def demo_transcript():
    return run_protocol(DEMO)


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_reference_share_table():
    f = Polynomial.from_ints((2, 1, 1), 11)
    g = Polynomial.from_ints((3, 1, 1), 11)
    points = list(range(1, 8))
    # One untimed call first: the bound is on the work, not on a first call's
    # cold caches and host noise.
    generate_shares(f, points, 11)
    start = time.perf_counter()
    f_shares = generate_shares(f, points, 11)
    g_shares = generate_shares(g, points, 11)
    elapsed = time.perf_counter() - start
    h_shares = [add_shares(a, b) for a, b in zip(f_shares, g_shares)]
    ok = (
        [s.value.value for s in f_shares] == [4, 8, 3, 0, 10, 0, 3]
        and [s.value.value for s in g_shares] == [5, 9, 4, 1, 0, 1, 4]
        and [s.value.value for s in h_shares] == [9, 6, 7, 1, 10, 1, 7]
        and elapsed < 1e-3
    )
    report("criterion 1: share table reproduced", ok, f"{elapsed * 1e6:.0f} us")


def test_criterion_2_reference_shadows():
    h = [9, 6, 7]
    points = [1, 2, 3]
    from qsms.shamir import Share
    from qsms.zmod import FieldElement
    shadows = [
        compute_shadow(Share(FieldElement(x, 11), FieldElement(v, 11)), u, points, 11)
        .value.value
        for u, (x, v) in enumerate(zip(points, h), start=1)
    ]
    report("criterion 2: shadows (5, 4, 7)", shadows == [5, 4, 7], str(shadows))


def test_criterion_3_demo_run(demo_transcript):
    start = time.perf_counter()
    transcript = run_protocol(DEMO)
    elapsed = time.perf_counter() - start
    ok = (
        transcript.result == 5
        and transcript.result_binary == "101"
        and len(transcript.per_shot_sums) == 8192
        and set(transcript.per_shot_sums) == {5}
        and elapsed < 5.0
    )
    report("criterion 3: demo result 5 / '101', 8192 constant shots", ok,
           f"{elapsed:.2f} s")


def test_criterion_4_state_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    ok = True
    for d, t in [(2, 2), (3, 2), (3, 3), (5, 3), (7, 2), (11, 3)]:
        for _ in range(20):
            shadows = tuple(int(x) for x in rng.integers(0, d, size=t))
            state = prepare_ghz(t, d)
            for pos in range(1, t + 1):
                state = apply_qft(state, pos)
                state = apply_shift(state, pos, shadows[pos - 1])
            analytic = analytic_post_transform_state(t, d, shadows)
            diff = float(np.max(np.abs(state.amplitudes - analytic.amplitudes)))
            worst = max(worst, diff)
            support = int(np.sum(np.abs(state.amplitudes) > 1e-9))
            ok = ok and diff <= 1e-9 and support == d ** (t - 1)
    report("criterion 4: simulated state matches closed form", ok,
           f"max diff {worst:.2e}")


def test_criterion_5_support_uniformity(demo_transcript):
    counts = Counter(tuple(o) for o in demo_transcript.outcomes.tolist())
    expected = 8192 / 121
    sigma = math.sqrt(8192 * (1 / 121) * (120 / 121))
    max_dev = max(abs(c - expected) for c in counts.values())
    ok = len(counts) == 121 and max_dev <= 5 * sigma
    report("criterion 5: uniform support statistics", ok,
           f"max deviation {max_dev:.1f} vs 5 sigma = {5 * sigma:.1f}")


def test_criterion_6_shamir_properties():
    rng = np.random.default_rng(6)
    primes = [p for p in range(3, 102) if is_prime(p)]
    ok = True
    checked = 0
    while checked < 1000:
        d = int(rng.choice(primes))
        t = int(rng.integers(2, 6))
        n = int(rng.integers(t, 9))
        if n >= d:  # Z_d hosts at most d-1 players; redraw
            continue
        checked += 1
        x, y = int(rng.integers(0, d)), int(rng.integers(0, d))
        f = Polynomial.random(x, t - 1, d, rng)
        g = Polynomial.random(y, t - 1, d, rng)
        points = [int(p) for p in rng.choice(np.arange(1, d), size=n, replace=False)]
        f_shares = generate_shares(f, points, d)
        g_shares = generate_shares(g, points, d)
        subset_idx = [int(i) for i in rng.choice(n, size=t, replace=False)]
        subset = [f_shares[i] for i in subset_idx]
        ok = ok and reconstruct(subset, d, threshold=t).value == x
        sub_points = [points[i] for i in subset_idx]
        shadow_sum = sum(
            compute_shadow(s, u, sub_points, d).value.value
            for u, s in enumerate(subset, start=1)
        )
        ok = ok and shadow_sum % d == x
        summed = [add_shares(a, b) for a, b in zip(f_shares, g_shares)]
        ok = ok and reconstruct(
            [summed[i] for i in subset_idx], d, threshold=t
        ).value == (x + y) % d
        if not ok:
            break
    report("criterion 6: 1000 random sharing instances", ok and checked == 1000)


def test_criterion_7_privacy_by_enumeration():
    rng = np.random.default_rng(7)
    ok = True
    for d, t in [(5, 2), (7, 3), (11, 3), (13, 3), (13, 2)]:
        secret = int(rng.integers(0, d))
        poly = Polynomial.random(secret, t - 1, d, rng)
        points = [int(p) for p in
                  rng.choice(np.arange(1, d), size=t, replace=False)]
        shares = generate_shares(poly, points, d)[: t - 1]
        rep = collusion_inference(shares, t=t, d=d)
        ok = ok and rep.details["candidate_count"] == d
    report("criterion 7: sub-threshold views allow every secret", ok)


def test_criterion_8_attack_suite():
    shots = 100_000
    intercept = intercept_and_measure(
        RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=shots, seed=8), [(2, 3), (7, 9)]
    )
    d = 11
    rate_bound = 4 * math.sqrt((1 / d) * (1 - 1 / d) / shots) * math.sqrt(d)
    tv_bound = 4 * math.sqrt(d / shots)
    rate_ok = abs(intercept.guess_rate - 1 / d) <= rate_bound
    tv_ok = intercept.tv_distances["(2, 3) vs (7, 9)"] <= tv_bound

    resend = intercept_resend(
        RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=2048, seed=9,
                  polynomials=((2, 1, 1), (3, 1, 1))),
    )
    collusion = collusion_inference(
        run_protocol(RunConfig(secrets=(2, 3), n=7, t=3, d=11, shots=1, seed=8,
                               polynomials=((2, 1, 1), (3, 1, 1))))
        .combined_shares[1:3],
        t=3, d=11,
    )
    ok = (rate_ok and tv_ok and intercept.passed and resend.passed
          and collusion.passed)
    report(
        "criterion 8: attack suite all pass", ok,
        f"guess rate {intercept.guess_rate:.4f} vs 1/11 "
        f"(bound {rate_bound:.4f})",
    )


def test_criterion_9_numerical_hygiene():
    unitarity = max(
        float(np.max(np.abs(qft_matrix(d).conj().T @ qft_matrix(d) - np.eye(d))))
        for d in range(2, 17)
    )
    rng = np.random.default_rng(9)
    amps = rng.normal(size=121) + 1j * rng.normal(size=121)
    from qsms.qudit import QuditState
    state = QuditState(11, 2, amps / np.linalg.norm(amps))
    identity_err = float(
        np.max(np.abs(apply_iqft(apply_qft(state, 1), 1).amplitudes
                      - state.amplitudes))
    )
    full = prepare_ghz(3, 11)
    for pos in range(1, 4):
        full = apply_qft(full, pos)
        full = apply_shift(full, pos, [5, 4, 7][pos - 1])
    drift = abs(float(np.sum(np.abs(full.amplitudes) ** 2)) - 1.0)
    ok = unitarity <= 1e-10 and identity_err <= 1e-10 and drift <= 1e-9
    report("criterion 9: numerical hygiene", ok,
           f"unitarity {unitarity:.1e}, identity {identity_err:.1e}, "
           f"drift {drift:.1e}")
