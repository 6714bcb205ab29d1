"""Attack harness: empirical checks of the protocol's security claims.

Three scenarios are modeled. An eavesdropper who measures an in-flight
GHZ leg (intercept, with or without resending the collapsed particle)
sees a uniform digit carrying nothing about any shadow. A sub-threshold
coalition that pools its shares finds every candidate secret equally
consistent. Entangle-measure, collective, and coherent eavesdroppers are
modeled at the same observational power as intercept: the observable in
every case is a computational-basis digit of an intercepted leg.
"""
from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import qudit
from .protocol import ResolvedConfig, RunConfig, prepare_run, run_protocol
from .shamir import Polynomial, Share


class ThresholdReachedError(ValueError):
    pass


def tv_distance(p: dict, q: dict) -> float:
    """Total variation distance between two outcome distributions."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def uniformity_bound(d: int, shots: int) -> float:
    """~4-sigma multinomial bound on TV distance from uniform."""
    return 4.0 * math.sqrt(d / shots)


def guess_rate_bound(d: int, shots: int) -> float:
    """~4-sigma bound on |guess rate - 1/d|, widened by sqrt(d) for the
    max over d cells."""
    p = 1.0 / d
    return 4.0 * math.sqrt(p * (1.0 - p) / shots) * math.sqrt(d)


@dataclass(frozen=True)
class AttackScenario:
    kind: str  # intercept | intercept-resend | collusion
    target: str
    shots: int


@dataclass
class AttackReport:
    scenario: AttackScenario
    shots: int
    distributions: dict[str, dict[str, float]]
    tv_distances: dict[str, float]
    guess_rate: float
    baseline: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scenario": {
                "kind": self.scenario.kind,
                "target": self.scenario.target,
                "shots": self.scenario.shots,
            },
            "shots": self.shots,
            "distributions": self.distributions,
            "tv_distances": self.tv_distances,
            "guess_rate": self.guess_rate,
            "baseline": self.baseline,
            "pass": self.passed,
            "details": self.details,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _counts_to_dist(counts: Counter, shots: int) -> dict[str, float]:
    return {str(k): v / shots for k, v in sorted(counts.items())}


def intercept_and_measure(
    secret_pairs: Sequence[tuple[int, ...]],
    n: int,
    t: int,
    d: int,
    shots: int,
    seed: int = 0,
    tap_position: int = 2,
) -> AttackReport:
    """Tap the initiator's send to one qualified player and measure it.

    For each secret tuple the full classical phase runs, the in-flight
    state is prepared, and the tapped leg's marginal is sampled ``shots``
    times. The report compares the per-secret distributions (they should
    be statistically indistinguishable and uniform) and the attacker's
    best-guess success rate against the 1/d baseline.
    """
    if len(secret_pairs) < 2:
        raise ValueError("need at least two secret tuples to compare")
    if not 2 <= tap_position <= t:
        raise ValueError(f"tap position must be in 2..{t}")
    rng = np.random.default_rng(seed)
    distributions: dict[str, dict[str, float]] = {}
    pooled: Counter = Counter()
    for secrets in secret_pairs:
        if n < d:
            # Classical phase; shadows never reach the tapped channel.
            # Skipped when Z_d cannot host n distinct nonzero points
            # (e.g. d=2): the in-flight state is identical either way.
            cfg = RunConfig(secrets=tuple(secrets), n=n, t=t, d=d, shots=1,
                            seed=seed).resolved()
            prepare_run(cfg, rng)
        in_flight = qudit.prepare_ghz(t, d)
        marginal = qudit.marginal_distribution(in_flight, tap_position)
        sampled = rng.multinomial(shots, marginal)
        counts = Counter({c: int(v) for c, v in enumerate(sampled) if v > 0})
        pooled.update(counts)
        distributions[str(tuple(secrets))] = _counts_to_dist(counts, shots)

    uniform = {str(c): 1.0 / d for c in range(d)}
    tv = {}
    labels = list(distributions)
    for a, b in itertools.combinations(labels, 2):
        tv[f"{a} vs {b}"] = tv_distance(distributions[a], distributions[b])
    for label in labels:
        tv[f"{label} vs uniform"] = tv_distance(distributions[label], uniform)

    total = shots * len(secret_pairs)
    guess_rate = max(pooled.values()) / total
    tv_bound = uniformity_bound(d, shots)
    rate_bound = guess_rate_bound(d, total)
    passed = all(v <= tv_bound for v in tv.values()) and abs(
        guess_rate - 1.0 / d
    ) <= rate_bound
    return AttackReport(
        scenario=AttackScenario("intercept", f"particle->P[{tap_position}]", shots),
        shots=shots,
        distributions=distributions,
        tv_distances=tv,
        guess_rate=guess_rate,
        baseline=1.0 / d,
        passed=passed,
        details={"tv_bound": tv_bound, "guess_rate_bound": rate_bound},
    )


def intercept_resend(
    config: RunConfig | ResolvedConfig,
    tap_position: int,
    shots: int,
    seed: int = 0,
) -> AttackReport:
    """Measure an in-flight leg and forward the collapsed particle.

    Reports the attacker's outcome distribution (uniform, success 1/d)
    and the downstream damage: the attacked run's aggregate spreads over
    Z_d while the honest run is a constant.
    """
    cfg = config.resolved() if isinstance(config, RunConfig) else config
    if not 2 <= tap_position <= cfg.t:
        raise ValueError(f"tap position must be in 2..{cfg.t}")

    honest = run_protocol(cfg)

    def tap(state, position):
        # The attacker's digit labels each branch; the collapsed state is
        # the "clone" particle sent onward.
        if position != tap_position:
            return [(1.0, None, state)]
        return qudit.collapse_branches(state, position)

    attacked = run_protocol(replace(cfg, shots=shots, seed=seed), tap=tap)
    attacker_counts = Counter(
        labels[tap_position - 2] for labels in attacked.tap_labels
    )
    aggregate_counts = Counter(attacked.per_shot_sums)

    d = cfg.d
    attacker_dist = _counts_to_dist(attacker_counts, shots)
    aggregate_dist = _counts_to_dist(aggregate_counts, shots)
    uniform = {str(c): 1.0 / d for c in range(d)}
    honest_dist = {str(honest.result): 1.0}
    tv = {
        "attacker vs uniform": tv_distance(attacker_dist, uniform),
        "attacked aggregate vs honest": tv_distance(aggregate_dist, honest_dist),
    }
    guess_rate = max(attacker_counts.values()) / shots
    tv_bound = uniformity_bound(d, shots)
    rate_bound = guess_rate_bound(d, shots)
    passed = tv["attacker vs uniform"] <= tv_bound and abs(
        guess_rate - 1.0 / d
    ) <= rate_bound
    return AttackReport(
        scenario=AttackScenario("intercept-resend", f"particle->P[{tap_position}]", shots),
        shots=shots,
        distributions={"attacker": attacker_dist, "attacked_aggregate": aggregate_dist},
        tv_distances=tv,
        guess_rate=guess_rate,
        baseline=1.0 / d,
        passed=passed,
        details={
            "honest_result": honest.result,
            "tv_bound": tv_bound,
            "guess_rate_bound": rate_bound,
        },
    )


# Enumerating d^t candidate polynomials; keep it desk-scale.
_ENUMERATION_GUARD = 10**6


def collusion_inference(
    colluder_shares: Sequence[Share], t: int, d: int
) -> AttackReport:
    """Exhaust all dealer polynomials consistent with a sub-threshold
    coalition's shares and report the surviving candidate secrets.

    Broadcast values reveal only the public sum, which constrains no
    individual dealer secret, so every residue should survive.
    """
    if len(colluder_shares) >= t:
        raise ThresholdReachedError(
            "threshold reached; reconstruction is legitimate"
        )
    if d**t > _ENUMERATION_GUARD:
        raise ValueError(f"enumeration of {d}^{t} polynomials exceeds guard")
    candidates: Counter = Counter()
    for coeffs in itertools.product(range(d), repeat=t):
        poly = Polynomial.from_ints(coeffs, d)
        if all(
            poly.evaluate(s.x.value).value == s.value.value
            for s in colluder_shares
        ):
            candidates[coeffs[0]] += 1
    candidate_count = len(candidates)
    dist = (
        {str(s): c / sum(candidates.values()) for s, c in sorted(candidates.items())}
        if candidates
        else {}
    )
    passed = candidate_count == d
    return AttackReport(
        scenario=AttackScenario(
            "collusion", f"{len(colluder_shares)} colluders", 0
        ),
        shots=0,
        distributions={"candidate_secrets": dist},
        tv_distances={},
        guess_rate=1.0 / candidate_count if candidate_count else 0.0,
        baseline=1.0 / d,
        passed=passed,
        details={
            "candidate_count": candidate_count,
            "candidates": sorted(candidates),
        },
    )
