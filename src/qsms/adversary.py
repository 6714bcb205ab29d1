"""Attack harness: empirical checks of the protocol's security claims.

Three scenarios are modeled. An eavesdropper who measures an in-flight
GHZ leg (intercept, with or without resending the collapsed particle)
sees a uniform digit carrying nothing about any shadow. A sub-threshold
coalition that pools its shares finds every candidate secret equally
consistent.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import affine
from .protocol import (TAP_POSITION, ResolvedConfig, RunConfig, _json_value, branch_counts,
                       combine, deal, resolve, run_generators, run_protocol, send_ghz)
from .protocol import prepare_run  # noqa: F401 (not called: perfbench/tracer.py patches it)
from .shamir import Share
from .zmod import ConfigError, FieldElement, _integer, _sequence, check_modulus, row_reduce


class ThresholdReachedError(ValueError):
    pass


def tv_distance(p: dict, q: dict) -> float:
    """Total variation distance between two outcome distributions."""
    keys = sorted(set(p) | set(q))  # a fixed summation order, whatever the hash seed
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def uniformity_bound(d: int, shots: int) -> float:
    """~4-sigma multinomial bound on TV distance from uniform."""
    return 4.0 * math.sqrt(d / shots)


def guess_rate_bound(d: int, shots: int) -> float:
    """~4-sigma bound on |guess rate - 1/d|, widened by sqrt(d) for the
    max over d cells."""
    p = 1.0 / d
    return 4.0 * math.sqrt(p * (1.0 - p) / shots) * math.sqrt(d)


@dataclass
class AttackReport:
    kind: str  # intercept | intercept-resend | collusion
    target: str
    shots: int
    distributions: dict[str, dict[str, float]]
    tv_distances: dict[str, float]
    guess_rate: float
    baseline: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scenario": {"kind": self.kind, "target": self.target, "shots": self.shots},
            "shots": self.shots,
            "distributions": self.distributions,
            "tv_distances": self.tv_distances,
            "guess_rate": self.guess_rate,
            "baseline": self.baseline,
            "pass": self.passed,
            "details": self.details,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2)``, from the transcript's writer."""
        return _json_value(self.to_dict(), 0)


def _counts_to_dist(counts: np.ndarray, shots: int) -> dict[str, float]:
    """``counts[k]`` shots of outcome k as a distribution over the outcomes
    that occurred, in ascending order."""
    return {str(k): v / shots for k, v in enumerate(counts.tolist()) if v}


def measure_leg(state: affine.AffineState) -> tuple:
    """Both tap attacks' tap: measure the leg sent to slot 2, weight c the
    probability of digit c, and pass the collapsed particle on."""
    return affine.collapse(state, TAP_POSITION)[:2]


def _tap_report(kind: str, shots: int, counts: np.ndarray,
                distributions: dict, tv: dict[str, float], checked_tv: float,
                **details) -> AttackReport:
    """The report of a tap attack whose attacker saw digit k ``counts[k]``
    times, over Z_d with d = ``len(counts)``. ``checked_tv`` is held to the
    uniformity bound at ``shots``, the guess rate to its bound at every
    counted shot. ``details`` come first, then each bound and how far its
    statistic sits inside it; a negative margin is a failed check."""
    d, total = len(counts), int(counts.sum())
    guess_rate = int(counts.max()) / total
    tv_bound, rate_bound = uniformity_bound(d, shots), guess_rate_bound(d, total)
    margins = {
        "tv_bound": tv_bound,
        "guess_rate_bound": rate_bound,
        "tv_margin": tv_bound - checked_tv,
        "guess_rate_margin": rate_bound - abs(guess_rate - 1.0 / d),
    }
    return AttackReport(
        kind=kind,
        target=f"particle->P[{TAP_POSITION}]",
        shots=shots,
        distributions=distributions,
        tv_distances=tv,
        guess_rate=guess_rate,
        baseline=1.0 / d,
        passed=min(margins["tv_margin"], margins["guess_rate_margin"]) >= 0,
        details={**details, **margins},
    )


def intercept_and_measure(config: RunConfig | ResolvedConfig,
                          secret_pairs: Sequence[tuple[int, ...]]) -> AttackReport:
    """Tap the initiator's send to slot 2 and measure it.

    Step 4 sends the leg through ``measure_leg`` once: it reads only t and d
    and comes before any share is used. Each secret tuple, checked in
    ``config``, then takes its own branch draw of ``shots`` from the shot
    generator of a run at the config's seed. The report compares the
    per-secret distributions (they should be statistically
    indistinguishable and uniform) and the attacker's best-guess success
    rate against the 1/d baseline.
    """
    secret_pairs = _sequence("secret_pairs", secret_pairs, _sequence)
    if len(secret_pairs) < 2:
        raise ConfigError("need at least two secret tuples to compare")
    if not isinstance(config, RunConfig):  # a resolved d was checked when it was resolved
        config = RunConfig(**vars(resolve(config)), allow_out_of_range_prime=True)
    configs = [replace(config, secrets=pair).resolved() for pair in secret_pairs]
    d, shots = configs[0].d, configs[0].shots
    _, rng = run_generators(configs[0].seed)
    weights, _ = send_ghz(configs[0].t, d, measure_leg)
    counts = [branch_counts(weights, shots, rng) for _ in configs]  # shots per digit
    distributions = {str(cfg.secrets): _counts_to_dist(c, shots)
                     for cfg, c in zip(configs, counts)}

    uniform = {str(c): 1.0 / d for c in range(d)}
    tv = {}
    labels = list(distributions)
    for a, b in itertools.combinations(labels, 2):
        tv[f"{a} vs {b}"] = tv_distance(distributions[a], distributions[b])
    for label in labels:
        tv[f"{label} vs uniform"] = tv_distance(distributions[label], uniform)
    return _tap_report("intercept", shots, sum(counts), distributions, tv, max(tv.values()))


def intercept_resend(config: RunConfig | ResolvedConfig) -> AttackReport:
    """Measure the initiator's send to slot 2 and forward the collapsed particle.

    Reports the attacker's outcome distribution (uniform, success 1/d)
    and the downstream damage: the attacked run's aggregate spreads over
    Z_d while every honest shot sums to the secret total.
    """
    # Tap outcome c is the attacker's digit c; the kept collapsed state is the
    # "clone" particle sent onward.
    attacked = run_protocol(config, tap=measure_leg)
    d, shots = attacked.config.d, attacked.config.shots
    # Every honest shot sums to the shadows' sum, the secret total.
    honest_result = sum(attacked.shadows) % d
    attacker_dist = _counts_to_dist(attacked.tap_counts, shots)
    aggregate_dist = _counts_to_dist(np.bincount(attacked.per_shot_sums), shots)
    uniform = {str(c): 1.0 / d for c in range(d)}
    tv = {
        "attacker vs uniform": tv_distance(attacker_dist, uniform),
        "attacked aggregate vs honest": tv_distance(aggregate_dist,
                                                    {str(honest_result): 1.0}),
    }
    # The attacked aggregate is meant to differ from the honest one, so only
    # the attacker's view is held to the uniformity bound.
    return _tap_report(
        "intercept-resend", shots, attacked.tap_counts,
        {"attacker": attacker_dist, "attacked_aggregate": aggregate_dist},
        tv, tv["attacker vs uniform"], honest_result=honest_result,
    )


def dealt_shares(config: RunConfig | ResolvedConfig, players: Sequence[int]) -> list[Share]:
    """The combined shares ``run_protocol(config)`` deals to ``players``
    (distinct indices in 1..n, else a ``ConfigError``), from the same deal
    generator; no shadow is computed and no quantum phase runs."""
    config = resolve(config)
    # Player 0 or -1 would silently take a share from the end of the list.
    players = _sequence("colluders", players)
    if len(set(players)) != len(players) or not all(1 <= i <= config.n for i in players):
        raise ConfigError(f"colluders must be distinct players in 1..{config.n}")
    deal_rng, _ = run_generators(config.seed)
    d = config.d
    combined = combine(deal(config, deal_rng), d).tolist()
    return [Share(FieldElement(config.evaluation_points[i - 1], d),
                  FieldElement(combined[i - 1], d)) for i in players]


def collusion_inference(
    colluder_shares: Sequence[Share], t: int, d: int
) -> AttackReport:
    """Count the dealer polynomials consistent with a sub-threshold
    coalition's shares, per candidate secret, and report the survivors.

    Broadcast values reveal only the public sum, which constrains no
    individual dealer secret, so every residue should survive.
    """
    t = _integer("t", t)
    if t < 1:
        raise ConfigError(f"threshold must satisfy t >= 1, got t={t}")
    d = check_modulus(d)
    moduli = sorted({share.x.modulus for share in colluder_shares} - {d})
    if moduli:
        raise ConfigError(f"shares over Z_{moduli[0]} analysed with d={d}")
    if len(colluder_shares) >= t:
        raise ThresholdReachedError(
            "threshold reached; reconstruction is legitimate"
        )
    # Coefficients a_0..a_{t-1}, secret s = a_0: the shares say
    # sum_{j>=1} x^j a_j + s = y at each colluder's x. Row reduce
    # [x^1 .. x^m | 1 | y], s after the other unknowns; x^j repeats with
    # period d - 1 in j >= 1, so columns past m = min(t - 1, d - 1) add none.
    m = min(t - 1, d - 1)
    system = np.array(
        [[pow(share.x.value, j, d) for j in (*range(1, m + 1), 0)] + [share.value.value]
         for share in colluder_shares],
        dtype=np.int64,
    ).reshape(len(colluder_shares), m + 2)
    reduced, pivots = row_reduce(system, d)
    rank = sum(p < m for p in pivots)
    # The rows with no pivot among a_1..a_m say alpha * s = beta; each
    # secret satisfying all of them leaves d^(t-1-rank) polynomials, so the
    # candidates are equally likely.
    alpha, beta = reduced[rank:, m], reduced[rank:, m + 1]
    secrets = np.arange(d, dtype=np.int64)
    consistent = ((secrets[:, None] * alpha - beta) % d == 0).all(axis=1)
    candidates = np.flatnonzero(consistent).tolist()
    candidate_count = len(candidates)
    dist = {str(s): 1 / candidate_count for s in candidates}
    passed = candidate_count == d
    return AttackReport(
        kind="collusion",
        target=f"{len(colluder_shares)} colluders",
        shots=0,
        distributions={"candidate_secrets": dist},
        tv_distances={},
        guess_rate=1.0 / candidate_count if candidate_count else 0.0,
        baseline=1.0 / d,
        passed=passed,
        details={
            "candidate_count": candidate_count,
            "candidates": candidates,
        },
    )
