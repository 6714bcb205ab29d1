"""End-to-end orchestration of the threshold summation protocol.

Steps, in order: dealers share their secrets over a trusted classical
channel (1), each player folds their per-dealer shares into one combined
share (2), the qualified set turns combined shares into Lagrange-weighted
shadows (3), the initiator prepares and distributes a GHZ-type state (4),
each qualified player applies QFT then a Pauli shift by their shadow (5),
everyone measures and broadcasts (6), and the digits are summed mod d (7).
A run produces a JSON-serializable transcript.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

import numpy as np

from . import qudit
from .qudit import QuditState
from .shamir import Polynomial, Share, Shadow, add_shares, compute_shadow, generate_shares
from .zmod import is_prime, smallest_valid_prime

# Middleware hook on the initiator's quantum sends: (state, position) ->
# [(probability, label, state), ...], the weighted branches the send turns
# into, their probabilities summing to 1. An identity tap returns
# [(1.0, None, state)]. The honest path installs none.
QuantumTap = Callable[[QuditState, int], list[tuple[float, Hashable, QuditState]]]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    secrets: tuple[int, ...]
    n: int
    t: int
    d: int | None = None
    qualified: tuple[int, ...] | None = None
    evaluation_points: tuple[int, ...] | None = None
    shots: int = 8192
    seed: int = 0
    polynomials: tuple[tuple[int, ...], ...] | None = None
    allow_out_of_range_prime: bool = False

    def resolved(self) -> "ResolvedConfig":
        if self.n < 2:
            raise ConfigError("need at least 2 players")
        if not 2 <= self.t <= self.n:
            raise ConfigError(f"threshold must satisfy 2 <= t <= n, got t={self.t}")
        # Default prime: smallest in (n, 2n], so n distinct nonzero
        # evaluation points exist (a prime d = n would leave only d-1).
        d = self.d
        if d is None:
            d = self.n + 1
            while not is_prime(d):
                d += 1
            if d > 2 * self.n:  # pragma: no cover - Bertrand guarantees
                d = smallest_valid_prime(self.n)
        if not is_prime(d):
            raise ConfigError(f"d={d} is not prime")
        if not self.allow_out_of_range_prime and not self.n <= d <= 2 * self.n:
            raise ConfigError(
                f"d={d} outside [n, 2n] = [{self.n}, {2 * self.n}]"
            )
        if not self.secrets:
            raise ConfigError("need at least one secret")
        for s in self.secrets:
            if not 0 <= s < d:
                raise ConfigError(f"secret {s} outside [0, {d})")
        qualified = self.qualified if self.qualified is not None else tuple(
            range(1, self.t + 1)
        )
        if len(qualified) != self.t or len(set(qualified)) != self.t:
            raise ConfigError(f"qualified set must be {self.t} distinct players")
        if any(not 1 <= i <= self.n for i in qualified):
            raise ConfigError("qualified player index out of range")
        points = self.evaluation_points if self.evaluation_points is not None else tuple(
            range(1, self.n + 1)
        )
        if len(points) != self.n:
            raise ConfigError("need one evaluation point per player")
        if len({p % d for p in points}) != self.n or any(p % d == 0 for p in points):
            raise ConfigError("evaluation points must be distinct and nonzero mod d")
        if self.shots < 1:
            raise ConfigError("shots must be >= 1")
        if self.polynomials is not None:
            if len(self.polynomials) != len(self.secrets):
                raise ConfigError("need one pinned polynomial per secret")
            for secret, coeffs in zip(self.secrets, self.polynomials):
                if len(coeffs) != self.t:
                    raise ConfigError("pinned polynomials must have t coefficients")
                if coeffs[0] % d != secret % d:
                    raise ConfigError(
                        f"pinned constant term {coeffs[0]} does not match secret {secret}"
                    )
        return ResolvedConfig(
            secrets=tuple(self.secrets),
            n=self.n,
            t=self.t,
            d=d,
            qualified=tuple(qualified),
            evaluation_points=tuple(points),
            shots=self.shots,
            seed=self.seed,
            polynomials=self.polynomials,
        )


@dataclass(frozen=True)
class ResolvedConfig:
    """RunConfig with every default filled in and all invariants checked."""

    secrets: tuple[int, ...]
    n: int
    t: int
    d: int
    qualified: tuple[int, ...]
    evaluation_points: tuple[int, ...]
    shots: int
    seed: int
    polynomials: tuple[tuple[int, ...], ...] | None

    def to_json(self) -> dict:
        return {
            "secrets": list(self.secrets),
            "n": self.n,
            "t": self.t,
            "d": self.d,
            "qualified": list(self.qualified),
            "evaluation_points": list(self.evaluation_points),
            "shots": self.shots,
            "seed": self.seed,
            "polynomials": [list(p) for p in self.polynomials]
            if self.polynomials is not None
            else None,
        }


@dataclass(frozen=True)
class Message:
    sender: str
    receiver: str
    kind: str
    payload: dict

    def to_json(self) -> dict:
        return {
            "sender": self.sender,
            "receiver": self.receiver,
            "kind": self.kind,
            "payload": self.payload,
        }


@dataclass
class PlayerState:
    """One player's private record; never holds another player's data."""

    index: int
    dealer_shares: list[Share] | None = None
    combined: Share | None = None
    shadow: Shadow | None = None
    position: int | None = None


@dataclass
class PreparedRun:
    """Result of the classical phase (Steps 1-3)."""

    config: ResolvedConfig
    dealer_shares: list[list[Share]]  # one row per dealer
    players: list[PlayerState]
    messages: list[Message]
    shadows: list[int] = field(default_factory=list)


def deal(
    secrets: Sequence[int], config: ResolvedConfig, rng: np.random.Generator
) -> tuple[list[list[Share]], list[PlayerState], list[Message]]:
    """Step 1: each dealer shares its secret to all n players.

    Returns each dealer's row of shares, the players and the share messages.
    """
    d = config.d
    polys = []
    for k, secret in enumerate(secrets):
        if not 0 <= secret < d:
            raise ConfigError(f"secret {secret} outside [0, {d})")
        if config.polynomials is not None:
            polys.append(Polynomial.from_ints(config.polynomials[k], d))
        else:
            polys.append(Polynomial.random(secret, config.t - 1, d, rng))
    players = [PlayerState(index=i, dealer_shares=[]) for i in range(1, config.n + 1)]
    messages = []
    rows = []
    for k, poly in enumerate(polys):
        shares = generate_shares(poly, config.evaluation_points, d)
        rows.append(shares)
        for player, share in zip(players, shares):
            player.dealer_shares.append(share)
            messages.append(
                Message(
                    sender=f"dealer_{k + 1}",
                    receiver=f"P{player.index}",
                    kind="share",
                    payload=share.to_json(),
                )
            )
    return rows, players, messages


def combine_local(player: PlayerState) -> Share:
    """Step 2: fold per-dealer shares into one combined share; the
    per-dealer shares are discarded from the player's record."""
    if not player.dealer_shares:
        raise ValueError(f"player {player.index} holds no shares")
    combined = player.dealer_shares[0]
    for share in player.dealer_shares[1:]:
        combined = add_shares(combined, share)
    player.combined = combined
    player.dealer_shares = None
    return combined


def prepare_run(config: ResolvedConfig, rng: np.random.Generator) -> PreparedRun:
    """Steps 1-3: deal, combine, and compute the qualified set's shadows."""
    dealer_shares, players, messages = deal(config.secrets, config, rng)
    for player in players:
        combine_local(player)
    qualified_points = [config.evaluation_points[i - 1] for i in config.qualified]
    shadows = []
    for position, i in enumerate(config.qualified, start=1):
        player = players[i - 1]
        player.position = position
        player.shadow = compute_shadow(
            player.combined, position, qualified_points, config.d
        )
        shadows.append(player.shadow.value.value)
    return PreparedRun(config, dealer_shares, players, messages, shadows)


def post_transform_branches(
    shadows: Sequence[int], d: int, tap: QuantumTap | None = None
) -> list[tuple[float, tuple, QuditState]]:
    """Steps 4-5, simulated once per tap branch.

    The initiator prepares the GHZ state and sends legs 2..t through
    ``tap``; then the player in slot u applies the QFT and X^{shadow_u}.
    Returns (probability, labels, post-transform state) per branch, with
    one label per tapped send. Without a tap there is one branch of
    weight 1.
    """
    t = len(shadows)
    branches = [(1.0, (), qudit.prepare_ghz(t, d))]
    if tap is not None:
        for position in range(2, t + 1):
            branches = [
                (weight * p, labels + (label,), out)
                for weight, labels, state in branches
                for p, label, out in tap(state, position)
            ]
            # The branches count against the guard, checked before the
            # next send multiplies them again.
            qudit.check_guard(d, t, len(branches))
    # Rebinding the list after each gate frees the previous states, so at
    # most two generations of every branch are alive at once.
    for position, shadow in enumerate(shadows, start=1):
        branches = [(w, lb, qudit.apply_qft(s, position)) for w, lb, s in branches]
        branches = [(w, lb, qudit.apply_shift(s, position, shadow))
                    for w, lb, s in branches]
    return branches


def phase_distribution(
    shadows: Sequence[int], d: int, tap: QuantumTap | None = None
) -> tuple[np.ndarray, list[tuple]]:
    """The joint outcome distribution of every branch, shape (branches, d^t).

    Row b is branch b's probability times the measurement distribution of
    its post-transform state. Also returns each branch's labels.
    """
    branches = post_transform_branches(shadows, d, tap)
    joint = np.empty((len(branches), d ** len(shadows)))
    for row, (weight, _, state) in zip(joint, branches):
        np.multiply(state.probabilities(), weight, out=row)
    return joint, [labels for _, labels, _ in branches]


@dataclass(frozen=True)
class PhaseOutcomes:
    """Step 6 for every shot: the measured digits and the tap branch drawn."""

    digits: np.ndarray  # (shots, t) int64, qudit 1 first
    labels: list[tuple]  # per shot, the labels of its tap branch

    def __len__(self) -> int:
        return len(self.digits)


def run_quantum_phase(
    shadows: Sequence[int],
    d: int,
    shots: int,
    rng: np.random.Generator,
    tap: QuantumTap | None = None,
) -> PhaseOutcomes:
    """Steps 4-6: simulate each tap branch once, then draw all shots in one call.

    ``tap`` intercepts the initiator's particle sends (positions 2..t)
    before any QFT is applied; it is how adversaries are wired in.
    """
    joint, labels = phase_distribution(shadows, d, tap)
    branch, index = np.divmod(
        qudit.sample_indices(joint.reshape(-1), shots, rng), joint.shape[1]
    )
    return PhaseOutcomes(
        qudit.indices_to_digits(index, d, len(shadows)),
        [labels[b] for b in branch.tolist()],
    )


def aggregate(digits: np.ndarray, d: int) -> np.ndarray:
    """Step 7: each shot's broadcast digits sum to the secret total mod d.

    ``digits`` holds one row per shot; returns one int64 sum per shot.
    """
    digits = np.asarray(digits, dtype=np.int64)
    outside = (digits < 0) | (digits >= d)
    if outside.any():
        raise ValueError(f"digit {digits[outside][0]} outside [0, {d})")
    return digits.sum(axis=-1) % d


@dataclass
class ProtocolTranscript:
    config: ResolvedConfig
    dealer_shares: list[list[Share]]
    combined_shares: list[Share]
    shadows: list[Shadow]
    messages: list[Message]
    outcomes: np.ndarray  # (shots, t) measured digits
    tap_labels: list[tuple]  # per shot, its tap branch's labels; not serialized
    per_shot_sums: list[int]
    result: int
    result_binary: str
    seed: int

    def histogram(self) -> dict:
        rows, counts = np.unique(self.outcomes, axis=0, return_counts=True)
        return qudit.histogram_json(
            dict(zip(map(tuple, rows.tolist()), counts.tolist())),
            self.config.d, self.config.t, len(self.outcomes), self.seed,
        )

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_json(),
            "shares": {
                "dealers": [[s.to_json() for s in row] for row in self.dealer_shares],
                "combined": [s.to_json() for s in self.combined_shares],
            },
            "shadows": [s.to_json() for s in self.shadows],
            "messages": [m.to_json() for m in self.messages],
            "histogram": self.histogram(),
            "outcomes": self.outcomes.tolist(),
            "per_shot_sums": self.per_shot_sums,
            "result": self.result,
            "result_binary": self.result_binary,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def run_protocol(
    config: RunConfig | ResolvedConfig, tap: QuantumTap | None = None
) -> ProtocolTranscript:
    cfg = config.resolved() if isinstance(config, RunConfig) else config
    root = np.random.SeedSequence(cfg.seed)
    deal_seq, shot_seq = root.spawn(2)

    prepared = prepare_run(cfg, np.random.default_rng(deal_seq))
    messages = list(prepared.messages)

    # Step 4 particle sends carry no classical payload beyond the slot index.
    initiator = cfg.qualified[0]
    for position, i in enumerate(cfg.qualified[1:], start=2):
        messages.append(
            Message(f"P{initiator}", f"P{i}", "particle", {"position": position})
        )

    phase = run_quantum_phase(
        prepared.shadows, cfg.d, cfg.shots, np.random.default_rng(shot_seq), tap=tap
    )
    sums = aggregate(phase.digits, cfg.d)
    if tap is None and (sums != sums[0]).any():
        raise AssertionError("honest run produced non-constant per-shot sums")
    result = int(sums[0])

    return ProtocolTranscript(
        config=cfg,
        dealer_shares=prepared.dealer_shares,
        combined_shares=[p.combined for p in prepared.players],
        shadows=[
            prepared.players[i - 1].shadow for i in cfg.qualified
        ],
        messages=messages,
        outcomes=phase.digits,
        tap_labels=phase.labels,
        per_shot_sums=sums.tolist(),
        result=result,
        result_binary=format(result, "b"),
        seed=cfg.seed,
    )
