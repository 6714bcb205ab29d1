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

import functools
import json
import operator
from dataclasses import dataclass, field, fields
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from . import affine
from .affine import AffineState, DimensionGuardError
from .shamir import Share, Shadow
# Not called here: perfbench/tracer.py patches these names in this module
# until it is rebuilt on spans (ROADMAP item 1).
from .shamir import add_shares, compute_shadow, generate_shares  # noqa: F401
from .zmod import FieldElement, is_prime, lagrange_weights, residues, smallest_valid_prime

# Middleware hook on the initiator's quantum sends: (state, position) ->
# [(probability, label, state), ...], the weighted branches the send turns
# into, their probabilities summing to 1. An identity tap returns
# [(1.0, None, state)]. The honest path installs none.
QuantumTap = Callable[[AffineState, int], list[tuple[float, Hashable, AffineState]]]

# Most outcome digits (shots x t) a run may hold: 128 MiB as int64, before
# the transcript writes each one as text.
OUTCOME_GUARD = 2**24
# Most share messages (dealers x n) a run may build: each is a Python object
# and an indent-2 JSON text, about 4 KiB at peak with the transcript written.
MESSAGE_GUARD = 2**16


class ConfigError(ValueError):
    pass


def _integer(name: str, value) -> int:
    """``value`` as an int; bools, floats and strings are rejected."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _sequence(name: str, values, item=_integer) -> tuple:
    """``values`` as a tuple of ``item(f"{name}[i]", value)``; a string is no list."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    return tuple(item(f"{name}[{i}]", v) for i, v in enumerate(values))


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

    @classmethod
    def from_mapping(cls, values: Mapping, /, **overrides) -> "RunConfig":
        """A config from a JSON object with ``overrides`` on top.

        Takes every field but ``allow_out_of_range_prime``. Rejects a
        non-object, an unknown key and a missing secrets, n or t; the
        values themselves are checked by ``resolved()``.
        """
        if not isinstance(values, Mapping):
            raise ConfigError(
                f"config must be a JSON object, got {type(values).__name__}"
            )
        values = {**values, **overrides}
        accepted = {f.name for f in fields(cls)} - {"allow_out_of_range_prime"}
        unknown = sorted(map(str, values.keys() - accepted))
        if unknown:
            raise ConfigError(
                f"unknown config key(s) {', '.join(unknown)}; "
                f"accepted: {', '.join(sorted(accepted))}"
            )
        missing = [key for key in ("secrets", "n", "t") if key not in values]
        if missing:
            raise ConfigError(f"missing {', '.join(missing)} (flag or config key)")
        return cls(**values)

    def resolved(self) -> "ResolvedConfig":
        """Every input checked and every default filled in: the one check
        of a run's inputs. Code taking a ResolvedConfig re-checks nothing."""
        n, t, shots, seed = (
            _integer(name, getattr(self, name)) for name in ("n", "t", "shots", "seed")
        )
        if n < 2:
            raise ConfigError("need at least 2 players")
        if not 2 <= t <= n:
            raise ConfigError(f"threshold must satisfy 2 <= t <= n, got t={t}")
        if shots * t > OUTCOME_GUARD:
            raise DimensionGuardError(
                f"outcome entries shots x t = {shots} x {t} = {shots * t} "
                f"exceed guard {OUTCOME_GUARD}"
            )
        d = smallest_valid_prime(n) if self.d is None else _integer("d", self.d)
        # The range check runs first: it is cheap, primality of a huge d is not.
        if not self.allow_out_of_range_prime and not n <= d <= 2 * n:
            raise ConfigError(f"d={d} outside [n, 2n] = [{n}, {2 * n}]")
        if not is_prime(d):
            raise ConfigError(f"d={d} is not prime")
        secrets = _sequence("secrets", self.secrets)
        if not secrets:
            raise ConfigError("need at least one secret")
        for s in secrets:
            if not 0 <= s < d:
                raise ConfigError(f"secret {s} outside [0, {d})")
        if len(secrets) * n > MESSAGE_GUARD:
            raise DimensionGuardError(
                f"share messages dealers x n = {len(secrets)} x {n} = "
                f"{len(secrets) * n} exceed guard {MESSAGE_GUARD}"
            )
        qualified = _sequence(
            "qualified", range(1, t + 1) if self.qualified is None else self.qualified
        )
        if len(qualified) != t or len(set(qualified)) != t:
            raise ConfigError(f"qualified set must be {t} distinct players")
        if any(not 1 <= i <= n for i in qualified):
            raise ConfigError("qualified player index out of range")
        points = self.evaluation_points
        points = _sequence("evaluation_points",
                           range(1, n + 1) if points is None else points)
        if len(points) != n:
            raise ConfigError("need one evaluation point per player")
        if len({p % d for p in points}) != n or any(p % d == 0 for p in points):
            raise ConfigError("evaluation points must be distinct and nonzero mod d")
        if shots < 1:
            raise ConfigError(f"shots must be >= 1, got {shots}")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        polynomials = self.polynomials
        if polynomials is not None:
            polynomials = _sequence("polynomials", polynomials, _sequence)
            if len(polynomials) != len(secrets):
                raise ConfigError("need one pinned polynomial per secret")
            for secret, coeffs in zip(secrets, polynomials):
                if len(coeffs) != t:
                    raise ConfigError("pinned polynomials must have t coefficients")
                if coeffs[0] % d != secret:
                    raise ConfigError(
                        f"pinned constant term {coeffs[0]} does not match secret {secret}"
                    )
        return ResolvedConfig(
            secrets=secrets, n=n, t=t, d=d, qualified=qualified,
            evaluation_points=points, shots=shots, seed=seed, polynomials=polynomials,
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
    combined: Share | None = None
    shadow: Shadow | None = None


@dataclass
class PreparedRun:
    """Result of the classical phase (Steps 1-3)."""

    config: ResolvedConfig
    dealer_rows: np.ndarray  # (dealers, n): dealer k's share for player i
    players: list[PlayerState]
    messages: list[Message]
    shadows: list[int] = field(default_factory=list)


def _share_json(points: list[int], values: list[int], d: int) -> list[dict]:
    """``Share.to_json()`` of each (point, value) pair, points reduced mod d."""
    return [{"x": x, "value": v, "modulus": d} for x, v in zip(points, values)]


def deal(
    config: ResolvedConfig, rng: np.random.Generator
) -> tuple[np.ndarray, list[Message]]:
    """Step 1: each dealer evaluates its polynomial at every player's point.

    Returns the (dealers, n) array of shares, in ``zmod.residues``' dtype,
    and the share messages. Pinned polynomials draw nothing from ``rng``.
    """
    d = config.d
    if config.polynomials is not None:
        coefficients = residues(config.polynomials, d)
    else:
        # One draw of every dealer's t-1 random coefficients gives the same
        # values, in the same order, as t-1 scalar draws per dealer.
        draws = rng.integers(0, d, size=(len(config.secrets), config.t - 1))
        coefficients = residues(np.column_stack([config.secrets, draws]), d)
    points = residues(config.evaluation_points, d)
    rows = np.zeros((len(coefficients), config.n), dtype=points.dtype)
    for column in coefficients.T[::-1]:  # Horner, highest degree first
        rows = (rows * points + column[:, None]) % d
    xs = points.tolist()
    messages = [
        Message(f"dealer_{k + 1}", f"P{i}", "share", payload)
        for k, row in enumerate(rows.tolist())
        for i, payload in enumerate(_share_json(xs, row, d), start=1)
    ]
    return rows, messages


def combine(dealer_rows: np.ndarray, d: int) -> np.ndarray:
    """Step 2: each player's combined share, the sum of its dealers' shares."""
    return dealer_rows.sum(axis=0) % d


def prepare_run(config: ResolvedConfig, rng: np.random.Generator) -> PreparedRun:
    """Steps 1-3: deal, combine, and compute the qualified set's shadows.

    Computed on arrays; each player's combined share and each qualified
    player's shadow are then recorded once as a ``Share`` and a ``Shadow``.
    """
    d = config.d
    rows, messages = deal(config, rng)
    combined = combine(rows, d)
    qualified_points = [config.evaluation_points[i - 1] for i in config.qualified]
    shadows = (combined[np.array(config.qualified) - 1]
               * lagrange_weights(qualified_points, d) % d).tolist()
    players = [
        PlayerState(i, combined=Share(FieldElement(x, d), FieldElement(value, d)))
        for i, (x, value) in enumerate(
            zip(config.evaluation_points, combined.tolist()), start=1)
    ]
    for position, (i, value) in enumerate(zip(config.qualified, shadows), start=1):
        players[i - 1].shadow = Shadow(owner=position, value=FieldElement(value, d))
    return PreparedRun(config, rows, players, messages, shadows)


def post_transform_branches(
    shadows: Sequence[int], d: int, tap: QuantumTap | None = None
) -> list[tuple[float, tuple, AffineState]]:
    """Steps 4-5 on affine states.

    The initiator prepares the GHZ state and sends legs 2..t through
    ``tap``; then the player in slot u applies the QFT and X^{shadow_u}.
    Returns (probability, labels, post-transform state) per branch, with
    one label per tapped send. Without a tap there is one branch of
    weight 1.

    The post-transform state depends on the basis alone (the offset only
    sets phases), so consecutive branches whose bases are equal share one
    ``fourier_shift`` result, the same object: the d children of a
    collapse share one.
    """
    t = len(shadows)
    branches = [(1.0, (), affine.prepare_ghz(t, d))]
    if tap is not None:
        for position in range(2, t + 1):
            tapped = []
            for weight, labels, state in branches:
                tapped.extend((weight * p, labels + (label,), out)
                              for p, label, out in tap(state, position))
                # Checked as the send multiplies the branches, before the
                # next send multiplies them again.
                affine.check_branches(len(tapped))
            branches = tapped
    out, basis, shifted = [], None, None
    for weight, labels, state in branches:
        if shifted is None or not (state.basis is basis
                                   or np.array_equal(state.basis, basis)):
            basis, shifted = state.basis, affine.fourier_shift(state, shadows)
        out.append((weight, labels, shifted))
    return out


@dataclass(frozen=True)
class PhaseOutcomes:
    """Step 6 for every shot: the measured digits and the tap branch drawn."""

    digits: np.ndarray  # (shots, t) int64, qudit 1 first
    branch: np.ndarray  # (shots,) int64 index into labels
    labels: list[tuple]  # per tap branch, the labels of its sends

    def __len__(self) -> int:
        return len(self.digits)


def run_quantum_phase(
    shadows: Sequence[int],
    d: int,
    shots: int,
    rng: np.random.Generator,
    tap: QuantumTap | None = None,
) -> PhaseOutcomes:
    """Steps 4-6: simulate each tap branch once, draw every shot's branch in
    one call, then the shots of each run of consecutive branches that end
    in the same state in one call.

    Shots are drawn grouped by branch, in shot order within each branch.
    ``tap`` intercepts the initiator's particle sends (positions 2..t)
    before any QFT is applied; it is how adversaries are wired in.
    """
    branches = post_transform_branches(shadows, d, tap)
    weights = np.array([weight for weight, _, _ in branches])
    total = weights.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"tap branch probabilities sum to {total}, not 1")
    branch = rng.choice(len(weights), size=shots, p=weights / total)
    labels = [branch_labels for _, branch_labels, _ in branches]
    if len(branches) == 1:
        return PhaseOutcomes(affine.sample(branches[0][2], shots, rng), branch, labels)
    # A stable sort of ints of at most 16 bits is a radix sort.
    order = np.argsort(branch.astype(np.min_scalar_type(len(branches) - 1)),
                       kind="stable")
    digits = np.empty((len(shadows), shots), dtype=np.int64).T
    # Drawing a run of branches' shots at once takes the same values from
    # ``rng`` as drawing each branch's shots in turn.
    start = end = 0
    states = [state for _, _, state in branches]
    for i, count in enumerate(np.bincount(branch, minlength=len(branches)).tolist()):
        end += count
        if i + 1 == len(states) or states[i + 1] is not states[i]:
            digits[order[start:end]] = affine.sample(states[i], end - start, rng)
            start = end
    return PhaseOutcomes(digits, branch, labels)


def aggregate(digits: np.ndarray, d: int) -> np.ndarray:
    """Step 7: each shot's broadcast digits sum to the secret total mod d.

    ``digits`` holds one row per shot; returns one int64 sum per shot.
    """
    digits = np.asarray(digits, dtype=np.int64)
    if digits.size and (digits.min() < 0 or digits.max() >= d):
        outside = (digits < 0) | (digits >= d)
        raise ValueError(f"digit {digits[outside][0]} outside [0, {d})")
    # Column by column: one pass over each qudit's digits, not a short
    # reduction per shot.
    sums = np.zeros(digits.shape[:-1], dtype=np.int64)
    for column in np.moveaxis(digits, -1, 0):
        sums += column
    return sums % d


def _json_list(texts: list[str], depth: int) -> list[str]:
    """``json.dumps(entries, indent=2)`` re-indented to ``depth``, from the
    entries' own JSON texts (each written for ``depth + 1``), as pieces for
    the caller to join."""
    if not texts:
        return ["[]"]
    indent = "\n" + "  " * depth
    return [f"[{indent}  ", f",{indent}  ".join(texts), f"{indent}]"]


@dataclass
class ProtocolTranscript:
    config: ResolvedConfig
    dealer_rows: np.ndarray  # (dealers, n) shares, as PreparedRun.dealer_rows
    combined_shares: list[Share]
    shadows: list[Shadow]
    messages: list[Message]
    outcomes: np.ndarray  # (shots, t) int64 measured digits
    # Not serialized: each shot's tap branch, and each branch's labels.
    tap_branch: np.ndarray  # (shots,) int64 index into tap_labels
    tap_labels: list[tuple]
    per_shot_sums: np.ndarray  # (shots,) int64
    result: int
    result_binary: str
    seed: int

    @functools.cached_property
    def _outcome_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct outcome rows in ascending digit order, each shot's
        index into them, and each row's count: the one ``np.unique`` that
        ``histogram()`` and ``to_json()`` share."""
        d, t = self.config.d, self.config.t
        if d**t <= 2**63:
            # Flat basis indices fit in int64 and sort in the order of
            # their digit tuples.
            powers = d ** np.arange(t - 1, -1, -1, dtype=np.int64)
            indices, inverse, counts = np.unique(
                self.outcomes @ powers, return_inverse=True, return_counts=True)
            rows = indices[:, None] // powers % d
        else:
            rows, inverse, counts = np.unique(
                self.outcomes, axis=0, return_inverse=True, return_counts=True)
        return rows, inverse.reshape(-1), counts

    @functools.cached_property
    def _outcome_texts(self) -> np.ndarray:
        """``_outcome_table``'s distinct rows with each digit as its text,
        an object array: the histogram labels and the outcome rows' JSON
        are both joined from it."""
        rows = self._outcome_table[0]
        # Each distinct digit value is formatted once: all d of them when
        # the rows hold at least d digits, else those the rows hold.
        values, codes = ((np.arange(self.config.d), rows) if self.config.d <= rows.size
                         else np.unique(rows, return_inverse=True))
        texts = np.array(list(map(str, values.tolist())), dtype=object)
        return texts[codes.reshape(rows.shape)]

    def histogram(self) -> dict:
        """JSON-ready histogram keyed by dash-joined digit strings, in
        ascending digit order."""
        counts = self._outcome_table[2]
        return {
            "d": self.config.d,
            "t": self.config.t,
            "shots": len(self.outcomes),
            "seed": self.seed,
            "counts": dict(zip(map("-".join, self._outcome_texts.tolist()),
                               counts.tolist())),
        }

    def _items(self) -> list[tuple[str, object]]:
        """The transcript's top-level (key, value) pairs, in output order;
        the per-shot values stay int64 arrays."""
        d = self.config.d
        points = [p % d for p in self.config.evaluation_points]
        return [
            ("config", self.config.to_json()),
            ("shares", {
                "dealers": [_share_json(points, row, d)
                            for row in self.dealer_rows.tolist()],
                "combined": [s.to_json() for s in self.combined_shares],
            }),
            ("shadows", [s.to_json() for s in self.shadows]),
            ("messages", [m.to_json() for m in self.messages]),
            ("histogram", self.histogram()),
            ("outcomes", self.outcomes),
            ("per_shot_sums", self.per_shot_sums),
            ("result", self.result),
            ("result_binary", self.result_binary),
            ("seed", self.seed),
        ]

    def to_dict(self) -> dict:
        return {
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in self._items()
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2)``, byte for byte."""
        # Each distinct per-shot entry is written once, and each shot takes
        # its entry's text, so no entry passes through the pure-Python
        # encoder that ``json.dumps`` falls back on with an indent.
        rows = np.array(["".join(_json_list(row, 2))
                         for row in self._outcome_texts.tolist()], dtype=object)
        sums, sum_index = np.unique(self.per_shot_sums, return_inverse=True)
        sum_texts = np.array(list(map(str, sums.tolist())), dtype=object)
        per_shot = {
            "outcomes": rows[self._outcome_table[1]].tolist(),
            "per_shot_sums": sum_texts[sum_index].tolist(),
        }
        # An encoded string holds no raw newline, so re-indenting a section
        # by its newlines is exact. The text is joined once, from pieces.
        pieces = []
        for key, value in self._items():
            pieces += [",\n  " if pieces else "{\n  ", json.dumps(key), ": "]
            pieces += (_json_list(per_shot[key], 1) if key in per_shot
                       else [json.dumps(value, indent=2).replace("\n", "\n  ")])
        return "".join(pieces + ["\n}"])


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
        dealer_rows=prepared.dealer_rows,
        combined_shares=[p.combined for p in prepared.players],
        shadows=[
            prepared.players[i - 1].shadow for i in cfg.qualified
        ],
        messages=messages,
        outcomes=phase.digits,
        tap_branch=phase.branch,
        tap_labels=phase.labels,
        per_shot_sums=sums,
        result=result,
        result_binary=format(result, "b"),
        seed=cfg.seed,
    )
