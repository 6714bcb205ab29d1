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
import itertools
import json
import types
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import affine
from .affine import OUTCOME_GUARD, AffineState, digit_dtype
from .shamir import Share, Shadow
from .zmod import (ConfigError, DimensionGuardError, FieldElement, _integer, _sequence,
                   check_modulus, check_points, lagrange_weights, residues,
                   smallest_valid_prime)
# Not called here: perfbench/tracer.py patches these names in this module
# until it is rebuilt on spans (ROADMAP item 1).
from .shamir import add_shares, compute_shadow, generate_shares  # noqa: F401
from .zmod import is_prime  # noqa: F401

# The send a tap sees: the initiator's particle to slot 2. The GHZ legs are
# symmetric, and every t >= 2 has this one.
TAP_POSITION = 2
# Middleware hook on that send: state -> (weights, kept), one probability per
# outcome, as ``send_ghz`` checks them, and the one state every outcome leaves up
# to an offset, which the Fourier layer turns into phases. ([1.0], state) passes
# the state on; the honest path has no tap.
QuantumTap = Callable[[AffineState], tuple[Sequence[float], AffineState]]

# Shots whose outcome rows and per-shot sums ``write_json`` formats at once.
SHOTS_PER_BLOCK = 1024
# Most share messages (dealers x n) a run may hold: writing the transcript
# peaks at about 1 KiB per message, with its dealer share, 64 MiB at the guard.
MESSAGE_GUARD = 2**16


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
        affine.check_qudits(t)
        d = smallest_valid_prime(n) if self.d is None else _integer("d", self.d)
        # The range check runs first: it is cheap, primality of a huge d is not.
        if not self.allow_out_of_range_prime and not n < d <= 2 * n:
            raise ConfigError(f"d={d} outside (n, 2n] = ({n}, {2 * n}]")
        check_modulus(d)
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
        check_points(points, d)
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
        """The fields in order, as JSON values: each tuple a list."""
        return json.loads(json.dumps(vars(self)))


@dataclass
class PlayerState:
    """One player's private record; never holds another player's data."""

    index: int
    combined: Share | None = None
    shadow: Shadow | None = None


@dataclass
class PreparedRun:
    """Result of the classical phase (Steps 1-3), as integers; the players'
    ``Share`` and ``Shadow`` records are built when first read."""

    config: ResolvedConfig
    dealer_rows: np.ndarray  # (dealers, n) int64: dealer k's share for player i
    combined: list[int]  # player i's combined share value, at index i - 1
    shadows: list[int]  # slot u's shadow, at index u - 1

    def combined_share(self, i: int) -> Share:
        """Player ``i``'s (1..n) combined share, at its evaluation point."""
        d = self.config.d
        return Share(FieldElement(self.config.evaluation_points[i - 1], d),
                     FieldElement(self.combined[i - 1], d))

    @functools.cached_property
    def players(self) -> list[PlayerState]:
        players = [PlayerState(i, combined=self.combined_share(i))
                   for i in range(1, self.config.n + 1)]
        for position, (i, value) in enumerate(zip(self.config.qualified, self.shadows),
                                              start=1):
            players[i - 1].shadow = Shadow(owner=position,
                                           value=FieldElement(value, self.config.d))
        return players


# ``Share.to_json()``'s keys in order, a message's, and each kind's payload keys.
_SHARE_KEYS = ("x", "value", "modulus")
_MESSAGE_KEYS = ("sender", "receiver", "kind", "payload")
_PAYLOAD_KEYS = {"share": _SHARE_KEYS, "particle": ("position",)}


def run_generators(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The generators a run or attack at ``seed`` deals and draws its shots
    from, the only ones qsms makes: two children of one ``SeedSequence``."""
    deal_seq, shot_seq = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(deal_seq), np.random.default_rng(shot_seq)


def deal(config: ResolvedConfig, rng: np.random.Generator) -> np.ndarray:
    """Step 1: each dealer evaluates its polynomial at every player's point.

    Returns the (dealers, n) int64 array of shares.
    Pinned polynomials draw nothing from ``rng``.
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
    return rows


def combine(dealer_rows: np.ndarray, d: int) -> np.ndarray:
    """Step 2: each player's combined share, the sum of its dealers' shares."""
    return dealer_rows.sum(axis=0) % d


def prepare_run(config: ResolvedConfig, rng: np.random.Generator) -> PreparedRun:
    """Steps 1-3: deal, combine, and compute the qualified set's shadows.

    Computed on arrays. A run's quantum phase reads only the shadows, so
    no player's ``Share`` or ``Shadow`` is built unless a caller reads one.
    """
    d = config.d
    rows = deal(config, rng)
    combined = combine(rows, d)
    qualified_points = [config.evaluation_points[i - 1] for i in config.qualified]
    shadows = (combined[np.array(config.qualified) - 1]
               * lagrange_weights(qualified_points, d) % d).tolist()
    return PreparedRun(config, rows, combined.tolist(), shadows)


def send_ghz(t: int, d: int, tap: QuantumTap | None = None) -> tuple:
    """Step 4: the initiator prepares the GHZ state and, when t >= 2, sends the
    leg to ``TAP_POSITION`` through ``tap``. Returns (ones(1), GHZ) or the tap's
    (weights, kept), the weights checked here once and as floats: a 1-D sequence of
    numbers within the branch guard, finite, non-negative and summing to 1."""
    ghz = affine.prepare_ghz(t, d)
    if tap is None or t < TAP_POSITION:
        return np.ones(1), ghz
    weights, kept = tap(ghz)
    try:
        weights = np.asarray(weights)
    except ValueError:  # a ragged list
        weights = np.empty(())
    if weights.ndim != 1 or weights.dtype.kind not in "iuf":
        raise ValueError("tap weights must be a 1-D sequence of numbers")
    affine.check_branches(len(weights))
    weights = weights.astype(float, copy=False)
    if not np.isfinite(weights).all() or (weights < 0).any():
        raise ValueError("tap branch probabilities must be finite and non-negative")
    total = weights.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"tap branch probabilities sum to {total}, not 1")
    return weights, kept


def post_transform(shadows: Sequence[int], d: int, tap: QuantumTap | None = None) -> tuple:
    """Steps 4-5: ``send_ghz``'s weights, and the one state the QFT and
    X^{shadow_u} in every slot u turn its kept state into."""
    weights, kept = send_ghz(len(shadows), d, tap)
    return weights, affine.fourier_shift(kept, shadows)


def branch_counts(weights: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """How many of ``shots`` fall in each tap branch, from one
    ``rng.multinomial`` of ``weights``, as ``send_ghz`` returns and checks them,
    over their sum. One branch takes every shot and draws nothing from ``rng``."""
    return rng.multinomial(shots, weights / weights.sum())


@dataclass(frozen=True)
class PhaseOutcomes:
    """Step 6 for every shot: the measured digits, and the shots per tap branch."""

    digits: np.ndarray  # (shots, t) in digit_dtype(d), qudit 1 first
    counts: np.ndarray  # (branches,) int64: the shots drawn in each tap branch

    def __len__(self) -> int:  # perfbench/tracer.py counts shots with it
        return len(self.digits)


def run_quantum_phase(
    shadows: Sequence[int],
    d: int,
    shots: int,
    rng: np.random.Generator,
    tap: QuantumTap | None = None,
) -> PhaseOutcomes:
    """Steps 4-6: one Fourier layer, then one multinomial draw of the shots
    each tap branch takes, then every shot's digits in one draw, in shot
    order, from the one post-transform state the branches share.

    ``tap`` intercepts the initiator's send to ``TAP_POSITION`` before any
    QFT is applied; it is how adversaries are wired in.
    """
    weights, state = post_transform(shadows, d, tap)
    # Honest, before any draw: the support is exactly {x : Σx ≡ Σ shadows}.
    if tap is None and not affine.is_summation_coset(state, sum(shadows)):
        raise AssertionError("honest post-transform state is not the summation coset")
    counts = branch_counts(weights, shots, rng)  # first: the digit draw follows it
    return PhaseOutcomes(affine.sample(state, shots, rng), counts)


def aggregate(digits: np.ndarray, d: int) -> np.ndarray:
    """Step 7: each shot's broadcast digits sum to the secret total mod d.

    ``digits``, an integer array or nested lists of ints (no bools), holds one row
    per shot; returns one sum per shot in ``digit_dtype(d)``. d passes ``check_modulus``.
    """
    d, values = check_modulus(d), digits
    try:
        digits = np.asarray(values)
    except ValueError:  # a ragged list
        digits = np.empty(())
    # numpy reads a list's bools beside its ints as 0 and 1; an array pays nothing.
    if digits.ndim < 1 or not np.issubdtype(digits.dtype, np.integer) or (
            not isinstance(values, np.ndarray)
            and any(isinstance(v, (bool, np.bool_)) for v in np.asarray(values, object).flat)):
        raise ConfigError("digits must be an integer array of at least one dimension")
    if digits.size and (digits.min() < 0 or digits.max() >= d):
        outside = (digits < 0) | (digits >= d)
        raise ConfigError(f"digit {digits[outside][0]} outside [0, {d})")
    # One sum in the narrowest dtype that holds t * (d - 1), so one reduction
    # at the end is exact; a single row's sum stays a 0-d array.
    sums = digits.sum(axis=-1, dtype=np.min_scalar_type(digits.shape[-1] * (d - 1)))
    return np.asarray(sums % d).astype(digit_dtype(d), copy=False)


def _json_list(texts: list[str], depth: int, brackets: str = "[]") -> list[str]:
    """``json.dumps(entries, indent=2)`` re-indented to ``depth``, from the
    entries' own JSON texts (each written for ``depth + 1``; an object's are
    ``"key": value`` texts), as pieces for the caller to join."""
    if not texts:
        return ["".join(brackets)]
    indent = "\n" + "  " * depth
    return [f"{brackets[0]}{indent}  ", f",{indent}  ".join(texts),
            f"{indent}{brackets[1]}"]


@functools.lru_cache(maxsize=256)
def _template(depth: int, keys: tuple[str, ...], values: tuple | None = None) -> str:
    """One record kind's ``str.format`` template: a JSON object with ``keys``
    at ``depth``, indented as above, each value a ``{}`` slot or its text from
    ``values`` baked in (an int, or text whose literal braces are doubled)."""
    values = ("{}",) * len(keys) if values is None else values
    return "".join(_json_list([f'"{key}": {value}' for key, value in zip(keys, values)],
                              depth, ("{{", "}}")))


def _digit_table(digits: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(texts, codes): ``texts[codes]`` is each digit in [0, d) as its text, in
    ``digits``' shape, each of the d texts (or of the digits present) made once."""
    values, codes = ((np.arange(d), digits) if d <= digits.size
                     else np.unique(digits, return_inverse=True))
    return (np.array(list(map(str, values.tolist())), dtype=object),
            codes.reshape(digits.shape))


def _json_blocks(texts: np.ndarray, codes: np.ndarray, depth: int) -> Iterator[str]:
    """``_json_list(texts[codes].tolist(), depth)``'s text in pieces, each
    block of ``SHOTS_PER_BLOCK`` entries joined only when it is reached."""
    opening, sep, closing = _json_list(["", ""], depth)
    for start in range(0, len(codes), SHOTS_PER_BLOCK):
        yield sep if start else opening
        yield sep.join(texts[codes[start:start + SHOTS_PER_BLOCK]].tolist())
    yield closing if len(codes) else "[]"


def _repeated_blocks(text: str, count: int, depth: int) -> Iterator[str]:
    """``_json_list([text] * count, depth)``, ``count`` >= 1, in ``_json_blocks``' pieces."""
    opening, sep, closing = _json_list(["", ""], depth)
    for start in range(0, count, SHOTS_PER_BLOCK):
        yield sep if start else opening
        yield (text + sep) * (min(SHOTS_PER_BLOCK, count - start) - 1) + text
    yield closing


# Each JSON scalar type's text, as json.dumps writes it (a float: finite).
_JSON_SCALARS = {int: int.__repr__, float: float.__repr__, type(None): lambda _: "null",
                 str: json.encoder.encode_basestring_ascii, bool: lambda b: str(b).lower()}


def _json_value(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` as ``_json_list`` writes it at ``depth``, for a
    JSON scalar or a list, tuple or str-keyed dict of them."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, dict):
        key = _JSON_SCALARS[str]
        return "".join(_json_list([f"{key(k)}: {_json_value(v, depth + 1)}"
                                   for k, v in value.items()], depth, "{}"))
    if set(map(type, value)) == {int}:  # ints alone, no bool: one join of their texts
        return "".join(_json_list(list(map(int.__repr__, value)), depth))
    return "".join(_json_list([_json_value(v, depth + 1) for v in value], depth))


def _message_records(config: ResolvedConfig, dealer_rows: np.ndarray) -> list[tuple]:
    """(sender, receiver, kind, payload values keyed by ``_PAYLOAD_KEYS``) of
    every message in send order: each dealer's share to each player, then the
    step-4 particle sends, whose only classical payload is the slot index."""
    d, initiator = config.d, config.qualified[0]
    points = [p % d for p in config.evaluation_points]
    return [(f"dealer_{k}", f"P{i}", "share", (x, value, d))
            for k, row in enumerate(dealer_rows.tolist(), start=1)
            for i, (x, value) in enumerate(zip(points, row), start=1)] + [
        (f"P{initiator}", f"P{i}", "particle", (position,))
        for position, i in enumerate(config.qualified[1:], start=2)]


@dataclass
class ProtocolTranscript(PreparedRun):
    """A run: its classical phase, then its quantum phase's outcomes and result."""

    outcomes: np.ndarray  # (shots, t) measured digits, in digit_dtype(d)
    tap_counts: np.ndarray  # (branches,) int64, the shots per tap branch; not serialized
    per_shot_sums: np.ndarray  # (shots,) in digit_dtype(d)
    result: int

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def result_binary(self) -> str:
        return format(self.result, "b")

    @property
    def messages(self) -> list[dict]:
        """Every message in send order as JSON-ready dicts, built on each read
        from the config and ``dealer_rows`` alone; ``write_json`` does not read it."""
        return [{"sender": sender, "receiver": receiver, "kind": kind,
                 "payload": dict(zip(_PAYLOAD_KEYS[kind], values))}
                for sender, receiver, kind, values in _message_records(self.config,
                                                                       self.dealer_rows)]

    @property
    def combined_shares(self) -> list[Share]:
        """The n combined shares as ``Share`` records, built on each read."""
        return [self.combined_share(i) for i in range(1, self.config.n + 1)]

    @functools.cached_property
    def _outcome_table(self) -> tuple[list[list[str]], np.ndarray, np.ndarray]:
        """Each distinct outcome row's digit texts, in ascending digit order,
        each shot's index into the rows and each row's count: the one table
        that ``histogram()`` and ``write_json()`` share.

        With d^t <= shots, one ``np.bincount`` counts the rows' base-d keys,
        qudit 1 the most significant digit. Else one stable ``np.lexsort`` of
        the digit columns, qudit 1 the primary key, orders the shots, and a
        row starts wherever a shot's digits differ from the shot before it."""
        d, (shots, t) = self.config.d, self.outcomes.shape
        if d ** t <= shots:
            # Horner in the narrowest dtype, then intp, which numpy gathers fastest.
            columns = self.outcomes.T.astype(np.min_scalar_type(d ** t - 1))
            keys = columns[0]
            for column in columns[1:]:
                keys = keys * d + column
            keys = keys.astype(np.intp)
            bins = np.bincount(keys, minlength=d ** t)
            inverse = (np.cumsum(bins > 0) - 1)[keys]
            present = np.flatnonzero(bins)
            rows, counts = np.column_stack(np.unravel_index(present, (d,) * t)), bins[present]
        else:  # 8 or 16-bit keys for d < 2^16 sort by radix
            columns = self.outcomes.T.astype(np.min_scalar_type(d - 1), copy=False)
            order = np.lexsort(columns[::-1])
            # take, unlike [:, order], keeps each qudit's digits contiguous.
            ordered = columns.take(order, axis=1)
            starts = np.r_[True, (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)]
            inverse = np.empty_like(order)
            inverse[order] = np.cumsum(starts) - 1
            first = np.flatnonzero(starts)
            rows, counts = ordered[:, first].T, np.diff(first, append=shots)
        texts, codes = _digit_table(rows, d)
        return texts[codes].tolist(), inverse, counts

    def histogram(self) -> dict:
        """JSON-ready histogram keyed by dash-joined digit strings, in
        ascending digit order."""
        texts, _, counts = self._outcome_table
        counts = zip(map("-".join, texts), counts.tolist())
        return {"d": self.config.d, "t": self.config.t, "shots": len(self.outcomes),
                "seed": self.seed, "counts": dict(counts)}

    def to_dict(self) -> dict:
        """The transcript as JSON values: the oracle ``write_json`` is checked against."""
        messages, n, d = self.messages, self.config.n, self.config.d
        shares = [m["payload"] for m in messages if m["kind"] == "share"]
        return {
            "config": self.config.to_json(),
            "shares": {"dealers": [shares[k:k + n] for k in range(0, len(shares), n)],
                       "combined": [s.to_json() for s in self.combined_shares]},
            "shadows": [Shadow(u, FieldElement(v, d)).to_json()
                        for u, v in enumerate(self.shadows, start=1)],
            "messages": messages,
            "histogram": self.histogram(),
            "outcomes": self.outcomes.tolist(),
            "per_shot_sums": self.per_shot_sums.tolist(),
            "result": self.result,
            "result_binary": self.result_binary,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        """``write_json``'s text, its pieces joined once."""
        pieces = []
        self.write_json(types.SimpleNamespace(write=pieces.append))
        return "".join(pieces)

    def write_json(self, fp) -> None:
        """``json.dumps(self.to_dict(), indent=2)``, byte for byte, written to
        ``fp`` in order, from one template per record kind (d baked in) and one
        text per distinct per-shot entry (equal sums: one text); the per-shot
        sections go out in blocks of ``SHOTS_PER_BLOCK`` shots. No string needs
        escaping."""
        cfg, d = self.config, self.config.d
        points, dealer_rows = [p % d for p in cfg.evaluation_points], self.dealer_rows.tolist()
        share = ("{}", "{}", d)  # x and value slots, then the modulus
        dealer_share = _template(4, _SHARE_KEYS, share).format
        dealers = ["".join(_json_list(list(map(dealer_share, points, row)), 3))
                   for row in dealer_rows]
        combined = list(map(_template(3, _SHARE_KEYS, share).format, points, self.combined))
        shadow = _template(2, ("owner", "value", "modulus"), share).format
        # Slots for the dealer k, the player i and the share's x and value.
        sent = _template(2, _MESSAGE_KEYS, ('"dealer_{}"', '"P{}"', '"share"',
                                            _template(3, _SHARE_KEYS, share)))
        messages, players = [], range(1, cfg.n + 1)
        for k, row in enumerate(dealer_rows, start=1):
            messages += map(sent.format, itertools.repeat(k), players, points, row)
        position = _template(3, _PAYLOAD_KEYS["particle"])
        particle = _template(2, _MESSAGE_KEYS,
                             (f'"P{cfg.qualified[0]}"', '"P{}"', '"particle"', position))
        messages += map(particle.format, cfg.qualified[1:], itertools.count(2))
        texts, inverse, counts = self._outcome_table
        counts = [f'"{"-".join(row)}": {n}' for row, n in zip(texts, counts.tolist())]
        sep = ",\n      "  # between a row's digits, as ``_json_list(row, 2)`` writes it
        rows = np.array([f"[\n      {sep.join(r)}\n    ]" for r in texts], dtype=object)
        sums = self.per_shot_sums
        sections = {
            "config": _json_list([f'"{key}": {_json_value(value, 2)}'
                                  for key, value in vars(cfg).items()], 1, "{}"),
            "shares": _json_list([f'"dealers": {"".join(_json_list(dealers, 2))}',
                                  f'"combined": {"".join(_json_list(combined, 2))}'],
                                 1, "{}"),
            "shadows": _json_list(list(map(shadow, itertools.count(1), self.shadows)), 1),
            "messages": _json_list(messages, 1),
            "histogram": [_template(1, ("d", "t", "shots", "seed", "counts")).format(
                d, cfg.t, len(self.outcomes), self.seed,
                "".join(_json_list(counts, 2, "{}")))],
            "outcomes": _json_blocks(rows, inverse, 1),
            # Every honest shot sums to the same value: one text, repeated.
            "per_shot_sums": (_repeated_blocks(str(sums[0]), len(sums), 1)
                              if len(sums) and (sums == sums[0]).all()
                              else _json_blocks(*_digit_table(sums, d), 1)),
            "result": [str(self.result)],
            "result_binary": [f'"{self.result_binary}"'],
            "seed": [str(self.seed)],
        }
        opening = "{\n  "
        for key, pieces in sections.items():
            fp.write(f'{opening}"{key}": ')
            for piece in pieces:
                fp.write(piece)
            opening = ",\n  "
        fp.write("\n}")


def resolve(config: RunConfig | ResolvedConfig) -> ResolvedConfig:
    """``config`` resolved, or as it is if it already is a ``ResolvedConfig``."""
    if not isinstance(config, (RunConfig, ResolvedConfig)):
        raise ConfigError(f"config is no RunConfig or ResolvedConfig: {type(config).__name__}")
    return config.resolved() if isinstance(config, RunConfig) else config


def run_protocol(
    config: RunConfig | ResolvedConfig, tap: QuantumTap | None = None
) -> ProtocolTranscript:
    cfg = resolve(config)
    deal_rng, shot_rng = run_generators(cfg.seed)
    prepared = prepare_run(cfg, deal_rng)
    phase = run_quantum_phase(prepared.shadows, cfg.d, cfg.shots, shot_rng, tap=tap)
    sums = aggregate(phase.digits, cfg.d)
    if tap is None and (sums != sums[0]).any():
        raise AssertionError("honest run produced non-constant per-shot sums")
    return ProtocolTranscript(**vars(prepared), outcomes=phase.digits,
                              tap_counts=phase.counts, per_shot_sums=sums,
                              result=int(sums[0]))
