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
import types
from dataclasses import dataclass, fields
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import affine
from .affine import AffineState, DimensionGuardError, digit_dtype
from .shamir import Share, Shadow
# Not called here: perfbench/tracer.py patches these names in this module
# until it is rebuilt on spans (ROADMAP item 1).
from .shamir import add_shares, compute_shadow, generate_shares  # noqa: F401
from .zmod import FieldElement, is_prime, lagrange_weights, residues, smallest_valid_prime

# The send a tap sees: the initiator's particle to slot 2. The GHZ legs are
# symmetric, and every t >= 2 has this one.
TAP_POSITION = 2
# Middleware hook on that send: state -> [(probability, label, state), ...],
# the branches the send turns into, with probabilities summing to 1 and one
# shared basis. [(1.0, None, state)] passes the state on; the honest path has none.
QuantumTap = Callable[[AffineState], list[tuple[float, Hashable, AffineState]]]

# Most outcome digits (shots x t) a run may hold: 16 to 64 MiB in
# ``digit_dtype(d)``, before the transcript writes them as text in blocks.
OUTCOME_GUARD = 2**24
# Shots whose outcome rows and per-shot sums ``write_json`` formats at once.
SHOTS_PER_BLOCK = 1024
# Most share messages (dealers x n) a run may hold: writing the transcript
# peaks at about 1 KiB per message, with its dealer share, 64 MiB at the guard.
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
    dealer_rows: np.ndarray  # (dealers, n): dealer k's share for player i
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


# ``Share.to_json()``'s keys, in order, and each message kind's payload keys.
_SHARE_KEYS = ("x", "value", "modulus")
_PAYLOAD_KEYS = {"share": _SHARE_KEYS, "particle": ("position",)}


def run_generators(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The generators a run with ``seed`` deals and draws its shots from: two
    children spawned from one ``SeedSequence``."""
    deal_seq, shot_seq = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(deal_seq), np.random.default_rng(shot_seq)


def deal(config: ResolvedConfig, rng: np.random.Generator) -> np.ndarray:
    """Step 1: each dealer evaluates its polynomial at every player's point.

    Returns the (dealers, n) array of shares, in ``zmod.residues``' dtype.
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


def post_transform_branches(
    shadows: Sequence[int], d: int, tap: QuantumTap | None = None
) -> list[tuple[float, Hashable, AffineState]]:
    """Steps 4-5 on affine states.

    The initiator prepares the GHZ state and, when t >= 2, sends the leg to
    ``TAP_POSITION`` through ``tap``; then the player in slot u applies the
    QFT and X^{shadow_u}. Returns (probability, label, post-transform state)
    per branch, the label the tap's own. Without a tap there is one branch
    of weight 1 and label None.

    A tap's branches must share one basis, else ``ValueError``: the offset
    only sets phases, so every branch holds the one ``fourier_shift`` result.
    """
    ghz = affine.prepare_ghz(len(shadows), d)
    branches = [(1.0, None, ghz)]
    if tap is not None and len(shadows) >= TAP_POSITION:
        branches = tap(ghz)
        affine.check_branches(len(branches))
        if not branches:
            raise ValueError("tap returned no branches")
        basis = branches[0][2].basis
        if not all(state.basis is basis or np.array_equal(state.basis, basis)
                   for _, _, state in branches):
            raise ValueError("tap branches must share one basis")
    shifted = affine.fourier_shift(branches[0][2], shadows)
    return [(weight, label, shifted) for weight, label, _ in branches]


@dataclass(frozen=True)
class PhaseOutcomes:
    """Step 6 for every shot: the measured digits and the tap branch drawn."""

    digits: np.ndarray  # (shots, t) in digit_dtype(d), qudit 1 first
    branch: np.ndarray  # (shots,) int64 index into labels
    labels: list[Hashable]  # per tap branch, the tap's label (None with no tap)

    def __len__(self) -> int:  # perfbench/tracer.py counts shots with it
        return len(self.digits)


def run_quantum_phase(
    shadows: Sequence[int],
    d: int,
    shots: int,
    rng: np.random.Generator,
    tap: QuantumTap | None = None,
) -> PhaseOutcomes:
    """Steps 4-6: one Fourier layer, then every shot's tap branch in one
    draw and its digits in another, in shot order, from the one
    post-transform state the branches share.

    ``tap`` intercepts the initiator's send to ``TAP_POSITION`` before any
    QFT is applied; it is how adversaries are wired in.
    """
    branches = post_transform_branches(shadows, d, tap)
    weights = np.array([weight for weight, _, _ in branches])
    if not np.isfinite(weights).all() or (weights < 0).any():
        raise ValueError("tap branch probabilities must be finite and non-negative")
    total = weights.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"tap branch probabilities sum to {total}, not 1")
    # Honest, before any draw: support exactly {x : Σx ≡ Σ shadows}, as the basis has
    # rank t - 1 (identity on its free columns), rows summing to 0 and offset to Σ shadows.
    state, free = branches[0][2], branches[0][2].columns[0]
    if tap is None and (len(free) != len(shadows) - 1
                        or not np.array_equal(state.basis[:, free], np.eye(len(free)))
                        or (state.basis.sum(axis=1) % d).any()
                        or int(state.offset.sum()) % d != sum(shadows) % d):
        raise AssertionError("honest post-transform state is not the summation coset")
    # ``rng.choice(len(weights), shots, p=weights / total)``'s own two steps,
    # the same values from the same draws, without its per-call checks.
    uniform = rng.random(shots)
    cdf = np.cumsum(weights / total)
    cdf /= cdf[-1]
    branch = (cdf.searchsorted(uniform, side="right") if len(branches) > 1
              else np.zeros(shots, dtype=np.int64))
    return PhaseOutcomes(affine.sample(state, shots, rng), branch,
                         [label for _, label, _ in branches])


def aggregate(digits: np.ndarray, d: int) -> np.ndarray:
    """Step 7: each shot's broadcast digits sum to the secret total mod d.

    ``digits`` holds one row per shot; returns one sum per shot in ``digit_dtype(d)``.
    """
    digits = np.asarray(digits)
    if digits.size and (digits.min() < 0 or digits.max() >= d):
        outside = (digits < 0) | (digits >= d)
        raise ValueError(f"digit {digits[outside][0]} outside [0, {d})")
    # Column by column, one pass over each qudit's digits, into one
    # accumulator that holds t * (d - 1), so one reduction at the end is exact.
    sums = np.zeros(digits.shape[:-1], np.min_scalar_type(digits.shape[-1] * (d - 1)))
    for column in np.moveaxis(digits, -1, 0):
        np.add(sums, column, out=sums, casting="unsafe")  # in range: checked above
    return np.remainder(sums, d, out=sums).astype(digit_dtype(d), copy=False)


def _json_list(texts: list[str], depth: int, brackets: str = "[]") -> list[str]:
    """``json.dumps(entries, indent=2)`` re-indented to ``depth``, from the
    entries' own JSON texts (each written for ``depth + 1``; an object's are
    ``"key": value`` texts), as pieces for the caller to join."""
    if not texts:
        return ["".join(brackets)]
    indent = "\n" + "  " * depth
    return [f"{brackets[0]}{indent}  ", f",{indent}  ".join(texts),
            f"{indent}{brackets[1]}"]


@functools.cache
def _template(depth: int, keys: tuple[str, ...]) -> str:
    """One record kind's ``str.format`` template: a JSON object with ``keys``
    at ``depth``, indented as above, with a ``{}`` slot per value's JSON text."""
    return "".join(_json_list([f'"{key}": {{}}' for key in keys], depth, ("{{", "}}")))


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


def _json_value(value, depth: int) -> str:
    """An int, None or nested tuple of ints as ``_json_list`` writes it at ``depth``."""
    if value is None:
        return "null"
    if isinstance(value, tuple):
        return "".join(_json_list([_json_value(v, depth + 1) for v in value], depth))
    return str(value)


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
    # Not serialized: each shot's tap branch, and each branch's label.
    tap_branch: np.ndarray  # (shots,) int64 index into tap_labels
    tap_labels: list[Hashable]
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

        One stable ``np.lexsort`` of the digit columns, qudit 1 the primary
        key, orders the shots; the keys, cast to the narrowest dtype holding
        d - 1, are 8 or 16 bits for d < 2^16, so they sort by radix. A row
        starts wherever a shot's digits differ from the shot before it."""
        columns = self.outcomes.T.astype(np.min_scalar_type(self.config.d - 1), copy=False)
        order = np.lexsort(columns[::-1])
        # take, unlike [:, order], keeps each qudit's digits contiguous.
        ordered = columns.take(order, axis=1)
        starts = np.r_[True, (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)]
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(starts) - 1
        first = np.flatnonzero(starts)
        counts = np.diff(first, append=len(order))
        texts, codes = _digit_table(ordered[:, first].T, self.config.d)
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
        ``fp`` in order, from one template per record kind and one text per
        distinct per-shot entry (equal sums: one text); the per-shot sections go
        out in blocks of ``SHOTS_PER_BLOCK`` shots. No string needs escaping."""
        cfg, d = self.config, self.config.d
        points = [p % d for p in cfg.evaluation_points]
        share = _template(4, _SHARE_KEYS)
        dealers = ["".join(_json_list([share.format(x, v, d)
                                       for x, v in zip(points, row)], 3))
                   for row in self.dealer_rows.tolist()]
        combined = [_template(3, _SHARE_KEYS).format(x, v, d)
                    for x, v in zip(points, self.combined)]
        shadow = _template(2, ("owner", "value", "modulus"))
        message = _template(2, ("sender", "receiver", "kind", "payload"))
        messages = [message.format(f'"{src}"', f'"{dst}"', f'"{kind}"',
                                   _template(3, _PAYLOAD_KEYS[kind]).format(*values))
                    for src, dst, kind, values in _message_records(cfg, self.dealer_rows)]
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
            "shadows": _json_list([shadow.format(u, v, d)
                                   for u, v in enumerate(self.shadows, start=1)], 1),
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


def run_protocol(
    config: RunConfig | ResolvedConfig, tap: QuantumTap | None = None
) -> ProtocolTranscript:
    cfg = config.resolved() if isinstance(config, RunConfig) else config
    deal_rng, shot_rng = run_generators(cfg.seed)
    prepared = prepare_run(cfg, deal_rng)
    phase = run_quantum_phase(prepared.shadows, cfg.d, cfg.shots, shot_rng, tap=tap)
    sums = aggregate(phase.digits, cfg.d)
    if tap is None and (sums != sums[0]).any():
        raise AssertionError("honest run produced non-constant per-shot sums")
    return ProtocolTranscript(**vars(prepared), outcomes=phase.digits,
                              tap_branch=phase.branch, tap_labels=phase.labels,
                              per_shot_sums=sums, result=int(sums[0]))
