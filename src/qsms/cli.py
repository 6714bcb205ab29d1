"""Command-line driver: run a protocol, reproduce the worked example,
run attack scenarios, or cross-check the simulator against the analytic
post-transform state.

Exit codes: 0 success, 2 usage/config error, 3 simulator guard,
4 verification or statistical failure. A reader that closes stdout early
changes none of them.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import affine
from .adversary import collusion_inference, dealt_shares, intercept_and_measure, intercept_resend
from .protocol import ConfigError, RunConfig, post_transform, run_protocol
from .zmod import DimensionGuardError, check_modulus

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4

# Each command's flags go on top of its base: ``--config`` for ``run``, these
# mappings for ``demo`` and ``attack``. An attack's d, as a run's, defaults
# to the smallest prime in (n, 2n].
DEMO_CONFIG = {"secrets": (2, 3), "n": 7, "t": 3, "d": 11, "shots": 8192, "seed": 42,
               "polynomials": ((2, 1, 1), (3, 1, 1))}
ATTACK_CONFIG = {"secrets": (2, 3), "n": 7, "t": 3, "shots": 100_000, "seed": 0}
DEMO_F_ROW = [4, 8, 3, 0, 10, 0, 3]
DEMO_G_ROW = [5, 9, 4, 1, 0, 1, 4]
DEMO_H_ROW = [9, 6, 7, 1, 10, 1, 7]
DEMO_SHADOWS = [5, 4, 7]
DEMO_RESULT = 5


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _poly_list(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_int_list(part) for part in text.split(";") if part.strip() != "")


@contextlib.contextmanager
def _open_output(name: str):
    """``name``, under ``QSMS_OUTPUT_DIR`` if relative, open to write text in the block."""
    path = Path(name)
    if not path.is_absolute():
        path = Path(os.environ.get("QSMS_OUTPUT_DIR", ".")) / path
    try:
        fh = open(path, "w", buffering=2**16)  # 64 KiB: blocks of shots in few writes
    except FileNotFoundError:  # the directory is made only when missing
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w", buffering=2**16)
    try:
        with fh:
            yield fh
    except BaseException:  # closed; a partial regular file goes, a link or device stays
        if stat.S_ISREG(os.lstat(path).st_mode):
            path.unlink()
        raise


class _Stdout:
    """``stream`` until its reader goes away: after a ``BrokenPipeError`` the
    text goes nowhere, so a closed stdout changes no exit code or file."""

    def __init__(self, stream) -> None:
        self.stream = stream

    def write(self, text: str) -> None:
        if self.stream is not None:
            try:
                self.stream.write(text)
            except BrokenPipeError:
                self.stream = None


class _Tee(list):
    """Text sinks, each of which gets every write."""

    def write(self, text: str) -> None:
        for sink in self:
            sink.write(text)


def _config_from_args(args: argparse.Namespace, base) -> RunConfig:
    """``base``, a mapping of config keys, with every config flag given on top."""
    keys = ("secrets", "n", "t", "d", "shots", "seed", "qualified", "polynomials")
    return RunConfig.from_mapping(
        base, **{k: v for k in keys if (v := getattr(args, k, None)) is not None}
    )


def _render_table(transcript) -> str:
    """The share table, each column as wide as its widest text plus one space,
    then the shadows and the result."""
    cfg = transcript.config
    rows = [["Players", *(f"P{i}" for i in range(1, cfg.n + 1))],
            *([f"poly_{k}(x_i)", *map(str, row)]
              for k, row in enumerate(transcript.dealer_rows.tolist(), start=1)),
            ["h(x_i)", *map(str, transcript.combined)]]
    label_width = max(len(row[0]) for row in rows) + 1
    cell_width = max(len(cell) for row in rows for cell in row[1:]) + 1
    lines = [row[0].ljust(label_width) + "".join(c.ljust(cell_width) for c in row[1:])
             for row in rows]
    lines.append(f"shadows (qualified set {list(cfg.qualified)}): {transcript.shadows}")
    lines.append(
        f"result: {transcript.result}  (binary {transcript.result_binary})"
    )
    return "\n".join(lines)


def _emit_transcript(transcript, args) -> None:
    """``--format`` on stdout, JSON to ``--output``: one ``write_json`` pass feeds both."""
    fmt = getattr(args, "format", "pretty")
    output = getattr(args, "output", None)
    with contextlib.ExitStack() as stack:
        sinks = _Tee([stack.enter_context(_open_output(output))] if output else [])
        if fmt == "json":
            sinks.append(sys.stdout)
        elif fmt == "csv":
            writer = csv.writer(sys.stdout)
            writer.writerow(["outcome", "count"])
            writer.writerows(transcript.histogram()["counts"].items())
        else:
            print(_render_table(transcript))
        if sinks:
            transcript.write_json(sinks)
    if fmt == "json":
        print()


def cmd_run(args: argparse.Namespace) -> int:
    base = {}
    if args.config:
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
            raise ConfigError(f"--config {args.config}: {exc}") from None
    transcript = run_protocol(_config_from_args(args, base))
    _emit_transcript(transcript, args)
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    transcript = run_protocol(_config_from_args(args, DEMO_CONFIG))
    _emit_transcript(transcript, args)

    mismatches = []
    got_f, got_g = transcript.dealer_rows.tolist()
    for name, got, want in (
        ("f shares", got_f, DEMO_F_ROW),
        ("g shares", got_g, DEMO_G_ROW),
        ("h shares", transcript.combined, DEMO_H_ROW),
        ("shadows", transcript.shadows, DEMO_SHADOWS),
        ("result", transcript.result, DEMO_RESULT),
        ("binary", transcript.result_binary, "101"),
    ):
        if got != want:
            mismatches.append(f"{name}: expected {want}, got {got}")
    if mismatches:
        for line in mismatches:
            print(f"MISMATCH {line}", file=sys.stderr)
        return EXIT_VERIFY
    print("demo matches the reference values")
    return EXIT_OK


def cmd_attack(args: argparse.Namespace) -> int:
    config = _config_from_args(args, ATTACK_CONFIG)
    if args.kind == "intercept":
        report = intercept_and_measure(config, args.secret_pairs)
    elif args.kind == "intercept-resend":
        report = intercept_resend(config)
    else:  # collusion
        cfg = config.resolved()
        if args.colluders is None:
            raise ConfigError("--colluders is required for a collusion attack")
        # The coalition pools the shares a run of this config deals it.
        report = collusion_inference(dealt_shares(cfg, args.colluders), t=cfg.t, d=cfg.d)
    text = report.to_json()
    print(text)
    if args.output:
        with _open_output(args.output) as fh:
            fh.write(text)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_verify(args: argparse.Namespace) -> int:
    from . import qudit  # the dense oracle; no other command imports it

    d, t = check_modulus(args.d), args.t  # first: a shadow's range [0, d) needs it
    shadows = list(args.shadows)
    if len(shadows) != t:
        raise ConfigError(f"expected {t} shadows, got {len(shadows)}")
    for s in shadows:
        if not 0 <= s < d:
            raise ConfigError(f"shadow {s} outside [0, {d})")
    # The protocol's own exact check at any t, then the dense one where d^t fits.
    _, outcomes = post_transform(shadows, d)
    exact = affine.is_summation_coset(outcomes, sum(shadows))
    print(f"exact coset check: {'passed' if exact else 'FAILED'}")
    state = qudit.post_transform_state(shadows, d)
    analytic = qudit.analytic_post_transform_state(t, d, shadows)
    max_diff = float(np.max(np.abs(state.amplitudes - analytic.amplitudes)))
    support = int(np.sum(np.abs(state.amplitudes) > 1e-12))
    # The protocol's own engine must put its outcomes on the same support.
    same_support = np.array_equal(affine.support_mask(outcomes),
                                  np.abs(analytic.amplitudes) > 1e-12)
    print(f"max amplitude difference: {max_diff:.3e}")
    print(f"support size: {support} (expected {d ** (t - 1)})")
    ok = exact and max_diff <= 1e-9 and support == d ** (t - 1) and same_support
    print("verification passed" if ok else "verification FAILED")
    return EXIT_OK if ok else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ConfigError, so it gets the one
    ``error:`` line of every other usage error; subparsers inherit this.
    ``commands`` maps each command name to its subparser."""

    def error(self, message: str):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qsms`` parser, built on the first call and shared after it."""
    parser = _Parser(
        prog="qsms",
        description="Threshold quantum secure multiparty summation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    # The flags ``run`` and ``attack`` share; none has a default, so an
    # omitted one leaves the command's base config in force.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--secrets", type=_int_list)
    for flag in ("--n", "--t", "--d", "--shots", "--seed"):
        shared.add_argument(flag, type=int)
    shared.add_argument("--output")

    run_p = sub.add_parser("run", parents=[shared], help="run a protocol instance")
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument("--qualified", type=_int_list)
    run_p.add_argument("--poly", type=_poly_list, dest="polynomials", metavar="POLY",
                       help="pinned coefficients, e.g. '2,1,1;3,1,1'")
    run_p.add_argument("--format", choices=["json", "csv", "pretty"],
                       default="pretty")
    run_p.set_defaults(func=cmd_run)

    demo_p = sub.add_parser("demo", help="reproduce the worked example")
    demo_p.add_argument("--shots", type=int)
    demo_p.add_argument("--seed", type=int)
    demo_p.add_argument("--output")
    demo_p.set_defaults(func=cmd_demo)

    attack_p = sub.add_parser("attack", parents=[shared],
                              help="run an adversary scenario")
    attack_p.add_argument("--kind", required=True,
                          choices=["intercept", "intercept-resend", "collusion"])
    attack_p.add_argument("--secret-pairs", type=_poly_list, dest="secret_pairs",
                          default=((2, 3), (7, 9)), help="e.g. '2,3;7,9'")
    attack_p.add_argument("--colluders", type=_int_list)
    attack_p.set_defaults(func=cmd_attack)

    verify_p = sub.add_parser(
        "verify", help="simulator vs analytic post-transform state"
    )
    verify_p.add_argument("--d", type=int, required=True)
    verify_p.add_argument("--t", type=int, required=True)
    verify_p.add_argument("--shadows", type=_int_list, required=True)
    verify_p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with contextlib.redirect_stdout(_Stdout(sys.stdout)):
        try:
            # A command's parser reads the rest, as the top parser would pass it on.
            parser = build_parser()
            command = parser.commands.get(argv[0]) if argv else None
            args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
            return args.func(args)
        except SystemExit as exc:  # --help
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        except DimensionGuardError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_GUARD
        except (ValueError, OSError) as exc:  # ConfigError and ThresholdReachedError too
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


def entry_point() -> None:  # console-script shim
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; fd 1 goes to devnull, so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":  # python -m qsms.cli
    entry_point()
