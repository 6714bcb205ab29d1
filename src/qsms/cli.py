"""Command-line driver: run a protocol, reproduce the worked example,
run attack scenarios, or cross-check the simulator against the analytic
post-transform state.

Exit codes: 0 success, 2 usage/config error, 3 simulator guard,
4 verification or statistical failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import qudit
from .adversary import (
    ThresholdReachedError,
    collusion_inference,
    intercept_and_measure,
    intercept_resend,
)
from .protocol import ConfigError, RunConfig, post_transform_branches, run_protocol
from .qudit import DimensionGuardError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4

DEMO_CONFIG = RunConfig(
    secrets=(2, 3),
    n=7,
    t=3,
    d=11,
    shots=8192,
    seed=42,
    polynomials=((2, 1, 1), (3, 1, 1)),
)
DEMO_F_ROW = [4, 8, 3, 0, 10, 0, 3]
DEMO_G_ROW = [5, 9, 4, 1, 0, 1, 4]
DEMO_H_ROW = [9, 6, 7, 1, 10, 1, 7]
DEMO_SHADOWS = [5, 4, 7]
DEMO_RESULT = 5


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip() != "")


def _poly_list(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_int_list(part) for part in text.split(";") if part.strip() != "")


def _output_path(name: str) -> Path:
    path = Path(name)
    if not path.is_absolute():
        path = Path(os.environ.get("QSMS_OUTPUT_DIR", ".")) / path
    return path


def _write_output(name: str | None, text: str) -> None:
    if name:
        path = _output_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            values.update(json.load(fh))
    for key in ("secrets", "n", "t", "d", "shots", "seed", "qualified", "poly"):
        flag = getattr(args, key, None)
        if flag is not None:
            values["polynomials" if key == "poly" else key] = flag
    if "secrets" not in values:
        raise ConfigError("no secrets given (use --secrets or a config file)")
    if "n" not in values or "t" not in values:
        raise ConfigError("player count --n and threshold --t are required")
    return RunConfig(
        secrets=tuple(values["secrets"]),
        n=int(values["n"]),
        t=int(values["t"]),
        d=int(values["d"]) if values.get("d") is not None else None,
        qualified=tuple(values["qualified"]) if values.get("qualified") else None,
        shots=int(values.get("shots", 8192)),
        seed=int(values.get("seed", 0)),
        polynomials=tuple(tuple(p) for p in values["polynomials"])
        if values.get("polynomials")
        else None,
    )


def _render_table(transcript) -> str:
    cfg = transcript.config
    lines = []
    header = "Players   " + "".join(f"P{i:<5}" for i in range(1, cfg.n + 1))
    lines.append(header)
    for k, row in enumerate(transcript.dealer_shares):
        label = f"poly_{k + 1}(x_i)"
        lines.append(f"{label:<10}" + "".join(f"{s.value.value:<6}" for s in row))
    lines.append(
        f"{'h(x_i)':<10}"
        + "".join(f"{s.value.value:<6}" for s in transcript.combined_shares)
    )
    shadows = [s.value.value for s in transcript.shadows]
    lines.append(f"shadows (qualified set {list(cfg.qualified)}): {shadows}")
    lines.append(
        f"result: {transcript.result}  (binary {transcript.result_binary})"
    )
    return "\n".join(lines)


def _emit_transcript(transcript, args) -> None:
    fmt = getattr(args, "format", "pretty")
    if fmt == "json":
        print(transcript.to_json())
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["outcome", "count"])
        for label, count in transcript.histogram()["counts"].items():
            writer.writerow([label, count])
        print(buf.getvalue(), end="")
    else:
        print(_render_table(transcript))
    _write_output(getattr(args, "output", None), transcript.to_json())


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    transcript = run_protocol(config)
    _emit_transcript(transcript, args)
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    config = DEMO_CONFIG
    if args.shots is not None:
        config = RunConfig(**{**config.__dict__, "shots": args.shots})
    if args.seed is not None:
        config = RunConfig(**{**config.__dict__, "seed": args.seed})
    transcript = run_protocol(config)
    print(_render_table(transcript))
    _write_output(args.output, transcript.to_json())

    mismatches = []
    got_f = [s.value.value for s in transcript.dealer_shares[0]]
    got_g = [s.value.value for s in transcript.dealer_shares[1]]
    got_h = [s.value.value for s in transcript.combined_shares]
    got_shadows = [s.value.value for s in transcript.shadows]
    for name, got, want in (
        ("f shares", got_f, DEMO_F_ROW),
        ("g shares", got_g, DEMO_G_ROW),
        ("h shares", got_h, DEMO_H_ROW),
        ("shadows", got_shadows, DEMO_SHADOWS),
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
    d = args.d if args.d is not None else 11
    t = args.t if args.t is not None else 3
    n = args.n if args.n is not None else 7
    if args.shots < 1:
        raise ConfigError(f"--shots must be >= 1, got {args.shots}")
    if args.kind == "intercept":
        pairs = args.secret_pairs or ((2, 3), (7, 9))
        report = intercept_and_measure(
            pairs, n=n, t=t, d=d, shots=args.shots, seed=args.seed or 0
        )
    elif args.kind == "intercept-resend":
        config = RunConfig(
            secrets=args.secrets or (2, 3), n=n, t=t, d=d,
            shots=args.shots, seed=args.seed or 0,
        )
        report = intercept_resend(
            config, tap_position=2, shots=args.shots, seed=(args.seed or 0) + 1,
        )
    elif args.kind == "collusion":
        if args.colluders is None:
            raise ConfigError("--colluders is required for a collusion attack")
        if len(args.colluders) >= t:
            raise ConfigError(
                "colluder set reaches the threshold; reconstruction is legitimate"
            )
        config = RunConfig(
            secrets=args.secrets or (2, 3), n=n, t=t, d=d, shots=1,
            seed=args.seed or 0,
            polynomials=((2, 1, 1), (3, 1, 1)) if (args.secrets or (2, 3)) == (2, 3) and t == 3 else None,
        )
        transcript = run_protocol(config)
        shares = [transcript.combined_shares[i - 1] for i in args.colluders]
        report = collusion_inference(shares, t=t, d=d)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown attack kind {args.kind}")
    print(report.to_json())
    _write_output(args.output, report.to_json())
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_verify(args: argparse.Namespace) -> int:
    d, t = args.d, args.t
    shadows = list(args.shadows)
    if len(shadows) != t:
        raise ConfigError(f"expected {t} shadows, got {len(shadows)}")
    [(_, _, state)] = post_transform_branches(shadows, d)
    analytic = qudit.analytic_post_transform_state(t, d, shadows)
    max_diff = float(np.max(np.abs(state.amplitudes - analytic.amplitudes)))
    support = int(np.sum(np.abs(state.amplitudes) > 1e-12))
    print(f"max amplitude difference: {max_diff:.3e}")
    print(f"support size: {support} (expected {d ** (t - 1)})")
    ok = max_diff <= 1e-9 and support == d ** (t - 1)
    print("verification passed" if ok else "verification FAILED")
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsms",
        description="Threshold quantum secure multiparty summation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a protocol instance")
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument("--secrets", type=_int_list)
    run_p.add_argument("--n", type=int)
    run_p.add_argument("--t", type=int)
    run_p.add_argument("--d", type=int)
    run_p.add_argument("--shots", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--qualified", type=_int_list)
    run_p.add_argument("--poly", type=_poly_list, dest="poly",
                       help="pinned coefficients, e.g. '2,1,1;3,1,1'")
    run_p.add_argument("--output")
    run_p.add_argument("--format", choices=["json", "csv", "pretty"],
                       default="pretty")
    run_p.set_defaults(func=cmd_run)

    demo_p = sub.add_parser("demo", help="reproduce the worked example")
    demo_p.add_argument("--shots", type=int)
    demo_p.add_argument("--seed", type=int)
    demo_p.add_argument("--output")
    demo_p.set_defaults(func=cmd_demo)

    attack_p = sub.add_parser("attack", help="run an adversary scenario")
    attack_p.add_argument("--kind", required=True,
                          choices=["intercept", "intercept-resend", "collusion"])
    attack_p.add_argument("--shots", type=int, default=100_000)
    attack_p.add_argument("--secrets", type=_int_list)
    attack_p.add_argument("--secret-pairs", type=_poly_list, dest="secret_pairs",
                          help="e.g. '2,3;7,9'")
    attack_p.add_argument("--colluders", type=_int_list)
    attack_p.add_argument("--n", type=int)
    attack_p.add_argument("--t", type=int)
    attack_p.add_argument("--d", type=int)
    attack_p.add_argument("--seed", type=int)
    attack_p.add_argument("--output")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except DimensionGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ThresholdReachedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:  # console-script shim
    sys.exit(main())
