"""The four workloads: inputs from a seed, one pass, and the pass's checks.

Each workload stresses different layers, so a change to one layer shows on
the workload that runs it and shows no change on one that bypasses it:

- demo: the paper's worked example through ``qsms demo`` (d=11, t=3, n=7,
  8192 shots, pinned polynomials). Per-shot state rebuilding in qudit and
  protocol, and transcript serialization in cli.
- wide: one ``qsms run`` shot at d=13, t=6: 13^6 amplitudes, 77 MB per
  state. Dense gate throughput and memory; one shot, so per-shot overhead
  and sampling are bypassed.
- attacks: the three ``qsms attack`` kinds in sequence. The intercept-resend
  tap measures one leg every shot (collapse branches in qudit); collusion
  enumerates 13^4 polynomials (many cheap field operations in zmod/shamir).
- field: ``prepare_run`` and ``shamir.reconstruct`` through the Python API
  at d = 2^31 - 1, n=16, t=8. The only large modulus, so zmod's primality
  cost shows; no quantum phase runs.

BENCHMARK.json lists demo and attacks, which between them run all six
layers; wide and field run by hand (perfbench/README.md says why).

A pass's inputs come from (workload seed, pass index) only. Every pass uses
fresh inputs, so a result cached across calls cannot stand in for the work.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from qsms import cli, protocol, shamir

from checks import Checks


@dataclass
class PassResult:
    outputs: dict[str, bytes]  # compared byte for byte when an input repeats
    output_bytes: int  # bytes the CLI wrote: --output files and stdout
    shots: int  # honest shots simulated


@dataclass(frozen=True)
class Call:
    """One ``qsms`` command line and what its output must satisfy."""

    label: str
    argv: list[str]
    output: Path
    expected_sum: int | None = None  # Σ secrets mod d, for per_shot_sums
    shots: int = 0


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, index])


def _ints(values) -> str:
    return ",".join(str(int(v)) for v in values)


def run_cli(argv: list[str]) -> tuple[int, int]:
    """``qsms.cli.main`` in this process; returns (exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, len(out.getvalue().encode())


class CliWorkload:
    name = ""

    def __init__(self, seed: int, outdir: Path) -> None:
        self.seed = seed
        self.outdir = outdir

    def _path(self, label: str) -> Path:
        return self.outdir / f"{self.name}-{label}.json"

    def inputs(self, index: int) -> list[Call]:
        raise NotImplementedError

    def execute(self, calls: list[Call]) -> list[tuple[int, int]]:
        return [run_cli(call.argv) for call in calls]

    def check(self, calls: list[Call], raw, checks: Checks) -> PassResult:
        outputs, written, shots = {}, 0, 0
        for call, (code, stdout_bytes) in zip(calls, raw):
            checks.exit_code(f"{call.label} exit code", code)
            data = call.output.read_bytes() if call.output.exists() else b""
            call.output.unlink(missing_ok=True)
            if call.expected_sum is not None:
                checks.per_shot_sums(f"{call.label} per_shot_sums", data,
                                     call.expected_sum, call.shots)
            outputs[call.label] = data
            written += len(data) + stdout_bytes
            shots += call.shots
        return PassResult(outputs, written, shots)


class Demo(CliWorkload):
    name = "demo"
    # The worked example's pinned secrets are 2 and 3 over Z_11.
    SUM = (2 + 3) % 11
    SHOTS = 8192

    def inputs(self, index: int) -> list[Call]:
        seed = int(_rng(self.seed, index).integers(2**31))
        out = self._path("demo")
        return [Call("demo", ["demo", "--seed", str(seed), "--output", str(out)],
                     out, self.SUM, self.SHOTS)]


class Wide(CliWorkload):
    name = "wide"
    N, T, D = 7, 6, 13

    def inputs(self, index: int) -> list[Call]:
        rng = _rng(self.seed, index)
        secrets = rng.integers(0, self.D, size=3)
        seed = int(rng.integers(2**31))
        out = self._path("wide")
        argv = ["run", "--secrets", _ints(secrets), "--n", str(self.N),
                "--t", str(self.T), "--d", str(self.D), "--shots", "1",
                "--seed", str(seed), "--output", str(out)]
        return [Call("wide", argv, out, int(secrets.sum()) % self.D, 1)]


class Attacks(CliWorkload):
    name = "attacks"

    def inputs(self, index: int) -> list[Call]:
        rng = _rng(self.seed, index)
        # intercept and intercept-resend run at the CLI default d=11;
        # collusion at d=13, t=4 (13^4 candidate polynomials).
        pairs = rng.integers(0, 11, size=(2, 2))
        resend = rng.integers(0, 11, size=2)
        collude = rng.integers(0, 13, size=2)
        seeds = [str(int(s)) for s in rng.integers(2**31, size=3)]
        paths = [self._path(k) for k in ("intercept", "resend", "collusion")]
        return [
            Call("intercept",
                 ["attack", "--kind", "intercept", "--shots", "100000",
                  "--secret-pairs", ";".join(_ints(p) for p in pairs),
                  "--seed", seeds[0], "--output", str(paths[0])], paths[0]),
            Call("intercept-resend",
                 ["attack", "--kind", "intercept-resend", "--shots", "4096",
                  "--secrets", _ints(resend), "--seed", seeds[1],
                  "--output", str(paths[1])], paths[1]),
            Call("collusion",
                 ["attack", "--kind", "collusion", "--colluders", "1,2,3",
                  "--d", "13", "--t", "4", "--n", "7",
                  "--secrets", _ints(collude), "--seed", seeds[2],
                  "--output", str(paths[2])], paths[2]),
        ]


class Field:
    name = "field"
    D = 2**31 - 1
    N, T, DEALERS = 16, 8, 2

    def __init__(self, seed: int, outdir: Path) -> None:
        self.seed = seed

    def inputs(self, index: int) -> protocol.RunConfig:
        rng = _rng(self.seed, index)
        return protocol.RunConfig(
            secrets=tuple(int(s) for s in rng.integers(0, self.D, size=self.DEALERS)),
            n=self.N, t=self.T, d=self.D, shots=1,
            seed=int(rng.integers(2**31)), allow_out_of_range_prime=True,
        )

    def execute(self, config: protocol.RunConfig):
        cfg = config.resolved()
        prepared = protocol.prepare_run(cfg, np.random.default_rng(cfg.seed))
        shares = [prepared.players[i - 1].combined for i in cfg.qualified]
        return prepared, shamir.reconstruct(shares, cfg.d, threshold=cfg.t)

    def check(self, config: protocol.RunConfig, raw, checks: Checks) -> PassResult:
        prepared, total = raw
        want = sum(config.secrets) % self.D
        checks.equal("field reconstruct", total.value, want)
        checks.equal("field shadow sum", sum(prepared.shadows) % self.D, want)
        data = json.dumps({
            "combined": [p.combined.to_json() for p in prepared.players],
            "shadows": prepared.shadows,
            "reconstructed": total.value,
        }).encode()
        return PassResult({"field": data}, 0, 0)


WORKLOADS = {"demo": Demo, "wide": Wide, "attacks": Attacks, "field": Field}
