import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qsms
from qsms import affine, cli, protocol
from qsms.adversary import AttackReport, intercept_resend
from qsms.cli import EXIT_GUARD, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from qsms.protocol import ProtocolTranscript


def test_demo_matches_reference(capsys):
    assert main(["demo", "--shots", "128"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "result: 5  (binary 101)" in out
    assert "[5, 4, 7]" in out


def _table_offsets(out: str) -> list[list[int]]:
    """Where each word of each share-table row starts: the rows above the shadows line."""
    lines = out.splitlines()
    table = lines[:next(i for i, line in enumerate(lines) if line.startswith("shadows"))]
    return [[m.start() for m in re.finditer(r"\S+", line)] for line in table]


@pytest.mark.parametrize("argv, rows", [
    (["demo"], 4),
    (["run", "--secrets", "1,2,3,4,5,6,7,8,9,10", "--n", "12", "--t", "3", "--d", "13",
      "--shots", "1"], 12),
])
def test_pretty_table_cells_start_at_header_offsets(argv, rows, capsys):
    # Labels up to poly_10(x_i) and headers up to P12: no cell touches its label.
    assert main(argv) == EXIT_OK
    offsets = _table_offsets(capsys.readouterr().out)
    assert len(offsets) == rows
    assert all(row == offsets[0] for row in offsets)


def test_pretty_table_holds_wide_headers_and_values():
    # P10000 on, and six-digit shares (d <= 2n allows up to 131071).
    n = 10_001
    transcript = types.SimpleNamespace(
        config=types.SimpleNamespace(n=n, qualified=(1, 2)),
        dealer_rows=np.full((1, n), 123_456), combined=[131_070] * n,
        shadows=[1, 2], result=3, result_binary="11")
    offsets = _table_offsets(cli._render_table(transcript) + "\n")
    assert len(offsets) == 3 and len(offsets[0]) == n + 1
    assert all(row == offsets[0] for row in offsets)


def test_demo_writes_transcript(tmp_path):
    out_file = tmp_path / "demo.json"
    assert main(["demo", "--shots", "64", "--output", str(out_file)]) == EXIT_OK
    doc = json.loads(out_file.read_text())
    assert doc["result"] == 5
    assert doc["result_binary"] == "101"


def test_demo_deterministic_transcripts(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["demo", "--shots", "64", "--output", str(a)]) == EXIT_OK
    assert main(["demo", "--shots", "64", "--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_run_paper_parameters(capsys, tmp_path):
    out_file = tmp_path / "run.json"
    code = main([
        "run", "--secrets", "2,3", "--t", "3", "--n", "7", "--d", "11",
        "--shots", "256", "--seed", "42", "--poly", "2,1,1;3,1,1",
        "--output", str(out_file),
    ])
    assert code == EXIT_OK
    assert "result: 5" in capsys.readouterr().out
    assert json.loads(out_file.read_text())["result"] == 5


def test_run_trivial_config(capsys):
    # d=2 cannot host two distinct nonzero evaluation points; d=3 is the
    # smallest prime that supports a 2-player run.
    assert main(["run", "--secrets", "0", "--t", "2", "--n", "2", "--d", "3",
                 "--shots", "16"]) == EXIT_OK
    assert "result: 0" in capsys.readouterr().out


def test_run_derived_sum(capsys):
    assert main(["run", "--secrets", "4,9,6", "--t", "3", "--n", "7",
                 "--d", "11", "--shots", "16", "--seed", "1"]) == EXIT_OK
    assert "result: 8" in capsys.readouterr().out


def test_run_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(
        {"secrets": [2, 3], "n": 7, "t": 3, "d": 11, "shots": 4, "seed": 0}
    ))
    assert main(["run", "--config", str(config), "--secrets", "1,1",
                 "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == 2
    assert doc["config"]["secrets"] == [1, 1]


def test_run_csv_format(capsys):
    assert main(["run", "--secrets", "1", "--t", "2", "--n", "2", "--d", "3",
                 "--shots", "32", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "outcome,count"
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == 32


def test_run_invalid_config_exit_code(capsys):
    assert main(["run", "--secrets", "2", "--t", "5", "--n", "3",
                 "--d", "3"]) == EXIT_USAGE
    assert main(["run", "--secrets", "2"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE


def test_guard_violation_exit_code():
    assert main(["verify", "--d", "13", "--t", "8",
                 "--shadows", "0,0,0,0,0,0,0,0"]) == EXIT_GUARD


def test_verify_prints_the_exact_verdict_beyond_the_dense_guard(capsys):
    # 13^8 amplitudes exceed the dense guard; the exact check needs none.
    assert main(["verify", "--d", "13", "--t", "8",
                 "--shadows", "0,0,0,0,0,0,0,0"]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == "exact coset check: passed\n"
    assert captured.err.startswith("error: state dimension")


def test_verify_paper_shadows(capsys):
    assert main(["verify", "--d", "11", "--t", "3",
                 "--shadows", "5,4,7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "support size: 121" in out
    assert "verification passed" in out


def test_verify_rejects_a_shadow_before_building_a_state(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("state built")

    monkeypatch.setattr(affine, "prepare_ghz", refuse)
    monkeypatch.setattr("qsms.qudit.prepare_ghz", refuse)
    assert main(["verify", "--d", "11", "--t", "3", "--shadows", "5,4,11"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: shadow 11 outside [0, 11)\n"


@pytest.mark.parametrize("argv", [
    ["run", "--secrets", "1", "--n", "4097", "--t", "4097", "--shots", "1"],
    ["verify", "--d", "4099", "--t", "4097", "--shadows", ",".join(["0"] * 4097)],
])
def test_t_squared_beyond_guard_exits_3_before_any_t_by_t_array(argv, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("t x t array built")

    # The deal comes before the Lagrange weights, fourier_shift builds the dual.
    monkeypatch.setattr(protocol, "deal", refuse)
    monkeypatch.setattr(affine, "fourier_shift", refuse)
    assert main(argv) == EXIT_GUARD
    assert _single_error_line(capsys) == (
        "error: state entries t x t = 4097 x 4097 = 16785409 exceed guard 16777216\n")


def test_verify_trivial_and_small(capsys):
    assert main(["verify", "--d", "2", "--t", "1", "--shadows", "1"]) == EXIT_OK
    assert main(["verify", "--d", "3", "--t", "2", "--shadows", "1,2"]) == EXIT_OK
    assert "support size: 3" in capsys.readouterr().out


def test_attack_intercept(capsys):
    assert main(["attack", "--kind", "intercept", "--shots", "20000",
                 "--seed", "0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert abs(doc["guess_rate"] - 1 / 11) < 0.02


def test_attack_collusion(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    assert main(["attack", "--kind", "collusion", "--colluders", "2,3",
                 "--output", str(out_file)]) == EXIT_OK
    doc = json.loads(out_file.read_text())
    assert doc["details"]["candidate_count"] == 11


def test_attack_collusion_threshold_rejected(capsys):
    assert main(["attack", "--kind", "collusion",
                 "--colluders", "1,2,3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "legitimate" in line


def test_attack_intercept_resend(capsys):
    assert main(["attack", "--kind", "intercept-resend", "--shots", "1024",
                 "--d", "5", "--t", "2", "--n", "4",
                 "--secrets", "1,2"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["details"]["honest_result"] == 3


def test_attack_intercept_resend_runs_at_the_given_seed(tmp_path, capsys):
    # --seed S is S for every command: the attacked run deals what ``qsms run`` deals.
    out_file = tmp_path / "resend.json"
    assert main(["attack", "--kind", "intercept-resend", "--shots", "300", "--seed", "9",
                 "--output", str(out_file)]) == EXIT_OK
    config = protocol.RunConfig(secrets=(2, 3), n=7, t=3, shots=300, seed=9)
    assert out_file.read_text() == intercept_resend(config).to_json()


def test_attack_intercept_resend_runs_every_shot(capsys):
    assert main(["attack", "--kind", "intercept-resend", "--shots", "5000",
                 "--d", "5", "--t", "2", "--n", "4",
                 "--secrets", "1,2"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["shots"] == 5000
    assert sum(doc["distributions"]["attacker"].values()) == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["intercept", "intercept-resend"])
def test_attack_collapse_branches_hit_guard(kind, monkeypatch, capsys):
    # Both tap attacks collapse the leg: 11 branches exceed a guard of 10
    # before any branch is built.
    monkeypatch.setattr(affine, "BRANCH_GUARD", 10)
    assert main(["attack", "--kind", kind, "--shots", "16"]) == EXIT_GUARD
    err = capsys.readouterr().err
    assert err == "error: 11 tap branches exceed guard 10\n"


@pytest.mark.parametrize("argv", [
    ["run", "--secrets", "2,3", "--n", "7", "--t", "3", "--d", "11", "--shots", "6"],
    ["attack", "--kind", "intercept", "--t", "3", "--shots", "6"],
])
def test_outcome_entries_beyond_guard_exit_code(argv, monkeypatch, capsys):
    from qsms import protocol

    monkeypatch.setattr(protocol, "OUTCOME_GUARD", 15)
    assert main(argv) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: outcome entries shots x t = 6 x 3 = 18 exceed guard 15\n"


@pytest.mark.parametrize("argv", [
    ["run", "--secrets", "2,3", "--n", "7", "--t", "3", "--d", "11", "--shots", "6"],
    ["attack", "--kind", "intercept", "--t", "3", "--shots", "6"],
])
def test_share_messages_beyond_guard_exit_code(argv, monkeypatch, capsys):
    from qsms import protocol

    monkeypatch.setattr(protocol, "MESSAGE_GUARD", 13)
    assert main(argv) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: share messages dealers x n = 2 x 7 = 14 exceed guard 13\n"


_SMALL_RUN = ["run", "--secrets", "1,2", "--n", "4", "--t", "2", "--d", "5", "--shots", "8"]


@pytest.mark.parametrize("argv", [
    [*_SMALL_RUN, "--format", "pretty"],
    [*_SMALL_RUN, "--format", "csv"],
    [*_SMALL_RUN, "--format", "json"],
    ["attack", "--kind", "intercept", "--shots", "100"],
    ["attack", "--kind", "intercept-resend", "--shots", "100"],
    ["attack", "--kind", "collusion", "--colluders", "2,3"],
])
def test_share_messages_built_only_to_write_them(argv, monkeypatch, capsys):
    from qsms import protocol

    def refuse(*args):
        raise AssertionError("share messages built")

    # The JSON writer formats the messages from its own templates, never the
    # records or the dict view that ``to_dict`` reads.
    monkeypatch.setattr(ProtocolTranscript, "messages", property(refuse))
    monkeypatch.setattr(protocol, "_message_records", refuse)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_verify_guard_holds_beyond_int64_modulus(capsys):
    assert main(["verify", "--d", str(2**31 + 11), "--t", "2",
                 "--shadows", "0,0"]) == EXIT_GUARD
    assert capsys.readouterr().err.startswith("error: modulus 2147483659 outside [2, 2^31)")


@pytest.mark.parametrize(
    "cls,argv",
    [
        (ProtocolTranscript, ["run", "--secrets", "1,2", "--n", "4", "--t", "2",
                              "--d", "5", "--shots", "8", "--format", "json"]),
        (AttackReport, ["attack", "--kind", "intercept", "--shots", "100"]),
        (AttackReport, ["attack", "--kind", "intercept-resend", "--shots", "100"]),
        (AttackReport, ["attack", "--kind", "collusion", "--colluders", "2,3"]),
    ],
)
def test_output_serialized_once(cls, argv, tmp_path, monkeypatch, capsys):
    calls = []
    # A transcript is streamed by write_json; a report is one to_json text.
    method = "write_json" if cls is ProtocolTranscript else "to_json"
    serialize = getattr(cls, method)

    def counted(self, *args):
        calls.append(self)
        return serialize(self, *args)

    monkeypatch.setattr(cls, method, counted)
    out_file = tmp_path / "out.json"
    assert main([*argv, "--output", str(out_file)]) == EXIT_OK
    assert len(calls) == 1
    assert capsys.readouterr().out == out_file.read_text() + "\n"


def test_json_stdout_and_output_file_from_one_pass(tmp_path, capsys):
    # More shots than one block of the streamed writer.
    shots = 2 * qsms.protocol.SHOTS_PER_BLOCK + 3
    out_file = tmp_path / "out.json"
    assert main(["run", "--secrets", "3,5", "--n", "7", "--t", "3", "--d", "11",
                 "--shots", str(shots), "--format", "json",
                 "--output", str(out_file)]) == EXIT_OK
    text = out_file.read_text()
    assert capsys.readouterr().out == text + "\n"
    assert len(json.loads(text)["outcomes"]) == shots


@pytest.mark.parametrize("output", [False, True])
def test_demo_serializes_only_to_write(output, tmp_path, monkeypatch, capsys):
    calls = []
    write_json = ProtocolTranscript.write_json

    def counted(self, fp):
        calls.append(self)
        return write_json(self, fp)

    monkeypatch.setattr(ProtocolTranscript, "write_json", counted)
    out_file = tmp_path / "demo.json"
    argv = ["demo", "--shots", "64"] + (["--output", str(out_file)] if output else [])
    assert main(argv) == EXIT_OK
    assert len(calls) == output
    assert out_file.exists() == output
    assert "result: 5  (binary 101)" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["intercept", "intercept-resend", "collusion"])
def test_attack_rejects_zero_shots(kind, capsys):
    argv = ["attack", "--kind", kind, "--shots", "0"]
    if kind == "collusion":
        argv += ["--colluders", "2,3"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: shots must be >= 1")
    assert captured.err.count("\n") == 1


def _single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "config,message",
    [
        ({"secrets": "12", "n": 7, "t": 3}, "secrets must be a list"),
        ([2, 3], "config must be a JSON object"),
        ({"secrets": [2, 3], "n": 7, "t": 3.9}, "t must be an integer"),
        ({"secrets": [2.7, 3], "n": 7, "t": 3}, r"secrets\[0\] must be an integer"),
        ({"secrets": [2, 3], "n": 7, "t": 3, "qualifed": [1, 2, 3]},
         "unknown config key"),
        # Bytes are the file itself: text that is not JSON, or not UTF-8.
        (b'{"secrets": [2, 3], n: 7}',
         r"^error: --config \S+cfg\.json: Expecting property name"),
        (b'\xff{}', r"^error: --config \S+cfg\.json: 'utf-8' codec can't decode byte 0xff"),
    ],
)
def test_run_rejects_bad_config_file(config, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == EXIT_USAGE
    assert re.search(message, _single_error_line(capsys))


_BAD_ATTACK_INPUTS = [
    (["--kind", "collusion", "--colluders", "1,99"], "distinct players in 1..7"),
    (["--kind", "collusion", "--colluders", "0,1"], "distinct players in 1..7"),
    (["--kind", "collusion", "--colluders", "2,2"], "distinct players in 1..7"),
    (["--kind", "intercept", "--n", "99", "--d", "11"], "outside"),
    (["--kind", "intercept-resend", "--n", "99", "--d", "11"], "outside"),
    (["--kind", "collusion", "--colluders", "1", "--n", "99", "--d", "11"], "outside"),
    # intercept-resend checks its seed as a run does.
    (["--kind", "intercept-resend", "--seed", "-1"], "seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("argv,message", _BAD_ATTACK_INPUTS)
def test_attack_rejects_bad_inputs(argv, message, capsys):
    assert main(["attack", *argv, "--shots", "16"]) == EXIT_USAGE
    assert message in _single_error_line(capsys)


def test_intercept_ignores_the_base_secrets(capsys):
    # Intercept runs only the --secret-pairs tuples; the base secrets (2, 3)
    # are out of range at d=3 but never read, so they raise nothing.
    argv = ["attack", "--kind", "intercept", "--n", "2", "--t", "2", "--d", "3",
            "--secret-pairs", "1,2;0,1", "--shots", "16"]
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["scenario"]["kind"] == "intercept"


@pytest.mark.parametrize("kind", [["intercept"], ["intercept-resend"],
                                  ["collusion", "--colluders", "1,2"]])
def test_attack_derives_d_as_run_does(kind, capsys):
    # d defaults to the smallest prime in (n, 2n], 61 for n=60, as for ``run``.
    argv = ["attack", "--kind", *kind, "--n", "60", "--t", "50", "--shots", "16"]
    assert main(argv) == EXIT_OK
    derived = capsys.readouterr().out
    assert main([*argv, "--d", "61"]) == EXIT_OK
    assert capsys.readouterr().out == derived


_MALFORMED_FLAGS = [
    (["run", "--n", "x"], "error: argument --n: invalid int value: 'x'\n"),
    (["run", "--format", "yaml"], "error: argument --format: invalid choice: 'yaml'"),
    (["attack", "--shots", "16"], "error: the following arguments are required: --kind\n"),
    # A list flag's error says what it expected (of the tuple at fault), not
    # which function parsed it.
    (["run", "--secrets", "a,b"],
     "error: argument --secrets: expected comma-separated integers, got 'a,b'\n"),
    (["attack", "--kind", "intercept", "--secret-pairs", "1,2;3,a"],
     "error: argument --secret-pairs: expected comma-separated integers, got '3,a'\n"),
    # A shadow is a residue mod d, as a secret is: 18 is not 7, nor -1 10.
    (["verify", "--d", "11", "--t", "3", "--shadows", "5,4,18"],
     "error: shadow 18 outside [0, 11)\n"),
    (["verify", "--d", "11", "--t", "2", "--shadows=-1,2"],
     "error: shadow -1 outside [0, 11)\n"),
    # d is checked before the shadows it bounds.
    (["verify", "--d", "-5", "--t", "1", "--shadows", "0"], "error: d=-5 is not prime\n"),
    (["verify", "--d", "4", "--t", "2", "--shadows", "1,9"], "error: d=4 is not prime\n"),
]


@pytest.mark.parametrize("argv,message", _MALFORMED_FLAGS)
def test_malformed_flags_give_one_error_line(argv, message, capsys):
    assert main(argv) == EXIT_USAGE
    assert _single_error_line(capsys).startswith(message)


def test_help_exits_ok(capsys):
    assert main(["run", "--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: qsms run")


# Command lines of the tests above, and the top parser's own cases: no
# command, top-level help, an unknown command.
_DISPATCHED = [
    [], ["--help"], ["spy"], ["run", "--help"], ["demo", "extra"], ["demo", "--shots", "16"],
    ["run", "--secrets", "1,2", "--n", "4", "--t", "2", "--d", "5", "--shots", "8",
     "--format", "csv"],
    ["attack", "--kind", "collusion", "--colluders", "2,3"],
    ["verify", "--d", "11", "--t", "3", "--shadows", "5,4,7"],
    *(argv for argv, _ in _MALFORMED_FLAGS),
    *(["attack", *argv, "--shots", "16"] for argv, _ in _BAD_ATTACK_INPUTS),
]


@pytest.mark.parametrize("argv", _DISPATCHED, ids=lambda argv: " ".join(argv) or "-")
def test_one_parse_per_command_line(argv, monkeypatch, capsys):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    outcome = (main(argv), *capsys.readouterr())
    assert len(calls) == 1
    # Without the command table every line goes through the top parser, which
    # hands the rest of argv to the command's parser: the same exit and text.
    monkeypatch.setattr(cli.build_parser(), "commands", {})
    assert (main(argv), *capsys.readouterr()) == outcome


# sha256 of each output, pinned: a change to the seed stream or to the
# output format must update these and say so in CHANGES.md.
PINNED_OUTPUTS = {
    "demo": (["demo", "--output", "{out}"],
             "d4ed30d684ffa6c1a5d258e4814b0699edcccd5102526366ebda94c69eee53fc"),
    "run": (["run", "--secrets", "4,9,6", "--t", "3", "--n", "7", "--d", "11",
             "--format", "json"],
            "b2ee6a5f71d6007e6666a2520f82ff8a4061a184a7f9ac4ae4dc1bfac8c28210"),
    "run t=50": (["run", "--secrets", "3,5", "--n", "60", "--t", "50", "--d", "101",
                  "--shots", "2000", "--format", "json"],
                 "a3291a8b379e4b7abed562286c2edc7743f028f16951207c5112e86fe8fffbdf"),
    "intercept": (["attack", "--kind", "intercept", "--shots", "20000", "--seed", "3"],
                  "d7df8163219885feb159b63883072dc3039c4e464552cc30f11a6e100237f935"),
    "intercept-resend": (["attack", "--kind", "intercept-resend", "--shots", "4096",
                          "--seed", "5"],
                         "b13e7a99969abec7c8440836e4cf666af1d81fa731333cae892bdbddcf44830a"),
    # One draw covers 101 tap branches that end in the same state.
    "intercept-resend t=50": (["attack", "--kind", "intercept-resend", "--n", "60",
                               "--t", "50", "--d", "101", "--shots", "2000",
                               "--seed", "5"],
                              "a7b96010d665bd0db7f5ba2d6fdc75445ecc7f6003d4372b4dd86587d22d20ee"),
    "collusion": (["attack", "--kind", "collusion", "--colluders", "2,3", "--seed", "7"],
                  "d5ce425f96675580ad73024a52c323f54316ff3acbfbbd2421736d5baeac940f"),
}


@pytest.mark.parametrize("name", list(PINNED_OUTPUTS))
def test_output_bytes_pinned(name, tmp_path, capsys):
    argv, digest = PINNED_OUTPUTS[name]
    out_file = tmp_path / "out.json"
    assert main([a.format(out=out_file) for a in argv]) == EXIT_OK
    data = out_file.read_bytes() if "{out}" in argv else capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == digest


def test_parser_built_lazily_once():
    # Not at import, which the benchmark's set-up time measures.
    env = {**os.environ, "PYTHONPATH": str(Path(qsms.__file__).parents[1])}
    code = ("from qsms import cli; assert cli.build_parser.cache_info().currsize == 0; "
            "cli.main(['run', '--help']); cli.main(['run', '--n', 'x']); "
            "assert cli.build_parser.cache_info().misses == 1")
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True)
    assert cli.build_parser() is cli.build_parser()


def test_runs_never_import_the_dense_engine():
    # The dense engine is the oracle of ``qsms verify`` alone.
    env = {**os.environ, "PYTHONPATH": str(Path(qsms.__file__).parents[1])}
    code = ("import sys, qsms, qsms.cli; "
            "assert qsms.cli.main(['demo', '--shots', '16']) == 0; "
            "assert 'qsms.qudit' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True)


def test_module_run_is_the_command():
    # python -m qsms.cli once imported the module and exited 0 doing nothing.
    env = {**os.environ, "PYTHONPATH": str(Path(qsms.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "qsms.cli", "demo", "--shots", "16"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_OK
    assert done.stdout.splitlines()[-1] == "demo matches the reference values"


def test_attack_report_independent_of_hash_seed():
    # A sum over a set of string keys once followed the interpreter's
    # per-process hash seed, changing the last digit of a distance.
    env = {**os.environ, "PYTHONPATH": str(Path(qsms.__file__).parents[1])}
    argv = [sys.executable, "-c", "from qsms.cli import entry_point; entry_point()",
            "attack", "--kind", "intercept-resend", "--shots", "5000"]
    outputs = {
        subprocess.run(argv, env={**env, "PYTHONHASHSEED": seed}, check=True,
                       capture_output=True, text=True).stdout
        for seed in ("0", "2")
    }
    assert len(outputs) == 1


# Fuzzed inputs stay small: shots <= 64, d <= 240, t <= 60, no subprocesses.
_PRIMES = [p for p in range(2, 241) if all(p % q for q in range(2, p))]
_INT = st.integers(-1, 40)
_INTS = st.lists(_INT, max_size=5)
_ROWS = st.lists(_INTS, max_size=3)
# "qualifed" is a misspelt key.
_FLAG_VALUES = {"n": _INT, "t": _INT, "d": _INT, "shots": _INT, "seed": _INT,
                "secrets": _INTS, "qualified": _INTS, "polynomials": _ROWS,
                "colluders": _INTS, "secret-pairs": _ROWS}
_JSON = st.one_of(st.none(), st.booleans(), _INT, st.floats(-1, 40), st.text(max_size=3),
                  _INTS, _ROWS, st.lists(st.floats(0, 12), max_size=3))
_CONFIG_KEYS = ["n", "t", "d", "shots", "seed", "secrets", "qualified",
                "evaluation_points", "polynomials", "qualifed"]
# Flag values argparse itself rejects, or parses into something odd.
_MALFORMED = st.one_of(st.sampled_from(["x", "1.5", "", "2;x", "1,a", "--n", "0x1"]),
                       st.text(max_size=4))


@st.composite
def _valid_inputs(draw) -> dict:
    """A valid run: 2 <= n <= 120 players, t <= 60, a prime d in (n, 2n]."""
    n = draw(st.integers(2, 120))
    t = draw(st.integers(2, min(n, 60)))
    d = draw(st.sampled_from([p for p in _PRIMES if n < p <= 2 * n]))
    secrets = st.lists(st.integers(0, d - 1), min_size=1, max_size=3)
    return {"n": n, "t": t, "d": d, "secrets": draw(secrets),
            "shots": draw(st.integers(1, 64)), "seed": draw(st.integers(0, 2**32)),
            "colluders": draw(st.lists(st.integers(1, n), unique=True, max_size=t - 1)),
            "secret-pairs": draw(st.lists(secrets, min_size=2, max_size=3))}


def _flag(key: str, value) -> str:
    if isinstance(value, list):
        value = ";".join(",".join(map(str, row)) for row in value) if key in (
            "polynomials", "secret-pairs") else ",".join(map(str, value))
    return f"--{'poly' if key == 'polynomials' else key}={value}"


@st.composite
def _cli_argv(draw) -> tuple[list[str], object]:
    """argv for ``run`` or ``attack`` and, for ``run``, a --config value."""
    values = draw(_valid_inputs())
    if draw(st.booleans()):
        attack = ["intercept", "intercept-resend", "collusion"]
        argv = ["attack", "--kind", draw(st.sampled_from([*attack, "spy"]))]
        for key in draw(st.lists(st.sampled_from(sorted(values)), max_size=2)):
            values[key] = draw(st.one_of(_FLAG_VALUES[key], _MALFORMED))
        # n, t, d and the colluders fit together: all given, or none.
        group = {"n", "t", "d", "colluders"}
        flags = {"shots"} | draw(st.sets(st.sampled_from(sorted(values.keys() - group))))
        if draw(st.booleans()):
            flags |= group
        return argv + [_flag(k, values[k]) for k in sorted(flags)], None
    argv = ["run", "--format", draw(st.sampled_from(["json", "csv", "pretty", "yaml"]))]
    del values["colluders"], values["secret-pairs"]
    in_file = draw(st.sets(st.sampled_from(sorted(values))))
    flags = {k: v for k, v in values.items() if k not in in_file}
    config = {k: v for k, v in values.items() if k in in_file}
    # Up to two inputs replaced: a flag's by an integer, an integer list or a
    # malformed value, a config key's by any JSON value.
    for key in draw(st.lists(st.sampled_from(_CONFIG_KEYS), max_size=2)):
        if key in _FLAG_VALUES and draw(st.booleans()):
            flags[key] = draw(st.one_of(_FLAG_VALUES[key], _MALFORMED))
        else:
            config[key] = draw(st.one_of(_FLAG_VALUES.get(key, _INTS), _JSON))
    if draw(st.integers(0, 9)) == 0:
        config = draw(_JSON)
    return argv + [_flag(k, v) for k, v in sorted(flags.items())], config


# Guards lowered below most fuzzed sizes (shots x t up to 3840, dealers x n
# up to 360, up to 240 tap branches), so runs and attacks also hit exit 3.
_GUARDS = st.fixed_dictionaries({}, optional={
    (protocol, "OUTCOME_GUARD"): st.integers(0, 128),
    (protocol, "MESSAGE_GUARD"): st.integers(0, 32),
    (affine, "BRANCH_GUARD"): st.integers(0, 16),
})


@settings(max_examples=150, deadline=None)
@given(case=_cli_argv(), guards=st.one_of(st.just({}), _GUARDS))
def test_cli_fuzz_exits_cleanly(case, guards, tmp_path_factory):
    argv, config = case
    if config is not None:
        path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with (pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        for (module, name), value in guards.items():
            patch.setattr(module, name, value)
        code = main(argv)
    assert code in {EXIT_OK, EXIT_USAGE, EXIT_GUARD, EXIT_VERIFY}
    assert "Traceback" not in err.getvalue()
    if code != EXIT_OK:
        assert err.getvalue().count("\n") <= 1


def test_output_dir_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QSMS_OUTPUT_DIR", str(tmp_path))
    assert main(["demo", "--shots", "32", "--output", "nested/demo.json"]) == EXIT_OK
    assert (tmp_path / "nested" / "demo.json").exists()


def test_output_under_a_regular_file_exits_2(tmp_path, capsys):
    parent = tmp_path / "file"
    parent.write_text("")
    argv = ["demo", "--shots", "16", "--output", str(parent / "demo.json")]
    assert main(argv) == EXIT_USAGE
    assert "Not a directory" in _single_error_line(capsys)


def test_demo_output_never_calls_json_dumps(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    # The writer renders every section, the config included, from its own layout.
    monkeypatch.setattr(protocol.json, "dumps", refuse)
    out_file = tmp_path / "demo.json"
    assert main(["demo", "--shots", "64", "--output", str(out_file)]) == EXIT_OK
    assert json.loads(out_file.read_text())["per_shot_sums"] == [5] * 64


def test_attack_output_never_calls_json_dumps(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    # Each report is rendered by the transcript's writer.
    monkeypatch.setattr(protocol.json, "dumps", refuse)
    for kind in (["intercept"], ["intercept-resend"], ["collusion", "--colluders", "2,3"]):
        out_file = tmp_path / f"{kind[0]}.json"
        argv = ["attack", "--kind", *kind, "--shots", "500", "--output", str(out_file)]
        assert main(argv) == EXIT_OK
        assert json.loads(out_file.read_text())["pass"] is True
    assert capsys.readouterr().err == ""


class _ClosedAfter(io.StringIO):
    """A sink whose reader goes away after ``writes`` writes."""

    def __init__(self, writes: int):
        super().__init__()
        self.writes = writes

    def write(self, text: str) -> int:
        if self.writes == 0:
            raise BrokenPipeError(32, "Broken pipe")
        self.writes -= 1
        return super().write(text)


def _output_closed_after(writes: int):
    """An ``open`` for ``--output`` that makes the file, then hands back a
    sink that fails as a closed pipe does after ``writes`` writes."""
    def opener(path, mode, buffering):
        open(path, mode).close()
        return _ClosedAfter(writes)
    return opener


# ``qsms run ... --format json --output F | head -c 100`` at the t=50 target size.
_PIPED_RUN = ["run", "--secrets", "3,5", "--n", "60", "--t", "50", "--d", "101",
              "--shots", "2000", "--format", "json"]


@pytest.mark.parametrize("writes", [0, 3, 30])
def test_failed_write_leaves_no_partial_output(writes, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "open", _output_closed_after(writes), raising=False)
    out_file = tmp_path / "out.json"
    assert main([*_PIPED_RUN, "--output", str(out_file)]) == EXIT_USAGE
    assert "Broken pipe" in _single_error_line(capsys)
    assert not out_file.exists()


def test_failed_write_leaves_a_symlink_in_place(tmp_path, monkeypatch, capsys):
    target = tmp_path / "target.json"
    target.write_text("")
    link = tmp_path / "out.json"
    link.symlink_to(target)
    monkeypatch.setattr(cli, "open", _output_closed_after(3), raising=False)
    assert main([*_PIPED_RUN, "--output", str(link)]) == EXIT_USAGE
    assert "Broken pipe" in _single_error_line(capsys)
    assert link.is_symlink() and link.resolve() == target.resolve()


@pytest.mark.parametrize("writes", [0, 3, 30])
def test_closed_stdout_changes_neither_exit_code_nor_output(writes, tmp_path, monkeypatch,
                                                            capsys):
    clean = tmp_path / "clean.json"
    assert main([*_PIPED_RUN, "--output", str(clean)]) == EXIT_OK
    monkeypatch.setattr(sys, "stdout", _ClosedAfter(writes))
    out_file = tmp_path / "out.json"
    assert main([*_PIPED_RUN, "--output", str(out_file)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert out_file.read_bytes() == clean.read_bytes()


def test_module_run_into_a_closed_pipe_exits_ok():
    # The reader is gone before the first write, so the exit flush fails too.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(qsms.__file__).parents[1])}
    try:
        done = subprocess.run([sys.executable, "-m", "qsms.cli", "demo", "--shots", "1"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")
