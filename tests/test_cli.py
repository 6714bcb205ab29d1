import json

import pytest

from qsms.cli import EXIT_GUARD, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main


def test_demo_matches_reference(capsys):
    assert main(["demo", "--shots", "128"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "result: 5  (binary 101)" in out
    assert "[5, 4, 7]" in out


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


def test_verify_paper_shadows(capsys):
    assert main(["verify", "--d", "11", "--t", "3",
                 "--shadows", "5,4,7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "support size: 121" in out
    assert "verification passed" in out


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


def test_attack_collusion_threshold_rejected():
    assert main(["attack", "--kind", "collusion",
                 "--colluders", "1,2,3"]) == EXIT_USAGE


def test_attack_intercept_resend(capsys):
    assert main(["attack", "--kind", "intercept-resend", "--shots", "1024",
                 "--d", "5", "--t", "2", "--n", "4",
                 "--secrets", "1,2"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["details"]["honest_result"] == 3


def test_attack_intercept_resend_runs_every_shot(capsys):
    assert main(["attack", "--kind", "intercept-resend", "--shots", "5000",
                 "--d", "5", "--t", "2", "--n", "4",
                 "--secrets", "1,2"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["shots"] == 5000
    assert sum(doc["distributions"]["attacker"].values()) == pytest.approx(1.0)


def test_attack_collapse_branches_hit_guard(monkeypatch, capsys):
    # 11 collapse branches of an 11^3 state exceed a guard of 5 * 11^3
    # before any branch state is built.
    from qsms import qudit

    monkeypatch.setattr(qudit, "DIMENSION_GUARD", 5 * 11**3)
    assert main(["attack", "--kind", "intercept-resend", "--shots", "16"]) == EXIT_GUARD
    err = capsys.readouterr().err
    assert err.startswith("error: 11 branches of") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["intercept", "intercept-resend", "collusion"])
def test_attack_rejects_zero_shots(kind, capsys):
    argv = ["attack", "--kind", kind, "--shots", "0"]
    if kind == "collusion":
        argv += ["--colluders", "2,3"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --shots") and captured.err.count("\n") == 1


def test_output_dir_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QSMS_OUTPUT_DIR", str(tmp_path))
    assert main(["demo", "--shots", "32", "--output", "nested/demo.json"]) == EXIT_OK
    assert (tmp_path / "nested" / "demo.json").exists()
