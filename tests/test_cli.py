"""Command line behavior and the exit code contract."""

import json

import pytest

from swarmsim import cli
from swarmsim.harness import build_scenario_dict


def write(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return path.as_posix()


def test_gen_emits_valid_scenario(capsys):
    assert cli.main(["gen", "--seed", "3", "--bidders", "6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["seed"] == 3
    assert data["bidders"]["generator"]["count"] == 6


def test_gen_defaults_come_from_build_scenario_dict(capsys):
    assert cli.main(["gen"]) == 0
    assert capsys.readouterr().out == json.dumps(build_scenario_dict(), indent=2) + "\n"


def test_gen_writes_file(tmp_path):
    out = (tmp_path / "s.json").as_posix()
    assert cli.main(["gen", "--out", out]) == 0
    assert json.loads(open(out).read())["agents"] == {
        "n": 3,
        "m": 2,
        "faults": [],
        "expected_measurement": "auto",
    }


def test_gen_rejects_bad_threshold(capsys):
    assert cli.main(["gen", "--agents", "3", "--threshold", "4"]) == 1
    assert "invalid flags" in capsys.readouterr().err


def test_gen_rejects_bad_window(capsys):
    assert cli.main(["gen", "--window", "5"]) == 1


def test_run_happy_path(tmp_path, capsys):
    spath = write(tmp_path, build_scenario_dict(seed=11))
    tpath = (tmp_path / "t.jsonl").as_posix()
    rpath = (tmp_path / "r.json").as_posix()
    code = cli.main(["run", spath, "--transcript", tpath, "--report", rpath])
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome: SETTLED_CORRECT" in out
    assert json.loads(open(rpath).read())["outcome"] == "SETTLED_CORRECT"
    first = open(tpath).readline()
    assert json.loads(first)["schema_version"] == 1


def test_run_invalid_scenario_exits_one(tmp_path, capsys):
    data = build_scenario_dict()
    data["agents"]["m"] = 5
    spath = write(tmp_path, data)
    assert cli.main(["run", spath]) == 1
    assert "invalid scenario" in capsys.readouterr().err


def test_run_missing_file_exits_one(tmp_path, capsys):
    assert cli.main(["run", (tmp_path / "nope.json").as_posix()]) == 1


def test_run_unparseable_json_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    assert cli.main(["run", path.as_posix()]) == 1


def test_fraud_exit_code(tmp_path):
    data = build_scenario_dict(
        seed=11,
        faults=("0:wrong_root:4", "1:wrong_root:4"),
    )
    spath = write(tmp_path, data)
    assert cli.main(["run", spath]) == 3


def test_abort_exit_code(tmp_path):
    data = build_scenario_dict(seed=11, drop_rate=1.0, max_time=300)
    spath = write(tmp_path, data)
    assert cli.main(["run", spath]) == 2


def test_stuck_exit_code(tmp_path):
    data = build_scenario_dict(seed=11, max_time=3)
    spath = write(tmp_path, data)
    assert cli.main(["run", spath]) == 4


def test_verify_round_trip_and_tamper(tmp_path, capsys):
    spath = write(tmp_path, build_scenario_dict(seed=11))
    tpath = (tmp_path / "t.jsonl").as_posix()
    assert cli.main(["run", spath, "--transcript", tpath]) == 0
    assert cli.main(["verify", tpath, spath]) == 0
    assert "accept" in capsys.readouterr().out

    lines = open(tpath).read().splitlines()
    lines[3] = lines[3].replace("{", '{"x":1,', 1)
    open(tpath, "w").write("\n".join(lines) + "\n")
    assert cli.main(["verify", tpath, spath]) == 1
    out = capsys.readouterr().out
    assert "reject" in out and "line 4" in out


def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["run"]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "swarmsim" in capsys.readouterr().out
