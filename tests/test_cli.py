"""Command line behavior and the exit code contract."""

import gc
import hashlib
import json

import pytest

from swarmsim import cli, harness
from swarmsim.netsim import Simulation
from swarmsim.scenario import build_scenario_dict


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
    out = tmp_path / "s.json"
    assert cli.main(["gen", "--out", out.as_posix()]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["agents"] == {
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


def test_gen_reads_window_delay_and_fault_flags(capsys):
    argv = ["gen", "--window", "2,6", "--delay", "0,3"]
    argv += ["--fault", "1:crash:12", "--fault", "2:wrong_root:5"]
    assert cli.main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["auction"]["window"] == {"start": 2, "end": 6}
    assert (data["net"]["delay_min"], data["net"]["delay_max"]) == (0, 3)
    assert data["agents"]["faults"] == [
        {"agent_index": 1, "kind": "crash", "at_time": 12},
        {"agent_index": 2, "kind": "wrong_root", "perturb_seed": 5},
    ]


@pytest.mark.parametrize(
    "flag, problem",
    [
        ("0", "expected INDEX:KIND[:ARG]"),
        ("0:crash:1:2", "expected INDEX:KIND[:ARG]"),
        ("x:silent", "index must be an integer"),
        ("0:gossip", "kind must be one of"),
        ("0:crash:soon", "argument must be an integer"),
    ],
)
def test_gen_rejects_a_malformed_fault_flag(capsys, flag, problem):
    assert cli.main(["gen", "--fault", flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid flags: fault {flag!r}: ") and problem in err


def test_run_happy_path(tmp_path, capsys):
    spath = write(tmp_path, build_scenario_dict(seed=11))
    tpath = tmp_path / "t.jsonl"
    rpath = tmp_path / "r.json"
    code = cli.main(
        ["run", spath, "--transcript", tpath.as_posix(), "--report", rpath.as_posix()]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome: SETTLED_CORRECT" in out
    assert json.loads(rpath.read_text(encoding="utf-8"))["outcome"] == "SETTLED_CORRECT"
    first = tpath.read_text(encoding="utf-8").splitlines()[0]
    assert json.loads(first)["schema_version"] == 1


def test_run_invalid_scenario_exits_one(tmp_path, capsys):
    data = build_scenario_dict()
    data["agents"]["m"] = 5
    spath = write(tmp_path, data)
    assert cli.main(["run", spath]) == 1
    assert "invalid scenario" in capsys.readouterr().err


def test_run_missing_file_exits_one(tmp_path, capsys):
    assert cli.main(["run", (tmp_path / "nope.json").as_posix()]) == 1


@pytest.mark.parametrize("flag", ["--transcript", "--report"])
def test_run_unwritable_output_exits_one(tmp_path, capsys, flag):
    spath = write(tmp_path, build_scenario_dict(seed=11))
    target = (tmp_path / "missing" / "dir" / "out").as_posix()
    assert cli.main(["run", spath, flag, target]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and err.count("\n") == 1


def test_gen_unwritable_out_exits_one(tmp_path, capsys):
    target = (tmp_path / "missing" / "dir" / "s.json").as_posix()
    assert cli.main(["gen", "--out", target]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and err.count("\n") == 1


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
    tfile = tmp_path / "t.jsonl"
    tpath = tfile.as_posix()
    assert cli.main(["run", spath, "--transcript", tpath]) == 0
    assert cli.main(["verify", tpath, spath]) == 0
    assert "accept" in capsys.readouterr().out

    lines = tfile.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3].replace("{", '{"x":1,', 1)
    tfile.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["verify", tpath, spath]) == 1
    out = capsys.readouterr().out
    assert "reject" in out and "line 4" in out


@pytest.mark.parametrize("header", ["5", "[1]", "null", "[" * 100_000 + "]" * 100_000])
def test_verify_malformed_header_is_a_schema_mismatch(tmp_path, capsys, header):
    spath = write(tmp_path, build_scenario_dict(seed=11))
    tfile = tmp_path / "t.jsonl"
    tfile.write_text(header + "\n", encoding="utf-8")
    assert cli.main(["verify", tfile.as_posix(), spath]) == 1
    assert capsys.readouterr().err.startswith("schema mismatch: transcript not parseable: ")


def test_verify_a_missing_transcript_exits_one(tmp_path, capsys):
    spath = write(tmp_path, build_scenario_dict(seed=11))
    missing = (tmp_path / "absent.jsonl").as_posix()
    assert cli.main(["verify", missing, spath]) == 1
    assert capsys.readouterr().err.startswith("cannot read input: ")


def test_verify_an_empty_transcript_is_a_schema_mismatch(tmp_path, capsys):
    spath = write(tmp_path, build_scenario_dict(seed=11))
    tfile = tmp_path / "t.jsonl"
    tfile.write_bytes(b"")
    with pytest.raises(harness.SchemaMismatch, match="empty transcript file"):
        harness.verify_transcript(tfile.as_posix(), spath)
    assert cli.main(["verify", tfile.as_posix(), spath]) == 1
    assert capsys.readouterr().err.startswith("schema mismatch: transcript not parseable: ")


def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["run"]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "swarmsim" in capsys.readouterr().out


def stored_run(tmp_path, **flags):
    spath = write(tmp_path, build_scenario_dict(seed=11, **flags))
    tfile = tmp_path / "t.jsonl"
    assert cli.main(["run", spath, "--transcript", tfile.as_posix()]) == 0
    return tfile, spath


@pytest.mark.parametrize("end, last", [("\r\n", "\r\n"), ("\n", "")])
def test_verify_reads_crlf_and_a_missing_final_newline_as_stored(tmp_path, capsys, end, last):
    tfile, spath = stored_run(tmp_path)
    lines = tfile.read_text(encoding="utf-8").splitlines()
    tfile.write_bytes((end.join(lines) + last).encode("utf-8"))
    assert cli.main(["verify", tfile.as_posix(), spath]) == 0
    assert "accept" in capsys.readouterr().out


def test_verify_bad_utf8_past_the_first_read_is_a_schema_mismatch(tmp_path, capsys):
    tfile, spath = stored_run(tmp_path, bidders=3000, items=2000)
    raw = tfile.read_bytes()
    at = raw.index(b'"tx_id":"', 64 * 1024) + len(b'"tx_id":"')
    tfile.write_bytes(raw[:at] + b"\xff" + raw[at + 1 :])
    capsys.readouterr()
    assert cli.main(["verify", tfile.as_posix(), spath]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("schema mismatch: transcript not parseable: ")
    assert "Traceback" not in captured.err + captured.out


def test_run_streams_the_transcript_and_keeps_no_body_line(tmp_path, monkeypatch):
    made = []
    run = harness._run

    def recording_run(sc, sink=None):
        result = run(sc, sink)
        made.append(result[0])
        return result

    monkeypatch.setattr(harness, "_run", recording_run)
    tfile, _ = stored_run(tmp_path)
    (tr,) = made
    assert tr.lines == []
    body = tfile.read_bytes().split(b"\n", 1)[1]
    assert body.count(b"\n") > 10
    assert tr.body_hash() == hashlib.sha256(body).digest()


@pytest.mark.parametrize("existing", [None, "kept\n"])
def test_a_run_that_raises_leaves_no_transcript_behind(tmp_path, monkeypatch, existing):
    spath = write(tmp_path, build_scenario_dict(seed=11))
    tfile = tmp_path / "t.jsonl"
    if existing is not None:
        tfile.write_text(existing, encoding="utf-8")
    streaming = []

    def failing_submit(self, agent_index, act, now):
        # late in the run: the header and many body lines were streamed
        streaming.append((tmp_path / "t.jsonl.part").exists())
        raise RuntimeError("injected failure")

    monkeypatch.setattr(Simulation, "_submit", failing_submit)
    with pytest.raises(RuntimeError, match="injected failure"):
        cli.main(["run", spath, "--transcript", tfile.as_posix()])
    assert streaming == [True]
    left = sorted(path.name for path in tmp_path.iterdir())
    if existing is None:
        assert left == ["scenario.json"]
    else:
        assert left == ["scenario.json", "t.jsonl"]
        assert tfile.read_text(encoding="utf-8") == existing


@pytest.fixture(params=[True, False], ids=["gc_enabled", "gc_disabled"])
def gc_state(request):
    """The collector state a caller of cli.main holds; restored after the test."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_the_collector_is_paused_while_run_and_verify_execute(tmp_path, monkeypatch, gc_state):
    spath = write(tmp_path, build_scenario_dict(seed=11))
    tpath = (tmp_path / "t.jsonl").as_posix()
    seen = []
    run = Simulation.run

    def recording_run(self):
        seen.append(gc.isenabled())
        run(self)

    monkeypatch.setattr(Simulation, "run", recording_run)
    assert cli.main(["run", spath, "--transcript", tpath]) == 0
    assert gc.isenabled() is gc_state
    assert cli.main(["verify", tpath, spath]) == 0
    assert gc.isenabled() is gc_state
    assert seen == [False, False]


def _invalid_scenario(tmp_path, monkeypatch):
    data = build_scenario_dict()
    data["agents"]["m"] = 5
    return ["run", write(tmp_path, data)], 1


def _unwritable_transcript(tmp_path, monkeypatch):
    target = (tmp_path / "missing" / "dir" / "t.jsonl").as_posix()
    return ["run", write(tmp_path, build_scenario_dict(seed=11)), "--transcript", target], 1


def _raising_run(tmp_path, monkeypatch):
    # the failure of test_a_run_that_raises_leaves_no_transcript_behind
    def failing_submit(self, agent_index, act, now):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(Simulation, "_submit", failing_submit)
    target = (tmp_path / "t.jsonl").as_posix()
    return ["run", write(tmp_path, build_scenario_dict(seed=11)), "--transcript", target], None


def _success(tmp_path, monkeypatch):
    return ["run", write(tmp_path, build_scenario_dict(seed=11))], 0


@pytest.mark.parametrize(
    "exit_path", [_success, _invalid_scenario, _unwritable_transcript, _raising_run]
)
def test_every_exit_path_leaves_the_collector_as_the_caller_had_it(
    tmp_path, monkeypatch, capsys, gc_state, exit_path
):
    argv, code = exit_path(tmp_path, monkeypatch)
    if code is None:
        with pytest.raises(RuntimeError, match="injected failure"):
            cli.main(argv)
    else:
        assert cli.main(argv) == code
    assert gc.isenabled() is gc_state
