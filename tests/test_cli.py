"""Command line behavior and the exit code contract."""

import gc
import hashlib
import json

import pytest

from swarmsim import cli, harness, scenario
from swarmsim.netsim import Simulation
from swarmsim.scenario import build_scenario_dict

pytestmark = pytest.mark.golden_matrix


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


def test_gen_checks_a_scenario_without_drawing_its_population(tmp_path, monkeypatch):
    # the population is drawn by the run that reads the file, not by gen
    def drawn(*args):
        raise AssertionError("gen drew the population")

    monkeypatch.setattr(scenario, "_generate_bidders", drawn)
    assert build_scenario_dict(bidders=10**6)["bidders"]["generator"]["count"] == 10**6
    out = tmp_path / "s.json"
    assert cli.main(["gen", "--bidders", "1000000", "--out", out.as_posix()]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["bidders"]["generator"]["count"] == 10**6


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
    # read as stored, not translated: CRLF endings differ from the header line
    # on; a last line without its "\n" differs from the bytes `run` wrote
    tfile, spath = stored_run(tmp_path)
    lines = tfile.read_text(encoding="utf-8").splitlines()
    tfile.write_bytes((end.join(lines) + last).encode("utf-8"))
    first = 1 if end == "\r\n" else len(lines)
    capsys.readouterr()
    assert cli.main(["verify", tfile.as_posix(), spath]) == 1
    out = capsys.readouterr().out
    assert out.startswith("reject: divergence\n")
    assert f"first divergence at line {first}\n" in out


# Each turns a stored transcript into bytes `run` never writes, and names the
# line where verify must see the first divergence (None: the last line).
NEVER_WRITTEN = {
    "schema_version_true": (
        lambda head, body: (head.replace(b'"schema_version":1', b'"schema_version":true'), body), 1
    ),
    "seed_float": (lambda head, body: (head.replace(b'"seed":11', b'"seed":11.0'), body), 1),
    "extra_key": (lambda head, body: (b'{"comment":"x",' + head[1:], body), 1),
    "spaced_header": (lambda head, body: (b" " + head + b" ", body), 1),
    "crlf_body": (lambda head, body: (head, body.replace(b"\n", b"\r\n")), 2),
    "missing_final_newline": (lambda head, body: (head, body.removesuffix(b"\n")), None),
}


@pytest.mark.parametrize("change, line", NEVER_WRITTEN.values(), ids=NEVER_WRITTEN.keys())
def test_verify_rejects_bytes_run_never_writes(tmp_path, capsys, change, line):
    tfile, spath = stored_run(tmp_path)
    head, body = tfile.read_bytes().split(b"\n", 1)
    head, body = change(head, body)
    tfile.write_bytes(head + b"\n" + body)
    if line is None:
        line = body.count(b"\n") + 2
    capsys.readouterr()
    assert cli.main(["verify", tfile.as_posix(), spath]) == 1
    out = capsys.readouterr().out
    assert out.startswith("reject: divergence\n")
    assert f"first divergence at line {line}\n" in out


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


@pytest.mark.golden_matrix
@pytest.mark.parametrize("cut", [False, True], ids=["edited", "cut"])
def test_verify_reports_a_divergence_inside_the_streamed_settlement_line(tmp_path, capsys, cut):
    # the settlement line is compared a piece at a time, never read whole, and
    # the report shows the pieces where the stored text differs
    tfile, spath = stored_run(tmp_path, bidders=3000, items=2000)
    raw = tfile.read_bytes()
    start = raw.index(b'{"auction_id"')
    end = raw.index(b"\n", start)
    line = raw.count(b"\n", 0, start) + 1
    at = raw.index(b'["', (start + end) // 2) + 2  # a hex digit of an address
    if cut:
        tfile.write_bytes(raw[:at])
    else:
        tfile.write_bytes(raw[:at] + (b"0" if raw[at] != ord("0") else b"1") + raw[at + 1 :])
    capsys.readouterr()
    assert cli.main(["verify", tfile.as_posix(), spath]) == 1
    out = capsys.readouterr().out
    assert out.startswith("reject: divergence\n")
    assert f"first divergence at line {line}\n" in out
    stored = out.split("  stored:   ", 1)[1].split("\n", 1)[0]
    replayed = out.split("  replayed: ", 1)[1].split("\n", 1)[0]
    assert len(out) < end - start
    assert stored != replayed and stored.endswith("<no final newline>") == cut
    assert raw[start:end].decode("utf-8").find(replayed) > 0


def test_run_streams_the_transcript_and_keeps_no_body_line(tmp_path, monkeypatch, capsys):
    made = []
    run = harness._run

    def recording_run(sc, consume=None):
        result = run(sc, consume)
        made.append(result[0])
        return result

    monkeypatch.setattr(harness, "_run", recording_run)
    tfile, spath = stored_run(tmp_path)
    with_file = capsys.readouterr().out
    # without --transcript the body streams too, to nothing
    assert cli.main(["run", spath]) == 0
    assert capsys.readouterr().out == with_file
    assert "transcript hash: " in with_file
    filed, unfiled = made
    for tr in (filed, unfiled):
        with pytest.raises(ValueError, match="streamed"):
            tr.lines
    body = tfile.read_bytes().split(b"\n", 1)[1]
    assert body.count(b"\n") > 10
    assert filed.body_hash() == unfiled.body_hash() == hashlib.sha256(body).digest()


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


def test_an_unwritable_report_fails_before_the_run(tmp_path, monkeypatch, capsys):
    spath = write(tmp_path, build_scenario_dict(seed=11))
    runs = []
    monkeypatch.setattr(Simulation, "run", lambda self: runs.append(self))
    tfile = tmp_path / "t.jsonl"
    report = (tmp_path / "missing" / "r.json").as_posix()
    assert cli.main(["run", spath, "--transcript", tfile.as_posix(), "--report", report]) == 1
    assert capsys.readouterr().err.startswith("cannot write output: ")
    assert runs == []
    assert sorted(path.name for path in tmp_path.iterdir()) == ["scenario.json"]


def test_one_path_for_transcript_and_report_fails_before_the_run(tmp_path, monkeypatch, capsys):
    spath = write(tmp_path, build_scenario_dict(seed=11))
    runs = []
    monkeypatch.setattr(Simulation, "run", lambda self: runs.append(self))
    out = (tmp_path / "out.json").as_posix()
    assert cli.main(["run", spath, "--transcript", out, "--report", f"{tmp_path}/./out.json"]) == 1
    assert capsys.readouterr().err.startswith("cannot write output: ")
    assert runs == []
    assert sorted(path.name for path in tmp_path.iterdir()) == ["scenario.json"]


@pytest.mark.parametrize("flag", ["--transcript", "--report"])
@pytest.mark.parametrize("spelling", ["plain", "dotted", "symlink", "part_sibling"])
def test_an_output_naming_the_scenario_fails_before_the_run(
    tmp_path, monkeypatch, capsys, flag, spelling
):
    name = "out.json.part" if spelling == "part_sibling" else "scenario.json"
    spath = write(tmp_path, build_scenario_dict(seed=11), name=name)
    before = (tmp_path / name).read_bytes()
    left = [name]
    if spelling == "symlink":
        (tmp_path / "link.json").symlink_to(tmp_path / name)
        left = ["link.json", name]
    out = {
        "plain": spath,
        "dotted": f"{tmp_path}/./{name}",
        "symlink": (tmp_path / "link.json").as_posix(),
        # the output is written to out.json.part first, which is the scenario
        "part_sibling": (tmp_path / "out.json").as_posix(),
    }[spelling]
    runs = []
    monkeypatch.setattr(Simulation, "run", lambda self: runs.append(self))
    assert cli.main(["run", spath, flag, out]) == 1
    assert capsys.readouterr().err.startswith("cannot write output: ")
    assert runs == []
    assert (tmp_path / name).read_bytes() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == left


def test_an_invalid_scenario_is_reported_before_an_unwritable_output(tmp_path, capsys):
    # the scenario is parsed before any output opens, so of the two faults
    # the scenario's is the one reported; either way no file is left
    data = build_scenario_dict()
    data["agents"]["m"] = 5
    spath = write(tmp_path, data)
    target = (tmp_path / "missing" / "t.jsonl").as_posix()
    assert cli.main(["run", spath, "--transcript", target]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario: ")
    assert "cannot write output" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["scenario.json"]


def test_a_run_that_raises_leaves_no_report_behind(tmp_path, monkeypatch):
    spath = write(tmp_path, build_scenario_dict(seed=11))
    during = []

    def failing_submit(self, agent_index, act, now):
        during.append(sorted(path.name for path in tmp_path.iterdir()))
        raise RuntimeError("injected failure")

    monkeypatch.setattr(Simulation, "_submit", failing_submit)
    argv = ["run", spath, "--transcript", (tmp_path / "t.jsonl").as_posix()]
    with pytest.raises(RuntimeError, match="injected failure"):
        cli.main(argv + ["--report", (tmp_path / "r.json").as_posix()])
    # both outputs were open while the run went on, and neither is left
    assert during == [["r.json.part", "scenario.json", "t.jsonl.part"]]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["scenario.json"]


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
