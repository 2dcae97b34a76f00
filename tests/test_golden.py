"""Golden transcripts: fourteen fixed scenarios pinned across code changes.

Rerun determinism (acceptance criterion 4) only compares a run with itself.
These pins compare a run with the bytes the code produced when they were
recorded, so a refactor that shifts one transcript line fails here. Every
fault kind, collusion, a lossy network, a partition with drops, and each
non-settling outcome is covered, and so is the post-window refresh that
late fundings drive, with and without a wrong-root agent. `GOLDEN` holds
each run's scenario builder; its pin (outcome, `conservation_ok` and the
transcript body's sha256) is under "golden" in `tests/corpus.json`, the one
pin file, compared and re-recorded as `test_corpus.py` says. A deliberate
change to transcript bytes needs a SCHEMA_VERSION bump and new pins.
"""

import gc
import hashlib
import json
from collections import deque

import pytest

from swarmsim import cli
from swarmsim.agent import Log, SendPeer, SetTimer
from swarmsim.consensus import TRANSPORT_DOMAIN
from swarmsim.harness import EXIT_CODES, run_scenario, run_scenario_dict, verify_transcript
from swarmsim.ledger import BLOCK_SEALED, Ledger
from swarmsim.netsim import Simulation
from swarmsim.scenario import agent_signing_key, build_scenario_dict
from swarmsim.transcript import Transcript, canonical_json, hash_body_lines
from swarmsim.wallet import verify_signature, verifying_key_for
from test_consensus import body_object, dumps
from test_corpus import load_pins, moved_pins, report_entry

pytestmark = pytest.mark.golden_matrix


def _partition_with_drops() -> dict:
    data = build_scenario_dict(agents=4, threshold=3, drop_rate=0.1)
    data["net"]["partitions"] = [
        {"from_time": 0, "to_time": 30, "side_a": [0], "side_b": [1, 2, 3]}
    ]
    return data


def _late_fundings(*faults: str) -> dict:
    # window 1..5 and delay_min 2: one funding before the window, two after
    # it (end+1, end+2) that every agent folds in as full refunds
    data = build_scenario_dict(delay=(2, 3), faults=faults)
    fundings = [(300, 0), (500, 1), (700, 2), (400, 3), (900, 4), (650, 5),
                (820, 5), (250, 6), (480, 7)]
    data["bidders"] = {
        "explicit": [
            {"address": f"{i:02x}" * 20, "amount": amount, "height": height}
            for i, (amount, height) in enumerate(fundings, start=1)
        ]
    }
    return data


# name -> scenario builder; each run's pin is under "golden" in tests/corpus.json
GOLDEN = {
    "default": build_scenario_dict,
    "crash_at_5": lambda: build_scenario_dict(faults=("0:crash:5",)),
    "crash_at_0": lambda: build_scenario_dict(faults=("0:crash:0",)),
    "silent": lambda: build_scenario_dict(faults=("1:silent",)),
    "wrong_root": lambda: build_scenario_dict(faults=("0:wrong_root:5",)),
    "equivocate": lambda: build_scenario_dict(faults=("0:equivocate",)),
    "bad_attestation": lambda: build_scenario_dict(faults=("2:bad_attestation",)),
    "collusion": lambda: build_scenario_dict(faults=("0:wrong_root:5", "1:wrong_root:5")),
    "lossy": lambda: build_scenario_dict(agents=5, threshold=3, drop_rate=0.2, delay=(1, 4), r_max=6),
    "partition_with_drops": _partition_with_drops,
    "aborted": lambda: build_scenario_dict(threshold=3, faults=("1:silent",)),
    "late_fundings": _late_fundings,
    "late_fundings_wrong_root": lambda: _late_fundings("0:wrong_root:5"),
    "stuck": lambda: build_scenario_dict(max_time=6),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_transcript(name):
    tr, report = run_scenario_dict(GOLDEN[name]())
    assert tr.body_hash().hex() == report.transcript_hash
    moved = moved_pins({name: load_pins()["golden"].get(name)}, {name: report_entry(report)})
    assert not moved, "golden pin moved:\n" + moved


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_streams_the_bytes_that_write_writes(name, tmp_path, capsys):
    # `run --transcript` writes each line as it is added; the library run
    # keeps its lines and writes them after
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(GOLDEN[name](), indent=2) + "\n", encoding="utf-8")
    tr, report = run_scenario(spath.as_posix())
    assert tr.body_hash() == hash_body_lines(tr.lines)
    written, streamed, rpath = (tmp_path / f for f in ("w.jsonl", "s.jsonl", "r.json"))
    tr.write(written.as_posix())
    code = cli.main(
        ["run", spath.as_posix(), "--transcript", streamed.as_posix(), "--report", rpath.as_posix()]
    )
    assert code == EXIT_CODES[report.outcome]
    assert streamed.read_bytes() == written.read_bytes()
    assert rpath.read_text(encoding="utf-8") == json.dumps(report.to_dict(), indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_run_and_its_replay_build_no_reference_cycles(name, tmp_path):
    # cli.main pauses the cyclic collector for a whole command, which holds no
    # garbage back only while a run and its verify replay leave no cycle to free
    spath, tpath = tmp_path / "scenario.json", tmp_path / "t.jsonl"
    spath.write_text(json.dumps(GOLDEN[name](), indent=2) + "\n", encoding="utf-8")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        tr, report = run_scenario(spath.as_posix())
        tr.write(tpath.as_posix())
        result = verify_transcript(tpath.as_posix(), spath.as_posix())
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    assert result.accepted and result.outcome == report.outcome


def ledger_objects(ev) -> list[dict]:
    """The objects a ledger event's transcript lines are the canonical JSON of:
    a seal's one per funding it carries, at index k, then its own; else one."""
    kind, h, i, payload = ev
    if kind == BLOCK_SEALED:
        return [{"h": h, "i": k, "kind": "funding_received", "sender": tx.sender.hex(),
                 "amount": str(tx.amount), "tx_id": tx.tx_id.hex()}
                for k, tx in enumerate(payload)] + [
            {"h": h, "i": i, "kind": "block_sealed", "tx_count": len(payload)}]
    tx = payload.tx
    return [{
        "h": h,
        "i": i,
        "kind": "settlement_executed",
        "auction_id": tx.auction_id.hex(),
        "digest": payload.digest.hex(),
        "mints": [[addr.hex(), 1] for addr in tx.mints],
        "partial_refunds": [[addr.hex(), str(amt)] for addr, amt in tx.partial_refunds],
        "full_refunds": [[addr.hex(), str(amt)] for addr, amt in tx.full_refunds],
        "mint_count": len(tx.mints),
        "partial_refund_total": str(payload.partial_refund_total),
        "full_refund_total": str(payload.full_refund_total),
        "retained": str(payload.retained_balance),
    }]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canonical_json_equals_json_dumps_on_golden_lines(name, monkeypatch):
    # canonical_json reuses one encoder, and every ledger and network line is
    # filled into a template; every line a golden run writes must come out as
    # json.dumps with the same arguments writes the whole object. A line that
    # went through Transcript.add brings its object. Every other line's object
    # is built here from what the line records: the event the ledger logged,
    # the action the simulation executed for an agent, or the delivery or
    # timer it handed an agent. Each kind's objects are queued in the order
    # their lines are written; a line is read back only to pick its queue.
    added, pending = [], []
    # a line whose event has no queue of its own is an agent's log line
    made = {kind: deque() for kind in
            ("ledger", "log", "peer_send", "peer_deliver", "timer_set", "timer_fire")}
    add, add_line, add_pieces = Transcript.add, Transcript.add_line, Transcript.add_pieces
    ledger_init, sim_init, execute = Ledger.__init__, Simulation.__init__, Simulation._exec

    class RecordingLog(deque):
        def append(self, ev):
            made["ledger"].extend(ledger_objects(ev))
            super().append(ev)

    class Watched:
        """An agent whose deliveries and timer fires are recorded."""

        def __init__(self, agent, index):
            self._agent, self._index = agent, index

        def __getattr__(self, name):
            return getattr(self._agent, name)

        def on_peer_message(self, env, now):
            made["peer_deliver"].append({"t": now, "event": "peer_deliver", "from": env.sender,
                                         "to": self._index, "type": body_object(env.msg)["type"]})
            return self._agent.on_peer_message(env, now)

        def on_timer(self, now):
            made["timer_fire"].append({"t": now, "event": "timer_fire", "agent": self._index})
            return self._agent.on_timer(now)

    def recording_ledger_init(self, *args, **kwargs):
        ledger_init(self, *args, **kwargs)
        self.events = RecordingLog()

    def recording_sim_init(self, *, agents, **kwargs):
        sim_init(self, agents=[Watched(a, i) for i, a in enumerate(agents)], **kwargs)

    def recording_exec(self, i, actions, now):
        for act in actions:
            if isinstance(act, Log):
                made["log"].append(
                    {"agent": i, "phase": act.phase, "event": act.event, "detail": act.detail}
                )
            elif isinstance(act, SetTimer):
                made["timer_set"].append(
                    {"t": now, "event": "timer_set", "agent": i, "at": now + act.duration}
                )
            elif isinstance(act, SendPeer):
                msg = body_object(act.envelope.msg)
                link = {"t": now, "from": i, "to": act.to}
                cut = any(p.separates(i, act.to, now) for p in self.net.partitions)
                made["peer_send"].append((
                    {**link, "event": "peer_send", "msg": msg, "sig": act.envelope.transport_sig.hex()},
                    {**link, "event": "peer_drop", "type": msg["type"],
                     "cause": "partition" if cut else "random"},
                ))
        execute(self, i, actions, now)

    def recording_add(self, obj):
        pending.append(obj)
        add(self, obj)

    def recording_add_line(self, line):
        added.append(pending.pop() if pending else None)
        add_line(self, line)

    def recording_add_pieces(self, pieces):  # the settlement line
        added.append(None)
        add_pieces(self, pieces)

    monkeypatch.setattr(Ledger, "__init__", recording_ledger_init)
    monkeypatch.setattr(Simulation, "__init__", recording_sim_init)
    monkeypatch.setattr(Simulation, "_exec", recording_exec)
    monkeypatch.setattr(Transcript, "add", recording_add)
    monkeypatch.setattr(Transcript, "add_line", recording_add_line)
    monkeypatch.setattr(Transcript, "add_pieces", recording_add_pieces)
    tr, report = run_scenario_dict(GOLDEN[name]())
    assert len(added) == len(tr.lines) > 0 and pending == []

    objs, drop = [], None
    for line, obj in zip(tr.lines, added):
        if obj is None:
            fields = json.loads(line)
            kind = "ledger" if "kind" in fields else fields["event"]
            if kind == "peer_drop":  # it follows the send line of its message
                obj, drop = drop, None
            else:
                obj = made[kind if kind in made else "log"].popleft()
                if kind == "peer_send":
                    obj, drop = obj
        objs.append(obj)
    assert all(not queue for queue in made.values())
    kinds = {obj.get("kind") or obj.get("event") for obj in objs}
    assert {"funding_received", "block_sealed", "peer_send", "peer_deliver", "timer_set"} <= kinds
    settled = [obj for obj in objs if obj.get("kind") == "settlement_executed"]
    assert len(settled) == report.on_chain_tx_count
    for obj, line in zip(objs, tr.lines):
        assert canonical_json(obj) == dumps(obj) == line


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_signature_a_golden_transcript_shows_verifies(name):
    # a verifier's view of the transcript: each send line's transport
    # signature verifies under its sender's key over the body written in that
    # line, and each ack's share over the settlement digest it carries, so a
    # line cannot show a body other than the one that was signed
    data = GOLDEN[name]()
    keys = [verifying_key_for(agent_signing_key(data["seed"], i))
            for i in range(data["agents"]["n"])]
    tr, _ = run_scenario_dict(data)
    sends = [ev for ev in tr.iter_events() if ev.get("event") == "peer_send"]
    assert sends
    for ev in sends:
        msg = ev["msg"]
        digest = hashlib.sha256(TRANSPORT_DOMAIN + canonical_json(msg).encode()).digest()
        assert verify_signature(keys[ev["from"]], digest, bytes.fromhex(ev["sig"]))
        if msg["type"] == "ack":
            share = msg["share"]
            assert verify_signature(
                keys[share["agent"]],
                bytes.fromhex(msg["settlement_digest"]),
                bytes.fromhex(share["sig"]),
            )


@pytest.mark.parametrize(
    "obj",
    [
        {"b": [1, {"d": None, "c": [True, False]}], "a": {"z": {}, "y": []}},
        {"naïve": "Zürich ✓ 😀", "\u0000": "\x7f\n\"\\"},
        {"amount": 2**128, "neg": -(2**128) + 1, "list": [2**128 - 1, 0]},
        [1.5, -0.0, 1e300, "x"],
        "bare string",
        2**128,
        None,
        {"mints": [("aa", 1), ("bb", 1)], "pairs": ((("x", "1"),),)},  # tuples write as arrays
        {10: "int keys sort as ints", 2: "then print as strings"},
        {"raw": b"\x00"},  # refused with json.dumps's TypeError
    ],
)
def test_canonical_json_equals_json_dumps_on_odd_values(obj):
    # equal output, or the same error where json.dumps refuses the value
    def outcome(encode):
        try:
            return encode(obj)
        except TypeError as exc:
            return type(exc), str(exc)

    assert outcome(canonical_json) == outcome(dumps)
