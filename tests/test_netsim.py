"""Discrete-event network: delays, drops, partitions, fault wrappers."""

import json
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmsim import auction, harness, netsim, wallet
from swarmsim.agent import Agent, Log, SendPeer, SetTimer, SubmitSettlement
from swarmsim.consensus import Envelope, Propose
from swarmsim.ledger import (
    BLOCK_FUNDINGS,
    BLOCK_SEALED,
    SETTLEMENT_EXECUTED,
    Contribution,
    FundingWindow,
    Ledger,
    LedgerEvent,
    SettlementReceipt,
)
from swarmsim.netsim import (
    FAULT_CRASH,
    FAULT_KINDS,
    FAULT_WRONG_ROOT,
    FaultSpec,
    NetConfig,
    Partition,
    Simulation,
    apply_fault,
)
from swarmsim.scenario import build_scenario_dict, derive_auction_id
from swarmsim.transcript import Transcript
from swarmsim.wallet import MultisigPolicy
from test_agent import (
    deliver_ledger,
    exchange_attestations,
    fresh_clear,
    funded_ledger,
    make_world,
)
from test_consensus import ANY_MESSAGE, body_object, dumps
from test_ledger import A, B, make_policy, settle_simple, sign_tx

# The policy of a ledger that only grows a chain: no test here settles on it.
CHAIN_ONLY = MultisigPolicy(agent_keys=(bytes(32),), m=1)


def run(data):
    return harness.run_scenario_dict(data)


def scenario(**kwargs):
    return build_scenario_dict(**kwargs)


def events(tr, name):
    return [ev for ev in tr.iter_events() if ev.get("event") == name]


def with_faults(data, *faults):
    data["agents"]["faults"] = list(faults)
    return data


def test_degenerate_delay_delivers_exactly_one_tick_later():
    tr, rep = run(scenario(seed=3, delay=(1, 1)))
    sent = {}
    for ev in tr.iter_events():
        if ev.get("event") == "peer_send":
            sent[(ev["from"], ev["to"], ev["sig"])] = ev["t"]
        elif ev.get("event") == "peer_deliver":
            pass
    delivers = events(tr, "peer_deliver")
    assert delivers
    sends = events(tr, "peer_send")
    assert len(sends) == len(delivers)
    # deliveries happen in send order here, each exactly one tick after
    for s, d in zip(sends, delivers):
        assert d["t"] == s["t"] + 1
        assert (d["from"], d["to"]) == (s["from"], s["to"])


def test_drop_everything_starves_consensus():
    tr, rep = run(scenario(seed=3, drop_rate=1.0, max_time=300))
    assert rep.outcome == "ABORTED"
    assert events(tr, "peer_deliver") == []
    drops = events(tr, "peer_drop")
    assert drops and all(d["cause"] == "random" for d in drops)


def test_same_seed_same_schedule():
    t1, _ = run(scenario(seed=5, delay=(1, 4), drop_rate=0.2, r_max=6))
    t2, _ = run(scenario(seed=5, delay=(1, 4), drop_rate=0.2, r_max=6))
    assert t1.body_hash() == t2.body_hash()


def test_empty_simulation_emits_only_seals():
    tr = Transcript({"schema_version": 1})
    sim = Simulation(
        ledger=Ledger(CHAIN_ONLY),
        agents=[],
        submissions={},
        last_height=3,
        net=NetConfig(),
        max_time=50,
        transcript=tr,
    )
    sim.run()
    kinds = [json.loads(line).get("kind") for line in tr.lines]
    assert kinds == ["block_sealed"] * 4
    assert sim.max_time_exceeded is False


def test_a_high_window_end_costs_no_memory_per_height():
    # The next tick is scheduled by the one before it: a window that ends far
    # past max_time stops at max_time with one tick in the heap, where one
    # heap entry per height took about 36 MiB at this size.
    data = scenario(seed=3, window=(1, 200_000), height_spread=5)
    tracemalloc.start()
    try:
        tr, rep = run(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.outcome == "STUCK" and rep.max_time_exceeded is True
    assert peak < 4 * 2**20


_U64 = st.integers(min_value=0, max_value=2**64 - 1)


@pytest.mark.golden_matrix
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.binary(min_size=20, max_size=20),
    st.integers(min_value=1, max_value=2**128 - 1),
    _U64,
    _U64,
    st.binary(min_size=32, max_size=32),
)
def test_the_funding_line_is_json_dumps_of_its_object(sender, amount, height, index, tx_id):
    # the funding line is filled into a template, not encoded; over the whole
    # range of every field it must still be what json.dumps writes
    tr = Transcript({"schema_version": 1})
    sim = Simulation(
        ledger=Ledger(CHAIN_ONLY), agents=[], submissions={}, last_height=0,
        net=NetConfig(), max_time=1, transcript=tr,
    )
    tx = Contribution(sender, amount, height, tx_id)
    sim.ledger.events.append(LedgerEvent(BLOCK_FUNDINGS, height, index, (tx,)))
    sim._pump_ledger(0)
    obj = {"h": height, "i": index, "kind": "funding_received", "sender": sender.hex(),
           "amount": str(amount), "tx_id": tx_id.hex()}
    assert tr.lines == [json.dumps(obj, sort_keys=True, separators=(",", ":"))]
    assert sim.inflow == amount


_U128 = st.integers(min_value=0, max_value=2**128 - 1)
_ADDRESS = st.binary(min_size=20, max_size=20)
_REFUND = st.tuples(_ADDRESS, _U128)
# array lengths on each side of the line's 1,024-item slices
_COUNTS = (0, 1, 1023, 1024, 1025, 2049)
_TOP_REFUND = (b"\xff" * 20, 2**128 - 1)


def _cycled(count, pattern):
    return tuple(pattern[n % len(pattern)] for n in range(count))


@pytest.mark.golden_matrix
@pytest.mark.parametrize("k", range(len(_COUNTS)))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    _U64, _U64, _U64, _U64,
    st.lists(_ADDRESS, min_size=1, max_size=3),
    st.lists(_REFUND, min_size=1, max_size=3),
    st.lists(_REFUND, min_size=1, max_size=3),
    st.tuples(_U128, _U128, _U128),
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=32, max_size=32),
)
@example(  # every height, index and amount at its top
    *[2**64 - 1] * 4, [b"\xff" * 20], [_TOP_REFUND], [_TOP_REFUND], (2**128 - 1,) * 3,
    b"\xff" * 32, b"\xff" * 32,
)
def test_the_block_and_settlement_lines_are_json_dumps_of_their_objects(
    k, block_h, block_i, h, i, mints, partial, full, totals, auction_id, digest
):
    # both lines are filled into templates, the settlement line's arrays a
    # slice at a time; over the whole range of every field, and with every
    # array on each side of a slice boundary, they must still be what
    # json.dumps writes of the whole object
    tx_count = _COUNTS[k]
    mints, partial, full = (
        _cycled(_COUNTS[(k + shift) % len(_COUNTS)], pattern)
        for shift, pattern in enumerate((mints, partial, full))
    )
    tx = auction.SettlementTx(auction_id, mints, partial, full)
    receipt = SettlementReceipt(digest, *totals, tx)
    tr = Transcript({"schema_version": 1})
    sim = Simulation(
        ledger=Ledger(CHAIN_ONLY), agents=[], submissions={}, last_height=0,
        net=NetConfig(), max_time=1, transcript=tr,
    )
    sim.ledger.events.append(LedgerEvent(BLOCK_SEALED, block_h, block_i, (None,) * tx_count))
    sim.ledger.events.append(LedgerEvent(SETTLEMENT_EXECUTED, h, i, receipt))
    sim._pump_ledger(0)
    block = {"h": block_h, "i": block_i, "kind": "block_sealed", "tx_count": tx_count}
    settlement = {
        "h": h,
        "i": i,
        "kind": "settlement_executed",
        "auction_id": auction_id.hex(),
        "digest": digest.hex(),
        "mints": [(addr.hex(), 1) for addr in mints],
        "partial_refunds": [(addr.hex(), str(amt)) for addr, amt in partial],
        "full_refunds": [(addr.hex(), str(amt)) for addr, amt in full],
        "mint_count": len(mints),
        "partial_refund_total": str(totals[0]),
        "full_refund_total": str(totals[1]),
        "retained": str(totals[2]),
    }
    block_line, settlement_line = (
        json.dumps(obj, sort_keys=True, separators=(",", ":")) for obj in (block, settlement)
    )
    assert len(tr.lines) == 2
    assert tr.lines[0] == block_line
    assert tr.lines[1] == settlement_line


class _AnyAgent:
    """Stands for every agent index at once: deliveries and timer fires reach
    an agent that does nothing, and none attests or watches the ledger."""

    def __iter__(self):
        return iter(())

    def __getitem__(self, index):
        return self

    def on_peer_message(self, env, now):
        return []

    def on_timer(self, now):
        return []


def _network_sim(net: NetConfig) -> Simulation:
    return Simulation(
        ledger=Ledger(CHAIN_ONLY), agents=_AnyAgent(), submissions={}, last_height=0,
        net=net, max_time=2**64, transcript=Transcript({"schema_version": 1}),
    )


def _network_lines(sim: Simulation) -> list[str]:
    """The lines of a run of `sim`, less the block line its one tick seals."""
    return [line for line in sim.transcript.lines if '"kind":"block_sealed"' not in line]


_SIG = st.binary(min_size=64, max_size=64)
_DELAY = st.integers(min_value=0, max_value=4)


@pytest.mark.golden_matrix
@pytest.mark.parametrize("fate", ("deliver", "random", "partition"))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(_U64, _U64, st.integers(min_value=0, max_value=2**64 - 5), ANY_MESSAGE, _SIG, _DELAY)
@example(  # every field at its top
    2**64 - 1, 2**64 - 2, 2**64 - 5, Propose(2**64 - 1, b"\xff" * 32, 2**128 - 1, b"\xff" * 32),
    b"\xff" * 64, 4,
)
def test_the_send_deliver_and_drop_lines_are_json_dumps_of_their_objects(
    fate, frm, to, now, msg, sig, delay
):
    # the send line embeds the body template, and the deliver and drop lines
    # are templates too; for every message type, both drop causes and the
    # whole range of every field they must still be what json.dumps writes
    partitions = (Partition(0, 2**64, frozenset({frm}), frozenset({to})),)
    sim = _network_sim(NetConfig(
        delay_min=delay, delay_max=delay, drop_rate=1.0 if fate == "random" else 0.0,
        partitions=partitions if fate == "partition" else (),
    ))
    sim._exec(frm, [SendPeer(to, Envelope(frm, msg, sig))], now)
    sim.run()
    msg_type = body_object(msg)["type"]
    send = {"t": now, "event": "peer_send", "from": frm, "to": to,
            "msg": body_object(msg), "sig": sig.hex()}
    if fate == "deliver":
        then = {"t": now + delay, "event": "peer_deliver", "from": frm, "to": to,
                "type": msg_type}
    else:
        then = {"t": now, "event": "peer_drop", "from": frm, "to": to, "type": msg_type,
                "cause": fate}
    assert _network_lines(sim) == [dumps(send), dumps(then)]
    outcome = "delivered" if fate == "deliver" else "dropped"
    assert {k: v for k, v in sim.counts.items() if v} == {msg_type: 1, outcome: 1}


_IDENTIFIER = st.from_regex(r"[a-z][a-z_]{0,20}", fullmatch=True)
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(2**128), max_value=2**128) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@pytest.mark.golden_matrix
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    _U64,
    st.tuples(_U64, _U64).map(sorted),
    _IDENTIFIER,
    _IDENTIFIER,
    st.dictionaries(st.text(), _JSON_VALUE, max_size=4),
)
@example(2**64 - 1, [2**64 - 2, 2**64 - 1], "cross_validating", "nack_received",
         {"naïve": "Zürich ✓ 😀", "\u0000": "\x7f\n\"\\", "</script>": [None, True, -1]})
def test_the_timer_and_log_lines_are_json_dumps_of_their_objects(
    agent, times, phase, event, detail
):
    # the timer lines are templates and the log line embeds its encoded
    # detail in one; with non-ASCII and escaped text in the detail, and
    # every integer at up to 2^64 - 1, they must still be what json.dumps writes
    now, at = times
    sim = _network_sim(NetConfig())
    sim._exec(agent, [Log(phase, event, detail), SetTimer(at - now)], now)
    sim.run()
    log = {"agent": agent, "phase": phase, "event": event, "detail": detail}
    timer_set = {"t": now, "event": "timer_set", "agent": agent, "at": at}
    timer_fire = {"t": at, "event": "timer_fire", "agent": agent}
    assert _network_lines(sim) == [dumps(log), dumps(timer_set), dumps(timer_fire)]


def test_crashed_round_zero_proposer_rotates():
    tr, rep = run(with_faults(scenario(seed=3), {"agent_index": 0, "kind": "crash", "at_time": 0}))
    assert rep.outcome == "SETTLED_CORRECT"
    assert rep.rounds_used >= 2
    round1 = [
        ev
        for ev in tr.iter_events()
        if ev.get("event") == "peer_send" and ev["msg"]["type"] == "propose"
    ]
    assert all(ev["from"] == 1 for ev in round1)


def test_crashed_agent_emits_nothing_after_cutoff():
    tr, rep = run(with_faults(scenario(seed=3), {"agent_index": 2, "kind": "crash", "at_time": 4}))
    assert rep.outcome == "SETTLED_CORRECT"
    for ev in tr.iter_events():
        if ev.get("event") == "peer_send":
            assert not (ev["from"] == 2 and ev["t"] >= 4)
        if ev.get("agent") == 2 and "t" in ev:
            assert ev["t"] < 4


def test_silent_agent_consumes_but_never_speaks():
    tr, rep = run(with_faults(scenario(seed=3), {"agent_index": 1, "kind": "silent"}))
    assert rep.outcome == "SETTLED_CORRECT"
    assert all(ev["from"] != 1 for ev in events(tr, "peer_send"))


def test_single_wrong_root_is_outvoted():
    tr, rep = run(
        with_faults(scenario(seed=3), {"agent_index": 0, "kind": "wrong_root", "perturb_seed": 2})
    )
    assert rep.outcome == "SETTLED_CORRECT"
    assert rep.message_counts["nack"] >= 1


def test_colluding_wrong_roots_commit_fraud():
    tr, rep = run(
        with_faults(
            scenario(seed=3),
            {"agent_index": 0, "kind": "wrong_root", "perturb_seed": 2},
            {"agent_index": 1, "kind": "wrong_root", "perturb_seed": 2},
        )
    )
    assert rep.outcome == "SETTLED_FRAUDULENT"
    assert rep.on_chain_tx_count == 1
    assert rep.conservation_ok  # fraud shifts allocation, never mints money


def test_colluders_with_different_perturbations_disagree():
    tr, rep = run(
        with_faults(
            scenario(seed=3),
            {"agent_index": 0, "kind": "wrong_root", "perturb_seed": 1},
            {"agent_index": 1, "kind": "wrong_root", "perturb_seed": 2},
        )
    )
    assert rep.outcome in ("SETTLED_CORRECT", "ABORTED")


def test_wrong_roots_whose_seeds_agree_mod_k_clear_the_same_root():
    # funded_ledger seals k = 3 in-window fundings: seeds 1 and 4 both bump
    # the second, seed 2 the third, and the honest agent none.
    agents = make_world(n=4)[0]
    world = [
        apply_fault(a, FaultSpec(a.index, FAULT_WRONG_ROOT, perturb_seed=seed))
        for a, seed in zip(agents, (1, 4, 2))
    ] + agents[3:]
    exchange_attestations(world)
    deliver_ledger(world, funded_ledger())
    roots = [a.root for a in world]
    assert roots[0] == roots[1]
    assert len(set(roots[1:])) == 3


def test_every_fault_holds_only_its_agent_and_spec(monkeypatch):
    wrappers = []

    def recording(agent, fault):
        wrappers.append(apply_fault(agent, fault))
        return wrappers[-1]

    monkeypatch.setattr(netsim, "apply_fault", recording)
    faults = [
        {"agent_index": i, "kind": kind, **({"at_time": 12} if kind == FAULT_CRASH else {})}
        for i, kind in enumerate(FAULT_KINDS)
    ]
    run(with_faults(scenario(seed=3, agents=7, threshold=2), *faults))
    assert [w.spec.kind for w in wrappers] == list(FAULT_KINDS)
    for w in wrappers:
        assert vars(w).keys() == {"inner", "spec"}, type(w).__name__


def test_equivocator_shows_different_roots_per_recipient():
    tr, rep = run(with_faults(scenario(seed=3), {"agent_index": 0, "kind": "equivocate"}))
    assert rep.outcome in ("SETTLED_CORRECT", "ABORTED")
    by_round = {}
    for ev in events(tr, "peer_send"):
        if ev["from"] == 0 and ev["msg"]["type"] == "propose":
            by_round.setdefault(ev["msg"]["round"], {})[ev["to"]] = ev["msg"]["root"]
    for roots in by_round.values():
        if len(roots) == 2:
            (a, b) = roots.values()
            assert a != b


def test_bad_attestation_shrinks_every_roster():
    tr, rep = run(with_faults(scenario(seed=3), {"agent_index": 2, "kind": "bad_attestation"}))
    assert rep.outcome == "SETTLED_CORRECT"
    rosters = [
        ev for ev in tr.iter_events() if ev.get("event") == "roster"
    ]
    honest = [ev for ev in rosters if ev["agent"] != 2]
    assert honest and all(ev["detail"]["excluded"] == [2] for ev in honest)
    aborts = [
        ev
        for ev in tr.iter_events()
        if ev.get("event") == "abort" and ev.get("agent") == 2
    ]
    assert aborts and aborts[0]["detail"]["reason"] == "attestation_rejected"


@pytest.mark.golden_matrix
def test_each_agent_takes_a_sealed_block_in_one_call(monkeypatch):
    # a chain watcher reads whole blocks: over 1,200 bidders on five heights,
    # each agent's funding handler runs once per sealed height that holds
    # fundings, and the seal and settlement handler never gets a funding
    calls, fed, kinds = Counter(), Counter(), set()
    on_fundings, on_ledger_event = Agent.on_fundings, Agent.on_ledger_event

    def counting_fundings(self, ev, now):
        calls[(self.index, ev.height)] += 1
        fed[self.index] += len(ev.payload)
        return on_fundings(self, ev, now)

    def recording_kinds(self, ev, now):
        kinds.add(ev.kind)
        return on_ledger_event(self, ev, now)

    monkeypatch.setattr(Agent, "on_fundings", counting_fundings)
    monkeypatch.setattr(Agent, "on_ledger_event", recording_kinds)
    tr, rep = run(scenario(seed=11, bidders=1200, items=800))
    assert rep.outcome == "SETTLED_CORRECT"
    heights = {json.loads(line)["h"] for line in tr.lines if '"funding_received"' in line}
    assert len(heights) == 5
    assert calls == Counter({(i, h): 1 for i in range(3) for h in heights})
    assert fed == Counter({i: 1200 for i in range(3)})
    assert kinds == {BLOCK_SEALED, SETTLEMENT_EXECUTED}


def late_scenario(*faults):
    """Eleven fundings on heights 1-7 of a window that ends at 5: three land
    in one block past the window and two in the next."""
    data = scenario(delay=(2, 3))
    data["bidders"] = {
        "explicit": [
            {"address": f"{i:02x}" * 20, "amount": 100 + 37 * i, "height": height}
            for i, height in enumerate([1, 2, 3, 4, 5, 5, 6, 6, 6, 7, 7], start=1)
        ]
    }
    return with_faults(data, *faults)


# the fault on agent 1 for each kind; a crash at 6 lets it clear at the
# window-end seal (time 5) and takes it down before the first late block
LATE_FAULTS = {
    FAULT_CRASH: {"at_time": 6},
    FAULT_WRONG_ROOT: {"perturb_seed": 5},  # the sixth in-window funding: the end block's last
}


@pytest.mark.golden_matrix
@pytest.mark.parametrize("kind", (None,) + FAULT_KINDS)
def test_each_late_funding_line_is_followed_by_each_live_agents_refresh(kind):
    # a block reaches an agent in one call, yet its transcript reads as if
    # each funding were its own event: funding k's line, then one refresh per
    # live agent in agent order. An agent crashed before a block, or aborted
    # on its attestation, gets nothing from it.
    fault = {"agent_index": 1, "kind": kind, **LATE_FAULTS.get(kind, {})}
    tr, rep = run(late_scenario(*([fault] if kind else [])))
    assert rep.outcome in ("SETTLED_CORRECT", "ABORTED", "STUCK")
    live = [0, 2] if kind in (FAULT_CRASH, "bad_attestation") else [0, 1, 2]
    lines = [json.loads(line) for line in tr.lines]
    end = lines.index({"h": 5, "i": 2, "kind": "block_sealed", "tx_count": 2})
    late = [k for k in range(end, len(lines)) if lines[k].get("kind") == "funding_received"]
    assert [lines[k]["h"] for k in late] == [6, 6, 6, 7, 7]
    for k in late:
        follow = lines[k + 1:k + 2 + len(live)]
        assert [(ev.get("event"), ev.get("agent")) for ev in follow] == [
            *(("refresh", i) for i in live), (None, None)
        ]
        assert all(ev["detail"]["height"] == lines[k]["h"] for ev in follow[:-1])


@pytest.mark.golden_matrix
def test_a_wrong_root_victim_can_sit_in_the_window_end_block():
    # the end block's fundings are in the view when its seal arrives, so the
    # fault's victim can be one of them: perturb_seed 5 bumps the sixth of
    # six in-window fundings, which landed in the window-end block
    tr, _ = run(late_scenario({"agent_index": 1, "kind": FAULT_WRONG_ROOT, "perturb_seed": 5}))
    lines = [json.loads(line) for line in tr.lines]
    view = [
        Contribution(
            bytes.fromhex(ev["sender"]), int(ev["amount"]), ev["h"], bytes.fromhex(ev["tx_id"])
        )
        for ev in lines if ev.get("kind") == "funding_received" and ev["h"] <= 5
    ]
    assert len(view) == 6 and view[5].block_height == 5
    bumped = view[:5] + [view[5]._replace(amount=view[5].amount + 1)]
    cfg = auction.AuctionConfig(4, FundingWindow(1, 5), derive_auction_id(7))
    roots = {
        ev["agent"]: ev["detail"]["root"] for ev in lines
        if ev.get("event") == "phase" and "root" in ev["detail"]
    }
    assert roots[0] == roots[2] == fresh_clear(cfg, view)[2].hex()
    assert roots[1] == fresh_clear(cfg, bumped)[2].hex()


def test_partitioned_proposer_is_routed_around():
    data = scenario(seed=3, r_max=4, max_time=300)
    data["net"]["partitions"] = [
        {"from_time": 0, "to_time": 300, "side_a": [0], "side_b": [1, 2]}
    ]
    tr, rep = run(data)
    assert rep.outcome == "SETTLED_CORRECT"
    assert rep.rounds_used >= 2
    for ev in events(tr, "peer_drop"):
        if ev["cause"] == "partition":
            assert 0 in (ev["from"], ev["to"])


def test_partition_window_is_half_open():
    # partition covers [0, 6): messages sent at t >= 6 flow again
    data = scenario(seed=3, r_max=4, max_time=300)
    data["net"]["partitions"] = [
        {"from_time": 0, "to_time": 6, "side_a": [0], "side_b": [1, 2]}
    ]
    tr, rep = run(data)
    assert rep.outcome == "SETTLED_CORRECT"
    for ev in events(tr, "peer_drop"):
        if ev["cause"] == "partition":
            assert ev["t"] < 6


def test_seed_sweep_settles_identically():
    digests = set()
    outcomes = set()
    for net_seed in range(50):
        data = scenario(seed=9, bidders=8, items=3)
        data["net"]["seed"] = net_seed
        tr, rep = run(data)
        outcomes.add(rep.outcome)
        digests.add(rep.executed["digest"])
    assert outcomes == {"SETTLED_CORRECT"}
    assert len(digests) == 1


def test_max_time_cuts_the_run_short():
    data = scenario(seed=3, max_time=3)
    tr, rep = run(data)
    assert rep.max_time_exceeded is True
    assert rep.outcome == "STUCK"
    assert any(ev.get("event") == "max_time_exceeded" for ev in tr.iter_events())


def test_the_submit_line_reuses_the_digest_the_proposer_signed(monkeypatch):
    # the ledger encodes the submitted tx once; the submit line does not again
    callers = []
    encode = wallet.encode_settlement

    def recording_encode(tx):
        callers.append(sys._getframe(2).f_code.co_name)  # settlement_digest's caller
        return encode(tx)

    monkeypatch.setattr(wallet, "encode_settlement", recording_encode)
    tr, rep = run(scenario())
    assert rep.outcome == "SETTLED_CORRECT"
    assert "execute_settlement" in callers and "_submit" not in callers
    submits = events(tr, "submit")
    assert submits and {ev["digest"] for ev in submits} == {rep.executed["digest"]}


def _submit_twice(m_sign):
    """Submit one settlement twice through a Simulation; returns the receipt
    after each submit and the transcript lines."""
    led, tx, sigs = settle_simple(m_sign)
    tr = Transcript({"schema_version": 1})
    sim = Simulation(
        ledger=led,
        agents=[],
        submissions={},
        last_height=0,
        net=NetConfig(),
        max_time=50,
        transcript=tr,
    )
    act = SubmitSettlement(tx=tx, digest=wallet.settlement_digest(tx), shares=tuple(sigs))
    receipts = []
    for t in (5, 6):
        sim._submit(0, act, t)
        receipts.append(led.receipt)
    return receipts, [json.loads(line) for line in tr.lines]


def _submit_line(t, digest, shares):
    return {"agent": 0, "digest": digest, "event": "submit", "shares": shares, "t": t}


def test_a_submit_after_the_settlement_is_logged_as_rejected():
    (first, second), lines = _submit_twice(m_sign=2)
    assert first is not None and second is first
    digest = first.digest.hex()
    assert lines == [
        _submit_line(5, digest, [0, 1]),
        _submit_line(6, digest, [0, 1]),
        {"agent": 0, "error": "AlreadySettled", "event": "submit_rejected", "t": 6},
    ]


def test_a_below_threshold_submit_is_logged_as_rejected():
    receipts, lines = _submit_twice(m_sign=1)
    assert receipts == [None, None]
    digest = lines[0]["digest"]
    assert lines == [
        _submit_line(5, digest, [0]),
        {"agent": 0, "error": "BadSignatureBundle", "event": "submit_rejected", "t": 5},
        _submit_line(6, digest, [0]),
        {"agent": 0, "error": "BadSignatureBundle", "event": "submit_rejected", "t": 6},
    ]


def test_an_overdrawing_submit_is_logged_as_rejected():
    # a quorum signed refunds beyond the balance: the ledger refuses the
    # bundle before it changes anything, and the run goes on
    keys, policy = make_policy()
    led = Ledger(policy)
    led.submit_funding(A, 5, 0)
    led.seal_block()
    tx = auction.SettlementTx(b"\x01" * 32, (A,), (), ((B, 6),))
    tr = Transcript({"schema_version": 1})
    sim = Simulation(
        ledger=led, agents=[], submissions={}, last_height=0, net=NetConfig(),
        max_time=50, transcript=tr,
    )
    digest = wallet.settlement_digest(tx)
    act = SubmitSettlement(tx=tx, digest=digest, shares=tuple(sign_tx(tx, keys, range(2))))
    sim._exec(0, [act], 5)
    assert led.receipt is None and led.balance == 5
    assert [json.loads(line) for line in tr.lines] == [
        _submit_line(5, digest.hex(), [0, 1]),
        {"agent": 0, "error": "InsufficientBalance", "event": "submit_rejected", "t": 5},
    ]
