"""Scenario parsing, oracle classification, reports, transcript verification."""

import copy
import gc
import json
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_corpus import load_pins
from test_golden import GOLDEN

from swarmsim import auction, cli, commitment, harness, scenario, wallet
from swarmsim.harness import (
    SchemaMismatch,
    _build_report,
    oracle_from_contributions,
    run_scenario,
    run_scenario_dict,
    verify_transcript,
)
from swarmsim.ledger import (
    BLOCK_FUNDINGS,
    SETTLEMENT_EXECUTED,
    FundingWindow,
    HeightInPast,
    Ledger,
    LedgerEvent,
    SettlementReceipt,
)
from swarmsim.netsim import FAULT_KINDS, NetConfig, Simulation
from swarmsim.scenario import (
    InvalidFlags,
    InvalidScenario,
    agent_signing_key,
    bidder_address,
    build_scenario_dict,
    derive_auction_id,
    parse_scenario,
)
from swarmsim.transcript import Transcript, canonical_json
from swarmsim.wallet import MultisigPolicy

# frozen regression values for the stock scenario (seed 7, 12 bidders,
# 4 items, 3 agents, threshold 2); any drift in population derivation,
# clearing, wire encoding, or transcript layout shows up here; the
# transcript hash is the `default` golden's pin in tests/corpus.json
GOLDEN_PRICE = "488"
GOLDEN_DIGEST = "efa3af70ce8d0b94e600013ce4193fd96b0ab5e92a601429f9a0b1d3f81e67d2"
GOLDEN_TRANSCRIPT_HASH = load_pins()["golden"]["default"]["body_sha256"]


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return path


def test_default_scenario_settles_like_the_oracle():
    tr, rep = run_scenario_dict(build_scenario_dict())
    assert rep.outcome == "SETTLED_CORRECT"
    assert rep.on_chain_tx_count == 1
    assert rep.conservation_ok
    assert rep.oracle["clearing_price"] == GOLDEN_PRICE
    assert rep.executed["digest"] == GOLDEN_DIGEST
    assert rep.transcript_hash == GOLDEN_TRANSCRIPT_HASH


def test_threshold_above_agent_count_invalid():
    data = build_scenario_dict()
    data["agents"]["m"] = 4
    with pytest.raises(InvalidScenario) as err:
        parse_scenario(data, b"")
    assert any("m" in p for p in err.value.problems)


def test_diagnostics_are_collected_not_first_only():
    data = build_scenario_dict()
    data["agents"]["m"] = 9
    data["auction"]["n_items"] = 0
    data["max_time"] = 0
    with pytest.raises(InvalidScenario) as err:
        parse_scenario(data, b"")
    assert len(err.value.problems) >= 3


def test_unknown_top_level_field_rejected():
    data = build_scenario_dict()
    data["extra"] = 1
    with pytest.raises(InvalidScenario):
        parse_scenario(data, b"")


def test_bidders_requires_exactly_one_source():
    data = build_scenario_dict()
    data["bidders"] = {
        "explicit": [],
        "generator": {"count": 1, "distribution": {"kind": "uniform", "lo": 1, "hi": 2}},
    }
    with pytest.raises(InvalidScenario):
        parse_scenario(data, b"")


def test_explicit_bidder_validation():
    data = build_scenario_dict()
    data["bidders"] = {
        "explicit": [
            {"address": "zz", "amount": 5, "height": 1},
            {"address": "aa" * 20, "amount": 0, "height": 1},
            {"address": "aa" * 20, "amount": 5, "height": 99},
        ]
    }
    with pytest.raises(InvalidScenario) as err:
        parse_scenario(data, b"")
    assert len(err.value.problems) == 3


def test_funding_heights_capped_by_delivery_floor():
    data = build_scenario_dict()
    # window ends at 5, delay_min 1: height 6 is the last admissible
    data["bidders"] = {
        "explicit": [{"address": "aa" * 20, "amount": 5, "height": 6}]
    }
    sc = parse_scenario(data, b"")
    assert sc.bidders[0].height == 6
    data["bidders"]["explicit"][0]["height"] = 7
    with pytest.raises(InvalidScenario):
        parse_scenario(data, b"")


def test_amounts_accept_decimal_strings():
    data = build_scenario_dict()
    data["bidders"] = {
        "explicit": [{"address": "aa" * 20, "amount": str(1 << 80), "height": 1}]
    }
    sc = parse_scenario(data, b"")
    assert sc.bidders[0].amount == 1 << 80


def test_generated_population_is_a_pure_function_of_seed():
    a = parse_scenario(build_scenario_dict(seed=13), b"")
    b = parse_scenario(build_scenario_dict(seed=13), b"")
    c = parse_scenario(build_scenario_dict(seed=14), b"")
    assert a.bidders == b.bidders
    assert a.bidders != c.bidders
    assert all(len(e.address) == 20 for e in a.bidders)
    assert all(a.window.contains(e.height) for e in a.bidders)


def test_pareto_amounts_at_least_scale_floor():
    data = build_scenario_dict(dist="pareto:50,1.2", bidders=40)
    sc = parse_scenario(data, b"")
    assert all(e.amount >= 50 for e in sc.bidders)


def test_key_derivations_are_stable():
    assert agent_signing_key(7, 0) == agent_signing_key(7, 0)
    assert agent_signing_key(7, 0) != agent_signing_key(7, 1)
    assert bidder_address(7, 3) == bidder_address(7, 3)
    assert len(bidder_address(7, 3)) == 20
    assert len(derive_auction_id(7)) == 32


def test_oracle_handles_aggregation_and_window_edges():
    window = FundingWindow(1, 2)
    a, b = b"\xaa" * 20, b"\xbb" * 20
    contribs = [
        (a, 5, 0, b"\x00" * 32),  # early: refunded in full
        (a, 3, 1, b"\x01" * 32),
        (b, 4, 1, b"\x02" * 32),
        (a, 4, 2, b"\x03" * 32),  # A totals 7 in-window
        (b, 9, 3, b"\x04" * 32),  # late: refunded in full
    ]
    tx, price = oracle_from_contributions(b"\x05" * 32, 1, window, contribs)
    assert price == 7
    assert tx.mints == (a,)
    assert tx.partial_refunds == ()
    assert tx.full_refunds == ((b, 4), (a, 5), (b, 9))


def test_oracle_matches_engine_on_random_instances():
    import random

    rng = random.Random(1234)
    window = FundingWindow(1, 4)
    for trial in range(100):
        n_items = rng.randint(1, 8)
        contribs = []
        for i in range(rng.randint(0, 40)):
            sender = bytes([rng.randint(1, 12)]) * 20
            amount = rng.randint(1, 30)
            height = rng.randint(0, 5)
            contribs.append((sender, amount, height, rng.randbytes(32)))
        oracle_tx, _ = oracle_from_contributions(b"\x06" * 32, n_items, window, contribs)

        from swarmsim.ledger import Contribution

        cfg = auction.AuctionConfig(
            n_items=n_items, window=window, auction_id=b"\x06" * 32
        )
        ledger_view = [
            Contribution(sender=s, amount=a, block_height=h, tx_id=t)
            for s, a, h, t in contribs
        ]
        bids, late = auction.aggregate(ledger_view, window)
        engine_tx = auction.build_settlement(
            cfg, *auction.compute_clearing(cfg, auction.canonical_sort(bids)), late
        )
        assert auction.encode_settlement(engine_tx) == auction.encode_settlement(
            oracle_tx
        )


def test_run_scenario_reads_files(tmp_path):
    path = write_scenario(tmp_path, build_scenario_dict(seed=21))
    tr, rep = run_scenario(path.as_posix())
    assert rep.outcome == "SETTLED_CORRECT"
    header = json.loads(tr.text().splitlines()[0])
    assert header["seed"] == 21


def test_verify_round_trip(tmp_path):
    spath = write_scenario(tmp_path, build_scenario_dict(seed=21))
    tr, rep = run_scenario(spath.as_posix())
    tpath = tmp_path / "t.jsonl"
    tr.write(tpath.as_posix())
    result = verify_transcript(tpath.as_posix(), spath.as_posix())
    assert result.accepted and result.outcome == "SETTLED_CORRECT"


def swarm_shaped():
    """Seven agents, m=5, one wrong_root and one equivocating proposer."""
    return build_scenario_dict(
        agents=7, threshold=5, faults=("0:wrong_root:3", "1:equivocate"),
        drop_rate=0.1, r_max=6,
    )


@pytest.fixture
def primitive_checks(monkeypatch):
    """Every (key, digest, sig) that reaches the Ed25519 verify primitive."""
    seen = []
    real = wallet.Ed25519PublicKey

    class Recording:
        def __init__(self, key):
            self.key, self.inner = key, real.from_public_bytes(key)

        @classmethod
        def from_public_bytes(cls, key):
            return cls(key)

        def verify(self, sig, digest):
            seen.append((self.key, digest, sig))
            self.inner.verify(sig, digest)

    monkeypatch.setattr(wallet, "Ed25519PublicKey", Recording)
    return seen


def test_a_run_checks_each_distinct_signature_once(primitive_checks):
    _, rep = run_scenario_dict(swarm_shaped())
    assert rep.outcome == "SETTLED_CORRECT"
    assert primitive_checks
    assert len(set(primitive_checks)) == len(primitive_checks)


def test_no_checked_signature_outlives_its_run(tmp_path, primitive_checks):
    # verify replays the run in the same process; a memo that outlived the
    # run would answer the replay's checks without the primitive
    spath = write_scenario(tmp_path, swarm_shaped())
    tr, _ = run_scenario(spath.as_posix())
    ran = list(primitive_checks)
    assert ran
    tpath = tmp_path / "t.jsonl"
    tr.write(tpath.as_posix())
    primitive_checks.clear()
    assert verify_transcript(tpath.as_posix(), spath.as_posix()).accepted
    assert primitive_checks == ran


def test_no_aggregated_bid_outlives_the_simulation(monkeypatch):
    # each agent keeps the clearing price and the bid count, not the bid list
    def live_bids():
        gc.collect()
        return sum(isinstance(o, auction.AggregatedBid) for o in gc.get_objects())

    counts = []
    run = Simulation.run

    def counting_run(self):
        run(self)
        counts.append(live_bids())

    monkeypatch.setattr(Simulation, "run", counting_run)
    before = live_bids()
    _, rep = run_scenario_dict(build_scenario_dict(seed=21, bidders=60, items=20))
    assert rep.outcome == "SETTLED_CORRECT"
    assert counts == [before]


def test_the_ledger_holds_no_event_after_the_simulation(monkeypatch):
    # the driver drains the ledger's log as it delivers each event
    held = []
    run = Simulation.run

    def counting_run(self):
        run(self)
        held.append(len(self.ledger.events))

    monkeypatch.setattr(Simulation, "run", counting_run)
    tr, rep = run_scenario_dict(build_scenario_dict(seed=21, bidders=60, items=20))
    assert rep.outcome == "SETTLED_CORRECT"
    assert sum('"kind":"settlement_executed"' in line for line in tr.lines) == 1
    assert held == [0]


@pytest.mark.golden_matrix
def test_write_streams_the_transcript(tmp_path):
    # the file is written from the held pieces, never joined into one string
    tr, _ = run_scenario_dict(build_scenario_dict(seed=21, bidders=20000, items=13333))
    path = tmp_path / "t.jsonl"
    body = sum(len(line) + 1 for line in tr.lines)
    tracemalloc.start()
    try:
        tr.write(path.as_posix())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = "".join(line + "\n" for line in [canonical_json(tr.header), *tr.lines])
    assert path.read_bytes() == expected.encode("utf-8")
    assert peak <= 0.75 * body


def streamed_run():
    """The default scenario, its body streamed to a list; the transcript keeps
    none. Reading it back here would raise the error the callers expect."""
    streamed = []
    tr, _ = run_scenario_dict(build_scenario_dict(), consume=streamed.append)
    assert len(streamed) > 10
    return tr


def test_a_consumer_gets_the_header_line_then_every_body_line():
    held, held_report = run_scenario_dict(build_scenario_dict())
    got = []
    _, report = run_scenario_dict(build_scenario_dict(), consume=got.append)
    # each line with its "\n" in one call, but the settlement line, which
    # arrives in pieces and then its "\n"
    settled = next(n for n, line in enumerate(held.lines) if '"settlement_executed"' in line)
    whole = [canonical_json(held.header), *held.lines]
    pieces = len(got) - len(whole) + 1
    assert pieces > 2
    assert got[: settled + 1] == [line + "\n" for line in whole[: settled + 1]]
    assert "".join(got[settled + 1 : settled + 1 + pieces]) == whole[settled + 1] + "\n"
    assert got[settled + pieces] == "\n"
    assert got[settled + 1 + pieces :] == [line + "\n" for line in whole[settled + 2 :]]
    assert report.transcript_hash == held_report.transcript_hash


@pytest.mark.parametrize("read", [
    lambda tr, path: tr.lines,
    lambda tr, path: tr.text(),
    lambda tr, path: tr.write(path.as_posix()),
    lambda tr, path: next(tr.iter_events()),
], ids=["lines", "text", "write", "iter_events"])
def test_a_streamed_transcript_refuses_to_read_its_body(tmp_path, read):
    tr = streamed_run()
    path = tmp_path / "t.jsonl"
    with pytest.raises(ValueError, match="streamed"):
        read(tr, path)
    assert not path.exists()


def test_verify_holds_little_more_than_the_run_it_replays(tmp_path):
    # verify compares stored lines as it reads them, so its peak is the
    # replay's; holding every stored line would add about a transcript
    spath = write_scenario(tmp_path, build_scenario_dict(seed=21, bidders=5000, items=3333))
    tpath = (tmp_path / "t.jsonl").as_posix()
    tracemalloc.start()
    try:
        tr, _ = run_scenario(spath.as_posix())
        run_peak = tracemalloc.get_traced_memory()[1]
        tr.write(tpath)
        del tr
        tracemalloc.reset_peak()
        assert verify_transcript(tpath, spath.as_posix()).accepted
        verify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verify_peak <= 1.08 * run_peak


@pytest.mark.golden_matrix
def test_the_settlement_line_is_written_in_three_times_its_length():
    # the line's arrays are encoded a slice at a time, never held as lists
    # of hex strings and pairs (6.5 times this line when they were)
    def address(n):
        return n.to_bytes(20, "big")

    tx = auction.SettlementTx(
        auction_id=bytes(32),
        mints=tuple(address(n) for n in range(14_000)),
        partial_refunds=tuple((address(n), 2**100 + n) for n in range(2_000)),
        full_refunds=tuple((address(20_000 + n), 3**60 + n) for n in range(6_000)),
    )
    receipt = SettlementReceipt(bytes(32), 1, 2, 3, tx)
    ledger = Ledger(MultisigPolicy(agent_keys=(bytes(32),), m=1))  # never settles
    ledger.events.append(LedgerEvent(SETTLEMENT_EXECUTED, 7, 0, receipt))
    tr = Transcript({})
    sim = Simulation(
        ledger=ledger, agents=[], submissions={}, last_height=0, net=NetConfig(),
        max_time=0, transcript=tr,
    )
    tracemalloc.start()
    try:
        sim._pump_ledger(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (line,) = tr.lines
    assert len(json.loads(line)["full_refunds"]) == 6_000
    assert peak <= 3 * len(line)


def large_scenario():
    """20,000 pareto bidders, two thirds of them winners: a settlement line of
    about 1.6 MB."""
    return build_scenario_dict(seed=1, bidders=20_000, items=13_333, dist="pareto:1000,1.5")


def traced_peak(fn):
    """The tracemalloc peak of `fn()`, counted from the call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.golden_matrix
def test_the_oracle_peaks_no_higher_than_one_agents_clearing():
    # the oracle derives its own tx ids and ranks, yet holds no more than an
    # agent that clears over contributions the ledger already made
    data = large_scenario()
    sc = parse_scenario(data, canonical_json(data).encode("utf-8"))
    ledger = Ledger(MultisigPolicy(agent_keys=(bytes(32),), m=1))  # never settles
    for b in sorted(sc.bidders, key=lambda entry: entry.height):
        ledger.submit_funding(b.address, b.amount, b.height)
    while ledger.next_height <= sc.window.end_height:
        ledger.seal_block()
    contribs = [tx for ev in ledger.events if ev.kind == BLOCK_FUNDINGS for tx in ev.payload]
    cfg = auction.AuctionConfig(sc.n_items, sc.window, derive_auction_id(sc.seed))

    def clear():
        bids, late = auction.aggregate(contribs, sc.window)
        ranked, price = auction.compute_clearing(cfg, bids)
        commitment.bid_list_root(ranked)
        return auction.hash_settlement(auction.build_settlement(cfg, ranked, price, late))

    oracle_tx, _ = harness.oracle_settlement(sc)
    assert wallet.settlement_digest(oracle_tx) == clear()[0]
    assert traced_peak(lambda: harness.oracle_settlement(sc)) <= traced_peak(clear)


@pytest.mark.golden_matrix
def test_a_streamed_run_hands_on_the_settlement_line_in_bounded_pieces():
    held, held_report = run_scenario_dict(large_scenario())
    pieces = []
    _, report = run_scenario_dict(large_scenario(), consume=pieces.append)
    assert max(len(line) for line in held.lines) > 1_000_000
    assert max(len(piece) for piece in pieces) <= 256 * 1024
    assert "".join(pieces) == held.text()
    assert report.transcript_hash == held_report.transcript_hash


@pytest.mark.golden_matrix
def test_a_run_frees_its_ledger_before_the_oracle(monkeypatch):
    # the oracle's transients reuse the simulation's memory instead of
    # stacking on it; freed by reference counts, as with the collector paused
    refs = []
    alive_at_oracle = []
    oracle = harness.oracle_settlement

    class TrackedLedger(Ledger):
        def __init__(self, policy):
            super().__init__(policy)
            refs.append(weakref.ref(self))

    def checking_oracle(sc):
        alive_at_oracle.append([ref() is not None for ref in refs])
        return oracle(sc)

    monkeypatch.setattr(harness, "Ledger", TrackedLedger)
    monkeypatch.setattr(harness, "oracle_settlement", checking_oracle)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _, report = run_scenario_dict(build_scenario_dict())
    finally:
        if was_enabled:
            gc.enable()
    assert report.outcome == "SETTLED_CORRECT"
    assert alive_at_oracle == [[False]]


class _Document(dict):
    """A scenario document that a weak reference can watch."""


@pytest.mark.golden_matrix
@pytest.mark.parametrize("command", ["cli_run", "run_scenario", "verify_transcript"])
def test_no_command_holds_the_scenario_document_while_it_simulates(tmp_path, monkeypatch, command):
    # the parsed document is dead once the Scenario is built, so `run` and
    # `verify` hold one copy of the input; freed by reference counts, as
    # with the collector paused
    data = build_scenario_dict(seed=5)
    data["bidders"] = {
        "explicit": [
            {"address": bidder_address(5, i).hex(), "amount": str(100 + i), "height": 1 + i % 5}
            for i in range(40)
        ]
    }
    spath = write_scenario(tmp_path, data).as_posix()
    tpath = (tmp_path / "t.jsonl").as_posix()
    assert cli.main(["run", spath, "--transcript", tpath]) == 0
    documents = []
    alive_at_run = []
    load = scenario.load_scenario

    def tracked_load(path):
        loaded, raw = load(path)
        document = _Document(loaded)
        documents.append(weakref.ref(document))
        return document, raw

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "swarmsim" and getattr(module, "load_scenario", None) is load:
            monkeypatch.setattr(module, "load_scenario", tracked_load)
    sim_run = Simulation.run

    def checking_run(self):
        alive_at_run.append([ref() is not None for ref in documents])
        sim_run(self)

    monkeypatch.setattr(Simulation, "run", checking_run)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if command == "cli_run":
            assert cli.main(["run", spath]) == 0
        elif command == "run_scenario":
            assert run_scenario(spath)[1].outcome == "SETTLED_CORRECT"
        else:
            assert verify_transcript(tpath, spath).accepted
    finally:
        if was_enabled:
            gc.enable()
    assert alive_at_run == [[False]]


def test_verify_rejects_edited_line(tmp_path):
    spath = write_scenario(tmp_path, build_scenario_dict(seed=21))
    tr, _ = run_scenario(spath.as_posix())
    lines = tr.text().splitlines()
    victim = next(i for i, ln in enumerate(lines) if '"kind":"funding_received"' in ln)
    lines[victim] = lines[victim].replace('"amount":"', '"amount":"9', 1)
    tpath = tmp_path / "t.jsonl"
    tpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = verify_transcript(tpath.as_posix(), spath.as_posix())
    assert not result.accepted
    assert result.reason == "divergence"
    assert result.line_number == victim + 1
    assert result.got != result.expected


def test_verify_stops_the_replay_at_the_first_divergence(tmp_path, monkeypatch):
    spath = write_scenario(tmp_path, build_scenario_dict(seed=21))
    tr, _ = run_scenario(spath.as_posix())
    tpath = tmp_path / "t.jsonl"
    tr.write(tpath.as_posix())
    calls = []
    aggregate = auction.aggregate

    def counting_aggregate(*args):
        calls.append(1)
        return aggregate(*args)

    oracle_calls = []
    oracle = harness.oracle_settlement

    def counting_oracle(sc):
        oracle_calls.append(1)
        return oracle(sc)

    monkeypatch.setattr(auction, "aggregate", counting_aggregate)
    monkeypatch.setattr(harness, "oracle_settlement", counting_oracle)
    assert verify_transcript(tpath.as_posix(), spath.as_posix()).accepted
    assert len(calls) >= 3  # at least one clearing per agent in a full replay
    assert oracle_calls == [1]

    lines = tr.text().splitlines()
    lines[1] = lines[1].replace("{", '{"x":1,', 1)  # body line 1
    tpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
    calls.clear()
    oracle_calls.clear()
    result = verify_transcript(tpath.as_posix(), spath.as_posix())
    assert (result.reason, result.line_number) == ("divergence", 2)
    assert result.got == lines[1] and result.expected == tr.lines[0]
    assert calls == []
    assert oracle_calls == []


def test_verify_rejects_foreign_scenario(tmp_path):
    spath = write_scenario(tmp_path, build_scenario_dict(seed=21))
    other = write_scenario(tmp_path, build_scenario_dict(seed=22), name="other.json")
    tr, _ = run_scenario(spath.as_posix())
    tpath = tmp_path / "t.jsonl"
    tr.write(tpath.as_posix())
    result = verify_transcript(tpath.as_posix(), other.as_posix())
    assert not result.accepted and result.reason == "scenario_hash_mismatch"


def test_verify_rejects_header_seed_swap(tmp_path):
    spath = write_scenario(tmp_path, build_scenario_dict(seed=21))
    tr, _ = run_scenario(spath.as_posix())
    lines = tr.text().splitlines()
    header = json.loads(lines[0])
    header["seed"] = 22
    from swarmsim.transcript import canonical_json

    lines[0] = canonical_json(header)
    tpath = tmp_path / "t.jsonl"
    tpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = verify_transcript(tpath.as_posix(), spath.as_posix())
    assert not result.accepted and result.reason == "seed_mismatch"


def test_verify_rejects_truncated_transcript(tmp_path):
    spath = write_scenario(tmp_path, build_scenario_dict(seed=21))
    tr, _ = run_scenario(spath.as_posix())
    lines = tr.text().splitlines()
    tpath = tmp_path / "t.jsonl"
    tpath.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    result = verify_transcript(tpath.as_posix(), spath.as_posix())
    assert not result.accepted and result.reason == "divergence"
    assert result.got == "<missing line>"


def test_verify_rejects_a_last_line_without_its_newline(tmp_path):
    # `run` ends every line with "\n"; the cut line's text equals its replay,
    # so the report notes what is missing
    spath = write_scenario(tmp_path, build_scenario_dict(seed=21))
    tr, _ = run_scenario(spath.as_posix())
    tpath = tmp_path / "t.jsonl"
    tpath.write_text(tr.text().removesuffix("\n"), encoding="utf-8")
    result = verify_transcript(tpath.as_posix(), spath.as_posix())
    assert not result.accepted and result.reason == "divergence"
    assert result.line_number == len(tr.lines) + 1
    assert result.expected == tr.lines[-1]
    assert result.got == tr.lines[-1] + "<no final newline>"


def test_verify_rejects_an_extra_line_reading_missing_line(tmp_path):
    spath = write_scenario(tmp_path, build_scenario_dict(seed=21))
    tr, _ = run_scenario(spath.as_posix())
    tpath = tmp_path / "t.jsonl"
    tpath.write_text(tr.text() + "<missing line>\n", encoding="utf-8")
    result = verify_transcript(tpath.as_posix(), spath.as_posix())
    assert not result.accepted and result.reason == "divergence"
    assert result.got == "<missing line>" and result.expected == "<missing line>"
    assert result.line_number == len(tr.lines) + 2


def test_verify_unsupported_schema_raises(tmp_path):
    spath = write_scenario(tmp_path, build_scenario_dict(seed=21))
    tr, _ = run_scenario(spath.as_posix())
    lines = tr.text().splitlines()
    lines[0] = lines[0].replace('"schema_version":1', '"schema_version":2')
    tpath = tmp_path / "t.jsonl"
    tpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        verify_transcript(tpath.as_posix(), spath.as_posix())


def _edit_header(tmp_path, **changes):
    """A stored run of seed 21 whose header has `changes` applied (None deletes)."""
    spath = write_scenario(tmp_path, build_scenario_dict(seed=21))
    tr, _ = run_scenario(spath.as_posix())
    header = dict(tr.header, **changes)
    header = {k: v for k, v in header.items() if v is not None}
    tpath = tmp_path / "t.jsonl"
    tpath.write_text(
        "\n".join([json.dumps(header), *tr.lines]) + "\n", encoding="utf-8"
    )
    return tpath.as_posix(), spath.as_posix()


@pytest.mark.parametrize("changes", [{"prng": "pcg64"}, {"sig_scheme": "rsa"}])
def test_verify_rejects_a_changed_prng_or_sig_scheme(tmp_path, changes):
    result = verify_transcript(*_edit_header(tmp_path, **changes))
    assert not result.accepted and result.reason == "header_mismatch"


def test_verify_header_without_seed_raises(tmp_path):
    with pytest.raises(SchemaMismatch, match="header missing 'seed'"):
        verify_transcript(*_edit_header(tmp_path, seed=None))


def test_build_scenario_dict_validates_flags():
    with pytest.raises(InvalidFlags):
        build_scenario_dict(agents=3, threshold=4)
    with pytest.raises(InvalidFlags):
        build_scenario_dict(dist="normal:1,2")
    with pytest.raises(InvalidFlags):
        build_scenario_dict(faults=("0:crash",))
    with pytest.raises(InvalidFlags):
        build_scenario_dict(faults=("9:silent",))


@pytest.mark.parametrize("kind", ["silent", "equivocate", "bad_attestation"])
def test_fault_flag_argument_only_for_kinds_that_read_one(kind):
    with pytest.raises(InvalidFlags, match=f"{kind} takes no argument"):
        build_scenario_dict(faults=(f"0:{kind}:50",))
    assert build_scenario_dict(faults=(f"0:{kind}",))["agents"]["faults"] == [
        {"agent_index": 0, "kind": kind}
    ]


def test_large_scale_flags_are_valid():
    data = build_scenario_dict(bidders=15000, items=10000, dist="pareto:1000,1.5")
    sc = parse_scenario(data, b"")
    assert len(sc.bidders) == 15000 and sc.n_items == 10000


def test_report_serializes_to_json():
    _, rep = run_scenario_dict(build_scenario_dict())
    blob = json.dumps(rep.to_dict())
    assert json.loads(blob)["outcome"] == "SETTLED_CORRECT"
    assert any("clearing price" in ln for ln in rep.summary_lines())


def scan_transcript(tr):
    """Message counts and exact base-unit conservation, re-derived by parsing
    every transcript line back: the reference for the counts a run tallies."""
    counts = dict.fromkeys(
        ("propose", "ack", "nack", "abort", "delivered", "dropped", "submits"), 0
    )
    inflow = 0
    settlement = None
    for ev in tr.iter_events():
        event = ev.get("event")
        if event == "peer_send":
            counts[ev["msg"]["type"]] += 1
        elif event == "peer_deliver":
            counts["delivered"] += 1
        elif event == "peer_drop":
            counts["dropped"] += 1
        elif event == "submit":
            counts["submits"] += 1
        elif ev.get("kind") == "funding_received":
            inflow += int(ev["amount"])
        elif ev.get("kind") == "settlement_executed":
            settlement = ev
    if settlement is None:
        return counts, True
    outflow = sum(int(a) for _, a in settlement["partial_refunds"]) + sum(
        int(a) for _, a in settlement["full_refunds"]
    )
    return counts, inflow == int(settlement["retained"]) + outflow


def assert_report_equals_a_reparse(data):
    tr, rep = run_scenario_dict(data)
    counts, conservation_ok = scan_transcript(tr)
    assert list(rep.message_counts.items()) == list(counts.items())
    assert rep.conservation_ok == conservation_ok


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_counts_equal_a_reparse_on_the_goldens(name):
    assert_report_equals_a_reparse(GOLDEN[name]())


@st.composite
def small_scenarios(draw):
    n = draw(st.integers(1, 7))
    faults = []
    for i in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=2)):
        kind = draw(st.sampled_from(FAULT_KINDS))
        arg = {"crash": f":{draw(st.integers(0, 20))}",
               "wrong_root": f":{draw(st.integers(0, 3))}"}.get(kind, "")
        faults.append(f"{i}:{kind}{arg}")
    data = build_scenario_dict(
        seed=draw(st.integers(0, 1000)),
        bidders=draw(st.integers(1, 15)),
        items=draw(st.integers(1, 5)),
        agents=n,
        threshold=draw(st.integers(1, n)),
        drop_rate=draw(st.sampled_from([0.0, 0.1, 0.3])),
        delay=(1, draw(st.integers(1, 4))),
        faults=tuple(faults),
        max_time=draw(st.sampled_from([8, 500])),
    )
    if n > 1 and draw(st.booleans()):
        data["net"]["partitions"] = [
            {"from_time": 0, "to_time": draw(st.integers(1, 40)),
             "side_a": [0], "side_b": list(range(1, n))}
        ]
    return data


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=small_scenarios())
def test_report_counts_equal_a_reparse_on_small_scenarios(data):
    assert_report_equals_a_reparse(data)


def test_conservation_fails_when_the_receipt_misses_inflow():
    a, b = b"\xaa" * 20, b"\xbb" * 20
    contribs = [(a, 7, 0, b"\x01" * 32), (b, 3, 0, b"\x02" * 32)]
    tx, price = oracle_from_contributions(b"\x06" * 32, 1, FundingWindow(0, 0), contribs)
    digest = wallet.settlement_digest(tx)
    receipt = SettlementReceipt(
        digest=digest, partial_refund_total=0, full_refund_total=3, retained_balance=7, tx=tx,
    )

    def report(inflow, receipt=receipt):
        return _build_report(
            Transcript({}), "SETTLED_CORRECT", receipt, 0, tx, price, digest,
            {}, inflow, False,
        )

    assert report(10).conservation_ok and report(10).on_chain_tx_count == 1
    assert not report(11).conservation_ok
    assert not report(9).conservation_ok
    unsettled = report(11, receipt=None)  # nothing settled, nothing to conserve
    assert unsettled.conservation_ok and unsettled.on_chain_tx_count == 0


@pytest.mark.xfail(
    raises=HeightInPast,
    strict=True,
    reason="with m=1 the settlement seals the height a late funding is due at",
)
@pytest.mark.parametrize("agents", [1, 3])
def test_a_single_signature_run_with_a_late_funding_ends_classified(agents):
    data = build_scenario_dict(seed=7, agents=agents, threshold=1)
    data["bidders"] = {
        "explicit": [
            {"address": bidder_address(7, i).hex(), "amount": str(100 * (i + 1)), "height": h}
            for i, h in enumerate((1, 2, 3, 6))  # window 1..5, delay_min 1: 6 is the cap
        ]
    }
    _, rep = run_scenario_dict(data)
    assert rep.outcome in harness.EXIT_CODES
    assert rep.conservation_ok
