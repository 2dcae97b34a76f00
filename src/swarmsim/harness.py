"""Judging a run: the runner, the independent settlement oracle, the report
and the transcript verifier.

The runner wires ledger + agents + network for a parsed scenario (see
scenario.py), executes to quiescence, then classifies the outcome against an
oracle that re-derives the expected settlement straight from the scenario
inputs through its own tx-id encoding, aggregation and selection code.
Verification replays a scenario and compares the text of each replayed line
with as many stored characters as it is added, stopping at the first
divergence; the header is line 1, compared through the same path as every
other line, and the settlement line is compared in the pieces it is built
in, so no stored line is read whole.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections.abc import Callable, Iterable
from typing import NamedTuple

from . import netsim, wallet
from .agent import PHASE_ABORTED, Agent, EnclaveMock
from .auction import AuctionConfig, SettlementTx
from .ledger import FundingWindow, Ledger, SettlementReceipt
from .netsim import Simulation
from .scenario import Scenario, agent_signing_key, derive_auction_id, load_scenario, parse_scenario
from .transcript import SCHEMA_VERSION, Transcript, canonical_json, load_lines
from .wallet import MultisigPolicy

OUTCOME_SETTLED_CORRECT = "SETTLED_CORRECT"
OUTCOME_SETTLED_FRAUDULENT = "SETTLED_FRAUDULENT"
OUTCOME_ABORTED = "ABORTED"
OUTCOME_STUCK = "STUCK"

EXIT_CODES = {
    OUTCOME_SETTLED_CORRECT: 0,
    OUTCOME_ABORTED: 2,
    OUTCOME_SETTLED_FRAUDULENT: 3,
    OUTCOME_STUCK: 4,
}


class SchemaMismatch(Exception):
    pass


# -- independent oracle -----------------------------------------------------------


def oracle_settlement(sc: Scenario) -> tuple[SettlementTx, int]:
    """Expected settlement straight from scenario inputs.

    Re-derives tx ids from the documented content+sequence rule with its own
    16-byte amount and 8-byte height/sequence encodings (fundings reach the
    ledger by height, in scenario order within a height), re-groups per
    address with its own dict walk, and picks winners by heap selection
    rather than the engine's comparator sort. Only the SettlementTx wire
    type is shared with the engine.
    """
    # height and sequence as one 16-byte int: the two 8-byte fields side by side
    contribs = (
        (address, amount, height, hashlib.sha256(
            address + amount.to_bytes(16, "big") + (height << 64 | seq).to_bytes(16, "big")
        ).digest())
        for seq, (address, amount, height) in enumerate(
            sorted(sc.bidders, key=lambda entry: entry.height)
        )
    )
    return oracle_from_contributions(
        derive_auction_id(sc.seed), sc.n_items, sc.window, contribs
    )


def oracle_from_contributions(
    auction_id: bytes,
    n_items: int,
    window: FundingWindow,
    contribs: Iterable[tuple[bytes, int, int, bytes]],
) -> tuple[SettlementTx, int]:
    """Contributions are (sender, amount, height, tx_id) in ledger order."""
    # One rank list [-total, first height, first tx id, address] per sender,
    # its total folded in place. Ranks order bids best first, compared as
    # tuples are; addresses are distinct, so no two ranks tie.
    ranks: dict[bytes, list] = {}
    outside: list[tuple[bytes, int]] = []
    lo, hi = window.start_height, window.end_height
    for sender, amount, height, tx_id in contribs:
        if lo <= height <= hi:
            rank = ranks.get(sender)
            if rank is None:
                ranks[sender] = [-amount, height, tx_id, sender]
            else:
                rank[0] -= amount
        else:
            outside.append((sender, amount))
    heap = list(ranks.values())
    del ranks  # not held through the selection
    heapq.heapify(heap)
    winners = [heapq.heappop(heap) for _ in range(min(n_items, len(heap)))]
    price = -winners[-1][0] if winners else 0
    heap.sort()  # the losers

    tx = SettlementTx(
        auction_id=auction_id,
        mints=tuple([rank[3] for rank in winners]),
        partial_refunds=tuple(
            [(rank[3], -rank[0] - price) for rank in winners if -rank[0] > price]
        ),
        full_refunds=tuple([(rank[3], -rank[0]) for rank in heap] + outside),
    )
    return tx, price


# -- run + classify -----------------------------------------------------------------


class RunReport(NamedTuple):
    outcome: str
    oracle: dict
    executed: dict | None
    message_counts: dict
    rounds_used: int
    on_chain_tx_count: int
    transcript_hash: str
    max_time_exceeded: bool
    conservation_ok: bool

    def to_dict(self) -> dict:
        return self._asdict()

    def summary_lines(self) -> list[str]:
        mc = self.message_counts
        lines = [
            f"outcome: {self.outcome}",
            (
                f"oracle: clearing price {self.oracle['clearing_price']}, "
                f"{self.oracle['winner_count']} winners, "
                f"refunds partial {self.oracle['partial_refund_total']} "
                f"/ full {self.oracle['full_refund_total']}"
            ),
        ]
        if self.executed:
            lines.append(
                f"executed: digest {self.executed['digest'][:16]}..., "
                f"{self.executed['mint_count']} mints, retained {self.executed['retained']}"
            )
        lines.append(
            f"messages: propose {mc['propose']}, ack {mc['ack']}, nack {mc['nack']}, "
            f"abort {mc['abort']} (delivered {mc['delivered']}, dropped {mc['dropped']})"
        )
        lines.append(
            f"rounds used: {self.rounds_used}; settlements on chain: {self.on_chain_tx_count}"
        )
        lines.append(f"transcript hash: {self.transcript_hash}")
        if self.max_time_exceeded:
            lines.append("warning: max_time exceeded before quiescence")
        return lines


def run_scenario_dict(
    data: dict, raw: bytes | None = None, consume: Callable[[str], None] | None = None
) -> tuple[Transcript, RunReport]:
    """Run and classify. Without `consume` the returned transcript keeps its
    body lines; with it, the transcript's text goes to `consume` as it is
    made, the header line first (see `Transcript`)."""
    if raw is None:
        raw = canonical_json(data).encode("utf-8")
    sc = parse_scenario(data, raw)
    del data, raw  # freed before the run, unless the caller holds it
    return _run(sc, consume)


def run_scenario(path: str) -> tuple[Transcript, RunReport]:
    # the loaded pair dies when parse_scenario returns, before the run
    return _run(parse_scenario(*load_scenario(path)))


def _run(
    sc: Scenario, consume: Callable[[str], None] | None = None
) -> tuple[Transcript, RunReport]:
    """Execute to quiescence, classify, and report."""
    enclaves = [EnclaveMock(agent_signing_key(sc.seed, i)) for i in range(sc.n)]
    # One policy per run: the ledger and every agent share its memo of checked
    # signatures, and the memo ends with the run.
    policy = MultisigPolicy(agent_keys=tuple(e.verifying_key for e in enclaves), m=sc.m)
    ledger = Ledger(policy)
    cfg = AuctionConfig(
        n_items=sc.n_items, window=sc.window, auction_id=derive_auction_id(sc.seed)
    )
    agents: list = [
        Agent(
            index=i,
            enclave=enclaves[i],
            policy=policy,
            auction_cfg=cfg,
            rounds=sc.rounds,
            expected_measurement=sc.expected_measurement,
        )
        for i in range(sc.n)
    ]
    for f in sc.faults:
        agents[f.agent_index] = netsim.apply_fault(agents[f.agent_index], f)

    submissions: dict[int, list[tuple[bytes, int]]] = {}
    for b in sc.bidders:
        submissions.setdefault(b.height, []).append((b.address, b.amount))
    last_height = max([sc.window.end_height] + [b.height for b in sc.bidders])

    header = {
        "schema_version": SCHEMA_VERSION,
        "seed": sc.seed,
        "prng": "mt19937",
        "sig_scheme": wallet.SIG_SCHEME,
        "scenario_hash": sc.scenario_hash,
    }
    tr = Transcript(header, consume)
    sim = Simulation(
        ledger=ledger,
        agents=agents,
        submissions=submissions,
        last_height=last_height,
        net=sc.net,
        max_time=sc.max_time,
        transcript=tr,
    )
    sim.run()

    receipt = ledger.receipt
    aborted = any(a.phase == PHASE_ABORTED for a in agents)
    rounds_used = max((a.round + 1 for a in agents), default=0)
    counts, inflow, max_time_exceeded = sim.counts, sim.inflow, sim.max_time_exceeded
    # Free the simulation before the oracle, whose transients then reuse the
    # memory the agents and their settlement txs held.
    del sim, agents, ledger, enclaves, policy, submissions

    oracle_tx, oracle_price = oracle_settlement(sc)
    oracle_digest = wallet.settlement_digest(oracle_tx)
    outcome = _classify(receipt, aborted, oracle_digest)
    tr.add(
        {
            "event": "run_outcome",
            "outcome": outcome,
            "settlements": int(receipt is not None),
            "max_time_exceeded": max_time_exceeded,
        }
    )
    return tr, _build_report(
        tr, outcome, receipt, rounds_used, oracle_tx,
        oracle_price, oracle_digest, counts, inflow, max_time_exceeded,
    )


def _classify(receipt: SettlementReceipt | None, aborted: bool, oracle_digest: bytes) -> str:
    if receipt is not None:
        if receipt.digest == oracle_digest:
            return OUTCOME_SETTLED_CORRECT
        return OUTCOME_SETTLED_FRAUDULENT
    if aborted:
        return OUTCOME_ABORTED
    return OUTCOME_STUCK


def _build_report(
    tr: Transcript,
    outcome: str,
    receipt: SettlementReceipt | None,
    rounds_used: int,
    oracle_tx: SettlementTx,
    oracle_price: int,
    oracle_digest: bytes,
    message_counts: dict,
    inflow: int,
    max_time_exceeded: bool,
) -> RunReport:
    """`message_counts` and `inflow` are the run's tallies of its transcript
    lines; conservation is exact in base units against the executed receipt."""
    partial_total = sum(a for _, a in oracle_tx.partial_refunds)
    full_total = sum(a for _, a in oracle_tx.full_refunds)
    oracle_info = {
        "clearing_price": str(oracle_price),
        "winner_count": len(oracle_tx.mints),
        "partial_refund_total": str(partial_total),
        "full_refund_total": str(full_total),
        "retained": str(oracle_price * len(oracle_tx.mints)),
        "digest": oracle_digest.hex(),
    }
    executed = None
    conservation_ok = True
    if receipt is not None:
        executed = {
            "digest": receipt.digest.hex(),
            "mint_count": len(receipt.tx.mints),
            "partial_refund_total": str(receipt.partial_refund_total),
            "full_refund_total": str(receipt.full_refund_total),
            "retained": str(receipt.retained_balance),
        }
        conservation_ok = inflow == (
            receipt.retained_balance + receipt.partial_refund_total + receipt.full_refund_total
        )
    return RunReport(
        outcome=outcome,
        oracle=oracle_info,
        executed=executed,
        message_counts=message_counts,
        rounds_used=rounds_used,
        on_chain_tx_count=int(receipt is not None),
        transcript_hash=tr.body_hash().hex(),
        max_time_exceeded=max_time_exceeded,
        conservation_ok=conservation_ok,
    )


# -- verification ----------------------------------------------------------------


class VerifyResult(NamedTuple):
    accepted: bool
    reason: str
    line_number: int | None = None
    got: str | None = None
    expected: str | None = None
    outcome: str | None = None


class _Diverged(Exception):
    """Raised by verify's consumer to stop the replay at the first
    divergence; carries the verdict."""


def _divergence(
    line_number: int, at_start: bool, stored: str, ended: bool, expected: str | None
) -> VerifyResult:
    """`stored` is the stored text from where the replayed text `expected`
    starts (at a line's start or inside it) through the end of its line, or
    of the file where it `ended`. A stored line that lost its "\n" is shown
    with a note, since its text alone can equal the replayed line; None for
    `expected` is a stored line past the replay's end."""
    cut = stored.find("\n")
    if cut >= 0:
        got = stored[:cut]
    elif at_start and not stored:
        got = "<missing line>"
    else:
        got = stored + "<no final newline>" if ended else stored
    return VerifyResult(
        False,
        "divergence",
        line_number=line_number,
        got=got,
        expected="<missing line>" if expected is None else expected.removesuffix("\n"),
    )


def verify_transcript(transcript_path: str, scenario_path: str) -> VerifyResult:
    """Replay the scenario, comparing each piece of replayed text with the
    stored text as it is added; the replay stops at the first divergence."""
    data, raw_scn = load_scenario(scenario_path)
    with load_lines(transcript_path) as fh:
        try:
            header_line = fh.readline()
            if not header_line:
                raise ValueError("empty transcript file")
            header = json.loads(header_line)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise SchemaMismatch(f"transcript not parseable: {exc}") from exc
        if not isinstance(header, dict):
            raise SchemaMismatch("transcript not parseable: header line is not a JSON object")
        if header.get("schema_version") != SCHEMA_VERSION:
            raise SchemaMismatch(
                f"unsupported schema_version {header.get('schema_version')!r}"
            )
        for key in ("seed", "prng", "sig_scheme", "scenario_hash"):
            if key not in header:
                raise SchemaMismatch(f"header missing {key!r}")

        if header["scenario_hash"] != hashlib.sha256(raw_scn).hexdigest():
            return VerifyResult(False, "scenario_hash_mismatch")
        sc = parse_scenario(data, raw_scn)
        del data, raw_scn  # not held across the replay
        if header["seed"] != sc.seed:
            return VerifyResult(False, "seed_mismatch")
        if header["prng"] != "mt19937" or header["sig_scheme"] != wallet.SIG_SCHEME:
            return VerifyResult(False, "header_mismatch")

        # The checks above compare values (True == 1, 7.0 == 7); `compare` then
        # compares the bytes `run` writes, from the header line on. It reads as
        # many stored characters as each replayed text holds: a whole line with
        # its "\n", or a piece of the settlement line, which is never read whole.
        fh.seek(0)
        line_number, at_start = 1, True

        def compare(text: str) -> None:
            nonlocal line_number, at_start
            stored = fh.read(len(text))
            if stored != text:
                whole = at_start and text.endswith("\n")
                if whole and "\n" not in stored:
                    stored += fh.readline()  # the rest of the stored line
                ended = "\n" not in stored and (whole or len(stored) < len(text))
                raise _Diverged(_divergence(line_number, at_start, stored, ended, text))
            at_start = text.endswith("\n")
            line_number += at_start

        try:
            outcome = _run(sc, compare)[1].outcome
            extra = fh.readline()
        except _Diverged as exc:
            return exc.args[0]
        except UnicodeDecodeError as exc:
            raise SchemaMismatch(f"transcript not parseable: {exc}") from exc
    if extra:
        return _divergence(line_number, True, extra, not extra.endswith("\n"), None)
    return VerifyResult(True, "ok", outcome=outcome)
