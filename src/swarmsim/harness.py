"""Scenario runner, independent settlement oracle, and transcript verifier.

A scenario file fully determines a run: bidder population (explicit or
generated from the seed), agent count and faults, network behavior, and
consensus knobs. The runner wires ledger + agents + network, executes to
quiescence, then classifies the outcome against an oracle that re-derives
the expected settlement straight from the scenario inputs through its own
aggregation and selection code. Verification replays a scenario and diffs
the stored transcript line by line.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
import math
import random
import re
import struct
import sys
from dataclasses import asdict, dataclass

from . import netsim, wallet
from .agent import (
    PHASE_ABORTED,
    Agent,
    EnclaveMock,
    expected_measurement_for,
)
from .auction import AuctionConfig, SettlementTx
from .consensus import RoundConfig
from .ledger import FundingWindow, Ledger, encode_amount
from .netsim import FAULT_CRASH, FAULT_KINDS, FaultSpec, NetConfig, Partition, Simulation
from .transcript import (
    SCHEMA_VERSION,
    Transcript,
    canonical_json,
    load_lines,
)
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

MAX_SINGLE_AMOUNT = 1 << 100


class InvalidScenario(Exception):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class SchemaMismatch(Exception):
    pass


class InvalidFlags(Exception):
    pass


# -- deterministic derivations --------------------------------------------------


def _u64(v: int) -> bytes:
    return struct.pack(">Q", v)


def _u32(v: int) -> bytes:
    return struct.pack(">I", v)


def agent_signing_key(seed: int, index: int) -> bytes:
    return hashlib.sha256(b"swarmsim/agent-key/v1" + _u64(seed) + _u32(index)).digest()


def bidder_address(seed: int, index: int) -> bytes:
    return hashlib.sha256(b"swarmsim/bidder/v1" + _u64(seed) + _u32(index)).digest()[:20]


def derive_auction_id(seed: int) -> bytes:
    return hashlib.sha256(b"swarmsim/auction-id/v1" + _u64(seed)).digest()


def _stream_rng(tag: bytes, seed: int) -> random.Random:
    return random.Random(int.from_bytes(hashlib.sha256(tag + _u64(seed)).digest(), "big"))


# -- scenario model ---------------------------------------------------------------


@dataclass(frozen=True)
class BidderEntry:
    address: bytes
    amount: int
    height: int


@dataclass(frozen=True)
class Scenario:
    seed: int
    n_items: int
    window: FundingWindow
    bidders: tuple[BidderEntry, ...]
    n: int
    m: int
    faults: tuple[FaultSpec, ...]
    expected_measurement: bytes
    net: NetConfig
    rounds: RoundConfig
    max_time: int
    raw_bytes: bytes


def _parse_amount(value, path: str, problems: list[str]) -> int:
    if isinstance(value, bool):
        problems.append(f"{path}: amount must be an integer or decimal string")
        return 0
    if isinstance(value, str):
        if not value.isdecimal():
            problems.append(f"{path}: amount string must be decimal digits")
            return 0
        try:
            value = int(value)
        except ValueError:  # more digits than int() reads
            problems.append(f"{path}: amount must be in [1, 2^100]")
            return 0
    if not isinstance(value, int):
        problems.append(f"{path}: amount must be an integer or decimal string")
        return 0
    if value < 1 or value > MAX_SINGLE_AMOUNT:
        problems.append(f"{path}: amount must be in [1, 2^100]")
        return 0
    return value


def _get_int(data, key, path, problems, lo=None, hi=None, default=None):
    """data[key] as an int in [lo, hi]; on a problem, a stand-in that later checks read.

    A None `data` is an object already rejected: its fields read quietly as
    their default, or else as their lower bound.
    """
    if data is None:
        return lo if default is None else default
    if key not in data:
        if default is not None:
            return default
        problems.append(f"{path}.{key}: required")
        return 0
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, int):
        problems.append(f"{path}.{key}: must be an integer")
        return 0
    if lo is not None and v < lo:
        problems.append(f"{path}.{key}: must be >= {lo}")
        return lo
    if hi is not None and v > hi:
        problems.append(f"{path}.{key}: must be <= {hi}")
        return hi
    return v


def _get_obj(data, key, path, problems, required=True):
    """data[key] as an object, else a problem and None; an absent optional one is {}."""
    if data is None:
        return None
    value = data.get(key) if required else data.get(key, {})
    if not isinstance(value, dict):
        problems.append(f"{path}: required object" if required else f"{path}: must be an object")
        return None
    return value


def _get_objs(data, key, path, problems):
    """Yield (item path, item) for each object in the list data[key]; absent is empty."""
    items = [] if data is None else data.get(key, [])
    if not isinstance(items, list):
        problems.append(f"{path}: must be a list")
        items = []
    for i, item in enumerate(items):
        if isinstance(item, dict):
            yield f"{path}[{i}]", item
        else:
            problems.append(f"{path}[{i}]: must be an object")


def parse_scenario(data: dict, raw: bytes) -> Scenario:
    """Validate a scenario dict, resolving any generated population.

    Every field is read and checked as a plain value first; the config
    objects are built only once no problem was found. Raises InvalidScenario
    carrying one diagnostic per problem found.
    """
    if not isinstance(data, dict):
        raise InvalidScenario(["scenario: must be a JSON object"])
    known = {"seed", "auction", "bidders", "agents", "net", "consensus", "max_time"}
    problems = [f"{key}: unknown field" for key in data if key not in known]
    seed = _get_int(data, "seed", "scenario", problems, lo=0, hi=(1 << 64) - 1)

    auction = _get_obj(data, "auction", "auction", problems)
    n_items = _get_int(auction, "n_items", "auction", problems, lo=1)
    win = _get_obj(auction, "window", "auction.window", problems)
    start = _get_int(win, "start", "auction.window", problems, lo=0)
    end = _get_int(win, "end", "auction.window", problems, lo=0)
    if start > end:
        problems.append("auction.window: start must be <= end")
        start = end = 0

    agents = _get_obj(data, "agents", "agents", problems)
    n = _get_int(agents, "n", "agents", problems, lo=1)
    m = _get_int(agents, "m", "agents", problems, lo=1)
    if m > n:
        problems.append(f"agents.m: must satisfy 1 <= m <= n (got m={m}, n={n})")
    expected = expected_measurement_for()
    exp = (agents or {}).get("expected_measurement", "auto")
    if isinstance(exp, str) and len(exp) == 64:
        if re.fullmatch("[0-9a-fA-F]{64}", exp):
            expected = bytes.fromhex(exp)
        else:
            problems.append("agents.expected_measurement: not valid hex")
    elif exp != "auto":
        problems.append('agents.expected_measurement: must be "auto" or 64 hex chars')
    faults, seen = [], set()
    for path, f in _get_objs(agents, "faults", "agents.faults", problems):
        idx = _get_int(f, "agent_index", path, problems, lo=0)
        kind = f.get("kind")
        if idx >= n:
            problems.append(f"{path}.agent_index: must be < n")
        elif idx in seen:
            problems.append(f"{path}: at most one fault per agent")
        elif kind not in FAULT_KINDS:
            problems.append(f"{path}.kind: must be one of {sorted(FAULT_KINDS)}")
        else:
            at_time = _get_int(f, "at_time", path, problems, lo=0) if kind == FAULT_CRASH else None
            perturb = _get_int(f, "perturb_seed", path, problems, lo=0, default=0)
            faults.append((idx, kind, at_time, perturb))
        seen.add(idx)

    net = _get_obj(data, "net", "net", problems, required=False)
    delay_min = _get_int(net, "delay_min", "net", problems, lo=0, default=1)
    delay_max = _get_int(net, "delay_max", "net", problems, lo=0, default=2)
    drop = (net or {}).get("drop_rate", 0.0)
    if isinstance(drop, bool) or not isinstance(drop, (int, float)):
        problems.append("net.drop_rate: must be a number")
        drop = 0.0
    net_seed = _get_int(net, "seed", "net", problems, lo=0, hi=(1 << 64) - 1, default=seed)
    partitions = []
    for path, p in _get_objs(net, "partitions", "net.partitions", problems):
        frm = _get_int(p, "from_time", path, problems, lo=0)
        to = _get_int(p, "to_time", path, problems, lo=0)
        if frm > to:
            problems.append(f"{path}: from_time must be <= to_time")
        sides = []
        for name in ("side_a", "side_b"):
            side = p.get(name, [])
            if not isinstance(side, list) or any(
                isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < n for i in side
            ):
                problems.append(f"{path}.{name}: must be agent indexes < n")
                side = []
            sides.append(frozenset(side))
        if sides[0] & sides[1]:
            problems.append(f"{path}: sides must be disjoint")
        partitions.append((frm, to, *sides))
    if delay_min > delay_max:
        problems.append("net: delay_min must be <= delay_max")
    if not 0 <= drop <= 1:
        problems.append("net.drop_rate: must be in [0, 1]")
    if delay_min > delay_max or not 0 <= drop <= 1:
        delay_min = 1  # the height cap below then counts the default delay

    consensus = _get_obj(data, "consensus", "consensus", problems, required=False)
    r_max = _get_int(consensus, "r_max", "consensus", problems, lo=1, default=3)
    timeout = _get_int(consensus, "round_timeout", "consensus", problems, lo=1, default=10)
    max_time = _get_int(data, "max_time", "scenario", problems, lo=1)

    # Funding later than end + delay_min could land after consensus has begun
    # and split honest agents' refund sets; the bound keeps every ack later
    # than the last seal.
    height_cap = end + delay_min

    bidders, sampler = [], None
    src = data.get("bidders")
    if not isinstance(src, dict) or len(src) != 1 or (
        next(iter(src)) not in ("explicit", "generator")
    ):
        problems.append('bidders: must be an object with exactly one of "explicit"/"generator"')
    elif "explicit" in src:
        for path, b in _get_objs(src, "explicit", "bidders.explicit", problems):
            addr = b.get("address")
            if not isinstance(addr, str) or not re.fullmatch("[0-9a-fA-F]{40}", addr):
                problems.append(f"{path}.address: must be 40 hex chars")
                continue
            amount = _parse_amount(b.get("amount"), f"{path}.amount", problems)
            height = _get_int(b, "height", path, problems, lo=0)
            if height > height_cap:
                problems.append(
                    f"{path}.height: must be <= window.end + net.delay_min ({height_cap})"
                )
            bidders.append(BidderEntry(bytes.fromhex(addr), amount, height))
    else:
        # a rejected generator object still reports the fields it lacks
        gen = _get_obj(src, "generator", "bidders.generator", problems, required=False) or {}
        count = _get_int(gen, "count", "bidders.generator", problems, lo=0)
        span = end - start + 1
        spread = _get_int(gen, "height_spread", "bidders.generator", problems, lo=1, default=span)
        if spread > span:
            problems.append(f"bidders.generator.height_spread: must fit the window (max {span})")
        dist, path = gen.get("distribution"), "bidders.generator.distribution"
        kind = dist.get("kind") if isinstance(dist, dict) else None
        if kind == "uniform":
            lo = _get_int(dist, "lo", path, problems, lo=1)
            hi = _get_int(dist, "hi", path, problems, lo=1)
            if lo > hi:
                problems.append(f"{path}: lo must be <= hi")
            elif hi > MAX_SINGLE_AMOUNT:
                problems.append(f"{path}.hi: must be <= 2^100")
            sampler = ("uniform", lo, hi)
        elif kind == "pareto":
            scale = _get_int(dist, "scale", path, problems, lo=1)
            shape = dist.get("shape")
            if isinstance(shape, bool) or not isinstance(shape, (int, float)) or not shape > 0:
                problems.append(f"{path}.shape: must be > 0")
            elif shape > sys.float_info.max:
                shape = math.inf  # draws exactly as any shape past float range would
            sampler = ("pareto", scale, shape)
        else:
            problems.append(f'{path}.kind: must be "uniform" or "pareto"')

    if problems:
        raise InvalidScenario(problems)

    window = FundingWindow(start_height=start, end_height=end)
    if sampler is not None:
        bidders = _generate_bidders(seed, count, sampler, window, spread)
    return Scenario(
        seed=seed,
        n_items=n_items,
        window=window,
        bidders=tuple(bidders),
        n=n,
        m=m,
        faults=tuple(FaultSpec(*f) for f in faults),
        expected_measurement=expected,
        net=NetConfig(
            delay_min=delay_min,
            delay_max=delay_max,
            drop_rate=float(drop),
            partitions=tuple(Partition(*p) for p in partitions),
            seed=net_seed,
        ),
        rounds=RoundConfig(r_max=r_max, round_timeout=timeout),
        max_time=max_time,
        raw_bytes=raw,
    )


def _generate_bidders(seed, count, sampler, window, spread) -> list[BidderEntry]:
    """One contribution per generated bidder; amount draw precedes height draw."""
    rng = _stream_rng(b"swarmsim/population/v1", seed)
    out = []
    for i in range(count):
        addr = bidder_address(seed, i)
        if sampler[0] == "uniform":
            amount = rng.randint(sampler[1], sampler[2])
        else:
            try:
                draw = sampler[1] * rng.paretovariate(sampler[2])
                amount = min(int(draw), MAX_SINGLE_AMOUNT)
            except OverflowError:  # the draw left float range, far above 2^100
                amount = MAX_SINGLE_AMOUNT
        height = window.start_height + rng.randrange(spread)
        out.append(BidderEntry(address=addr, amount=amount, height=height))
    return out


def load_scenario(path: str) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8 and over-long integers
        raise InvalidScenario([f"scenario file: not valid JSON ({exc})"]) from exc
    return data, raw


# -- independent oracle -----------------------------------------------------------


def oracle_settlement(sc: Scenario) -> tuple[SettlementTx, int]:
    """Expected settlement straight from scenario inputs.

    Re-derives tx ids from the documented content+sequence rule, re-groups
    per address with its own dict walk, and picks winners by heap selection
    rather than the engine's comparator sort. Only the SettlementTx wire
    type is shared with the engine.
    """
    contribs = []
    seq = 0
    for h in sorted({b.height for b in sc.bidders}):
        for b in sc.bidders:
            if b.height != h:
                continue
            tx_id = hashlib.sha256(
                b.address + encode_amount(b.amount) + _u64(h) + _u64(seq)
            ).digest()
            seq += 1
            contribs.append((b.address, b.amount, h, tx_id))
    return oracle_from_contributions(
        derive_auction_id(sc.seed), sc.n_items, sc.window, contribs
    )


def oracle_from_contributions(
    auction_id: bytes,
    n_items: int,
    window: FundingWindow,
    contribs: list[tuple[bytes, int, int, bytes]],
) -> tuple[SettlementTx, int]:
    """Contributions are (sender, amount, height, tx_id) in ledger order."""
    totals: dict[bytes, int] = {}
    first: dict[bytes, tuple[int, bytes]] = {}
    outside: list[tuple[bytes, int]] = []
    for sender, amount, height, tx_id in contribs:
        if window.start_height <= height <= window.end_height:
            totals[sender] = totals.get(sender, 0) + amount
            if sender not in first:
                first[sender] = (height, tx_id)
        else:
            outside.append((sender, amount))

    records = [
        (sender, total, first[sender][0], first[sender][1])
        for sender, total in totals.items()
    ]

    def rank(rec):
        return (-rec[1], rec[2], rec[3], rec[0])

    winners = heapq.nsmallest(n_items, records, key=rank)
    price = winners[-1][1] if winners else 0
    winner_set = {rec[0] for rec in winners}
    losers = sorted((rec for rec in records if rec[0] not in winner_set), key=rank)

    tx = SettlementTx(
        auction_id=auction_id,
        mints=tuple((rec[0], 1) for rec in winners),
        partial_refunds=tuple(
            (rec[0], rec[1] - price) for rec in winners if rec[1] - price > 0
        ),
        full_refunds=tuple((rec[0], rec[1]) for rec in losers) + tuple(outside),
        nonce=0,
    )
    return tx, price


# -- run + classify -----------------------------------------------------------------


@dataclass
class RunReport:
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
        return asdict(self)

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


def run_scenario_dict(data: dict, raw: bytes | None = None) -> tuple[Transcript, RunReport]:
    if raw is None:
        raw = canonical_json(data).encode("utf-8")
    tr, _, report = _run(parse_scenario(data, raw))
    return tr, report()


def run_scenario(path: str) -> tuple[Transcript, RunReport]:
    return run_scenario_dict(*load_scenario(path))


def _run(sc: Scenario) -> tuple:
    """Execute to quiescence and classify. Returns the transcript, the outcome,
    and a call that builds the run report."""
    keys = [agent_signing_key(sc.seed, i) for i in range(sc.n)]
    policy = MultisigPolicy(
        agent_keys=tuple(wallet.verifying_key_for(k) for k in keys), m=sc.m
    )
    ledger = Ledger()
    ledger.register_wallet(policy)
    cfg = AuctionConfig(
        n_items=sc.n_items, window=sc.window, auction_id=derive_auction_id(sc.seed)
    )
    agents: list = [
        Agent(
            index=i,
            enclave=EnclaveMock(keys[i]),
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
        "scenario_hash": hashlib.sha256(sc.raw_bytes).hexdigest(),
    }
    tr = Transcript(header)
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

    oracle_tx, oracle_price = oracle_settlement(sc)
    oracle_digest = wallet.settlement_digest(oracle_tx)
    outcome = _classify(ledger, agents, oracle_digest)
    tr.add(
        {
            "event": "run_outcome",
            "outcome": outcome,
            "settlements": ledger.settlement_count(),
            "max_time_exceeded": sim.max_time_exceeded,
        }
    )
    return tr, outcome, functools.partial(
        _build_report, tr, outcome, ledger, agents, oracle_tx, oracle_price,
        oracle_digest, sim.max_time_exceeded,
    )


def _classify(ledger: Ledger, agents: list, oracle_digest: bytes) -> str:
    receipts = list(ledger.settled.values())
    if receipts:
        if receipts[0].digest == oracle_digest:
            return OUTCOME_SETTLED_CORRECT
        return OUTCOME_SETTLED_FRAUDULENT
    if any(a.phase == PHASE_ABORTED for a in agents):
        return OUTCOME_ABORTED
    return OUTCOME_STUCK


def _build_report(
    tr: Transcript,
    outcome: str,
    ledger: Ledger,
    agents: list,
    oracle_tx: SettlementTx,
    oracle_price: int,
    oracle_digest: bytes,
    max_time_exceeded: bool,
) -> RunReport:
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
    receipts = list(ledger.settled.values())
    if receipts:
        r = receipts[0]
        executed = {
            "digest": r.digest.hex(),
            "mint_count": r.mint_count,
            "partial_refund_total": str(r.partial_refund_total),
            "full_refund_total": str(r.full_refund_total),
            "retained": str(r.retained_balance),
        }
    message_counts, conservation_ok = _scan_transcript(tr)
    return RunReport(
        outcome=outcome,
        oracle=oracle_info,
        executed=executed,
        message_counts=message_counts,
        rounds_used=max((a.round + 1 for a in agents), default=0),
        on_chain_tx_count=ledger.settlement_count(),
        transcript_hash=tr.body_hash().hex(),
        max_time_exceeded=max_time_exceeded,
        conservation_ok=conservation_ok,
    )


def _scan_transcript(tr: Transcript) -> tuple[dict, bool]:
    """Message counts and exact base-unit conservation, from transcript lines alone."""
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


# -- verification ----------------------------------------------------------------


@dataclass
class VerifyResult:
    accepted: bool
    reason: str
    line_number: int | None = None
    got: str | None = None
    expected: str | None = None
    outcome: str | None = None


def verify_transcript(transcript_path: str, scenario_path: str) -> VerifyResult:
    """Replay the scenario and diff the stored transcript against the rerun."""
    data, raw_scn = load_scenario(scenario_path)
    try:
        header, body = load_lines(transcript_path)
    except (ValueError, json.JSONDecodeError) as exc:
        raise SchemaMismatch(f"transcript not parseable: {exc}") from exc
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
    if header["seed"] != sc.seed:
        return VerifyResult(False, "seed_mismatch")
    if header["prng"] != "mt19937" or header["sig_scheme"] != wallet.SIG_SCHEME:
        return VerifyResult(False, "header_mismatch")

    fresh_tr, outcome = _run(sc)[:2]  # drops the report call and what it holds
    fresh_lines = fresh_tr.lines
    for idx in range(max(len(body), len(fresh_lines))):
        got = body[idx] if idx < len(body) else None
        expected = fresh_lines[idx] if idx < len(fresh_lines) else None
        if got != expected:
            return VerifyResult(
                False,
                "divergence",
                line_number=idx + 2,  # 1-based, after the header line
                got="<missing line>" if got is None else got,
                expected="<missing line>" if expected is None else expected,
            )
    return VerifyResult(True, "ok", outcome=outcome)


# -- scenario generation ------------------------------------------------------------


def parse_fault_flag(text: str, n: int) -> dict:
    """CLI fault shorthand: INDEX:KIND[:ARG], e.g. 0:crash:12 or 1:wrong_root:5."""
    parts = text.split(":")
    if len(parts) < 2 or len(parts) > 3:
        raise InvalidFlags(f"fault {text!r}: expected INDEX:KIND[:ARG]")
    try:
        idx = int(parts[0])
    except ValueError:
        raise InvalidFlags(f"fault {text!r}: index must be an integer") from None
    kind = parts[1]
    if kind not in FAULT_KINDS:
        raise InvalidFlags(f"fault {text!r}: kind must be one of {sorted(FAULT_KINDS)}")
    if idx < 0 or idx >= n:
        raise InvalidFlags(f"fault {text!r}: index must be < {n}")
    out: dict = {"agent_index": idx, "kind": kind}
    if len(parts) == 3:
        try:
            arg = int(parts[2])
        except ValueError:
            raise InvalidFlags(f"fault {text!r}: argument must be an integer") from None
        if kind == FAULT_CRASH:
            out["at_time"] = arg
        else:
            out["perturb_seed"] = arg
    elif kind == FAULT_CRASH:
        raise InvalidFlags(f"fault {text!r}: crash needs INDEX:crash:AT_TIME")
    return out


def build_scenario_dict(
    *,
    seed: int = 7,
    bidders: int = 12,
    items: int = 4,
    agents: int = 3,
    threshold: int = 2,
    dist: str = "uniform:100,1000",
    height_spread: int | None = None,
    window: tuple[int, int] = (1, 5),
    net_seed: int | None = None,
    delay: tuple[int, int] = (1, 2),
    drop_rate: float = 0.0,
    faults: tuple[str, ...] = (),
    r_max: int = 3,
    round_timeout: int = 10,
    max_time: int = 500,
) -> dict:
    """Assemble and validate a scenario dict; raises InvalidFlags on bad input."""
    try:
        kind, _, params = dist.partition(":")
        if kind == "uniform":
            lo, hi = (int(x) for x in params.split(","))
            distribution = {"kind": "uniform", "lo": lo, "hi": hi}
        elif kind == "pareto":
            scale, shape = params.split(",")
            distribution = {"kind": "pareto", "scale": int(scale), "shape": float(shape)}
        else:
            raise ValueError(f"unknown distribution {kind!r}")
    except ValueError as exc:
        raise InvalidFlags(f"--dist: {exc}") from None

    span = window[1] - window[0] + 1
    data = {
        "seed": seed,
        "auction": {
            "n_items": items,
            "window": {"start": window[0], "end": window[1]},
        },
        "bidders": {
            "generator": {
                "count": bidders,
                "distribution": distribution,
                "height_spread": height_spread if height_spread is not None else span,
            }
        },
        "agents": {
            "n": agents,
            "m": threshold,
            "faults": [parse_fault_flag(f, agents) for f in faults],
            "expected_measurement": "auto",
        },
        "net": {
            "delay_min": delay[0],
            "delay_max": delay[1],
            "drop_rate": drop_rate,
            "partitions": [],
            "seed": net_seed if net_seed is not None else seed,
        },
        "consensus": {"r_max": r_max, "round_timeout": round_timeout},
        "max_time": max_time,
    }
    try:
        parse_scenario(data, b"")
    except InvalidScenario as exc:
        raise InvalidFlags("; ".join(exc.problems)) from None
    return data
