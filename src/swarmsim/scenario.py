"""Scenario format: the schema a run is read from, and the seed derivations.

A scenario file fully determines a run: bidder population (explicit or
generated from the seed), agent count and faults, network behavior, and
consensus knobs. parse_scenario checks every field, reports each problem
(an unknown key in any object the schema reads among them), and resolves a
generated population; build_scenario_dict assembles the scenario that
`swarmsim gen` writes. Agent keys, bidder addresses and the auction id
derive from the seed alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import struct
import sys
from collections.abc import Iterator
from typing import NamedTuple

from .agent import AGENT_MEASUREMENT
from .consensus import RoundConfig
from .ledger import FundingWindow
from .netsim import FAULT_CRASH, FAULT_KINDS, FAULT_WRONG_ROOT, FaultSpec, NetConfig, Partition

MAX_SINGLE_AMOUNT = 1 << 100

# The one key past agent_index and kind that a fault kind reads, set by the
# CLI shorthand's :ARG; the other kinds read none.
_FAULT_ARG = {FAULT_CRASH: "at_time", FAULT_WRONG_ROOT: "perturb_seed"}


class InvalidScenario(Exception):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


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
    return next(_bidder_addresses(seed, (index,)))


def _bidder_addresses(seed: int, indices) -> Iterator[bytes]:
    """The bidder address layout, in one place; the seed's prefix is built once."""
    prefix = b"swarmsim/bidder/v1" + _u64(seed)
    for index in indices:
        yield hashlib.sha256(prefix + _u32(index)).digest()[:20]


def derive_auction_id(seed: int) -> bytes:
    return hashlib.sha256(b"swarmsim/auction-id/v1" + _u64(seed)).digest()


def _stream_rng(tag: bytes, seed: int) -> random.Random:
    return random.Random(int.from_bytes(hashlib.sha256(tag + _u64(seed)).digest(), "big"))


# -- scenario model ---------------------------------------------------------------


class BidderEntry(NamedTuple):
    address: bytes
    amount: int
    height: int


class Scenario(NamedTuple):
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
    scenario_hash: str  # SHA-256 hex of the file's bytes, which are not held


def _parse_amount(value, path: str, problems: list[str]) -> int:
    if isinstance(value, bool):
        problems.append(f"{path}: amount must be an integer or decimal string")
        return 0
    if isinstance(value, str):
        if not (value.isascii() and value.isdecimal()):  # "١٢" and "７" are not amounts
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


def _check_keys(obj: dict, prefix: str, known, problems) -> None:
    if not obj.keys() <= known:
        problems += [f"{prefix}{key}: unknown field" for key in obj if key not in known]


def _get_obj(data, key, path, problems, known, required=True):
    """data[key] as an object with only `known` keys, else a problem and None;
    an absent optional one is {}."""
    if data is None:
        return None
    value = data.get(key) if required else data.get(key, {})
    if not isinstance(value, dict):
        problems.append(f"{path}: required object" if required else f"{path}: must be an object")
        return None
    _check_keys(value, f"{path}.", known, problems)
    return value


def _get_objs(data, key, path, problems, known):
    """Yield (item path, item) for each object in the list data[key], reporting
    its keys outside `known`, a set or a function of the item; absent is empty."""
    items = [] if data is None else data.get(key, [])
    if not isinstance(items, list):
        problems.append(f"{path}: must be a list")
        items = []
    for i, item in enumerate(items):
        if isinstance(item, dict):
            keys = known(item) if callable(known) else known
            _check_keys(item, f"{path}[{i}].", keys, problems)
            yield f"{path}[{i}]", item
        else:
            problems.append(f"{path}[{i}]: must be an object")


def _fault_keys(fault: dict) -> set[str]:
    """A fault's known keys follow its kind; an unknown kind knows them all,
    so that its kind error is the only message."""
    kind = fault.get("kind")
    if kind not in FAULT_KINDS:
        args = set(_FAULT_ARG.values())
    else:
        args = {_FAULT_ARG[kind]} if kind in _FAULT_ARG else set()
    return {"agent_index", "kind"} | args


def parse_scenario(data: dict, raw: bytes) -> Scenario:
    """Validate a scenario dict, resolving any generated population.

    Every field is read and checked as a plain value first; the config
    objects are built only once no problem was found. Raises InvalidScenario
    carrying one diagnostic per problem found. `raw`, the bytes `data` was
    read from, is kept only as its hash.
    """
    if not isinstance(data, dict):
        raise InvalidScenario(["scenario: must be a JSON object"])
    problems: list[str] = []
    known = {"seed", "auction", "bidders", "agents", "net", "consensus", "max_time"}
    _check_keys(data, "", known, problems)
    seed = _get_int(data, "seed", "scenario", problems, lo=0, hi=(1 << 64) - 1)

    auction = _get_obj(data, "auction", "auction", problems, {"n_items", "window"})
    n_items = _get_int(auction, "n_items", "auction", problems, lo=1)
    win = _get_obj(auction, "window", "auction.window", problems, {"start", "end"})
    start = _get_int(win, "start", "auction.window", problems, lo=0)
    end = _get_int(win, "end", "auction.window", problems, lo=0)
    if start > end:
        problems.append("auction.window: start must be <= end")
        start = end = 0

    agents = _get_obj(
        data, "agents", "agents", problems, {"n", "m", "faults", "expected_measurement"}
    )
    n = _get_int(agents, "n", "agents", problems, lo=1)
    m = _get_int(agents, "m", "agents", problems, lo=1)
    if m > n:
        problems.append(f"agents.m: must satisfy 1 <= m <= n (got m={m}, n={n})")
    expected = AGENT_MEASUREMENT
    exp = (agents or {}).get("expected_measurement", "auto")
    if isinstance(exp, str) and len(exp) == 64:
        if re.fullmatch("[0-9a-fA-F]{64}", exp):
            expected = bytes.fromhex(exp)
        else:
            problems.append("agents.expected_measurement: not valid hex")
    elif exp != "auto":
        problems.append('agents.expected_measurement: must be "auto" or 64 hex chars')
    faults, seen = [], set()
    for path, f in _get_objs(agents, "faults", "agents.faults", problems, _fault_keys):
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
            perturb = (
                _get_int(f, "perturb_seed", path, problems, lo=0, default=0)
                if kind == FAULT_WRONG_ROOT else 0
            )
            faults.append((idx, kind, at_time, perturb))
        seen.add(idx)

    net = _get_obj(
        data, "net", "net", problems,
        {"delay_min", "delay_max", "drop_rate", "partitions", "seed"}, required=False,
    )
    delay_min = _get_int(net, "delay_min", "net", problems, lo=0, default=1)
    delay_max = _get_int(net, "delay_max", "net", problems, lo=0, default=2)
    drop = (net or {}).get("drop_rate", 0.0)
    if isinstance(drop, bool) or not isinstance(drop, (int, float)):
        problems.append("net.drop_rate: must be a number")
        drop = 0.0
    net_seed = _get_int(net, "seed", "net", problems, lo=0, hi=(1 << 64) - 1, default=seed)
    partitions = []
    for path, p in _get_objs(
        net, "partitions", "net.partitions", problems,
        {"from_time", "to_time", "side_a", "side_b"},
    ):
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

    consensus = _get_obj(
        data, "consensus", "consensus", problems, {"r_max", "round_timeout"}, required=False
    )
    r_max = _get_int(consensus, "r_max", "consensus", problems, lo=1, default=3)
    timeout = _get_int(consensus, "round_timeout", "consensus", problems, lo=1, default=10)
    max_time = _get_int(data, "max_time", "scenario", problems, lo=1)

    # The cap seals every late funding before any agent can ack: the earliest
    # proposal leaves at the window-end seal and arrives delay_min later, after
    # that tick's seal. Honest refund sets can still differ: the round-0
    # proposal predates the late fundings (ROADMAP item 1).
    height_cap = end + delay_min

    bidders, sampler = [], None
    src = data.get("bidders")
    if not isinstance(src, dict) or len(src) != 1 or (
        next(iter(src)) not in ("explicit", "generator")
    ):
        problems.append('bidders: must be an object with exactly one of "explicit"/"generator"')
    elif "explicit" in src:
        # The hot loop of a large explicit population: an entry's path is built
        # only for a problem to name, and a plain int amount or height skips
        # its general reader, which would accept it unchanged.
        items = src["explicit"]
        if not isinstance(items, list):
            problems.append("bidders.explicit: must be a list")
            items = []
        keys = {"address", "amount", "height"}
        hex_address = re.compile("[0-9a-fA-F]{40}").fullmatch
        new = tuple.__new__
        for i, b in enumerate(items):
            if not isinstance(b, dict):
                problems.append(f"bidders.explicit[{i}]: must be an object")
                continue
            if not b.keys() <= keys:
                _check_keys(b, f"bidders.explicit[{i}].", keys, problems)
            addr = b.get("address")
            if not isinstance(addr, str) or not hex_address(addr):
                problems.append(f"bidders.explicit[{i}].address: must be 40 hex chars")
                continue
            amount = b.get("amount")
            if type(amount) is not int or not 1 <= amount <= MAX_SINGLE_AMOUNT:
                amount = _parse_amount(amount, f"bidders.explicit[{i}].amount", problems)
            height = b.get("height")
            if type(height) is not int or height < 0:
                height = _get_int(b, "height", f"bidders.explicit[{i}]", problems, lo=0)
            if height > height_cap:
                problems.append(
                    f"bidders.explicit[{i}].height: must be <= window.end + net.delay_min"
                    f" ({height_cap})"
                )
            bidders.append(new(BidderEntry, (bytes.fromhex(addr), amount, height)))
    else:
        # a rejected generator object still reports the fields it lacks
        gen = _get_obj(
            src, "generator", "bidders.generator", problems,
            {"count", "distribution", "height_spread"}, required=False,
        ) or {}
        count = _get_int(gen, "count", "bidders.generator", problems, lo=0)
        span = end - start + 1
        spread = _get_int(gen, "height_spread", "bidders.generator", problems, lo=1, default=span)
        if spread > span:
            problems.append(f"bidders.generator.height_spread: must fit the window (max {span})")
        dist, path = gen.get("distribution"), "bidders.generator.distribution"
        kind = dist.get("kind") if isinstance(dist, dict) else None
        if kind == "uniform":
            _check_keys(dist, f"{path}.", {"kind", "lo", "hi"}, problems)
            lo = _get_int(dist, "lo", path, problems, lo=1)
            hi = _get_int(dist, "hi", path, problems, lo=1)
            if lo > hi:
                problems.append(f"{path}: lo must be <= hi")
            elif hi > MAX_SINGLE_AMOUNT:
                problems.append(f"{path}.hi: must be <= 2^100")
            sampler = ("uniform", lo, hi)
        elif kind == "pareto":
            _check_keys(dist, f"{path}.", {"kind", "scale", "shape"}, problems)
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
        scenario_hash=hashlib.sha256(raw).hexdigest(),
    )


def _generate_bidders(seed, count, sampler, window, spread) -> list[BidderEntry]:
    """One contribution per generated bidder; amount draw precedes height draw."""
    rng = _stream_rng(b"swarmsim/population/v1", seed)
    out, start = [], window.start_height
    for addr in _bidder_addresses(seed, range(count)):
        if sampler[0] == "uniform":
            amount = rng.randint(sampler[1], sampler[2])
        else:
            try:
                draw = sampler[1] * rng.paretovariate(sampler[2])
                amount = min(int(draw), MAX_SINGLE_AMOUNT)
            except OverflowError:  # the draw left float range, far above 2^100
                amount = MAX_SINGLE_AMOUNT
        height = start + rng.randrange(spread)
        out.append(BidderEntry(addr, amount, height))
    return out


def load_scenario(path: str) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8 and over-long integers
        raise InvalidScenario([f"scenario file: not valid JSON ({exc})"]) from exc
    return data, raw


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
        if kind not in _FAULT_ARG:
            raise InvalidFlags(f"fault {text!r}: {kind} takes no argument")
        try:
            out[_FAULT_ARG[kind]] = int(parts[2])
        except ValueError:
            raise InvalidFlags(f"fault {text!r}: argument must be an integer") from None
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
