"""Scenario validation: the exact diagnostics of `parse_scenario`, and that no
malformed input escapes it as anything but `InvalidScenario`.

DIAGNOSTICS holds one malformed scenario for each problem `parse_scenario`
and its readers can report, plus cases where one bad value changes what a
later check sees (a wrong-typed `n` reads as 0, a bad window as [0, 0]).
Each expects the full problem list, in order.
"""

import copy
import hashlib
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swarmsim import cli
from swarmsim.netsim import FAULT_KINDS
from swarmsim.scenario import (
    MAX_SINGLE_AMOUNT,
    BidderEntry,
    InvalidScenario,
    build_scenario_dict,
    load_scenario,
    parse_scenario,
)

DELETE = object()

# window 1..5, delay_min 1: the late-funding height cap is 6
GENERATED = build_scenario_dict()
EXPLICIT = copy.deepcopy(GENERATED)
EXPLICIT["bidders"] = {
    "explicit": [
        {"address": "aa" * 20, "amount": 5, "height": 1},
        {"address": "bb" * 20, "amount": "7", "height": 2},
    ]
}
PARETO = {"kind": "pareto", "scale": 1000, "shape": 1.5}
KINDS = sorted(FAULT_KINDS)


def edited(base: dict, edits: dict) -> dict:
    """Copy of base with each dotted path set (or deleted, for DELETE)."""
    data = copy.deepcopy(base)
    for path, value in edits.items():
        *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        node = data
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    return data


def problems_of(data) -> list[str]:
    with pytest.raises(InvalidScenario) as err:
        parse_scenario(data, b"")
    return err.value.problems


AMOUNT = "bidders.explicit.0.amount"
FAULTS = "agents.faults"
PARTS = "net.partitions"
DIST = "bidders.generator.distribution"
P0 = "net.partitions[0]"

DIAGNOSTICS = [
    # _parse_amount
    ("amount_bool", EXPLICIT, {AMOUNT: True},
     ["bidders.explicit[0].amount: amount must be an integer or decimal string"]),
    ("amount_not_digits", EXPLICIT, {AMOUNT: "12a"},
     ["bidders.explicit[0].amount: amount string must be decimal digits"]),
    ("amount_arabic_indic_digits", EXPLICIT, {AMOUNT: "١٢"},
     ["bidders.explicit[0].amount: amount string must be decimal digits"]),
    ("amount_fullwidth_digit", EXPLICIT, {AMOUNT: "７"},
     ["bidders.explicit[0].amount: amount string must be decimal digits"]),
    ("amount_float", EXPLICIT, {AMOUNT: 1.5},
     ["bidders.explicit[0].amount: amount must be an integer or decimal string"]),
    ("amount_zero", EXPLICIT, {AMOUNT: 0},
     ["bidders.explicit[0].amount: amount must be in [1, 2^100]"]),
    ("amount_above_2_100", EXPLICIT, {AMOUNT: str(MAX_SINGLE_AMOUNT + 1)},
     ["bidders.explicit[0].amount: amount must be in [1, 2^100]"]),
    # _get_int
    ("int_required", GENERATED, {"auction.n_items": DELETE}, ["auction.n_items: required"]),
    ("int_type", GENERATED, {"seed": "7"}, ["scenario.seed: must be an integer"]),
    ("int_bool", GENERATED, {"max_time": True}, ["scenario.max_time: must be an integer"]),
    ("int_below", GENERATED, {"max_time": 0}, ["scenario.max_time: must be >= 1"]),
    ("int_above", GENERATED, {"seed": 1 << 64},
     ["scenario.seed: must be <= 18446744073709551615"]),
    # parse_scenario, top level and auction
    ("unknown_field", GENERATED, {"extra": 1}, ["extra: unknown field"]),
    ("auction_not_object", GENERATED, {"auction": "x"},
     ["auction: required object",
      # the window reads as [0, 0], so the generator spread of 5 no longer fits
      "bidders.generator.height_spread: must fit the window (max 1)"]),
    ("window_missing", GENERATED, {"auction.window": DELETE},
     ["auction.window: required object",
      "bidders.generator.height_spread: must fit the window (max 1)"]),
    ("window_reversed", GENERATED, {"auction.window": {"start": 5, "end": 1}},
     ["auction.window: start must be <= end",
      "bidders.generator.height_spread: must fit the window (max 1)"]),
    # agents
    ("agents_not_object", GENERATED, {"agents": None}, ["agents: required object"]),
    ("m_above_n", GENERATED, {"agents.m": 4},
     ["agents.m: must satisfy 1 <= m <= n (got m=4, n=3)"]),
    ("measurement_not_hex", GENERATED, {"agents.expected_measurement": "zz" * 32},
     ["agents.expected_measurement: not valid hex"]),
    ("measurement_wrong_type", GENERATED, {"agents.expected_measurement": 5},
     ['agents.expected_measurement: must be "auto" or 64 hex chars']),
    ("fault_not_object", GENERATED, {FAULTS: [5]}, ["agents.faults[0]: must be an object"]),
    ("fault_index_too_big", GENERATED, {FAULTS: [{"agent_index": 3, "kind": "silent"}]},
     ["agents.faults[0].agent_index: must be < n"]),
    ("fault_twice", GENERATED,
     {FAULTS: [{"agent_index": 0, "kind": "silent"}, {"agent_index": 0, "kind": "silent"}]},
     ["agents.faults[1]: at most one fault per agent"]),
    ("fault_kind", GENERATED, {FAULTS: [{"agent_index": 0, "kind": "evil"}]},
     [f"agents.faults[0].kind: must be one of {KINDS}"]),
    # net
    ("net_not_object", GENERATED, {"net": 5}, ["net: must be an object"]),
    ("drop_not_number", GENERATED, {"net.drop_rate": "x"}, ["net.drop_rate: must be a number"]),
    ("partition_not_object", GENERATED, {PARTS: [1]}, [f"{P0}: must be an object"]),
    ("partition_reversed", GENERATED,
     {PARTS: [{"from_time": 5, "to_time": 1, "side_a": [0], "side_b": [1]}]},
     [f"{P0}: from_time must be <= to_time"]),
    ("partition_side", GENERATED,
     {PARTS: [{"from_time": 0, "to_time": 9, "side_a": [3], "side_b": [1]}]},
     [f"{P0}.side_a: must be agent indexes < n"]),
    ("partition_overlap", GENERATED,
     {PARTS: [{"from_time": 0, "to_time": 9, "side_a": [0], "side_b": [0, 1]}]},
     [f"{P0}: sides must be disjoint"]),
    ("delays_reversed", GENERATED, {"net.delay_min": 3, "net.delay_max": 2},
     ["net: delay_min must be <= delay_max"]),
    ("drop_out_of_range", GENERATED, {"net.drop_rate": 1.5},
     ["net.drop_rate: must be in [0, 1]"]),
    # consensus
    ("consensus_not_object", GENERATED, {"consensus": []}, ["consensus: must be an object"]),
    # bidders
    ("bidders_both", GENERATED,
     {"bidders.explicit": []},
     ['bidders: must be an object with exactly one of "explicit"/"generator"']),
    ("explicit_not_list", EXPLICIT, {"bidders.explicit": {}},
     ["bidders.explicit: must be a list"]),
    ("explicit_not_object", EXPLICIT, {"bidders.explicit": [7]},
     ["bidders.explicit[0]: must be an object"]),
    ("address", EXPLICIT, {"bidders.explicit.0.address": "zz"},
     ["bidders.explicit[0].address: must be 40 hex chars"]),
    ("height_cap", EXPLICIT, {"bidders.explicit.1.height": 7},
     ["bidders.explicit[1].height: must be <= window.end + net.delay_min (6)"]),
    ("generator_not_object", GENERATED, {"bidders.generator": "x"},
     ["bidders.generator: must be an object",
      "bidders.generator.count: required",
      'bidders.generator.distribution.kind: must be "uniform" or "pareto"']),
    ("spread_too_wide", GENERATED, {"bidders.generator.height_spread": 6},
     ["bidders.generator.height_spread: must fit the window (max 5)"]),
    ("dist_kind", GENERATED, {f"{DIST}.kind": "normal"},
     ['bidders.generator.distribution.kind: must be "uniform" or "pareto"']),
    ("uniform_reversed", GENERATED, {f"{DIST}.lo": 10, f"{DIST}.hi": 5},
     ["bidders.generator.distribution: lo must be <= hi"]),
    ("uniform_hi_above_2_100", GENERATED, {f"{DIST}.hi": MAX_SINGLE_AMOUNT + 1},
     ["bidders.generator.distribution.hi: must be <= 2^100"]),
    ("pareto_shape", GENERATED, {DIST: dict(PARETO, shape=0)},
     ["bidders.generator.distribution.shape: must be > 0"]),
    # one bad value feeding a later check
    ("n_wrong_type", GENERATED,
     {"agents.n": "x", FAULTS: [{"agent_index": 0, "kind": "silent"}],
      PARTS: [{"from_time": 0, "to_time": 9, "side_a": [0], "side_b": []}]},
     ["agents.n: must be an integer",
      "agents.m: must satisfy 1 <= m <= n (got m=2, n=0)",
      "agents.faults[0].agent_index: must be < n",
      f"{P0}.side_a: must be agent indexes < n"]),
    ("n_below_one", GENERATED, {"agents.n": 0},
     ["agents.n: must be >= 1", "agents.m: must satisfy 1 <= m <= n (got m=2, n=1)"]),
    ("fault_fields", GENERATED,
     {FAULTS: [{"kind": "crash"}, {"agent_index": 1, "kind": "wrong_root", "perturb_seed": -1},
               {"agent_index": 2, "kind": "evil"}, {"agent_index": 2, "kind": "silent"}]},
     ["agents.faults[0].agent_index: required",
      "agents.faults[0].at_time: required",
      "agents.faults[1].perturb_seed: must be >= 0",
      f"agents.faults[2].kind: must be one of {KINDS}",
      "agents.faults[3]: at most one fault per agent"]),
    ("partition_fields", GENERATED,
     {PARTS: [{"side_a": "x"}, "y", {"from_time": -1, "to_time": 2, "side_a": [True]}]},
     [f"{P0}.from_time: required",
      f"{P0}.to_time: required",
      f"{P0}.side_a: must be agent indexes < n",
      "net.partitions[1]: must be an object",
      "net.partitions[2].from_time: must be >= 0",
      "net.partitions[2].side_a: must be agent indexes < n"]),
    # with the delays rejected the height cap counts delay_min as 1
    ("height_cap_after_bad_delays", EXPLICIT,
     {"net.delay_min": 3, "net.delay_max": 2, "bidders.explicit.1.height": 7},
     ["net: delay_min must be <= delay_max",
      "bidders.explicit[1].height: must be <= window.end + net.delay_min (6)"]),
    ("height_cap_after_bad_drop", EXPLICIT,
     {"net.delay_min": 3, "net.delay_max": 4, "net.drop_rate": -1,
      "bidders.explicit.1.height": 7},
     ["net.drop_rate: must be in [0, 1]",
      "bidders.explicit[1].height: must be <= window.end + net.delay_min (6)"]),
    ("height_cap_after_negative_delay", EXPLICIT,
     {"net.delay_min": -1, "bidders.explicit.1.height": 6},
     ["net.delay_min: must be >= 0",
      "bidders.explicit[1].height: must be <= window.end + net.delay_min (5)"]),
    ("explicit_entry_fields", EXPLICIT,
     {"bidders.explicit.0": {"address": "aa" * 20, "amount": -4, "height": -1},
      "bidders.explicit.1": {"address": "bb" * 20}},
     ["bidders.explicit[0].amount: amount must be in [1, 2^100]",
      "bidders.explicit[0].height: must be >= 0",
      "bidders.explicit[1].amount: amount must be an integer or decimal string",
      "bidders.explicit[1].height: required"]),
    ("generator_fields", GENERATED,
     {"bidders.generator.count": -1, "bidders.generator.height_spread": 0,
      DIST: {"kind": "uniform", "lo": "x"}},
     ["bidders.generator.count: must be >= 0",
      "bidders.generator.height_spread: must be >= 1",
      "bidders.generator.distribution.lo: must be an integer",
      "bidders.generator.distribution.hi: required"]),
    ("everything_reported_in_order", GENERATED,
     {"zzz": 0, "seed": -1, "auction.n_items": 0, "agents.m": 9, "net.delay_max": "2",
      "consensus.r_max": 0, "max_time": 0, DIST: dict(PARETO, scale=0, shape="1")},
     ["zzz: unknown field",
      "scenario.seed: must be >= 0",
      "auction.n_items: must be >= 1",
      "agents.m: must satisfy 1 <= m <= n (got m=9, n=3)",
      "net.delay_max: must be an integer",
      "net: delay_min must be <= delay_max",
      "consensus.r_max: must be >= 1",
      "scenario.max_time: must be >= 1",
      "bidders.generator.distribution.scale: must be >= 1",
      "bidders.generator.distribution.shape: must be > 0"]),
]


@pytest.mark.parametrize(
    "base, edits, expected", [c[1:] for c in DIAGNOSTICS], ids=[c[0] for c in DIAGNOSTICS]
)
def test_diagnostics(base, edits, expected):
    assert problems_of(edited(base, edits)) == expected


# A misspelt key in any object the schema reads is reported, not read as
# the field's default; one case per object path.
UNKNOWN_KEYS = [
    ("auction", GENERATED, {"auction.n_itemz": 3}, ["auction.n_itemz: unknown field"]),
    ("window", GENERATED, {"auction.window.stop": 5}, ["auction.window.stop: unknown field"]),
    ("agents", GENERATED, {"agents.fualts": [{"agent_index": 0, "kind": "silent"}]},
     ["agents.fualts: unknown field"]),
    ("fault", GENERATED, {FAULTS: [{"agent_index": 0, "kind": "crash", "at_tme": 4}]},
     ["agents.faults[0].at_tme: unknown field", "agents.faults[0].at_time: required"]),
    ("net", GENERATED, {"net.drop_rat": 0.5}, ["net.drop_rat: unknown field"]),
    ("partition", GENERATED,
     {PARTS: [{"from_time": 0, "to_time": 9, "side_a": [0], "side_c": [1]}]},
     [f"{P0}.side_c: unknown field"]),
    ("consensus", GENERATED, {"consensus.rmax": 9}, ["consensus.rmax: unknown field"]),
    ("explicit_bidder", EXPLICIT, {"bidders.explicit.1.heigth": 2},
     ["bidders.explicit[1].heigth: unknown field"]),
    ("generator", GENERATED, {"bidders.generator.spread": 2},
     ["bidders.generator.spread: unknown field"]),
    ("uniform", GENERATED, {f"{DIST}.scale": 10}, ["bidders.generator.distribution.scale: unknown field"]),
    ("pareto", GENERATED, {DIST: dict(PARETO, hi=10)},
     ["bidders.generator.distribution.hi: unknown field"]),
    # reported first, then the object's own fields
    ("before_field_problems", GENERATED, {"consensus": {"r_max": 0, "x": 1}},
     ["consensus.x: unknown field", "consensus.r_max: must be >= 1"]),
    # only objects the reader accepted are looked into
    ("rejected_distribution", GENERATED, {DIST: {"kind": "normal", "mu": 1}},
     ['bidders.generator.distribution.kind: must be "uniform" or "pareto"']),
    ("rejected_net", GENERATED, {"net": [{"x": 1}]}, ["net: must be an object"]),
]


@pytest.mark.parametrize(
    "base, edits, expected", [c[1:] for c in UNKNOWN_KEYS], ids=[c[0] for c in UNKNOWN_KEYS]
)
def test_unknown_keys(base, edits, expected):
    assert problems_of(edited(base, edits)) == expected


# A fault's known keys follow its kind: crash reads at_time, wrong_root reads
# perturb_seed, the other kinds read neither, and an unknown kind reads both so
# that its kind error stands alone.
FAULT_KEYS = [
    ("silent_at_time", {"kind": "silent", "at_time": 50},
     ["agents.faults[0].at_time: unknown field"]),
    ("crash_perturb_seed", {"kind": "crash", "at_time": 4, "perturb_seed": 1},
     ["agents.faults[0].perturb_seed: unknown field"]),
    ("wrong_root_at_time", {"kind": "wrong_root", "at_time": 4},
     ["agents.faults[0].at_time: unknown field"]),
    ("equivocate_both", {"kind": "equivocate", "at_time": 4, "perturb_seed": 1},
     ["agents.faults[0].at_time: unknown field", "agents.faults[0].perturb_seed: unknown field"]),
    ("bad_attestation_perturb_seed", {"kind": "bad_attestation", "perturb_seed": "x"},
     ["agents.faults[0].perturb_seed: unknown field"]),
    ("unknown_kind_both", {"kind": "evil", "at_time": 4, "perturb_seed": 1},
     [f"agents.faults[0].kind: must be one of {KINDS}"]),
    ("unhashable_kind", {"kind": ["silent"], "at_time": 4},
     [f"agents.faults[0].kind: must be one of {KINDS}"]),
]


@pytest.mark.parametrize(
    "fault, expected", [c[1:] for c in FAULT_KEYS], ids=[c[0] for c in FAULT_KEYS]
)
def test_fault_keys_follow_the_kind(fault, expected):
    data = edited(GENERATED, {FAULTS: [{"agent_index": 0, **fault}]})
    assert problems_of(data) == expected


def test_each_fault_kind_parses_with_its_own_keys():
    faults = [
        {"agent_index": 0, "kind": "crash", "at_time": 4},
        {"agent_index": 1, "kind": "wrong_root", "perturb_seed": 2},
        {"agent_index": 2, "kind": "silent"},
        {"agent_index": 3, "kind": "equivocate"},
        {"agent_index": 4, "kind": "bad_attestation"},
    ]
    data = edited(GENERATED, {"agents.n": 5, "agents.m": 3, FAULTS: faults})
    specs = parse_scenario(data, b"").faults
    assert [(f.kind, f.at_time, f.perturb_seed) for f in specs] == [
        ("crash", 4, 0),
        ("wrong_root", None, 2),
        ("silent", None, 0),
        ("equivocate", None, 0),
        ("bad_attestation", None, 0),
    ]


def test_run_names_a_misspelt_nested_key(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(edited(GENERATED, {"net.drop_rat": 0.5})), encoding="utf-8")
    assert cli.main(["run", path.as_posix()]) == 1
    assert capsys.readouterr().err == "invalid scenario: net.drop_rat: unknown field\n"


# Each problem an explicit bidder entry can have, with the entry's other
# fields valid; an entry names its own index, and a bad address ends the
# entry's checks.
ENTRY = "bidders.explicit.1"
EXPLICIT_ENTRIES = [
    ("unknown_key_then_fields", {f"{ENTRY}.x": 1, f"{ENTRY}.amount": 0},
     ["bidders.explicit[1].x: unknown field",
      "bidders.explicit[1].amount: amount must be in [1, 2^100]"]),
    ("unknown_keys_in_entry_order", {ENTRY: {"b": 1, "address": "bb" * 20, "a": 2,
                                             "amount": 7, "height": 2}},
     ["bidders.explicit[1].b: unknown field", "bidders.explicit[1].a: unknown field"]),
    ("unknown_key_then_address", {f"{ENTRY}.x": 1, f"{ENTRY}.address": "b"},
     ["bidders.explicit[1].x: unknown field",
      "bidders.explicit[1].address: must be 40 hex chars"]),
    ("height_missing", {f"{ENTRY}.height": DELETE}, ["bidders.explicit[1].height: required"]),
    ("height_bool", {f"{ENTRY}.height": True},
     ["bidders.explicit[1].height: must be an integer"]),
    ("height_float", {f"{ENTRY}.height": 2.0},
     ["bidders.explicit[1].height: must be an integer"]),
    ("height_negative_and_amount_bool", {f"{ENTRY}.height": -3, f"{ENTRY}.amount": False},
     ["bidders.explicit[1].amount: amount must be an integer or decimal string",
      "bidders.explicit[1].height: must be >= 0"]),
    ("address_with_a_space", {f"{ENTRY}.address": "bb" * 19 + "b "},
     ["bidders.explicit[1].address: must be 40 hex chars"]),
    ("address_with_a_non_ascii_digit", {f"{ENTRY}.address": "bb" * 19 + "b٣"},
     ["bidders.explicit[1].address: must be 40 hex chars"]),
    ("address_missing", {f"{ENTRY}.address": DELETE},
     ["bidders.explicit[1].address: must be 40 hex chars"]),
    ("address_not_a_string", {f"{ENTRY}.address": 7},
     ["bidders.explicit[1].address: must be 40 hex chars"]),
    ("bad_address_skips_the_other_fields", {f"{ENTRY}.address": "b" * 41,
                                            f"{ENTRY}.amount": 0, f"{ENTRY}.height": 9},
     ["bidders.explicit[1].address: must be 40 hex chars"]),
    ("two_entries_in_order", {"bidders.explicit.0.height": None, f"{ENTRY}.amount": "x"},
     ["bidders.explicit[0].height: must be an integer",
      "bidders.explicit[1].amount: amount string must be decimal digits"]),
]


@pytest.mark.parametrize(
    "edits, expected", [c[1:] for c in EXPLICIT_ENTRIES], ids=[c[0] for c in EXPLICIT_ENTRIES]
)
def test_explicit_entry_diagnostics(edits, expected):
    assert problems_of(edited(EXPLICIT, edits)) == expected


def test_explicit_entries_read_as_bidder_entries():
    data = edited(EXPLICIT, {"bidders.explicit.0.address": "aB" * 20})
    bidders = parse_scenario(data, b"").bidders
    assert bidders == (BidderEntry(b"\xab" * 20, 5, 1), BidderEntry(b"\xbb" * 20, 7, 2))
    assert all(type(b) is BidderEntry for b in bidders)


def test_top_level_must_be_object():
    assert problems_of([]) == ["scenario: must be a JSON object"]


def test_valid_bases_parse():
    assert len(parse_scenario(GENERATED, b"").bidders) == 12
    sc = parse_scenario(EXPLICIT, b"")
    assert [(b.amount, b.height) for b in sc.bidders] == [(5, 1), (7, 2)]


def test_a_scenario_holds_the_hash_of_its_bytes_not_the_bytes():
    raw = json.dumps(EXPLICIT).encode("utf-8")
    sc = parse_scenario(json.loads(raw), raw)
    assert sc.scenario_hash == hashlib.sha256(raw).hexdigest()
    assert all(field is not raw and field != raw for field in sc)


# Inputs that once escaped as TypeError, ValueError or OverflowError.
CRASHES = [
    ("faults_int", GENERATED, {FAULTS: 5}, ["agents.faults: must be a list"]),
    ("faults_null", GENERATED, {FAULTS: None}, ["agents.faults: must be a list"]),
    ("partitions_int", GENERATED, {PARTS: 5}, ["net.partitions: must be a list"]),
    ("partitions_null", GENERATED, {PARTS: None}, ["net.partitions: must be a list"]),
    ("r_max_null", GENERATED, {"consensus.r_max": None},
     ["consensus.r_max: must be an integer"]),
    ("r_max_str", GENERATED, {"consensus.r_max": "x"}, ["consensus.r_max: must be an integer"]),
    ("timeout_null", GENERATED, {"consensus.round_timeout": None},
     ["consensus.round_timeout: must be an integer"]),
    ("timeout_str", GENERATED, {"consensus.round_timeout": "x"},
     ["consensus.round_timeout: must be an integer"]),
    ("drop_huge_int", GENERATED, {"net.drop_rate": 10**400},
     ["net.drop_rate: must be in [0, 1]"]),
    ("shape_nan", GENERATED, {DIST: dict(PARETO, shape=math.nan)},
     ["bidders.generator.distribution.shape: must be > 0"]),
    ("shape_nan_among_others", GENERATED, {"max_time": 0, DIST: dict(PARETO, shape=math.nan)},
     ["scenario.max_time: must be >= 1", "bidders.generator.distribution.shape: must be > 0"]),
    ("amount_non_decimal_digit", EXPLICIT, {AMOUNT: "²"},
     ["bidders.explicit[0].amount: amount string must be decimal digits"]),
    ("amount_5000_digits", EXPLICIT, {AMOUNT: "1" * 5000},
     ["bidders.explicit[0].amount: amount must be in [1, 2^100]"]),
]


@pytest.mark.parametrize(
    "base, edits, expected", [c[1:] for c in CRASHES], ids=[c[0] for c in CRASHES]
)
def test_malformed_input_is_invalid_not_a_crash(base, edits, expected):
    assert problems_of(edited(base, edits)) == expected


@pytest.mark.parametrize(
    "base, edits", [c[1:3] for c in CRASHES], ids=[c[0] for c in CRASHES]
)
def test_cli_run_reports_malformed_input(tmp_path, capsys, base, edits):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(edited(base, edits)), encoding="utf-8")
    assert cli.main(["run", path.as_posix()]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("path", [FAULTS, PARTS])
@pytest.mark.parametrize("value", ["", {}, "ab", {"a": 1}])
def test_list_fields_reject_strings_and_objects(path, value):
    # once iterated as characters or keys: empty ones passed as no entries
    assert problems_of(edited(GENERATED, {path: value})) == [f"{path}: must be a list"]


@pytest.mark.parametrize("exp", ["aa " * 20 + "aaaa", "aa\n" * 20 + "aaaa", "aa" * 31 + "  "])
def test_measurement_with_whitespace_is_not_valid_hex(exp):
    # bytes.fromhex skips the whitespace and reads fewer than 32 bytes
    assert problems_of(edited(GENERATED, {"agents.expected_measurement": exp})) == [
        "agents.expected_measurement: not valid hex"
    ]


def test_measurement_hex_reads_as_32_bytes():
    data = edited(GENERATED, {"agents.expected_measurement": "aB" * 32})
    assert parse_scenario(data, b"").expected_measurement == b"\xab" * 32


def test_decimal_amounts_keep_leading_zeros():
    # amount strings are ASCII digits only: "٣" and "٠…5" are refused (DIAGNOSTICS)
    data = edited(
        EXPLICIT, {AMOUNT: "0" * 40 + "9", "bidders.explicit.1.amount": "0" * 10 + "1" + "0" * 30}
    )
    assert [b.amount for b in parse_scenario(data, b"").bidders] == [9, 10**30]


def test_amount_string_past_the_int_digit_limit_is_out_of_range():
    assert problems_of(edited(EXPLICIT, {AMOUNT: "0" * 5000 + "9"})) == [
        "bidders.explicit[0].amount: amount must be in [1, 2^100]"
    ]


@pytest.mark.parametrize(
    "content",
    [b'{"seed": ' + b"1" * 5000 + b"}", b"[" * 100_000 + b"]" * 100_000, b'{"seed": "\xff"}'],
    ids=["5000_digit_int", "deep_nesting", "not_utf8"],
)
def test_unreadable_scenario_file_is_invalid(tmp_path, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    with pytest.raises(InvalidScenario) as err:
        load_scenario(path.as_posix())
    assert err.value.problems[0].startswith("scenario file: not valid JSON")


def test_shape_beyond_float_range_draws_like_infinite_shape():
    big = parse_scenario(edited(GENERATED, {DIST: dict(PARETO, shape=10**400)}), b"")
    inf = parse_scenario(edited(GENERATED, {DIST: dict(PARETO, shape=math.inf)}), b"")
    assert big.bidders == inf.bidders
    assert {b.amount for b in big.bidders} == {1000}


# -- pareto draws past float range clamp to the largest amount --------------------


@pytest.mark.parametrize(
    "count, scale, shape",
    [(10_000, 1000, 0.01), (64, 1000, 1e-300), (64, 10**400, 1.5)],
    ids=["shape_0.01", "shape_1e-300", "scale_10^400"],
)
def test_pareto_overflow_clamps(count, scale, shape):
    data = edited(GENERATED, {"bidders.generator.count": count, DIST: dict(PARETO, scale=scale,
                                                                          shape=shape)})
    amounts = [b.amount for b in parse_scenario(data, b"").bidders]
    assert len(amounts) == count
    assert MAX_SINGLE_AMOUNT in amounts
    assert all(1 <= a <= MAX_SINGLE_AMOUNT for a in amounts)


def test_pareto_overflow_leaves_heights_drawn_as_before():
    # heights come from the same stream after each amount draw; clamping must
    # not skip or add a draw
    small = edited(GENERATED, {"bidders.generator.count": 64, DIST: dict(PARETO, shape=1.5)})
    huge = edited(small, {f"{DIST}.scale": 10**400})
    assert [b.height for b in parse_scenario(small, b"").bidders] == [
        b.height for b in parse_scenario(huge, b"").bidders
    ]


def test_cli_gen_pareto_overflow(capsys):
    assert cli.main(["gen", "--bidders", "10000", "--dist", "pareto:1000,0.01"]) == 0
    assert json.loads(capsys.readouterr().out)["bidders"]["generator"]["count"] == 10000


# -- property: one arbitrary field never crashes the parser ------------------------


def _paths(node, prefix=""):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        path = f"{prefix}{key}"
        yield path
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + ".")


FULL = edited(GENERATED, {
    "bidders.generator.count": 8,
    FAULTS: [{"agent_index": 0, "kind": "crash", "at_time": 4},
             {"agent_index": 1, "kind": "wrong_root", "perturb_seed": 2}],
    PARTS: [{"from_time": 0, "to_time": 9, "side_a": [0], "side_b": [1, 2]}],
})
FULL_PARETO = edited(FULL, {DIST: PARETO})
BASES = [(base, path) for base in (FULL, FULL_PARETO, EXPLICIT) for path in _paths(base)]

json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.text(max_size=8)
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.sampled_from([0, 1, -1, 2**64, MAX_SINGLE_AMOUNT + 1, "auto", "10", "aa" * 20])
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(BASES), json_like | st.just(DELETE))
def test_one_arbitrary_field_returns_or_raises_invalid(base_path, value):
    base, path = base_path
    # a large population is valid, only slow to generate
    assume(not (path.endswith(".count") and isinstance(value, int) and value > 64))
    try:
        parse_scenario(edited(base, {path: value}), b"")
    except InvalidScenario:
        pass
