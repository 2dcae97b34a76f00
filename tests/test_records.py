"""The eight records that check their fields. Each is a NamedTuple whose
subclass checks in `__new__`, and whose `_make`, the one `_replace` calls,
goes through the class: a NamedTuple's own `_make` skips `__new__`. So a bad
field raises the same ValueError however the record is made."""

import re

import pytest

from swarmsim.auction import AuctionConfig
from swarmsim.consensus import NACK_NOT_READY, NACK_REASONS, Nack, RoundConfig
from swarmsim.ledger import FundingWindow
from swarmsim.netsim import FAULT_CRASH, FAULT_KINDS, FaultSpec, NetConfig
from swarmsim.wallet import MultisigPolicy, SignatureShare

pytestmark = pytest.mark.golden_matrix

WINDOW = FundingWindow(1, 5)
KEYS = (b"\x01" * 32, b"\x02" * 32)

# (a valid record, the field to break, a bad value, the error message)
BAD_FIELDS = [
    (WINDOW, "start_height", -1, "invalid window [-1, 5]"),
    (WINDOW, "end_height", 0, "invalid window [1, 0]"),
    (AuctionConfig(2, WINDOW, bytes(32)), "n_items", 0, "n_items must be >= 1"),
    (AuctionConfig(2, WINDOW, bytes(32)), "auction_id", bytes(31), "auction_id must be 32 bytes"),
    (RoundConfig(), "r_max", 0, "r_max must be >= 1"),
    (RoundConfig(), "round_timeout", 0, "round_timeout must be >= 1"),
    (Nack(0, NACK_NOT_READY), "reason", "bogus", "unknown nack reason 'bogus'"),
    (NetConfig(), "delay_min", -1, "need 0 <= delay_min <= delay_max"),
    (NetConfig(), "delay_max", 0, "need 0 <= delay_min <= delay_max"),
    (NetConfig(), "drop_rate", -0.1, "drop_rate must be in [0, 1]"),
    (NetConfig(), "drop_rate", 1.5, "drop_rate must be in [0, 1]"),
    (FaultSpec(0, FAULT_CRASH, at_time=3), "kind", "gossip", "unknown fault kind 'gossip'"),
    (FaultSpec(0, FAULT_CRASH, at_time=3), "at_time", None, "crash fault needs at_time"),
    (SignatureShare(0, bytes(64)), "agent_index", -1, "agent_index must be non-negative"),
    (SignatureShare(0, bytes(64)), "sig", bytes(63), "signature must be 64 bytes"),
    (MultisigPolicy(KEYS, 2), "m", 0, "threshold m=0 outside 1..2"),
    (MultisigPolicy(KEYS, 2), "m", 3, "threshold m=3 outside 1..2"),
    (MultisigPolicy(KEYS, 2), "agent_keys", KEYS[:1] * 2, "agent keys must be pairwise distinct"),
    (MultisigPolicy(KEYS, 2), "agent_keys", (KEYS[0], bytes(31)), "verifying key must be 32 bytes"),
]

# Records at the edge of every check, each of which a check must let pass.
EDGES = [
    FundingWindow(0, 0),
    FundingWindow(3, 3),
    AuctionConfig(1, WINDOW, bytes(32)),
    RoundConfig(1, 1),
    *(Nack(0, reason) for reason in NACK_REASONS),
    NetConfig(delay_min=0, delay_max=0, drop_rate=0.0),
    NetConfig(delay_min=2, delay_max=2, drop_rate=1.0),
    FaultSpec(0, FAULT_CRASH, at_time=0),
    *(FaultSpec(0, kind) for kind in FAULT_KINDS if kind != FAULT_CRASH),
    SignatureShare(0, bytes(64)),
    MultisigPolicy(KEYS, 1),
    MultisigPolicy(KEYS, 2),
]


@pytest.mark.parametrize(
    "good, field, bad, message",
    BAD_FIELDS,
    ids=[f"{type(good).__name__}.{field}" for good, field, _, _ in BAD_FIELDS],
)
def test_a_bad_field_raises_the_same_error_built_or_replaced(good, field, bad, message):
    fields = {**good._asdict(), field: bad}
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=exact):
        type(good)(**fields)
    with pytest.raises(ValueError, match=exact):
        type(good)._make(fields.values())
    with pytest.raises(ValueError, match=exact):
        good._replace(**{field: bad})


@pytest.mark.parametrize("record", EDGES, ids=lambda record: type(record).__name__)
def test_edge_values_pass_built_and_replaced(record):
    for again in (type(record)(*record), record._replace(), type(record)._make(record)):
        assert type(again) is type(record) and again == record


def test_a_replaced_policy_holds_a_memo_of_its_own():
    policy = MultisigPolicy(KEYS, 2)
    policy._verified[(KEYS[0], bytes(32), bytes(64))] = False
    assert policy._replace(m=1)._verified == {}
