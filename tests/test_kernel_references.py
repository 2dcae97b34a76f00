"""The clearing kernel against plain reference versions of itself.

Each reference below is the straightforward form the kernel had before it
was tuned for large populations: `aggregate` through `window.contains` and
two dict probes per contribution, `canonical_sort` with a key of its own,
`encode_settlement` through `encode_amount` on every amount, `encode_bid_leaf`
by field name, `merkle_root` by index pairs over every level, and the
oracle's winner selection by `heapq.nsmallest` over an intermediate record
list. The tuned kernel must give equal values on every input, and raise the
same errors on bad amounts and malformed bids.
"""

import hashlib
import heapq
import itertools
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmsim.auction import (
    AggregatedBid,
    AuctionConfig,
    DuplicateBidder,
    SettlementTx,
    aggregate,
    build_settlement,
    compute_clearing,
    encode_entries,
    encode_settlement,
)
from swarmsim.commitment import (
    bid_list_root,
    encode_bid_leaf,
    leaf_hash,
    merkle_root,
    prove,
    verify_inclusion,
)
from swarmsim.harness import oracle_from_contributions
from swarmsim.ledger import (
    AMOUNT_LIMIT,
    ArithmeticOverflow,
    Contribution,
    FundingWindow,
    Ledger,
    ZeroAmount,
    encode_amount,
)
from swarmsim.wallet import MultisigPolicy

pytestmark = pytest.mark.golden_matrix

# The policy of a ledger that only grows a chain: no test here settles on it.
CHAIN_ONLY = MultisigPolicy(agent_keys=(bytes(32),), m=1)

WINDOW = FundingWindow(2, 5)
AUCTION_ID = b"\x42" * 32
SHARED_TX_IDS = (b"\x01" * 32, b"\x02" * 32)  # forces ties on the first tx id


# -- references ----------------------------------------------------------------


def reference_aggregate(contribs, window):
    totals, first, late = {}, {}, []
    for tx in contribs:
        if not window.contains(tx.block_height):
            late.append(tx)
            continue
        new_total = totals.get(tx.sender, 0) + tx.amount
        if new_total >= AMOUNT_LIMIT:
            raise ArithmeticOverflow(f"aggregate for {tx.sender.hex()} overflows 16 bytes")
        totals[tx.sender] = new_total
        if tx.sender not in first:
            first[tx.sender] = tx
    bids = [
        AggregatedBid(
            bidder=sender,
            total=total,
            first_height=first[sender].block_height,
            first_tx=first[sender].tx_id,
        )
        for sender, total in totals.items()
    ]
    return bids, late


def reference_canonical_sort(bids):
    seen = set()
    for b in bids:
        if b.bidder in seen:
            raise DuplicateBidder(f"bidder {b.bidder.hex()} appears twice")
        seen.add(b.bidder)
    return sorted(bids, key=lambda b: (-b.total, b.first_height, b.first_tx, b.bidder))


def reference_encode_settlement(tx):
    out = bytearray()
    if len(tx.auction_id) != 32:
        raise ValueError("auction_id must be 32 bytes")
    out += tx.auction_id
    sections = ((0x01, [(a, 1) for a in tx.mints]), (0x02, tx.partial_refunds),
                (0x03, tx.full_refunds))
    for tag, entries in sections:
        out.append(tag)
        out += struct.pack(">I", len(entries))
        for addr, amount in entries:
            if len(addr) != 20:
                raise ValueError("entry address must be 20 bytes")
            out += addr
            out += encode_amount(amount)
    out += struct.pack(">Q", 0)
    return bytes(out)


def reference_encode_bid_leaf(bid):
    if len(bid.bidder) != 20 or len(bid.first_tx) != 32:
        raise ValueError("malformed bid fields")
    return (
        bid.bidder
        + bid.total.to_bytes(16, "big")
        + bid.first_height.to_bytes(8, "big")
        + bid.first_tx
    )


def reference_merkle_root(leaves):
    if not leaves:
        return hashlib.sha256(b"\x02").digest()
    level = [leaf_hash(l) for l in leaves]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(hashlib.sha256(b"\x01" + level[i] + level[i + 1]).digest())
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def reference_oracle(auction_id, n_items, window, contribs):
    totals, first, outside = {}, {}, []
    for sender, amount, height, tx_id in contribs:
        if window.start_height <= height <= window.end_height:
            totals[sender] = totals.get(sender, 0) + amount
            if sender not in first:
                first[sender] = (height, tx_id)
        else:
            outside.append((sender, amount))
    records = [(sender, total, *first[sender]) for sender, total in totals.items()]

    def rank(rec):
        return (-rec[1], rec[2], rec[3], rec[0])

    winners = heapq.nsmallest(n_items, records, key=rank)
    price = winners[-1][1] if winners else 0
    winner_set = {rec[0] for rec in winners}
    losers = sorted((rec for rec in records if rec[0] not in winner_set), key=rank)
    tx = SettlementTx(
        auction_id=auction_id,
        mints=tuple(rec[0] for rec in winners),
        partial_refunds=tuple((rec[0], rec[1] - price) for rec in winners if rec[1] - price > 0),
        full_refunds=tuple((rec[0], rec[1]) for rec in losers) + tuple(outside),
    )
    return tx, price


# -- instances -----------------------------------------------------------------


@st.composite
def instances(draw):
    """0-70 bidders with in-window totals up to 2^128 - 1, each paid in one to
    three fundings, plus fundings outside the window from bidders and
    strangers, shuffled; totals, heights and tx ids tie often. Hypothesis
    draws the shape and a seed; a Random from that seed fills in the
    values, which keeps a 70-bidder example cheap to generate."""
    n_bids = draw(st.integers(0, 70))
    n_items = draw(st.integers(1, 80))
    n_outside = draw(st.integers(0, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    total_ranges = [(1, 4), (1, 10**12), (AMOUNT_LIMIT - 2**16, AMOUNT_LIMIT - 1)]

    def tx_id():
        return rng.choice(SHARED_TX_IDS) if rng.random() < 0.5 else rng.randbytes(32)

    senders = [i.to_bytes(20, "big") for i in range(1, n_bids + 1)]
    contribs = []
    for sender in senders:
        total = rng.randint(*rng.choice(total_ranges))
        cuts = sorted({rng.randrange(1, total) for _ in range(rng.randint(0, 2)) if total > 1})
        bounds = [0, *cuts, total]
        for lo, hi in zip(bounds, bounds[1:]):
            height = rng.randint(WINDOW.start_height, WINDOW.end_height)
            contribs.append(Contribution(sender, hi - lo, height, tx_id()))
    strangers = [i.to_bytes(20, "big") for i in range(100, 103)]
    for _ in range(n_outside):
        sender = rng.choice(senders + strangers)
        height = rng.choice([0, 1, 6, 7])
        contribs.append(Contribution(sender, rng.randint(1, 10**6), height, tx_id()))
    rng.shuffle(contribs)
    return n_items, contribs


@settings(max_examples=500, deadline=None, derandomize=True)
@given(instance=instances())
def test_the_kernel_equals_its_references(instance):
    n_items, view = instance
    cfg = AuctionConfig(n_items=n_items, window=WINDOW, auction_id=AUCTION_ID)

    bids, late = aggregate(view, WINDOW)
    ref_bids, ref_late = reference_aggregate(view, WINDOW)
    assert bids == ref_bids and late == ref_late
    assert all(type(b) is AggregatedBid for b in bids)

    ordered, clearing_price = compute_clearing(cfg, bids)
    assert ordered == reference_canonical_sort(ref_bids)
    assert len(ordered[:n_items]) == min(n_items, len(bids))

    leaves = [encode_bid_leaf(b) for b in ordered]
    assert merkle_root(leaves) == reference_merkle_root(leaves)
    assert bid_list_root(ordered) == reference_merkle_root(leaves)

    tx = build_settlement(cfg, ordered, clearing_price, late)
    encoding = encode_settlement(tx)
    assert encoding == reference_encode_settlement(tx)

    as_tuples = [(c.sender, c.amount, c.block_height, c.tx_id) for c in view]
    oracle_tx, price = oracle_from_contributions(AUCTION_ID, n_items, WINDOW, as_tuples)
    assert (oracle_tx, price) == reference_oracle(AUCTION_ID, n_items, WINDOW, as_tuples)
    assert (oracle_tx, price) == (tx, clearing_price)


def test_merkle_root_and_its_levels_equal_the_reference_at_every_size():
    # 0-70 leaves: every level of every tree up to 70 is odd or even at some
    # size, and every leaf's proof, one step per level it is not promoted at,
    # climbs to the reference root
    leaves = [hashlib.sha256(bytes([i])).digest() * 2 + bytes(12) for i in range(70)]
    for n in range(71):
        root = reference_merkle_root(leaves[:n])
        assert merkle_root(leaves[:n]) == root
        for k in range(n):
            assert verify_inclusion(root, leaves[k], prove(leaves[:n], k))


def test_aggregate_overflow_matches_the_reference():
    big = AMOUNT_LIMIT - 1
    view = [Contribution(b"\xaa" * 20, big, 3, b"\x00" * 32),
            Contribution(b"\xaa" * 20, 1, 4, b"\x01" * 32)]
    for fn in (aggregate, reference_aggregate):
        with pytest.raises(ArithmeticOverflow, match="aa" * 20):
            fn(view, WINDOW)


# -- exception parity on bad amounts ---------------------------------------------

BAD_AMOUNTS = [True, -1, 1.5, AMOUNT_LIMIT]


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("amount", BAD_AMOUNTS)
@pytest.mark.parametrize("section", ["partial_refunds", "full_refunds"])
def test_encode_settlement_raises_what_the_reference_raises(amount, section):
    entries = {"partial_refunds": (), "full_refunds": ()}
    entries[section] = ((b"\xaa" * 20, 5), (b"\xbb" * 20, amount))
    tx = SettlementTx(auction_id=AUCTION_ID, mints=(b"\xcc" * 20,), **entries)
    expected = raised(reference_encode_settlement, tx)
    assert expected[0] in (ValueError, ArithmeticOverflow)
    assert raised(encode_settlement, tx) == expected


@pytest.mark.parametrize("amount", BAD_AMOUNTS)
def test_append_full_refund_raises_what_the_reference_raises(amount):
    # a late funding's full refund is encoded and checked by `encode_entries`
    # alone before the agent splices it into its kept hash state
    entry = (b"\xaa" * 20, amount)
    bad = SettlementTx(AUCTION_ID, (), (), (entry,))
    assert raised(encode_entries, bytearray(), (entry,)) == raised(reference_encode_settlement, bad)


# -- exception parity on malformed bids --------------------------------------------

MALFORMED = {
    "bidder": b"\xaa" * 19,
    "first_tx": b"\x01" * 31,
    "total": AMOUNT_LIMIT,
    "first_height": -1,
}


@pytest.mark.parametrize(
    "fields",
    [c for r in range(1, 5) for c in itertools.combinations(sorted(MALFORMED), r)],
    ids="+".join,
)
def test_bid_list_root_raises_what_encode_bid_leaf_raises(fields):
    # each bad field alone and with the others, so the order of the checks shows
    good = AggregatedBid(b"\xbb" * 20, 5, 3, b"\x02" * 32)
    bad = good._replace(**{f: MALFORMED[f] for f in fields})
    expected = raised(reference_encode_bid_leaf, bad)
    assert expected[0] in (ValueError, OverflowError)
    assert raised(encode_bid_leaf, bad) == expected
    assert raised(bid_list_root, [good, bad]) == expected


@pytest.mark.parametrize(
    "amount, exc",
    [(True, ValueError), (-1, ValueError), (0, ZeroAmount), (1.5, ValueError),
     (AMOUNT_LIMIT, ArithmeticOverflow)],
)
def test_submit_funding_rejects_bad_amounts(amount, exc):
    ledger = Ledger(CHAIN_ONLY)
    with pytest.raises(Exception) as info:
        ledger.submit_funding(b"\xaa" * 20, amount, 0)
    assert type(info.value) is exc
    assert ledger._seq == 0 and not ledger._queues


@pytest.mark.parametrize("amount", [1, 2**64, AMOUNT_LIMIT - 1])
def test_funding_tx_id_keeps_its_layout(amount):
    ledger = Ledger(CHAIN_ONLY)
    ledger.submit_funding(b"\xbb" * 20, 7, 3)
    tx_id = ledger.submit_funding(b"\xaa" * 20, amount, 4)
    expected = hashlib.sha256(
        b"\xaa" * 20 + encode_amount(amount) + struct.pack(">Q", 4) + struct.pack(">Q", 1)
    ).digest()
    assert tx_id == expected
