"""Clearing math: aggregation, canonical order, pricing, settlement build."""

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
    canonical_sort,
    compute_clearing,
    encode_entries,
    encode_settlement,
    full_refund_digest,
    hash_settlement,
)
from swarmsim.ledger import AMOUNT_LIMIT, ArithmeticOverflow, Contribution, FundingWindow
from swarmsim.wallet import settlement_digest

A = b"\xaa" * 20
B = b"\xbb" * 20
C = b"\xcc" * 20
D = b"\xdd" * 20

WINDOW = FundingWindow(1, 2)


def contrib(sender, amount, height, tag=0):
    return Contribution(
        sender=sender,
        amount=amount,
        block_height=height,
        tx_id=bytes([tag]) * 32,
    )


def cfg(n_items, auction_id=b"\x07" * 32, window=WINDOW):
    return AuctionConfig(n_items=n_items, window=window, auction_id=auction_id)


def clear(n_items, contribs, window=WINDOW):
    """The ranking, the clearing price and the out-of-window contributions."""
    bids, late = aggregate(contribs, window)
    return *compute_clearing(cfg(n_items, window=window), canonical_sort(bids)), late


def settle(n_items, contribs):
    return build_settlement(cfg(n_items), *clear(n_items, contribs))


def test_aggregate_sums_per_address():
    bids, late = aggregate([contrib(A, 3, 1, 0), contrib(A, 4, 2, 1)], WINDOW)
    assert late == []
    (bid,) = bids
    assert bid.bidder == A and bid.total == 7 and bid.first_height == 1
    assert bid.first_tx == b"\x00" * 32


def test_aggregate_window_rule():
    early = contrib(A, 5, 0)
    bids, late = aggregate([early], WINDOW)
    assert bids == [] and late == [early]


def test_aggregate_empty():
    assert aggregate([], WINDOW) == ([], [])


def test_aggregate_keeps_pre_and_post_window_contributions():
    pre, post = contrib(A, 1, 0, 0), contrib(A, 2, 3, 1)
    bids, late = aggregate([pre, contrib(A, 5, 1, 2), post], WINDOW)
    assert late == [pre, post]
    assert bids[0].total == 5


def test_aggregate_total_overflow_rejected():
    half = AMOUNT_LIMIT // 2 + 1
    with pytest.raises(ArithmeticOverflow):
        aggregate([contrib(A, half, 1, 0), contrib(A, half, 1, 1)], WINDOW)


def test_canonical_sort_descending_totals():
    bids = [
        AggregatedBid(bidder=A, total=5, first_height=1, first_tx=b"\x00" * 32),
        AggregatedBid(bidder=B, total=3, first_height=1, first_tx=b"\x00" * 32),
        AggregatedBid(bidder=C, total=7, first_height=1, first_tx=b"\x00" * 32),
    ]
    assert [b.bidder for b in canonical_sort(bids)] == [C, A, B]


def test_canonical_sort_tie_break_earlier_height_first():
    bids = [
        AggregatedBid(bidder=B, total=5, first_height=2, first_tx=b"\x00" * 32),
        AggregatedBid(bidder=A, total=5, first_height=1, first_tx=b"\x00" * 32),
    ]
    assert [b.bidder for b in canonical_sort(bids)] == [A, B]


def test_canonical_sort_full_tie_break_chain():
    # same total and height: earlier tx id wins; same tx id: lower address
    bids = [
        AggregatedBid(bidder=B, total=5, first_height=1, first_tx=b"\x02" * 32),
        AggregatedBid(bidder=A, total=5, first_height=1, first_tx=b"\x02" * 32),
        AggregatedBid(bidder=C, total=5, first_height=1, first_tx=b"\x01" * 32),
    ]
    assert [b.bidder for b in canonical_sort(bids)] == [C, A, B]


def test_canonical_sort_single():
    bid = AggregatedBid(bidder=A, total=1, first_height=1, first_tx=b"\x00" * 32)
    assert canonical_sort([bid]) == [bid]


def test_canonical_sort_rejects_duplicate_bidder():
    bid = AggregatedBid(bidder=A, total=1, first_height=1, first_tx=b"\x00" * 32)
    with pytest.raises(DuplicateBidder):
        canonical_sort([bid, bid])


def test_clearing_price_is_lowest_winning_total():
    ranked, price, _ = clear(
        3,
        [
            contrib(A, 5, 1, 1),
            contrib(B, 3, 1, 2),
            contrib(C, 7, 1, 3),
            contrib(D, 2, 1, 4),
        ],
    )
    assert [b.bidder for b in ranked[:3]] == [C, A, B]
    assert price == 3
    assert [b.bidder for b in ranked[3:]] == [D]


def test_clearing_undersubscribed():
    ranked, price, _ = clear(3, [contrib(A, 10, 1)])
    assert [b.bidder for b in ranked[:3]] == [A]
    assert price == 10
    assert ranked[3:] == []


def test_clearing_tie_break_by_height():
    ranked, price, _ = clear(2, [contrib(A, 5, 1, 1), contrib(B, 5, 2, 2), contrib(C, 5, 2, 3)])
    # A first by height; B beats C on tx id at equal height
    assert [b.bidder for b in ranked[:2]] == [A, B]
    assert price == 5
    assert [b.bidder for b in ranked[2:]] == [C]


def test_clearing_no_bids():
    ranked, price, _ = clear(3, [])
    assert ranked[:3] == [] and price == 0


def test_build_settlement_refund_split():
    ranked, price, late = clear(
        3,
        [
            contrib(A, 5, 1, 1),
            contrib(B, 3, 1, 2),
            contrib(C, 7, 1, 3),
            contrib(D, 2, 1, 4),
        ],
    )
    tx = build_settlement(cfg(3), ranked, price, late)
    assert tx.mints == (C, A, B)
    assert tx.partial_refunds == ((C, 4), (A, 2))
    assert tx.full_refunds == ((D, 2),)
    partial = sum(a for _, a in tx.partial_refunds)
    full = sum(a for _, a in tx.full_refunds)
    retained = price * len(ranked[:3])
    assert 17 == retained + partial + full  # inflow 17 = retained 9 + refunds 8


def test_build_settlement_omits_zero_partial_refund():
    tx = settle(3, [contrib(A, 10, 1)])
    assert tx.mints == (A,)
    assert tx.partial_refunds == ()
    assert tx.full_refunds == ()


def test_build_settlement_empty():
    tx = settle(3, [])
    assert tx.mints == () and tx.partial_refunds == () and tx.full_refunds == ()


def test_build_settlement_refunds_out_of_window_after_losers():
    tx = settle(
        1,
        [contrib(A, 9, 1, 1), contrib(B, 4, 1, 2), contrib(C, 2, 0, 3), contrib(C, 3, 3, 4)],
    )
    # losers first (B), then out-of-window contributions in chain order
    assert tx.full_refunds == ((B, 4), (C, 2), (C, 3))


def test_encode_settlement_exact_layout():
    tx = SettlementTx(
        auction_id=b"\x07" * 32,
        mints=(A,),
        partial_refunds=((A, 2),),
        full_refunds=((B, 3), (C, 4)),
    )

    def entry(addr, amount):
        return addr + amount.to_bytes(16, "big")

    expected = (
        b"\x07" * 32
        + b"\x01" + struct.pack(">I", 1) + entry(A, 1)
        + b"\x02" + struct.pack(">I", 1) + entry(A, 2)
        + b"\x03" + struct.pack(">I", 2) + entry(B, 3) + entry(C, 4)
        + struct.pack(">Q", 0)
    )
    assert encode_settlement(tx) == expected


def test_encode_settlement_checks_every_mint_address():
    tx = SettlementTx(
        auction_id=b"\x07" * 32, mints=(A, b"\xaa" * 19), partial_refunds=(), full_refunds=()
    )
    with pytest.raises(ValueError):
        encode_settlement(tx)


def test_encode_settlement_is_injective_on_section_moves():
    base = SettlementTx(
        auction_id=b"\x07" * 32, mints=(), partial_refunds=((A, 2),), full_refunds=()
    )
    moved = SettlementTx(
        auction_id=b"\x07" * 32, mints=(), partial_refunds=(), full_refunds=((A, 2),)
    )
    assert encode_settlement(base) != encode_settlement(moved)


# small amounts (a zero refund still encodes) and amounts around 2^100,
# the largest single funding
entry_amounts = st.one_of(
    st.integers(min_value=0, max_value=1 << 20),
    st.integers(min_value=(1 << 100) - 5, max_value=(1 << 100) + 5),
)
entries = st.lists(
    st.tuples(st.binary(min_size=20, max_size=20), entry_amounts), max_size=6
).map(tuple)


def append_full_refunds(tx, entries):
    """The digest after each of `entries` is appended to tx's full refunds, as a
    late funding appends one: from the hash state `hash_settlement` kept, over
    the full refunds encoded once and grown one entry at a time."""
    digest, head = hash_settlement(tx)
    assert digest == settlement_digest(tx)
    full = encode_entries(bytearray(), tx.full_refunds)
    digests = []
    for entry in entries:
        full += encode_entries(bytearray(), (entry,))
        digests.append(full_refund_digest(head, full))
    return digests


@settings(max_examples=200, deadline=None)
@given(
    auction_id=st.binary(min_size=32, max_size=32),
    mints=st.lists(st.binary(min_size=20, max_size=20), max_size=4),
    partial=entries,
    full=entries,
    entry=st.tuples(st.binary(min_size=20, max_size=20), entry_amounts),
)
def test_append_full_refund_matches_a_fresh_encoding(auction_id, mints, partial, full, entry):
    tx = SettlementTx(
        auction_id=auction_id,
        mints=tuple(mints),
        partial_refunds=partial,
        full_refunds=full,
    )
    grown = SettlementTx(auction_id, tx.mints, partial, full + (entry,))
    assert append_full_refunds(tx, [entry]) == [settlement_digest(grown)]


def test_append_full_refund_chains():
    tx = settle(1, [contrib(A, 9, 1, 1), contrib(B, 4, 1, 2)])
    added = ((C, 3), (D, 1 << 100), (A, 1))
    grown = [
        SettlementTx(tx.auction_id, tx.mints, tx.partial_refunds, tx.full_refunds + added[:k])
        for k in (1, 2, 3)
    ]
    assert grown[-1].full_refunds == ((B, 4), (C, 3), (D, 1 << 100), (A, 1))
    assert append_full_refunds(tx, added) == [settlement_digest(g) for g in grown]


@pytest.mark.parametrize(
    "entry, exc",
    [
        ((b"\xaa" * 19, 1), ValueError),
        ((A, -1), ValueError),
        ((A, True), ValueError),
        ((A, AMOUNT_LIMIT), ArithmeticOverflow),
    ],
)
def test_append_full_refund_checks_the_entry_like_encode_settlement(entry, exc):
    tx = SettlementTx(auction_id=b"\x07" * 32, mints=(), partial_refunds=(), full_refunds=())
    with pytest.raises(exc):
        encode_settlement(SettlementTx(tx.auction_id, (), (), (entry,)))
    with pytest.raises(exc):
        append_full_refunds(tx, [entry])


amounts_strategy = st.lists(
    st.integers(min_value=1, max_value=50), min_size=0, max_size=30
)


@settings(max_examples=100, deadline=None)
@given(amounts=amounts_strategy, n_items=st.integers(min_value=1, max_value=8))
def test_conservation_property(amounts, n_items):
    contribs = [
        contrib(bytes([i + 1]) * 20, amt, 1, i) for i, amt in enumerate(amounts)
    ]
    ranked, price, late = clear(n_items, contribs)
    tx = build_settlement(cfg(n_items), ranked, price, late)
    partial = sum(a for _, a in tx.partial_refunds)
    full = sum(a for _, a in tx.full_refunds)
    retained = price * len(ranked[:n_items])
    assert sum(amounts) == retained + partial + full


@settings(max_examples=100, deadline=None)
@given(
    amounts=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=30),
    n_items=st.integers(min_value=1, max_value=8),
    extra=st.integers(min_value=1, max_value=50),
)
def test_adding_a_bid_never_lowers_the_price_when_fully_subscribed(
    amounts, n_items, extra
):
    # The price is the n_items-th highest total, an order statistic that can
    # only rise as bids arrive. Below full subscription the rule changes
    # (everyone wins at the lowest total), so the property needs P >= N.
    n_items = min(n_items, len(amounts))
    contribs = [
        contrib(bytes([i + 1]) * 20, amt, 1, i) for i, amt in enumerate(amounts)
    ]
    _, before, _ = clear(n_items, contribs)
    contribs.append(contrib(bytes([len(amounts) + 1]) * 20, extra, 1, 99))
    _, after, _ = clear(n_items, contribs)
    assert after >= before


def test_price_can_drop_while_undersubscribed():
    # boundary of the monotonicity property: a new lower bid still wins
    _, before, _ = clear(2, [contrib(A, 2, 1, 1)])
    _, after, _ = clear(2, [contrib(A, 2, 1, 1), contrib(B, 1, 1, 2)])
    assert before == 2
    assert after == 1


@settings(max_examples=100, deadline=None)
@given(amounts=amounts_strategy, n_items=st.integers(min_value=1, max_value=8))
def test_winner_count_is_min_of_items_and_bidders(amounts, n_items):
    contribs = [
        contrib(bytes([i + 1]) * 20, amt, 1, i) for i, amt in enumerate(amounts)
    ]
    ranked, _, _ = clear(n_items, contribs)
    assert len(ranked[:n_items]) == min(n_items, len(amounts))
    assert len(ranked[:n_items]) + len(ranked[n_items:]) == len(amounts)
