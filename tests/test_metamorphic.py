"""Metamorphic relations of the clearing rule (Chen, Cheung & Yiu 1998).

The oracle shares the auction's rules, so a rule wrong in both would pass the
engine-against-oracle checks. Each relation here states instead how the
settlement must move when the fundings move, and is checked on the engine
(`aggregate` -> `compute_clearing` -> `build_settlement`) and on
`oracle_from_contributions` alike. Fundings reach a real `Ledger`, so their
tx ids, which break ties between equal totals, follow the ledger's rule.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swarmsim.auction import AuctionConfig, aggregate, build_settlement, compute_clearing
from swarmsim.harness import oracle_from_contributions
from swarmsim.ledger import BLOCK_SEALED, FundingWindow, Ledger
from swarmsim.wallet import MultisigPolicy

AUCTION_ID = b"\x07" * 32
# The policy of a ledger that only grows a chain: nothing here settles on it.
CHAIN_ONLY = MultisigPolicy(agent_keys=(bytes(32),), m=1)
SENDERS = [bytes([i + 1]) * 20 for i in range(5)]


def engine(n_items, window, contribs):
    cfg = AuctionConfig(n_items=n_items, window=window, auction_id=AUCTION_ID)
    bids, late = aggregate(contribs, window)
    ranked, price = compute_clearing(cfg, bids)
    return build_settlement(cfg, ranked, price, late), price


def oracle(n_items, window, contribs):
    return oracle_from_contributions(AUCTION_ID, n_items, window, contribs)


CLEARERS = pytest.mark.parametrize("clear", [engine, oracle], ids=["engine", "oracle"])


def ledgered(fundings):
    """The contributions a ledger records for (sender, amount, height)
    fundings, submitted in list order; heights must not decrease."""
    led = Ledger(CHAIN_ONLY)
    for sender, amount, height in fundings:
        while led.next_height < height:
            led.seal_block()
        led.submit_funding(sender, amount, height)
    led.seal_block()
    return [tx for ev in led.events if ev.kind == BLOCK_SEALED for tx in ev.payload]


def winner_totals(tx, price):
    """The sorted totals of the winners: the price plus each one's partial refund."""
    partial = dict(tx.partial_refunds)
    return sorted(price + partial.get(addr, 0) for addr in tx.mints)


@st.composite
def auctions(draw):
    start = draw(st.integers(0, 3))
    window = FundingWindow(start, start + draw(st.integers(0, 3)))
    fundings = draw(st.lists(
        st.tuples(
            st.sampled_from(SENDERS),
            st.integers(1, 1000),
            st.integers(0, window.end_height + 2),
        ),
        max_size=12,
    ))
    fundings.sort(key=lambda f: f[2])  # ledger order: by height, then as submitted
    return draw(st.integers(1, 5)), window, fundings


@CLEARERS
@settings(max_examples=60, deadline=None, derandomize=True)
@given(auctions(), st.sampled_from(SENDERS), st.integers(1, 1000))
def test_a_post_window_funding_adds_one_full_refund_at_the_end(clear, auction, sender, amount):
    n_items, window, fundings = auction
    tx, price = clear(n_items, window, ledgered(fundings))
    # last in ledger order: past the window and at no lower height than any other
    height = max([window.end_height + 1] + [f[2] for f in fundings])
    grown, grown_price = clear(n_items, window, ledgered(fundings + [(sender, amount, height)]))
    assert grown_price == price
    assert grown == tx._replace(full_refunds=tx.full_refunds + ((sender, amount),))


@CLEARERS
@settings(max_examples=60, deadline=None, derandomize=True)
@given(auctions(), st.integers(2, 5))
def test_scaling_every_amount_by_k_scales_the_price_and_the_winners_totals(clear, auction, k):
    # tx ids hash the amount, so among bids tied at the price the winners may
    # differ; their totals may not
    n_items, window, fundings = auction
    tx, price = clear(n_items, window, ledgered(fundings))
    scaled = [(sender, amount * k, height) for sender, amount, height in fundings]
    scaled_tx, scaled_price = clear(n_items, window, ledgered(scaled))
    assert scaled_price == k * price
    assert winner_totals(scaled_tx, scaled_price) == [k * t for t in winner_totals(tx, price)]


@CLEARERS
@settings(max_examples=60, deadline=None, derandomize=True)
@given(auctions(), st.data())
def test_splitting_an_in_window_funding_moves_no_price_total_or_partial_refund(clear, auction, data):
    n_items, window, fundings = auction
    splittable = [
        i for i, (_, amount, height) in enumerate(fundings)
        if amount >= 2 and window.contains(height)
    ]
    assume(splittable)
    i = data.draw(st.sampled_from(splittable))
    sender, amount, height = fundings[i]
    part = data.draw(st.integers(1, amount - 1))
    split = fundings[:i] + [(sender, part, height), (sender, amount - part, height)] + fundings[i + 1:]
    tx, price = clear(n_items, window, ledgered(fundings))
    split_tx, split_price = clear(n_items, window, ledgered(split))
    assert split_price == price
    assert winner_totals(split_tx, split_price) == winner_totals(tx, price)
    assert sum(a for _, a in split_tx.partial_refunds) == sum(a for _, a in tx.partial_refunds)
