"""Ledger mechanics: funding, sealing, settlement execution."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmsim import auction, wallet
from swarmsim.scenario import agent_signing_key
from swarmsim.ledger import (
    AMOUNT_LIMIT,
    BLOCK_SEALED,
    FUNDING_RECEIVED,
    SETTLEMENT_EXECUTED,
    AlreadySettled,
    ArithmeticOverflow,
    BadSignatureBundle,
    FundingWindow,
    HeightInPast,
    InsufficientBalance,
    Ledger,
    ZeroAmount,
    encode_amount,
)
from swarmsim.wallet import MultisigPolicy, SignatureShare

A = b"\xaa" * 20
B = b"\xbb" * 20
C = b"\xcc" * 20


def make_policy(n=3, m=2, seed=1):
    keys = [agent_signing_key(seed, i) for i in range(n)]
    policy = MultisigPolicy(
        agent_keys=tuple(wallet.verifying_key_for(k) for k in keys), m=m
    )
    return keys, policy


KEYS, POLICY = make_policy()


def sign_tx(tx, keys, indices):
    digest = wallet.settlement_digest(tx)
    return [SignatureShare(agent_index=i, sig=wallet.sign(keys[i], digest)) for i in indices]


def test_submit_returns_tx_id_and_balance_grows_after_seal():
    led = Ledger(POLICY)
    led.seal_block()  # height 0
    tx_id = led.submit_funding(A, 5, 1)
    assert isinstance(tx_id, bytes) and len(tx_id) == 32
    assert led.balance == 0  # pending until sealed
    led.seal_block()
    assert led.balance == 5


def test_identical_submissions_get_distinct_tx_ids():
    led = Ledger(POLICY)
    led.seal_block()
    t1 = led.submit_funding(A, 5, 1)
    t2 = led.submit_funding(A, 5, 1)
    assert t1 != t2


def test_zero_amount_rejected():
    led = Ledger(POLICY)
    with pytest.raises(ZeroAmount):
        led.submit_funding(A, 0, 0)


def test_amount_must_fit_sixteen_bytes():
    led = Ledger(POLICY)
    with pytest.raises(ArithmeticOverflow):
        led.submit_funding(A, AMOUNT_LIMIT, 0)
    led.submit_funding(A, AMOUNT_LIMIT - 1, 0)


def test_height_in_past_rejected():
    led = Ledger(POLICY)
    led.seal_block()
    led.seal_block()
    with pytest.raises(HeightInPast):
        led.submit_funding(A, 5, 1)


def test_bad_address_rejected():
    led = Ledger(POLICY)
    with pytest.raises(ValueError):
        led.submit_funding(b"\xaa" * 19, 5, 0)


def test_seal_empty_block():
    led = Ledger(POLICY)
    assert led.seal_block() == 0
    (ev,) = led.events
    assert ev.kind == BLOCK_SEALED and ev.payload == ()


def test_seal_preserves_submission_order():
    led = Ledger(POLICY)
    for who, amt in ((A, 1), (B, 2), (C, 3)):
        led.submit_funding(who, amt, 0)
    led.seal_block()
    sealed = led.events[-1]
    assert sealed.kind == BLOCK_SEALED
    assert [(t.sender, t.amount) for t in sealed.payload] == [(A, 1), (B, 2), (C, 3)]


def test_heights_are_consecutive():
    led = Ledger(POLICY)
    for expected in range(6):
        assert led.seal_block() == expected
    assert led.next_height == 6


def test_event_stream_is_totally_ordered():
    led = Ledger(POLICY)
    led.submit_funding(A, 1, 0)
    led.submit_funding(B, 2, 0)
    led.seal_block()
    led.seal_block()
    keys = [(ev.height, ev.index) for ev in led.events]
    assert keys == sorted(keys)
    assert [ev.kind for ev in led.events] == [
        FUNDING_RECEIVED,
        FUNDING_RECEIVED,
        BLOCK_SEALED,
        BLOCK_SEALED,
    ]


def fundings(led):
    """Every sealed contribution, in ledger order."""
    return [e.payload for e in led.events if e.kind == FUNDING_RECEIVED]


def settle_simple(m_sign=2):
    """Fund A with 7 and B with 3, clear 1 item, settle with m_sign shares."""
    keys, policy = make_policy()
    led = Ledger(policy)
    led.submit_funding(A, 7, 0)
    led.submit_funding(B, 3, 0)
    led.seal_block()
    window = FundingWindow(0, 0)
    cfg = auction.AuctionConfig(n_items=1, window=window, auction_id=b"\x01" * 32)
    bids, late = auction.aggregate(fundings(led), window)
    ranked, price = auction.compute_clearing(cfg, auction.canonical_sort(bids))
    tx = auction.build_settlement(cfg, ranked, price, late)
    sigs = sign_tx(tx, keys, range(m_sign))
    return led, tx, sigs


def test_execute_settlement_happy_path():
    led, tx, sigs = settle_simple()
    receipt = led.execute_settlement(tx, sigs)
    assert receipt.tx == tx and len(receipt.tx.mints) == 1
    assert receipt.full_refund_total == 3
    assert receipt.retained_balance == 7
    assert led.receipt is receipt
    assert sum(1 for ev in led.events if ev.kind == SETTLEMENT_EXECUTED) == 1


def test_a_funding_queued_at_the_next_height_is_sealed_before_the_settlement():
    led, tx, sigs = settle_simple()
    led.submit_funding(C, 3, led.next_height)
    receipt = led.execute_settlement(tx, sigs)
    # the settlement refunds B's 3 only; A's 7 and C's 3 stay
    assert receipt.retained_balance == 10
    tail = list(led.events)[-4:]
    assert [(ev.kind, ev.height, ev.index) for ev in tail] == [
        (FUNDING_RECEIVED, 1, 0),
        (BLOCK_SEALED, 1, 1),
        (SETTLEMENT_EXECUTED, 2, 0),
        (BLOCK_SEALED, 2, 1),
    ]
    assert tail[0].payload.sender == C and led.next_height == 3


def test_settlement_replay_rejected():
    led, tx, sigs = settle_simple()
    receipt = led.execute_settlement(tx, sigs)
    with pytest.raises(AlreadySettled):
        led.execute_settlement(tx, sigs)
    assert led.receipt is receipt


def test_a_second_settlement_of_another_auction_id_is_rejected():
    # the wallet sells once: a valid, affordable bundle for another id is refused too
    led, tx, sigs = settle_simple()
    receipt = led.execute_settlement(tx, sigs)
    other = tx._replace(auction_id=b"\x02" * 32)
    with pytest.raises(AlreadySettled):
        led.execute_settlement(other, sign_tx(other, KEYS, range(2)))
    assert led.receipt is receipt
    assert sum(1 for ev in led.events if ev.kind == SETTLEMENT_EXECUTED) == 1


def test_below_threshold_bundle_rejected():
    led, tx, sigs = settle_simple(m_sign=1)
    with pytest.raises(BadSignatureBundle):
        led.execute_settlement(tx, sigs)
    assert led.receipt is None


def test_overspending_settlement_rejected():
    keys, policy = make_policy()
    led = Ledger(policy)
    led.submit_funding(A, 5, 0)
    led.seal_block()
    tx = auction.SettlementTx(
        auction_id=b"\x01" * 32,
        mints=(A,),
        partial_refunds=(),
        full_refunds=((B, 6),),
    )
    with pytest.raises(InsufficientBalance):
        led.execute_settlement(tx, sign_tx(tx, keys, range(2)))


def test_encode_amount_is_sixteen_byte_big_endian():
    assert encode_amount(1) == b"\x00" * 15 + b"\x01"
    assert encode_amount(AMOUNT_LIMIT - 1) == b"\xff" * 16


@settings(max_examples=50, deadline=None)
@given(
    amounts=st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=8)
)
def test_conservation_exact_after_settlement(amounts):
    keys, policy = make_policy()
    led = Ledger(policy)
    senders = [bytes([i + 1]) * 20 for i in range(len(amounts))]
    for who, amt in zip(senders, amounts):
        led.submit_funding(who, amt, 0)
    led.seal_block()
    window = FundingWindow(0, 0)
    cfg = auction.AuctionConfig(n_items=2, window=window, auction_id=b"\x02" * 32)
    bids, late = auction.aggregate(fundings(led), window)
    tx = auction.build_settlement(
        cfg, *auction.compute_clearing(cfg, auction.canonical_sort(bids)), late
    )
    receipt = led.execute_settlement(tx, sign_tx(tx, keys, range(2)))
    refunds = receipt.partial_refund_total + receipt.full_refund_total
    assert sum(amounts) == receipt.retained_balance + refunds
