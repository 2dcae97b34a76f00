"""Uniform clearing-price computation and canonical settlement construction.

Every contribution inside the funding window counts toward its sender's
single aggregated bid. Bids are ranked by a strict total order
(total desc, first funding height asc, first tx id asc, address asc) so
two parties looking at the same chain always produce the same winner set,
the same clearing price (the lowest winning total), and byte-identical
settlement transactions. A settlement's digest can be extended by late full
refunds from a kept hash state, without encoding the settlement again.
"""

from __future__ import annotations

import hashlib
import struct
from typing import NamedTuple

from .ledger import (
    AMOUNT_LIMIT,
    ArithmeticOverflow,
    Contribution,
    FundingWindow,
    checked,
    encode_amount,
)


class DuplicateBidder(Exception):
    pass


@checked
class AuctionConfig(NamedTuple):
    n_items: int
    window: FundingWindow
    auction_id: bytes

    def _check(self) -> None:
        if self.n_items < 1:
            raise ValueError("n_items must be >= 1")
        if len(self.auction_id) != 32:
            raise ValueError("auction_id must be 32 bytes")


class AggregatedBid(NamedTuple):
    bidder: bytes
    total: int
    first_height: int
    first_tx: bytes

    def sort_key(self) -> tuple:
        # Strict total order; bidder uniqueness makes ties impossible.
        return (-self.total, self.first_height, self.first_tx, self.bidder)


_ONE_ITEM = encode_amount(1)  # every mint's item count on the wire
_ENTRY_LEN = 36  # address (20) || amount (16)
_NONCE = bytes(8)  # the settlement nonce, always 0


class SettlementTx(NamedTuple):
    auction_id: bytes
    mints: tuple[bytes, ...]  # winner addresses; each mints one identical item
    partial_refunds: tuple[tuple[bytes, int], ...]
    full_refunds: tuple[tuple[bytes, int], ...]


def aggregate(
    contribs: list[Contribution], window: FundingWindow
) -> tuple[list[AggregatedBid], list[Contribution]]:
    """Group in-window contributions per sender; everything else is late.

    The returned bids keep the earliest in-window contribution's (height,
    tx id) for tie-breaking; `contribs` must already be in ledger order,
    which resolves ties within a block by intra-block position.
    """
    lo, hi = window.start_height, window.end_height
    bids: dict[bytes, AggregatedBid] = {}
    late: list[Contribution] = []
    new = tuple.__new__  # skips the NamedTuple's Python-level __new__
    for tx in contribs:
        if not lo <= tx.block_height <= hi:
            late.append(tx)
            continue
        sender = tx.sender
        bid = bids.get(sender)
        if bid is None:
            total, height, tx_id = tx.amount, tx.block_height, tx.tx_id
        else:  # the bid again, with the new total
            total, height, tx_id = bid.total + tx.amount, bid.first_height, bid.first_tx
        if total >= AMOUNT_LIMIT:
            raise ArithmeticOverflow(f"aggregate for {sender.hex()} overflows 16 bytes")
        bids[sender] = new(AggregatedBid, (sender, total, height, tx_id))
    return list(bids.values()), late


def canonical_sort(bids: list[AggregatedBid]) -> list[AggregatedBid]:
    seen = set()
    for b in bids:
        if b.bidder in seen:
            raise DuplicateBidder(f"bidder {b.bidder.hex()} appears twice")
        seen.add(b.bidder)
    return sorted(bids, key=AggregatedBid.sort_key)


def compute_clearing(
    cfg: AuctionConfig, bids: list[AggregatedBid]
) -> tuple[list[AggregatedBid], int]:
    """Rank `bids` canonically; returns the ranking and the clearing price.

    The first `n_items` of the ranking win, and the last of them sets the
    price: undersubscribed sales clear at the lowest winning total, and an
    empty sale clears at 0.
    """
    ranked = canonical_sort(bids)
    return ranked, ranked[min(cfg.n_items, len(ranked)) - 1].total if ranked else 0


def build_settlement(
    cfg: AuctionConfig, ranked: list[AggregatedBid], price: int, late: list[Contribution]
) -> SettlementTx:
    """Assemble the single on-chain batch: mints, overpayment refunds, full refunds.

    `ranked` and `price` are what `compute_clearing` returns: its first
    `n_items` bids win at `price` and the rest lose. Zero-amount partial
    refunds are omitted. Full refunds list each loser's total (canonical
    order) followed by one entry per `late` (out-of-window) contribution in
    ledger order, so the whole funding inflow is accounted for:
    inflow = price * |winners| + all refunds.
    """
    winners, losers = ranked[: cfg.n_items], ranked[cfg.n_items :]
    return SettlementTx(
        auction_id=cfg.auction_id,
        mints=tuple([w.bidder for w in winners]),
        partial_refunds=tuple([(w.bidder, w.total - price) for w in winners if w.total > price]),
        full_refunds=tuple(
            [(l.bidder, l.total) for l in losers] + [(c.sender, c.amount) for c in late]
        ),
    )


def encode_settlement(tx: SettlementTx) -> bytearray:
    """Canonical byte encoding, the sole input to the settlement digest.

    Layout: auction_id (32) || for each section in (mints=0x01,
    partial=0x02, full=0x03): tag (1) || entry count as u32 BE || entries
    of address (20) || amount as 16-byte BE; then nonce as u64 BE. A mint's
    amount is its item count, always 1, and the nonce is always 0.
    Any field change anywhere changes the bytes.
    """
    out = bytearray()
    if len(tx.auction_id) != 32:
        raise ValueError("auction_id must be 32 bytes")
    out += tx.auction_id
    out.append(0x01)
    out += struct.pack(">I", len(tx.mints))
    for addr in tx.mints:
        if len(addr) != 20:
            raise ValueError("entry address must be 20 bytes")
        out += addr
        out += _ONE_ITEM
    for tag, entries in ((0x02, tx.partial_refunds), (0x03, tx.full_refunds)):
        out.append(tag)
        out += struct.pack(">I", len(entries))
        encode_entries(out, entries)
    out += _NONCE
    return out


def encode_entries(out: bytearray, entries) -> bytearray:
    """Append each refund entry to `out` as `encode_settlement` lays it out,
    checking its address and amount; returns `out`."""
    for addr, amount in entries:
        if len(addr) != 20:
            raise ValueError("entry address must be 20 bytes")
        out += addr
        if type(amount) is int and 0 <= amount < AMOUNT_LIMIT:
            out += amount.to_bytes(16, "big")
        else:
            out += encode_amount(amount)  # raises what a bad amount raises
    return out


def hash_settlement(tx: SettlementTx):
    """The SHA-256 digest of `encode_settlement(tx)`, and a copy of the hash
    state taken just before section 3's entry count.

    The full-refund section is last before the nonce, so appending a full
    refund leaves every byte before its count in place: `full_refund_digest`
    resumes from the state instead of hashing those bytes again.
    """
    encoding = memoryview(encode_settlement(tx))
    at = len(encoding) - len(_NONCE) - _ENTRY_LEN * len(tx.full_refunds) - 4
    h = hashlib.sha256(encoding[:at])
    head = h.copy()
    h.update(encoding[at:])
    return h.digest(), head


def full_refund_digest(head, full: bytes | bytearray) -> bytes:
    """The settlement digest from `head`, a state of `hash_settlement`, when
    section 3 holds the entries `full`, encoded by `encode_entries`."""
    h = head.copy()
    h.update(struct.pack(">I", len(full) // _ENTRY_LEN))
    h.update(full)
    h.update(_NONCE)
    return h.digest()
