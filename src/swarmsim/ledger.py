"""Simulated chain: sealed blocks, a watched multisig wallet, once-only settlement.

Block height is the only clock here. A block is final the moment it seals
(no reorgs), and every event carries a (height, intra_block_index) pair
that totally orders a run. Amounts are plain Python ints in base units;
they must fit the 16-byte big-endian wire encoding used across the
package, so the usable range is [0, 2**128).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

ADDRESS_LEN = 20
TX_ID_LEN = 32
AMOUNT_LIMIT = 1 << 128  # exclusive upper bound imposed by the 16-byte encoding


class LedgerError(Exception):
    pass


class ZeroAmount(LedgerError):
    pass


class HeightInPast(LedgerError):
    pass


class WindowNotClosed(LedgerError):
    pass


class BadSignatureBundle(LedgerError):
    pass


class AlreadySettled(LedgerError):
    pass


class InsufficientBalance(LedgerError):
    """Settlement outflow exceeds wallet balance. Conservation is broken;

    this is a bug in whoever built the transaction and the run must abort.
    """


class ArithmeticOverflow(LedgerError):
    pass


def check_address(addr: bytes) -> bytes:
    if not isinstance(addr, bytes) or len(addr) != ADDRESS_LEN:
        raise ValueError(f"address must be {ADDRESS_LEN} bytes, got {addr!r}")
    return addr


def check_amount(value: int) -> int:
    """Validate an amount against the wire-encodable range."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"amount must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError("amount must be non-negative")
    if value >= AMOUNT_LIMIT:
        raise ArithmeticOverflow(f"amount {value} does not fit 16 bytes")
    return value


def encode_amount(value: int) -> bytes:
    return check_amount(value).to_bytes(16, "big")


@dataclass(frozen=True)
class Contribution:
    sender: bytes
    amount: int
    block_height: int
    tx_id: bytes

    def key(self) -> tuple[int, bytes]:
        return (self.block_height, self.tx_id)


@dataclass(frozen=True)
class FundingWindow:
    start_height: int
    end_height: int  # inclusive

    def __post_init__(self) -> None:
        if self.start_height < 0 or self.end_height < self.start_height:
            raise ValueError(
                f"invalid window [{self.start_height}, {self.end_height}]"
            )

    def contains(self, height: int) -> bool:
        return self.start_height <= height <= self.end_height


@dataclass(frozen=True)
class Block:
    height: int
    txs: tuple[Contribution, ...]


FUNDING_RECEIVED = "FundingReceived"
BLOCK_SEALED = "BlockSealed"
SETTLEMENT_EXECUTED = "SettlementExecuted"


@dataclass(frozen=True)
class LedgerEvent:
    """One entry of the totally ordered chain log.

    `payload` is the record matching `kind`: a Contribution, a Block, or a
    SettlementReceipt.
    """

    kind: str
    height: int
    index: int
    payload: object

    def order_key(self) -> tuple[int, int]:
        return (self.height, self.index)


@dataclass(frozen=True)
class SettlementReceipt:
    auction_id: bytes
    digest: bytes
    height: int
    index: int
    mint_count: int
    partial_refund_total: int
    full_refund_total: int
    retained_balance: int
    tx: object  # the executed SettlementTx, kept for post-run auditing


class Ledger:
    """Single-owner mutable chain state.

    Only the simulation driver mutates a Ledger; agents receive immutable
    events and snapshots. Settlement is gated on the registered multisig
    policy and executes at most once per auction id.
    """

    def __init__(self):
        self._policy = None
        self._queues: dict[int, list[Contribution]] = {}
        self._blocks: list[Block] = []
        self._seq = 0
        self.balance = 0
        self.events: list[LedgerEvent] = []
        self.settled: dict[bytes, SettlementReceipt] = {}

    # -- wallet policy ----------------------------------------------------

    def register_wallet(self, policy) -> None:
        self._policy = policy

    # -- chain growth ------------------------------------------------------

    @property
    def next_height(self) -> int:
        return len(self._blocks)

    def submit_funding(self, sender: bytes, amount: int, at_height: int) -> bytes:
        """Queue a funding transfer into the (future) block at `at_height`.

        The tx id is a hash of the content plus a per-ledger sequence
        counter, so resubmitting identical transfers yields distinct ids
        and identical runs yield identical ids.
        """
        check_address(sender)
        check_amount(amount)
        if amount == 0:
            raise ZeroAmount("funding amount must be positive")
        if at_height < self.next_height:
            raise HeightInPast(
                f"height {at_height} already sealed (next is {self.next_height})"
            )
        tx_id = hashlib.sha256(
            sender
            + encode_amount(amount)
            + struct.pack(">Q", at_height)
            + struct.pack(">Q", self._seq)
        ).digest()
        self._seq += 1
        tx = Contribution(sender=sender, amount=amount, block_height=at_height, tx_id=tx_id)
        self._queues.setdefault(at_height, []).append(tx)
        return tx_id

    def seal_block(self) -> Block:
        """Finalize the next height with everything queued for it."""
        height = self.next_height
        txs = tuple(self._queues.pop(height, ()))
        block = Block(height=height, txs=txs)
        self._blocks.append(block)
        for i, tx in enumerate(txs):
            self.balance += tx.amount
            self._emit(FUNDING_RECEIVED, height, i, tx)
        self._emit(BLOCK_SEALED, height, len(txs), block)
        return block

    def _emit(self, kind: str, height: int, index: int, payload) -> LedgerEvent:
        ev = LedgerEvent(kind=kind, height=height, index=index, payload=payload)
        self.events.append(ev)
        return ev

    # -- reads --------------------------------------------------------------

    def contributions_in_window(self, window: FundingWindow) -> list[Contribution]:
        """All sealed contributions with height inside the window, in ledger order."""
        if self.next_height <= window.end_height:
            raise WindowNotClosed(
                f"window end {window.end_height} not sealed yet "
                f"(next height is {self.next_height})"
            )
        return [
            tx
            for block in self._blocks[window.start_height : window.end_height + 1]
            for tx in block.txs
        ]

    # -- settlement ----------------------------------------------------------

    def execute_settlement(self, tx, sigs) -> SettlementReceipt:
        """Verify the signature bundle and apply the batch atomically.

        The settlement lands in its own immediately-sealed block (after
        sealing any queued fundings first) so the event log stays totally
        ordered by (height, index).
        """
        from . import wallet  # local import: wallet depends on auction types only

        if self._policy is None:
            raise LedgerError("no wallet policy registered")
        if tx.auction_id in self.settled:
            raise AlreadySettled(f"auction {tx.auction_id.hex()} already settled")
        digest = wallet.settlement_digest(tx)
        verdict = wallet.verify_bundle(self._policy, digest, sigs)
        if not verdict.accepted:
            raise BadSignatureBundle(f"bundle rejected: {verdict.reason}")

        outflow = sum(a for _, a in tx.partial_refunds) + sum(
            a for _, a in tx.full_refunds
        )
        if outflow > self.balance:
            raise InsufficientBalance(
                f"refund outflow {outflow} exceeds wallet balance {self.balance}"
            )

        # Flush any pending block, then give the settlement its own.
        if self._queues.get(self.next_height):
            self.seal_block()
        height = self.next_height
        self.balance -= outflow
        receipt = SettlementReceipt(
            auction_id=tx.auction_id,
            digest=digest,
            height=height,
            index=0,
            mint_count=len(tx.mints),
            partial_refund_total=sum(a for _, a in tx.partial_refunds),
            full_refund_total=sum(a for _, a in tx.full_refunds),
            retained_balance=self.balance,
            tx=tx,
        )
        self.settled[tx.auction_id] = receipt
        self._emit(SETTLEMENT_EXECUTED, height, 0, receipt)
        self._blocks.append(Block(height=height, txs=()))
        self._emit(BLOCK_SEALED, height, 1, self._blocks[-1])
        return receipt

    def settlement_count(self) -> int:
        return len(self.settled)
