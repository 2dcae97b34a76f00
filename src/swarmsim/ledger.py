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
from collections import deque
from typing import NamedTuple

ADDRESS_LEN = 20
AMOUNT_LIMIT = 1 << 128  # exclusive upper bound imposed by the 16-byte encoding


class LedgerError(Exception):
    pass


class ZeroAmount(LedgerError):
    pass


class HeightInPast(LedgerError):
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


def checked(record: type) -> type:
    """Class decorator: check a NamedTuple record's fields on every build.

    Returns a subclass of the same name, with no instance dict, whose
    `__new__` runs the record's `_check` on what the NamedTuple built. Its
    `_make` builds through the class, so `_replace` checks too: a NamedTuple's
    own `_make` skips `__new__`."""

    def __new__(cls, *args, **kwargs):
        self = record.__new__(cls, *args, **kwargs)
        self._check()
        return self

    return type(record.__name__, (record,), {
        "__slots__": (),
        "__new__": __new__,
        "_make": classmethod(lambda cls, values: cls(*values)),
        "__module__": record.__module__,
        "__doc__": record.__doc__,
    })


class Contribution(NamedTuple):
    sender: bytes
    amount: int
    block_height: int
    tx_id: bytes


@checked
class FundingWindow(NamedTuple):
    start_height: int
    end_height: int  # inclusive

    def _check(self) -> None:
        if self.start_height < 0 or self.end_height < self.start_height:
            raise ValueError(
                f"invalid window [{self.start_height}, {self.end_height}]"
            )

    def contains(self, height: int) -> bool:
        return self.start_height <= height <= self.end_height


FUNDING_RECEIVED = "FundingReceived"
BLOCK_SEALED = "BlockSealed"
SETTLEMENT_EXECUTED = "SettlementExecuted"


class LedgerEvent(NamedTuple):
    """One entry of the totally ordered chain log, ordered by (height, index).

    `payload` is the record matching `kind`: a Contribution, the tuple of
    Contributions a block sealed, or a SettlementReceipt.
    """

    kind: str
    height: int
    index: int
    payload: object


class SettlementReceipt(NamedTuple):
    """What the ledger computed executing `tx`; its event holds height and index."""

    digest: bytes
    partial_refund_total: int
    full_refund_total: int
    retained_balance: int
    tx: object  # the executed SettlementTx


class Ledger:
    """Single-owner mutable chain state of one sale's wallet.

    Only the simulation driver mutates a Ledger; agents receive immutable
    events and snapshots. Settlement is gated on the wallet's multisig
    policy (a wallet.MultisigPolicy) and executes at most once: `receipt`
    is None until it does.
    """

    def __init__(self, policy):
        self._policy = policy
        self._queues: dict[int, list[Contribution]] = {}
        self.next_height = 0
        self._seq = 0
        self.balance = 0
        self.events: deque[LedgerEvent] = deque()
        self.receipt: SettlementReceipt | None = None

    # -- chain growth ------------------------------------------------------

    def submit_funding(self, sender: bytes, amount: int, at_height: int) -> bytes:
        """Queue a funding transfer into the (future) block at `at_height`.

        The tx id is a hash of the content plus a per-ledger sequence
        counter, so resubmitting identical transfers yields distinct ids
        and identical runs yield identical ids.
        """
        check_address(sender)
        check_amount(amount)  # the one check: the tx id below writes the bytes itself
        if amount == 0:
            raise ZeroAmount("funding amount must be positive")
        if at_height < self.next_height:
            raise HeightInPast(
                f"height {at_height} already sealed (next is {self.next_height})"
            )
        tx_id = hashlib.sha256(
            sender
            + amount.to_bytes(16, "big")
            + struct.pack(">QQ", at_height, self._seq)
        ).digest()
        self._seq += 1
        # tuple.__new__ skips the NamedTuple's Python-level __new__; same value
        tx = tuple.__new__(Contribution, (sender, amount, at_height, tx_id))
        self._queues.setdefault(at_height, []).append(tx)
        return tx_id

    def seal_block(self) -> int:
        """Finalize the next height with everything queued for it; returns that height."""
        height = self.next_height
        txs = tuple(self._queues.pop(height, ()))
        self.next_height += 1
        append, new = self.events.append, tuple.__new__
        for i, tx in enumerate(txs):
            self.balance += tx.amount
            append(new(LedgerEvent, (FUNDING_RECEIVED, height, i, tx)))
        self._emit(BLOCK_SEALED, height, len(txs), txs)
        return height

    def _emit(self, kind: str, height: int, index: int, payload) -> None:
        self.events.append(LedgerEvent(kind, height, index, payload))

    # -- settlement ----------------------------------------------------------

    def execute_settlement(self, tx, sigs) -> SettlementReceipt:
        """Verify the signature bundle and apply the batch atomically.

        The settlement lands in its own immediately-sealed block (after
        sealing any queued fundings first) so the event log stays totally
        ordered by (height, index).
        """
        from . import wallet  # local import: wallet depends on auction types only

        if self.receipt is not None:
            raise AlreadySettled(f"auction {self.receipt.tx.auction_id.hex()} already settled")
        digest = wallet.settlement_digest(tx)
        verdict = wallet.verify_bundle(self._policy, digest, sigs)
        if not verdict.accepted:
            raise BadSignatureBundle(f"bundle rejected: {verdict.reason}")

        partial = sum(a for _, a in tx.partial_refunds)
        full = sum(a for _, a in tx.full_refunds)
        outflow = partial + full
        if outflow > self.balance:
            raise InsufficientBalance(
                f"refund outflow {outflow} exceeds wallet balance {self.balance}"
            )

        # Flush any pending block, then give the settlement its own.
        if self._queues.get(self.next_height):
            self.seal_block()
        height = self.next_height
        self.balance -= outflow
        self.receipt = SettlementReceipt(
            digest=digest,
            partial_refund_total=partial,
            full_refund_total=full,
            retained_balance=self.balance,
            tx=tx,
        )
        self._emit(SETTLEMENT_EXECUTED, height, 0, self.receipt)
        self.next_height += 1
        self._emit(BLOCK_SEALED, height, 1, ())
        return self.receipt
