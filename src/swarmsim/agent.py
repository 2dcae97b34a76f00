"""Sovereign agent: watches the ledger, clears the auction, votes on settlement.

The agent is a pure state machine. Handlers take one input (a ledger event,
a peer envelope, or a timer) and return a list of actions; the simulation
driver owns all I/O, so replaying the same inputs reproduces the same
actions byte for byte. The signing key lives inside an enclave mock and
never appears in any action or log.

Phases walk Monitoring -> Computing -> CrossValidating -> Signing -> Done,
with CrossValidating -> Computing allowed for a conflict re-check,
CrossValidating -> Done for an agent that never signed and sees the
settlement, and any phase -> Aborted. Signature shares are produced
lazily: a validator signs when it acks, a proposer signs its own share
only once a quorum of acks is in hand, and no agent ever signs two
different settlement digests in one run.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from . import auction, commitment, consensus, wallet
from .auction import AuctionConfig, SettlementTx
from .consensus import (
    Ack,
    AbortMsg,
    Envelope,
    Nack,
    Propose,
    RoundConfig,
    NACK_DIGEST_MISMATCH,
    NACK_NOT_READY,
    NACK_ROOT_MISMATCH,
    proposer_for,
)
from .ledger import (
    BLOCK_SEALED,
    FUNDING_RECEIVED,
    SETTLEMENT_EXECUTED,
    Contribution,
    LedgerEvent,
)
from .wallet import MultisigPolicy, SignatureShare

AGENT_CODE_VERSION = "swarmsim-agent/1.0.0"
AGENT_MEASUREMENT = hashlib.sha256(AGENT_CODE_VERSION.encode("utf-8")).digest()

PHASE_MONITORING = "monitoring"
PHASE_COMPUTING = "computing"
PHASE_CROSS_VALIDATING = "cross_validating"
PHASE_SIGNING = "signing"
PHASE_DONE = "done"
PHASE_ABORTED = "aborted"

class OutOfOrderEvent(Exception):
    pass


class SigningGuardViolation(Exception):
    """The agent was asked to sign a second, different settlement digest."""


# -- enclave mock ------------------------------------------------------------


class AttestationTriple(NamedTuple):
    measurement: bytes
    verifying_key: bytes
    attestation: bytes

    @classmethod
    def quote(cls, measurement: bytes, verifying_key: bytes) -> AttestationTriple:
        """The triple whose quote binds `measurement` to `verifying_key`."""
        return cls(measurement, verifying_key, _quote(measurement, verifying_key))


def _quote(measurement: bytes, verifying_key: bytes) -> bytes:
    return hashlib.sha256(measurement + verifying_key).digest()


def verify_attestation(triple: AttestationTriple, expected_measurement: bytes) -> bool:
    """Accept iff the code is the expected one and the quote binds (measurement, key)."""
    return triple.measurement == expected_measurement and triple.attestation == _quote(
        triple.measurement, triple.verifying_key
    )


class EnclaveMock:
    """Key confinement plus a code measurement.

    The enclave holds the signing key as a key object, never as raw bytes,
    and derives its verifying key once. The key is reachable only through
    sign(); it is excluded from repr so it cannot leak into logs or
    transcripts by accident.
    """

    __slots__ = ("_key", "_verifying_key")
    measurement = AGENT_MEASUREMENT

    def __init__(self, signing_key: bytes):
        if len(signing_key) != wallet.KEY_LEN:
            raise ValueError(f"signing key must be {wallet.KEY_LEN} bytes")
        self._key = Ed25519PrivateKey.from_private_bytes(signing_key)
        self._verifying_key = wallet.verifying_key_for(self._key)

    @property
    def verifying_key(self) -> bytes:
        return self._verifying_key

    def attest(self) -> AttestationTriple:
        return AttestationTriple.quote(self.measurement, self._verifying_key)

    def sign(self, digest: bytes) -> bytes:
        return wallet.sign(self._key, digest)

    def __repr__(self) -> str:
        return f"EnclaveMock(code_version={AGENT_CODE_VERSION!r})"


# -- actions ------------------------------------------------------------------


class SendPeer(NamedTuple):
    to: int
    envelope: Envelope


class SubmitSettlement(NamedTuple):
    tx: SettlementTx
    digest: bytes  # the digest the shares sign, so the submit line need not re-encode tx
    shares: tuple[SignatureShare, ...]


class SetTimer(NamedTuple):
    duration: int


class Log(NamedTuple):
    phase: str
    event: str
    detail: dict


AgentAction = SendPeer | SubmitSettlement | SetTimer | Log


# -- the state machine ---------------------------------------------------------


class Agent:
    def __init__(
        self,
        index: int,
        enclave: EnclaveMock,
        policy: MultisigPolicy,
        auction_cfg: AuctionConfig,
        rounds: RoundConfig,
        expected_measurement: bytes,
    ):
        self.index = index
        self.enclave = enclave
        self.policy = policy
        self.auction_cfg = auction_cfg
        self.rounds = rounds
        self.expected_measurement = expected_measurement

        self.phase = PHASE_MONITORING
        self.view: list[Contribution] | None = []  # released once cleared
        self.clearing_price: int | None = None
        self.bid_count = 0  # in-window bidders at the last _recompute
        self.root: bytes | None = None
        self.tx: SettlementTx | None = None
        self.digest: bytes | None = None
        self._head = None  # SHA-256 state of self.tx's encoding up to its full refunds
        self._full: bytearray | None = None  # the full refunds, encoded from the first refresh on
        self.round = 0
        self.roster: tuple[int, ...] = ()
        self.signed_digest: bytes | None = None
        self.submitted = False

        self._signed_share: SignatureShare | None = None
        self._acks: dict[int, SignatureShare] = {}
        self._proposed = False
        self._last_key: tuple[int, int] | None = None

    # -- setup ------------------------------------------------------------

    def attest(self) -> AttestationTriple:
        return self.enclave.attest()

    def observe_attestations(self, triples: list[AttestationTriple]) -> list[AgentAction]:
        """Derive the quorum roster from the published attestation triples."""
        included, excluded = [], []
        for i, t in enumerate(triples):
            (included if verify_attestation(t, self.expected_measurement) else excluded).append(i)
        self.roster = tuple(included)
        actions: list[AgentAction] = [
            self._log("roster", included=included, excluded=excluded)
        ]
        if self.index not in self.roster:
            # Excluded agents stay quiet; settlement can proceed without them.
            actions += self._abort("attestation_rejected")
        return actions

    # -- handlers ----------------------------------------------------------

    def on_ledger_event(self, ev: LedgerEvent, now: int) -> list[AgentAction]:
        key = (ev.height, ev.index)
        if self._last_key is not None and key <= self._last_key:
            raise OutOfOrderEvent(f"event at {key} after {self._last_key}")
        self._last_key = key

        if ev.kind == FUNDING_RECEIVED and self.phase == PHASE_MONITORING:
            # the bulk of every run: before the window-end seal a funding only joins the view
            self.view.append(ev.payload)
            return []
        if self.phase == PHASE_ABORTED or self.phase == PHASE_DONE:
            if ev.kind == SETTLEMENT_EXECUTED and self.phase == PHASE_ABORTED:
                return [self._log("settled_after_abort", digest=ev.payload.digest.hex())]
            return []

        if ev.kind == FUNDING_RECEIVED:
            return self._on_funding(ev.payload)
        if ev.kind == BLOCK_SEALED:
            return self._on_seal(ev.height)
        return self._on_settlement(ev.payload)  # SETTLEMENT_EXECUTED, the third kind

    def on_peer_message(self, env: Envelope, now: int) -> list[AgentAction]:
        if self.phase in (PHASE_DONE, PHASE_ABORTED):
            return []
        sender = env.sender
        if sender == self.index:
            return []
        if sender not in self.roster or sender >= self.policy.n:
            return [self._log("unknown_sender", sender=sender)]
        if not consensus.open_envelope(env, self.policy):
            return [self._log("bad_transport_sig", sender=sender)]

        msg = env.msg
        if isinstance(msg, Propose):
            return self._handle_propose(sender, msg)
        if isinstance(msg, Ack):
            return self._handle_ack(sender, msg)
        if isinstance(msg, Nack):
            return self._handle_nack(sender, msg)
        if isinstance(msg, AbortMsg):
            # Advisory only: a lone faulty Abort must not veto settlement.
            return [self._log("peer_abort", sender=sender, round=msg.round_index)]
        return []

    def on_timer(self, now: int) -> list[AgentAction]:
        if self.phase in (PHASE_DONE, PHASE_ABORTED, PHASE_MONITORING):
            return []
        if self.round + 1 >= self.rounds.r_max:
            actions = self._abort("rounds_exhausted")
            msg = AbortMsg(round_index=self.round)
            actions += self._broadcast(msg)
            return actions
        self.round += 1
        actions: list[AgentAction] = [
            self._log("round", round=self.round),
            SetTimer(self.rounds.round_timeout),
        ]
        if proposer_for(self.round, self.policy.n) == self.index and not self.submitted:
            actions += self._propose(self.round)
        return actions

    # -- ledger event details ------------------------------------------------

    def _on_funding(self, tx: Contribution) -> list[AgentAction]:
        # Only cross_validating and signing agents get here, after the window-end
        # seal, so every funding is a late full refund that never moves the root.
        old, entry = self.digest, (tx.sender, tx.amount)
        if self._full is None:
            self._full = auction.encode_entries(bytearray(), self.tx.full_refunds)
        self._full += auction.encode_entries(bytearray(), (entry,))
        self.tx = self.tx._replace(full_refunds=self.tx.full_refunds + (entry,))
        self.digest = auction.full_refund_digest(self._head, self._full)
        return [
            self._log(
                "refresh",
                height=tx.block_height,
                old_digest=old.hex(),
                digest=self.digest.hex(),
            )
        ]

    def _on_seal(self, height: int) -> list[AgentAction]:
        if self.phase != PHASE_MONITORING or height != self.auction_cfg.window.end_height:
            return []
        actions = [self._goto(PHASE_COMPUTING)]
        self._recompute()
        actions.append(
            self._goto(
                PHASE_CROSS_VALIDATING,
                root=self.root.hex(),
                clearing_price=str(self.clearing_price),
                settlement_digest=self.digest.hex(),
            )
        )
        actions.append(SetTimer(self.rounds.round_timeout))
        if proposer_for(0, self.policy.n) == self.index:
            actions += self._propose(0)
        return actions

    def _on_settlement(self, receipt) -> list[AgentAction]:
        foreign = receipt.digest != self.digest
        actions = [self._log("settled", digest=receipt.digest.hex(), foreign=foreign)]
        if foreign:
            executed, own = receipt.digest.hex(), self.digest.hex()
            actions.append(self._log("foreign_settlement", executed=executed, own=own))
        actions.append(self._goto(PHASE_DONE))
        return actions

    # -- consensus handling ----------------------------------------------------

    def _handle_propose(self, sender: int, p: Propose) -> list[AgentAction]:
        if proposer_for(p.round_index, self.policy.n) != sender:
            return [self._log("wrong_proposer", sender=sender, round=p.round_index)]
        if self.phase == PHASE_MONITORING:
            return self._nack(sender, p.round_index, NACK_NOT_READY)
        if p.root != self.root:
            actions = self._nack(
                sender,
                p.round_index,
                NACK_ROOT_MISMATCH,
                proposed_root=p.root.hex(),
                own_root=self.root.hex(),
            )
            actions += self._recheck()
            return actions
        if p.settlement_digest != self.digest:
            # Matching roots with diverging digests. Between honest agents, a
            # funding past the window end reached this agent after the
            # proposer had cleared and proposed, and this agent spliced it in
            # as a full refund (ROADMAP item 1, one close height, removes
            # that case). Otherwise the settlement was tampered with. Shout.
            actions = [
                self._log(
                    "digest_mismatch",
                    proposed=p.settlement_digest.hex(),
                    own=self.digest.hex(),
                    sender=sender,
                )
            ]
            actions += self._nack(sender, p.round_index, NACK_DIGEST_MISMATCH)
            return actions

        share = self._sign_current()
        actions = []
        if self.phase == PHASE_CROSS_VALIDATING:
            actions.append(self._goto(PHASE_SIGNING))
        ack = Ack(
            round_index=p.round_index,
            settlement_digest=self.digest,
            share=share,
        )
        actions.append(
            self._log("ack", to=sender, round=p.round_index, digest=self.digest.hex())
        )
        actions.append(SendPeer(to=sender, envelope=self._seal(ack)))
        return actions

    def _handle_ack(self, sender: int, a: Ack) -> list[AgentAction]:
        if not self._proposed or self.submitted:
            return [self._log("ack_ignored", sender=sender, round=a.round_index)]
        if a.settlement_digest != self.digest:
            return [
                self._log(
                    "stale_ack_ignored",
                    sender=sender,
                    digest=a.settlement_digest.hex(),
                )
            ]
        share = a.share
        if share.agent_index >= self.policy.n or not self.policy.verify(
            share.agent_index, self.digest, share.sig
        ):
            return [
                self._log("invalid_share_ignored", sender=sender, agent=share.agent_index)
            ]
        self._acks[share.agent_index] = share
        return self._maybe_submit()

    def _handle_nack(self, sender: int, nk: Nack) -> list[AgentAction]:
        # Debugging fallback for conflicts: log our own full-list summary so
        # the mismatch can be audited offline against the peer's.
        detail = {
            "sender": sender,
            "round": nk.round_index,
            "reason": nk.reason,
            "own_root": self.root.hex() if self.root else None,
            "own_bid_count": self.bid_count,
        }
        return [self._log("nack_received", **detail)]

    # -- internals ---------------------------------------------------------------

    def _recompute(self) -> None:
        bids, outside = auction.aggregate(self.view, self.auction_cfg.window)
        self.view = None  # its last reader: late fundings splice into tx instead
        ranked, self.clearing_price = auction.compute_clearing(self.auction_cfg, bids)
        self.root = commitment.bid_list_root(ranked)
        self.tx = auction.build_settlement(self.auction_cfg, ranked, self.clearing_price, outside)
        self.bid_count = len(ranked)
        self.digest, self._head = auction.hash_settlement(self.tx)
        self._full = None

    def _recheck(self) -> list[AgentAction]:
        """Conflict path: nothing to re-clear. Past the window-end seal only late
        fundings arrive, and `_on_funding` has already spliced each one in."""
        if self.phase != PHASE_CROSS_VALIDATING:
            return []
        return [
            self._goto(PHASE_COMPUTING),
            self._goto(PHASE_CROSS_VALIDATING),
            self._log("recheck", changed=False),
        ]

    def _sign_current(self) -> SignatureShare:
        if self.signed_digest is not None:
            if self.signed_digest != self.digest:
                raise SigningGuardViolation(
                    f"already signed {self.signed_digest.hex()}, "
                    f"refusing {self.digest.hex()}"
                )
            return self._signed_share
        sig = self.enclave.sign(self.digest)
        self.signed_digest = self.digest
        self._signed_share = SignatureShare(agent_index=self.index, sig=sig)
        return self._signed_share

    def _propose(self, round_index: int) -> list[AgentAction]:
        self._proposed = True
        msg = Propose(
            round_index=round_index,
            root=self.root,
            clearing_price=self.clearing_price,
            settlement_digest=self.digest,
        )
        actions: list[AgentAction] = [
            self._log(
                "propose",
                round=round_index,
                root=self.root.hex(),
                settlement_digest=self.digest.hex(),
            )
        ]
        actions += self._broadcast(msg)
        # m=1 needs no acks at all; the proposer's own share is the quorum.
        actions += self._maybe_submit()
        return actions

    def _maybe_submit(self) -> list[AgentAction]:
        """Submit once a quorum is in hand; callers have proposed, not submitted."""
        indices = set(self._acks) | {self.index}
        if len(indices) < self.policy.m:
            return []
        own = self._sign_current()
        actions = []
        if self.phase == PHASE_CROSS_VALIDATING:
            actions.append(self._goto(PHASE_SIGNING))
        bundle = dict(self._acks)
        bundle[self.index] = own
        shares = tuple(bundle[i] for i in sorted(bundle))
        self.submitted = True
        actions.append(
            self._log(
                "quorum",
                indices=sorted(bundle),
                digest=self.digest.hex(),
            )
        )
        actions.append(SubmitSettlement(tx=self.tx, digest=self.digest, shares=shares))
        return actions

    def _nack(self, to: int, round_index: int, reason: str, **detail) -> list[AgentAction]:
        msg = Nack(round_index=round_index, reason=reason)
        log = self._log("nack", to=to, round=round_index, reason=reason, **detail)
        return [log, SendPeer(to=to, envelope=self._seal(msg))]

    def _broadcast(self, msg) -> list[AgentAction]:
        env = self._seal(msg)
        return [SendPeer(to=i, envelope=env) for i in self.roster if i != self.index]

    def _seal(self, msg) -> Envelope:
        sig = self.enclave.sign(consensus.transport_digest(msg))
        return Envelope(sender=self.index, msg=msg, transport_sig=sig)

    def _abort(self, reason: str) -> list[AgentAction]:
        self.phase = PHASE_ABORTED
        return [self._log("abort", reason=reason)]

    def _goto(self, phase: str, **detail) -> Log:
        prev = self.phase
        self.phase = phase
        return Log(phase=phase, event="phase", detail={"from": prev, **detail})

    def _log(self, event: str, **detail) -> Log:
        return Log(phase=self.phase, event=event, detail=detail)
