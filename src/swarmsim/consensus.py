"""Peer messages for the request-and-ack settlement rounds.

One agent per round (round mod n) proposes the (root, price, digest) triple
it computed locally; the rest ack with a signature share or nack with a
reason. Message bodies are canonical JSON (sorted keys, no whitespace) with
binary fields hex-encoded; the transport signature covers a domain-prefixed
hash of those bytes so a settlement share can never double as a transport
signature. Abort notices are advisory: receivers log them but never abort
on a peer's say-so alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import wallet
from .transcript import canonical_json
from .wallet import SignatureShare

TRANSPORT_DOMAIN = b"swarmsim/peer-msg/v1"

NACK_ROOT_MISMATCH = "root_mismatch"
NACK_DIGEST_MISMATCH = "digest_mismatch"
NACK_NOT_READY = "not_ready"

NACK_REASONS = (NACK_ROOT_MISMATCH, NACK_DIGEST_MISMATCH, NACK_NOT_READY)


@dataclass(frozen=True)
class RoundConfig:
    r_max: int = 3
    round_timeout: int = 10

    def __post_init__(self) -> None:
        if self.r_max < 1:
            raise ValueError("r_max must be >= 1")
        if self.round_timeout < 1:
            raise ValueError("round_timeout must be >= 1")


def proposer_for(round_index: int, n_agents: int) -> int:
    if n_agents < 1:
        raise ValueError("need at least one agent")
    return round_index % n_agents


@dataclass(frozen=True)
class Propose:
    round_index: int
    root: bytes
    clearing_price: int
    settlement_digest: bytes


@dataclass(frozen=True)
class Ack:
    round_index: int
    settlement_digest: bytes
    share: SignatureShare


@dataclass(frozen=True)
class Nack:
    round_index: int
    reason: str

    def __post_init__(self) -> None:
        if self.reason not in NACK_REASONS:
            raise ValueError(f"unknown nack reason {self.reason!r}")


@dataclass(frozen=True)
class AbortMsg:
    round_index: int


PeerMessage = Propose | Ack | Nack | AbortMsg


def body_dict(msg: PeerMessage) -> dict:
    """JSON form of a message body; amounts decimal strings, bytes lowercase hex."""
    if isinstance(msg, Propose):
        return {
            "type": "propose",
            "round": msg.round_index,
            "root": msg.root.hex(),
            "clearing_price": str(msg.clearing_price),
            "settlement_digest": msg.settlement_digest.hex(),
        }
    if isinstance(msg, Ack):
        return {
            "type": "ack",
            "round": msg.round_index,
            "settlement_digest": msg.settlement_digest.hex(),
            "share": {"agent": msg.share.agent_index, "sig": msg.share.sig.hex()},
        }
    if isinstance(msg, Nack):
        return {"type": "nack", "round": msg.round_index, "reason": msg.reason}
    if isinstance(msg, AbortMsg):
        return {"type": "abort", "round": msg.round_index}
    raise TypeError(f"not a peer message: {type(msg).__name__}")


def parse_body(data: dict) -> PeerMessage:
    kind = data.get("type")
    if kind == "propose":
        return Propose(
            round_index=data["round"],
            root=bytes.fromhex(data["root"]),
            clearing_price=int(data["clearing_price"]),
            settlement_digest=bytes.fromhex(data["settlement_digest"]),
        )
    if kind == "ack":
        return Ack(
            round_index=data["round"],
            settlement_digest=bytes.fromhex(data["settlement_digest"]),
            share=SignatureShare(
                agent_index=data["share"]["agent"],
                sig=bytes.fromhex(data["share"]["sig"]),
            ),
        )
    if kind == "nack":
        return Nack(round_index=data["round"], reason=data["reason"])
    if kind == "abort":
        return AbortMsg(round_index=data["round"])
    raise ValueError(f"unknown message type {kind!r}")


def body_bytes(msg: PeerMessage) -> bytes:
    return canonical_json(body_dict(msg)).encode("utf-8")


def transport_digest(msg: PeerMessage) -> bytes:
    return hashlib.sha256(TRANSPORT_DOMAIN + body_bytes(msg)).digest()


@dataclass(frozen=True)
class Envelope:
    sender: int
    msg: PeerMessage
    transport_sig: bytes


def open_envelope(env: Envelope, policy: wallet.MultisigPolicy) -> bool:
    """True iff the envelope's signature verifies under its claimed sender's
    key in the policy, checked through the policy's memo."""
    return policy.verify(env.sender, transport_digest(env.msg), env.transport_sig)
