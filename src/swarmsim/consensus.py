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
from typing import NamedTuple

from . import wallet
from .ledger import checked
from .wallet import SignatureShare

TRANSPORT_DOMAIN = b"swarmsim/peer-msg/v1"

NACK_ROOT_MISMATCH = "root_mismatch"
NACK_DIGEST_MISMATCH = "digest_mismatch"
NACK_NOT_READY = "not_ready"

NACK_REASONS = (NACK_ROOT_MISMATCH, NACK_DIGEST_MISMATCH, NACK_NOT_READY)


@checked
class RoundConfig(NamedTuple):
    r_max: int = 3
    round_timeout: int = 10

    def _check(self) -> None:
        if self.r_max < 1:
            raise ValueError("r_max must be >= 1")
        if self.round_timeout < 1:
            raise ValueError("round_timeout must be >= 1")


def proposer_for(round_index: int, n_agents: int) -> int:
    if n_agents < 1:
        raise ValueError("need at least one agent")
    return round_index % n_agents


class Propose(NamedTuple):
    round_index: int
    root: bytes
    clearing_price: int
    settlement_digest: bytes


class Ack(NamedTuple):
    round_index: int
    settlement_digest: bytes
    share: SignatureShare


@checked
class Nack(NamedTuple):
    round_index: int
    reason: str

    def _check(self) -> None:
        if self.reason not in NACK_REASONS:
            raise ValueError(f"unknown nack reason {self.reason!r}")


class AbortMsg(NamedTuple):
    round_index: int


PeerMessage = Propose | Ack | Nack | AbortMsg


# The message type each body's "type" key names; the network lines name it too.
MESSAGE_TYPES = {Propose: "propose", Ack: "ack", Nack: "nack", AbortMsg: "abort"}

# The bodies as canonical JSON: keys in sorted order, and every value filled
# in is an int, a decimal string, lowercase hex or a nack reason, none of
# which JSON escapes.
_PROPOSE = '{"clearing_price":"%d","root":"%s","round":%d,"settlement_digest":"%s","type":"propose"}'
_ACK = '{"round":%d,"settlement_digest":"%s","share":{"agent":%d,"sig":"%s"},"type":"ack"}'
_NACK = '{"reason":"%s","round":%d,"type":"nack"}'
_ABORT = '{"round":%d,"type":"abort"}'


def body_json(msg: PeerMessage) -> str:
    """The message body as canonical JSON; amounts decimal strings, bytes lowercase hex."""
    if isinstance(msg, Propose):
        return _PROPOSE % (
            msg.clearing_price, msg.root.hex(), msg.round_index, msg.settlement_digest.hex()
        )
    if isinstance(msg, Ack):
        share = msg.share
        return _ACK % (
            msg.round_index, msg.settlement_digest.hex(), share.agent_index, share.sig.hex()
        )
    if isinstance(msg, Nack):
        return _NACK % (msg.reason, msg.round_index)
    if isinstance(msg, AbortMsg):
        return _ABORT % msg.round_index
    raise TypeError(f"not a peer message: {type(msg).__name__}")


def transport_digest(msg: PeerMessage) -> bytes:
    return hashlib.sha256(TRANSPORT_DOMAIN + body_json(msg).encode()).digest()


class Envelope(NamedTuple):
    sender: int
    msg: PeerMessage
    transport_sig: bytes


def open_envelope(env: Envelope, policy: wallet.MultisigPolicy) -> bool:
    """True iff the envelope's signature verifies under its claimed sender's
    key in the policy, checked through the policy's memo."""
    return policy.verify(env.sender, transport_digest(env.msg), env.transport_sig)
