"""m-of-n multisig policy: settlement digests, shares, bundle verification.

Signatures are Ed25519 (32-byte keys, 64-byte signatures, deterministic),
applied directly to 32-byte digests. A bundle is accepted when at least m
distinct agent indexes contribute a share that verifies against that
index's registered key; garbage shares are ignored and never veto an
honest quorum. A policy remembers every (key, digest, signature) it has
checked, so one run's agents and ledger verify each distinct signature once.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .auction import SettlementTx, encode_settlement
from .ledger import checked

SIG_SCHEME = "ed25519"
KEY_LEN = 32
SIG_LEN = 64
DIGEST_LEN = 32

REJECT_EMPTY = "empty"
REJECT_UNKNOWN_INDEX_ONLY = "unknown_index_only"
REJECT_BELOW_THRESHOLD = "below_threshold"


@checked
class SignatureShare(NamedTuple):
    agent_index: int
    sig: bytes

    def _check(self) -> None:
        if self.agent_index < 0:
            raise ValueError("agent_index must be non-negative")
        if len(self.sig) != SIG_LEN:
            raise ValueError(f"signature must be {SIG_LEN} bytes")


@checked
class _Threshold(NamedTuple):
    agent_keys: tuple[bytes, ...]  # verifying keys, one per agent index
    m: int

    def _check(self) -> None:
        n = len(self.agent_keys)
        if not 1 <= self.m <= n:
            raise ValueError(f"threshold m={self.m} outside 1..{n}")
        if len(set(self.agent_keys)) != n:
            raise ValueError("agent keys must be pairwise distinct")
        for key in self.agent_keys:
            if len(key) != KEY_LEN:
                raise ValueError(f"verifying key must be {KEY_LEN} bytes")


class MultisigPolicy(_Threshold):
    """An m-of-n threshold over the agents' verifying keys, with a memo of the
    signatures checked under it. For lack of `__slots__` each policy has an
    instance dict; the memo sits there, outside equality, hash and repr."""

    def __new__(cls, *args, **kwargs):
        policy = super().__new__(cls, *args, **kwargs)
        # (key, digest, sig) -> verify_signature's answer, true or false. A run
        # builds one policy, so nothing verified outlives the run.
        policy._verified = {}
        return policy

    @property
    def n(self) -> int:
        return len(self.agent_keys)

    def verify(self, agent_index: int, digest: bytes, sig: bytes) -> bool:
        """verify_signature under agent_index's key, once per distinct triple."""
        triple = (self.agent_keys[agent_index], digest, sig)
        ok = self._verified.get(triple)
        if ok is None:
            ok = self._verified[triple] = verify_signature(*triple)
        return ok


class BundleVerdict(NamedTuple):
    accepted: bool
    reason: str | None


def _private_key(signing_key: bytes | Ed25519PrivateKey) -> Ed25519PrivateKey:
    if isinstance(signing_key, Ed25519PrivateKey):
        return signing_key
    return Ed25519PrivateKey.from_private_bytes(signing_key)


def verifying_key_for(signing_key: bytes | Ed25519PrivateKey) -> bytes:
    return _private_key(signing_key).public_key().public_bytes_raw()


def settlement_digest(tx: SettlementTx) -> bytes:
    """SHA-256 of the canonical settlement encoding."""
    return hashlib.sha256(encode_settlement(tx)).digest()


def sign(signing_key: bytes | Ed25519PrivateKey, digest: bytes) -> bytes:
    """Deterministic 64-byte signature over a 32-byte digest, by raw key
    bytes or by a key object held across calls."""
    if len(digest) != DIGEST_LEN:
        raise ValueError(f"digest must be {DIGEST_LEN} bytes")
    return _private_key(signing_key).sign(digest)


def verify_signature(verifying_key: bytes, digest: bytes, sig: bytes) -> bool:
    if len(digest) != DIGEST_LEN or len(sig) != SIG_LEN:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(verifying_key).verify(sig, digest)
        return True
    except InvalidSignature:
        return False


def verify_bundle(
    policy: MultisigPolicy, digest: bytes, sigs: list[SignatureShare]
) -> BundleVerdict:
    """Accept iff >= m distinct indexes carry a share valid under their key.

    Duplicate indexes count once; invalid or unknown-index shares are
    ignored.
    """
    valid: set[int] = set()
    known_index_seen = False
    for share in sigs:
        if share.agent_index >= policy.n:
            continue
        known_index_seen = True
        if share.agent_index not in valid and policy.verify(share.agent_index, digest, share.sig):
            valid.add(share.agent_index)
    if len(valid) >= policy.m:
        return BundleVerdict(True, None)
    if not sigs:
        reason = REJECT_EMPTY
    elif not known_index_seen:
        reason = REJECT_UNKNOWN_INDEX_ONLY
    else:
        reason = REJECT_BELOW_THRESHOLD
    return BundleVerdict(False, reason)
