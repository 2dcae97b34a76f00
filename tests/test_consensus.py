"""Peer message codec, transport signatures, and round bookkeeping."""

import dataclasses
import hashlib
import json

import pytest

from swarmsim import consensus
from swarmsim.consensus import (
    NACK_REASONS,
    TRANSPORT_DOMAIN,
    AbortMsg,
    Ack,
    Envelope,
    Nack,
    Propose,
    RoundConfig,
    body_bytes,
    body_dict,
    open_envelope,
    parse_body,
    proposer_for,
    transport_digest,
)
from swarmsim.scenario import agent_signing_key
from swarmsim.wallet import MultisigPolicy, SignatureShare, sign, verifying_key_for

KEY = agent_signing_key(5, 0)
VK = verifying_key_for(KEY)
OTHER_VKS = [verifying_key_for(agent_signing_key(6, i)) for i in range(3)]


def seal(key, sender, msg):
    """An envelope signed as an agent's enclave signs one."""
    return Envelope(sender, msg, sign(key, transport_digest(msg)))


def policy_with(vk, at):
    """A policy whose key at index `at` is vk, the rest other agents' keys."""
    keys = OTHER_VKS[:]
    keys.insert(at, vk)
    return MultisigPolicy(agent_keys=tuple(keys), m=1)

ROOT = b"\x11" * 32
DIGEST = b"\x22" * 32
SHARE = SignatureShare(agent_index=1, sig=sign(KEY, DIGEST))

MESSAGES = [
    Propose(round_index=0, root=ROOT, clearing_price=740, settlement_digest=DIGEST),
    Ack(round_index=1, settlement_digest=DIGEST, share=SHARE),
    Nack(round_index=2, reason="root_mismatch"),
    AbortMsg(round_index=3),
]


def test_proposer_rotates_modulo_n():
    assert proposer_for(0, 3) == 0
    assert proposer_for(1, 3) == 1
    assert proposer_for(3, 3) == 0


def test_proposer_needs_agents():
    with pytest.raises(ValueError):
        proposer_for(0, 0)


def test_round_config_bounds():
    with pytest.raises(ValueError):
        RoundConfig(r_max=0)
    with pytest.raises(ValueError):
        RoundConfig(round_timeout=0)
    cfg = RoundConfig()
    assert cfg.r_max == 3 and cfg.round_timeout == 10


def test_nack_reason_restricted():
    for reason in NACK_REASONS:
        Nack(round_index=0, reason=reason)
    with pytest.raises(ValueError):
        Nack(round_index=0, reason="because")


@pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__)
def test_body_round_trip(msg):
    assert parse_body(body_dict(msg)) == msg


def test_body_bytes_are_canonical_json():
    msg = Propose(round_index=2, root=ROOT, clearing_price=9, settlement_digest=DIGEST)
    expected = (
        '{"clearing_price":"9","root":"' + ROOT.hex() + '",'
        '"round":2,"settlement_digest":"' + DIGEST.hex() + '","type":"propose"}'
    )
    assert body_bytes(msg) == expected.encode()


def test_ack_body_carries_share_fields():
    data = body_dict(Ack(round_index=0, settlement_digest=DIGEST, share=SHARE))
    assert data["share"] == {"agent": 1, "sig": SHARE.sig.hex()}


def test_amounts_travel_as_decimal_strings():
    huge = Propose(
        round_index=0, root=ROOT, clearing_price=1 << 90, settlement_digest=DIGEST
    )
    data = json.loads(body_bytes(huge))
    assert data["clearing_price"] == str(1 << 90)
    assert parse_body(data).clearing_price == 1 << 90


def test_transport_digest_is_domain_separated():
    msg = MESSAGES[0]
    assert transport_digest(msg) == hashlib.sha256(
        TRANSPORT_DOMAIN + body_bytes(msg)
    ).digest()


@pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__)
def test_seal_open_round_trip(msg):
    env = seal(KEY, 2, msg)
    assert env.sender == 2
    assert open_envelope(env, policy_with(VK, 2))


def test_open_rejects_wrong_key():
    env = seal(KEY, 0, MESSAGES[0])
    other = verifying_key_for(agent_signing_key(5, 1))
    assert not open_envelope(env, policy_with(other, 0))
    assert not open_envelope(dataclasses.replace(env, sender=1), policy_with(VK, 0))


def test_open_rejects_tampered_body():
    env = seal(KEY, 0, MESSAGES[0])
    forged = Envelope(
        sender=env.sender,
        msg=dataclasses.replace(env.msg, clearing_price=741),
        transport_sig=env.transport_sig,
    )
    assert not open_envelope(forged, policy_with(VK, 0))


def test_parse_body_rejects_unknown_type():
    with pytest.raises(ValueError):
        parse_body({"type": "gossip", "round": 0})


def test_parse_body_rejects_bad_reason():
    with pytest.raises(ValueError):
        parse_body({"type": "nack", "round": 0, "reason": "tired"})
