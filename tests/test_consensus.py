"""Peer message codec, transport signatures, and round bookkeeping."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmsim.consensus import (
    NACK_REASONS,
    TRANSPORT_DOMAIN,
    AbortMsg,
    Ack,
    Envelope,
    Nack,
    Propose,
    RoundConfig,
    body_json,
    open_envelope,
    proposer_for,
    transport_digest,
)
from swarmsim.scenario import agent_signing_key
from swarmsim.wallet import SIG_LEN, MultisigPolicy, SignatureShare, sign, verifying_key_for

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


def body_object(msg) -> dict:
    """The object a message body is the canonical JSON of: the dict form
    `body_json`'s templates replaced, kept as their reference."""
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
    return {"type": "abort", "round": msg.round_index}


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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


# A second value for every message field; the share's own fields are
# covered by test_ack_body_carries_share_fields.
OTHER_VALUES = {
    "round_index": 7,
    "root": b"\x33" * 32,
    "clearing_price": 741,
    "settlement_digest": b"\x44" * 32,
    "share": SignatureShare(agent_index=2, sig=SHARE.sig),
    "reason": "not_ready",
}


@pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__)
def test_body_round_trip(msg):
    """The body is the JSON of its object, and changing any field of the
    message changes the body, so the transport signature covers every field."""
    body = body_json(msg)
    assert json.loads(body) == body_object(msg)
    for name in msg._fields:
        other = msg._replace(**{name: OTHER_VALUES[name]})
        assert body_json(other) != body, name


def test_body_bytes_are_canonical_json():
    msg = Propose(round_index=2, root=ROOT, clearing_price=9, settlement_digest=DIGEST)
    expected = (
        '{"clearing_price":"9","root":"' + ROOT.hex() + '",'
        '"round":2,"settlement_digest":"' + DIGEST.hex() + '","type":"propose"}'
    )
    assert body_json(msg) == expected
    assert transport_digest(msg) == hashlib.sha256(
        TRANSPORT_DOMAIN + expected.encode()
    ).digest()


def test_ack_body_carries_share_fields():
    data = json.loads(body_json(Ack(round_index=0, settlement_digest=DIGEST, share=SHARE)))
    assert data["share"] == {"agent": 1, "sig": SHARE.sig.hex()}


def test_amounts_travel_as_decimal_strings():
    huge = Propose(
        round_index=0, root=ROOT, clearing_price=1 << 90, settlement_digest=DIGEST
    )
    data = json.loads(body_json(huge))
    assert data["clearing_price"] == str(1 << 90)


def test_transport_digest_is_domain_separated():
    msg = MESSAGES[0]
    body = body_json(msg).encode()
    assert transport_digest(msg) == hashlib.sha256(TRANSPORT_DOMAIN + body).digest()
    assert transport_digest(msg) != hashlib.sha256(body).digest()


@pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__)
def test_seal_open_round_trip(msg):
    env = seal(KEY, 2, msg)
    assert env.sender == 2
    assert open_envelope(env, policy_with(VK, 2))


def test_open_rejects_wrong_key():
    env = seal(KEY, 0, MESSAGES[0])
    other = verifying_key_for(agent_signing_key(5, 1))
    assert not open_envelope(env, policy_with(other, 0))
    assert not open_envelope(env._replace(sender=1), policy_with(VK, 0))


def test_open_rejects_tampered_body():
    env = seal(KEY, 0, MESSAGES[0])
    forged = Envelope(
        sender=env.sender,
        msg=env.msg._replace(clearing_price=741),
        transport_sig=env.transport_sig,
    )
    assert not open_envelope(forged, policy_with(VK, 0))


_U64 = st.integers(min_value=0, max_value=2**64 - 1)
_HASH = st.binary(min_size=32, max_size=32)
ANY_MESSAGE = st.one_of(
    st.builds(Propose, _U64, _HASH, st.integers(min_value=0, max_value=2**128 - 1), _HASH),
    st.builds(
        Ack, _U64, _HASH,
        st.builds(SignatureShare, _U64, st.binary(min_size=SIG_LEN, max_size=SIG_LEN)),
    ),
    st.builds(Nack, _U64, st.sampled_from(NACK_REASONS)),
    st.builds(AbortMsg, _U64),
)
_TOP = 2**64 - 1


@pytest.mark.golden_matrix
@settings(max_examples=300, deadline=None, derandomize=True)
@given(ANY_MESSAGE)
@example(Propose(_TOP, b"\xff" * 32, 2**128 - 1, b"\xff" * 32))
@example(Ack(_TOP, b"\xff" * 32, SignatureShare(_TOP, b"\xff" * SIG_LEN)))
@example(Nack(_TOP, NACK_REASONS[-1]))
@example(AbortMsg(_TOP))
def test_the_body_is_json_dumps_of_its_object(msg):
    # the body is filled into a template, not encoded; over the whole range of
    # every field of every message type it must still be what json.dumps
    # writes, and the transport digest is taken over exactly those bytes
    body = dumps(body_object(msg))
    assert body_json(msg) == body
    assert transport_digest(msg) == hashlib.sha256(TRANSPORT_DOMAIN + body.encode()).digest()
