"""Threshold signature checks: digests, shares, bundle acceptance."""


import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmsim import wallet
from swarmsim.auction import SettlementTx
from swarmsim.scenario import agent_signing_key
from swarmsim.wallet import (
    DIGEST_LEN,
    KEY_LEN,
    REJECT_BELOW_THRESHOLD,
    REJECT_EMPTY,
    REJECT_UNKNOWN_INDEX_ONLY,
    SIG_LEN,
    BundleVerdict,
    MultisigPolicy,
    SignatureShare,
    settlement_digest,
    sign,
    verify_bundle,
    verify_signature,
    verifying_key_for,
)

A = b"\xaa" * 20
B = b"\xbb" * 20

KEYS = [agent_signing_key(99, i) for i in range(4)]
VKS = [verifying_key_for(k) for k in KEYS]


def policy(n=3, m=2):
    return MultisigPolicy(agent_keys=tuple(VKS[:n]), m=m)


def sample_tx():
    return SettlementTx(
        auction_id=b"\x03" * 32,
        mints=(A,),
        partial_refunds=((A, 2),),
        full_refunds=((B, 7),),
    )


def share(index, digest, valid=True):
    sig = sign(KEYS[index], digest)
    if not valid:
        sig = bytes([sig[0] ^ 1]) + sig[1:]
    return SignatureShare(agent_index=index, sig=sig)


def test_digest_deterministic_across_copies():
    tx = sample_tx()
    assert settlement_digest(tx) == settlement_digest(tx._replace())


def test_digest_changes_when_refund_changes():
    tx = sample_tx()
    bumped = tx._replace(full_refunds=((B, 8),))
    assert settlement_digest(tx) != settlement_digest(bumped)


def test_digest_is_32_bytes():
    assert len(settlement_digest(sample_tx())) == DIGEST_LEN


def test_key_and_sig_lengths():
    digest = settlement_digest(sample_tx())
    assert len(KEYS[0]) == KEY_LEN
    assert len(VKS[0]) == KEY_LEN
    assert len(sign(KEYS[0], digest)) == SIG_LEN


def test_sign_is_deterministic():
    digest = settlement_digest(sample_tx())
    assert sign(KEYS[0], digest) == sign(KEYS[0], digest)


def test_verify_round_trip():
    digest = settlement_digest(sample_tx())
    sig = sign(KEYS[0], digest)
    assert verify_signature(VKS[0], digest, sig)


def test_verify_rejects_other_agents_key():
    digest = settlement_digest(sample_tx())
    sig = sign(KEYS[0], digest)
    for vk in VKS[1:]:
        assert not verify_signature(vk, digest, sig)


def test_verify_rejects_other_digest():
    d1 = settlement_digest(sample_tx())
    d2 = settlement_digest(
        sample_tx()._replace(full_refunds=((B, 9),))
    )
    assert not verify_signature(VKS[0], d2, sign(KEYS[0], d1))


def test_sign_requires_32_byte_digest():
    with pytest.raises(ValueError):
        sign(KEYS[0], b"\x00" * 31)


def count_decides(shares, digest, count):
    """`shares` carry exactly `count` distinct valid indexes: a threshold of
    `count` accepts them and one of `count + 1` does not."""
    assert verify_bundle(policy(m=count), digest, shares) == BundleVerdict(True, None)
    verdict = verify_bundle(policy(m=count + 1), digest, shares)
    assert verdict == BundleVerdict(False, REJECT_BELOW_THRESHOLD)


def test_bundle_two_distinct_valid_accepts():
    digest = settlement_digest(sample_tx())
    count_decides([share(0, digest), share(1, digest)], digest, 2)


def test_bundle_duplicate_signer_counts_once():
    digest = settlement_digest(sample_tx())
    verdict = verify_bundle(policy(), digest, [share(0, digest), share(0, digest)])
    assert not verdict.accepted
    assert verdict.reason == REJECT_BELOW_THRESHOLD


def test_bundle_ignores_corrupted_share_but_counts_valid_ones():
    digest = settlement_digest(sample_tx())
    shares = [share(0, digest), share(1, digest, valid=False), share(2, digest)]
    count_decides(shares, digest, 2)


def test_bundle_empty_rejected():
    digest = settlement_digest(sample_tx())
    verdict = verify_bundle(policy(), digest, [])
    assert not verdict.accepted and verdict.reason == REJECT_EMPTY


def test_bundle_unknown_index_only_rejected():
    digest = settlement_digest(sample_tx())
    rogue = SignatureShare(agent_index=7, sig=sign(KEYS[3], digest))
    verdict = verify_bundle(policy(), digest, [rogue])
    assert not verdict.accepted and verdict.reason == REJECT_UNKNOWN_INDEX_ONLY


def test_bundle_valid_share_recovers_from_earlier_invalid_same_index():
    digest = settlement_digest(sample_tx())
    shares = [share(0, digest, valid=False), share(0, digest), share(1, digest)]
    count_decides(shares, digest, 2)


def test_policy_requires_distinct_keys():
    with pytest.raises(ValueError):
        MultisigPolicy(agent_keys=(VKS[0], VKS[0]), m=1)


def test_policy_threshold_bounds():
    with pytest.raises(ValueError):
        MultisigPolicy(agent_keys=tuple(VKS[:3]), m=4)
    with pytest.raises(ValueError):
        MultisigPolicy(agent_keys=tuple(VKS[:3]), m=0)


def test_sign_by_held_key_matches_sign_by_key_bytes():
    digest = settlement_digest(sample_tx())
    held = Ed25519PrivateKey.from_private_bytes(KEYS[0])
    assert sign(held, digest) == sign(KEYS[0], digest)
    assert verifying_key_for(held) == VKS[0]


def test_policy_memo_still_rejects_a_flipped_bit_after_warming_up():
    digest = settlement_digest(sample_tx())
    pol = policy()
    good = share(0, digest)
    assert pol.verify(0, digest, good.sig)
    assert pol.verify(0, digest, good.sig)  # answered from the memo
    for bit in (0, 7, 8 * SIG_LEN - 1):
        flipped = bytearray(good.sig)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert not pol.verify(0, digest, bytes(flipped))
        assert not pol.verify(0, digest, bytes(flipped))  # a false answer is kept false
        bad = SignatureShare(agent_index=0, sig=bytes(flipped))
        verdict = verify_bundle(pol, digest, [bad, share(1, digest)])
        assert verdict == BundleVerdict(False, REJECT_BELOW_THRESHOLD)
    # the same signature under another index's key is a distinct triple
    assert not pol.verify(1, digest, good.sig)


def test_policy_memo_leaves_equality_and_repr_alone():
    digest = settlement_digest(sample_tx())
    warm, cold = policy(), policy()
    warm.verify(0, digest, share(0, digest).sig)
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)


def test_share_validates_sig_length():
    with pytest.raises(ValueError):
        SignatureShare(agent_index=0, sig=b"\x00" * 63)


@settings(max_examples=60, deadline=None)
@given(
    present=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2), st.booleans()),
        min_size=0,
        max_size=6,
    ),
    m=st.integers(min_value=1, max_value=3),
)
def test_bundle_matches_distinct_valid_count_oracle(present, m):
    digest = settlement_digest(sample_tx())
    shares = [share(i, digest, valid=ok) for i, ok in present]
    verdict = verify_bundle(policy(m=m), digest, shares)
    distinct_valid = {i for i, ok in present if ok}
    assert verdict.accepted == (len(distinct_valid) >= m)


@settings(max_examples=60, deadline=None)
@given(
    base=st.sets(st.integers(min_value=0, max_value=2), min_size=2, max_size=3),
    extra=st.integers(min_value=0, max_value=2),
)
def test_bundle_acceptance_is_monotone(base, extra):
    digest = settlement_digest(sample_tx())
    shares = [share(i, digest) for i in sorted(base)]
    before = verify_bundle(policy(), digest, shares)
    shares.append(share(extra, digest))
    after = verify_bundle(policy(), digest, shares)
    if before.accepted:
        assert after.accepted
