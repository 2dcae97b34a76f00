"""Merkle commitments over ranked bid lists: roots, proofs, sensitivity."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmsim.auction import AggregatedBid
from swarmsim.commitment import (
    EMPTY_PREFIX,
    LEAF_LEN,
    BadLeafLength,
    IndexOutOfRange,
    bid_list_root,
    encode_bid_leaf,
    leaf_hash,
    merkle_root,
    prove,
    verify_inclusion,
)


def bid(i, total=10, height=1):
    return AggregatedBid(
        bidder=bytes([i]) * 20,
        total=total,
        first_height=height,
        first_tx=bytes([i]) * 32,
    )


def leaves_for(n):
    return [encode_bid_leaf(bid(i + 1, total=100 - i)) for i in range(n)]


def test_leaf_is_76_bytes_and_deterministic():
    leaf = encode_bid_leaf(bid(1))
    assert len(leaf) == LEAF_LEN
    assert leaf == encode_bid_leaf(bid(1))


def test_leaf_field_layout():
    b = bid(3, total=0x1234, height=9)
    leaf = encode_bid_leaf(b)
    assert leaf[:20] == b.bidder
    assert leaf[20:36] == (0x1234).to_bytes(16, "big")
    assert leaf[36:44] == (9).to_bytes(8, "big")
    assert leaf[44:] == b.first_tx


def test_total_flip_changes_leaf_hash():
    l1 = encode_bid_leaf(bid(1, total=5))
    l2 = encode_bid_leaf(bid(1, total=6))
    assert leaf_hash(l1) != leaf_hash(l2)


def test_short_leaf_rejected():
    with pytest.raises(BadLeafLength):
        leaf_hash(b"\x00" * (LEAF_LEN - 1))


def test_single_leaf_root_is_leaf_hash():
    (leaf,) = leaves_for(1)
    assert merkle_root([leaf]) == leaf_hash(leaf)


def test_two_leaf_root_formula():
    l0, l1 = leaves_for(2)
    expected = hashlib.sha256(b"\x01" + leaf_hash(l0) + leaf_hash(l1)).digest()
    assert merkle_root([l0, l1]) == expected


def test_three_leaf_root_promotes_odd_tail():
    l0, l1, l2 = leaves_for(3)
    pair = hashlib.sha256(b"\x01" + leaf_hash(l0) + leaf_hash(l1)).digest()
    expected = hashlib.sha256(b"\x01" + pair + leaf_hash(l2)).digest()
    assert merkle_root([l0, l1, l2]) == expected


def test_empty_root_is_domain_separated_constant():
    assert merkle_root([]) == hashlib.sha256(EMPTY_PREFIX).digest()


def test_prove_on_empty_tree_rejected():
    with pytest.raises(IndexOutOfRange):
        prove([], 0)


def test_prove_index_past_end_rejected():
    with pytest.raises(IndexOutOfRange):
        prove(leaves_for(3), 3)


def test_proof_round_trip_all_indexes():
    for n in range(1, 12):
        leaves = leaves_for(n)
        root = merkle_root(leaves)
        for i, leaf in enumerate(leaves):
            assert verify_inclusion(root, leaf, prove(leaves, i))


def test_cross_index_proof_rejected():
    leaves = leaves_for(7)
    root = merkle_root(leaves)
    for i in range(7):
        proof = prove(leaves, i)
        for j in range(7):
            if j != i:
                assert not verify_inclusion(root, leaves[j], proof)


def test_proof_with_flipped_side_rejected():
    leaves = leaves_for(4)
    root = merkle_root(leaves)
    proof = prove(leaves, 0)
    flipped = [(sib, "left" if side == "right" else "right") for sib, side in proof]
    assert not verify_inclusion(root, leaves[0], flipped)


def test_proof_with_garbage_side_rejected():
    leaves = leaves_for(2)
    root = merkle_root(leaves)
    (step,) = prove(leaves, 0)
    assert not verify_inclusion(root, leaves[0], [(step[0], "up")])


def test_bid_list_root_matches_leaf_pipeline():
    bids = [bid(i + 1, total=50 - i) for i in range(5)]
    assert bid_list_root(bids) == merkle_root([encode_bid_leaf(b) for b in bids])


FIELDS = ("bidder", "total", "first_height", "first_tx")


def perturb(b, field):
    if field == "bidder":
        return b._replace(bidder=bytes([b.bidder[0] ^ 1]) + b.bidder[1:])
    if field == "total":
        return b._replace(total=b.total + 1)
    if field == "first_height":
        return b._replace(first_height=b.first_height + 1)
    return b._replace(first_tx=bytes([b.first_tx[0] ^ 1]) + b.first_tx[1:])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=12))
def test_single_field_perturbation_changes_root(data, n):
    bids = [bid(i + 1, total=data.draw(st.integers(1, 1000))) for i in range(n)]
    root = bid_list_root(bids)
    idx = data.draw(st.integers(0, n - 1))
    field = data.draw(st.sampled_from(FIELDS))
    mutated = list(bids)
    mutated[idx] = perturb(bids[idx], field)
    assert bid_list_root(mutated) != root


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=12))
def test_adjacent_swap_changes_root(data, n):
    bids = [bid(i + 1, total=1000 - i) for i in range(n)]
    root = bid_list_root(bids)
    i = data.draw(st.integers(0, n - 2))
    swapped = list(bids)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    assert bid_list_root(swapped) != root
