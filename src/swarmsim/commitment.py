"""Merkle commitment over the canonical sorted bid list.

Leaves are fixed 76-byte bid encodings, hashed with a 0x00 domain prefix;
internal nodes pair up with a 0x01 prefix and an odd trailing node is
promoted unchanged to the next level (never duplicated, so distinct lists
cannot share a root through padding). The empty list commits to a 0x02
sentinel. Proofs carry (sibling, side) steps for spot-auditing one bid
against an exchanged root.
"""

from __future__ import annotations

import hashlib

from .auction import AggregatedBid

LEAF_LEN = 76
LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"
EMPTY_PREFIX = b"\x02"

SIDE_LEFT = "left"
SIDE_RIGHT = "right"


class BadLeafLength(Exception):
    pass


class IndexOutOfRange(Exception):
    pass


def encode_bid_leaf(bid: AggregatedBid) -> bytes:
    """Address (20) || total as 16-byte BE || first_height as u64 BE || first_tx (32)."""
    bidder, total, first_height, first_tx = bid
    if len(bidder) != 20 or len(first_tx) != 32:
        raise ValueError("malformed bid fields")
    return bidder + total.to_bytes(16, "big") + first_height.to_bytes(8, "big") + first_tx


def leaf_hash(leaf: bytes) -> bytes:
    if len(leaf) != LEAF_LEN:
        raise BadLeafLength(f"leaf must be {LEAF_LEN} bytes, got {len(leaf)}")
    return hashlib.sha256(LEAF_PREFIX + leaf).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(NODE_PREFIX + left + right).digest()


def _parent_level(level: list[bytes]) -> list[bytes]:
    pairs = iter(level)
    sha256 = hashlib.sha256
    # `_node_hash`, inline: one call fewer per node
    parents = [sha256(NODE_PREFIX + left + right).digest() for left, right in zip(pairs, pairs)]
    if len(level) % 2 == 1:
        parents.append(level[-1])  # odd tail promoted unchanged
    return parents


def _root(level: list[bytes]) -> bytes:
    """The top of the tree over leaf hashes `level`, holding one level at a time."""
    if not level:
        return hashlib.sha256(EMPTY_PREFIX).digest()
    while len(level) > 1:
        level = _parent_level(level)
    return level[0]


def merkle_root(leaves: list[bytes]) -> bytes:
    """The top of the tree over `leaves`' hashes, the level `prove` ends at."""
    return _root([leaf_hash(l) for l in leaves])


def bid_list_root(sorted_bids: list[AggregatedBid]) -> bytes:
    """Root over canonically sorted bids; the object agents exchange. Equal to
    `merkle_root` over their leaves: `encode_bid_leaf` always gives the 76 bytes
    that `leaf_hash` would check again."""
    sha256 = hashlib.sha256
    return _root([sha256(LEAF_PREFIX + encode_bid_leaf(b)).digest() for b in sorted_bids])


def prove(leaves: list[bytes], index: int) -> list[tuple[bytes, str]]:
    """Sibling path for `leaves[index]`; promoted levels add no step."""
    if index < 0 or index >= len(leaves):
        raise IndexOutOfRange(f"index {index} outside 0..{len(leaves) - 1}")
    path: list[tuple[bytes, str]] = []
    level = [leaf_hash(l) for l in leaves]
    while len(level) > 1:  # one level at a time, as `_root` walks them
        sibling = index ^ 1
        if sibling < len(level):  # else the odd tail, promoted: no step
            path.append((level[sibling], SIDE_LEFT if index % 2 else SIDE_RIGHT))
        level = _parent_level(level)
        index //= 2
    return path


def verify_inclusion(root: bytes, leaf: bytes, proof: list[tuple[bytes, str]]) -> bool:
    try:
        acc = leaf_hash(leaf)
    except BadLeafLength:
        return False
    for sibling, side in proof:
        if side == SIDE_LEFT:
            acc = _node_hash(sibling, acc)
        elif side == SIDE_RIGHT:
            acc = _node_hash(acc, sibling)
        else:
            return False
    return acc == root
