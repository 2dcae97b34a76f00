"""The input checks of the value types and entry points a run never trips:
each malformed input is refused, by an exception or by a verdict of False."""

import pytest

from swarmsim.agent import EnclaveMock
from swarmsim.auction import AuctionConfig, SettlementTx, encode_settlement
from swarmsim.commitment import LEAF_LEN, verify_inclusion
from swarmsim.consensus import body_json
from swarmsim.ledger import FundingWindow
from swarmsim.netsim import FaultSpec, NetConfig
from swarmsim.scenario import agent_signing_key
from swarmsim.wallet import (
    MultisigPolicy,
    SignatureShare,
    sign,
    verify_signature,
    verifying_key_for,
)

KEY = agent_signing_key(3, 0)
VK = verifying_key_for(KEY)
DIGEST = b"\x22" * 32
SIG = sign(KEY, DIGEST)
WINDOW = FundingWindow(1, 2)
AUCTION_ID = b"\x09" * 32


def tx(auction_id=AUCTION_ID):
    return SettlementTx(auction_id, mints=(), partial_refunds=(), full_refunds=())


# A call with malformed input, then how it is refused: False, or an exception
# of that type whose message contains that text.
GUARDS = {
    "enclave_short_key": (lambda: EnclaveMock(KEY[:31]), ValueError("signing key")),
    "auction_no_items": (
        lambda: AuctionConfig(n_items=0, window=WINDOW, auction_id=AUCTION_ID),
        ValueError("n_items"),
    ),
    "auction_short_id": (
        lambda: AuctionConfig(n_items=1, window=WINDOW, auction_id=AUCTION_ID[:31]),
        ValueError("auction_id"),
    ),
    "encode_short_id": (
        lambda: encode_settlement(tx(AUCTION_ID[:31])),
        ValueError("auction_id"),
    ),
    "window_end_before_start": (lambda: FundingWindow(3, 2), ValueError("invalid window")),
    "net_delays": (lambda: NetConfig(delay_min=3, delay_max=2), ValueError("delay_min")),
    "net_drop_rate": (lambda: NetConfig(drop_rate=1.5), ValueError("drop_rate")),
    "fault_unknown_kind": (lambda: FaultSpec(0, "gossip"), ValueError("unknown fault")),
    "fault_crash_without_time": (lambda: FaultSpec(0, "crash"), ValueError("at_time")),
    "share_negative_index": (lambda: SignatureShare(-1, SIG), ValueError("agent_index")),
    "policy_short_key": (
        lambda: MultisigPolicy((VK[:31],), m=1),
        ValueError("verifying key"),
    ),
    "signature_short_digest": (lambda: verify_signature(VK, DIGEST[:31], SIG), False),
    "inclusion_short_leaf": (
        lambda: verify_inclusion(b"\x00" * 32, b"\x00" * (LEAF_LEN - 1), []),
        False,
    ),
    "body_of_a_non_message": (lambda: body_json(object()), TypeError("not a peer message")),
}


@pytest.mark.parametrize("call, refusal", GUARDS.values(), ids=GUARDS.keys())
def test_malformed_input_is_refused(call, refusal):
    if refusal is False:
        assert call() is False
    else:
        with pytest.raises(type(refusal), match=str(refusal)):
            call()
