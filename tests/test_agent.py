"""Agent state machine: attestation roster, phases, votes, signing guard."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmsim import auction, commitment, consensus, wallet
from swarmsim.agent import (
    AGENT_MEASUREMENT,
    PHASE_CROSS_VALIDATING,
    PHASE_DONE,
    PHASE_MONITORING,
    PHASE_SIGNING,
    Agent,
    AttestationTriple,
    EnclaveMock,
    Log,
    OutOfOrderEvent,
    SendPeer,
    SetTimer,
    SigningGuardViolation,
    SubmitSettlement,
    verify_attestation,
)
from swarmsim.auction import AuctionConfig
from swarmsim.consensus import Ack, AbortMsg, Envelope, Nack, Propose, RoundConfig
from swarmsim.harness import run_scenario_dict
from swarmsim.ledger import (
    BLOCK_SEALED,
    FUNDING_RECEIVED,
    SETTLEMENT_EXECUTED,
    Contribution,
    FundingWindow,
    Ledger,
    LedgerEvent,
    SettlementReceipt,
)
from swarmsim.scenario import agent_signing_key, build_scenario_dict
from swarmsim.wallet import MultisigPolicy, SignatureShare

A = b"\xaa" * 20
B = b"\xbb" * 20
C = b"\xcc" * 20

WINDOW = FundingWindow(1, 2)


def seal(key, sender, msg):
    """An envelope signed as an agent's enclave signs one."""
    return Envelope(sender, msg, wallet.sign(key, consensus.transport_digest(msg)))


def make_world(n=3, m=2, n_items=2, r_max=3):
    keys = [agent_signing_key(42, i) for i in range(n)]
    policy = MultisigPolicy(
        agent_keys=tuple(wallet.verifying_key_for(k) for k in keys), m=m
    )
    cfg = AuctionConfig(n_items=n_items, window=WINDOW, auction_id=b"\x09" * 32)
    agents = [
        Agent(
            index=i,
            enclave=EnclaveMock(keys[i]),
            policy=policy,
            auction_cfg=cfg,
            rounds=RoundConfig(r_max=r_max, round_timeout=10),
            expected_measurement=AGENT_MEASUREMENT,
        )
        for i in range(n)
    ]
    return agents, keys, policy, cfg


def exchange_attestations(agents):
    triples = [a.attest() for a in agents]
    return {a.index: a.observe_attestations(triples) for a in agents}


def funded_ledger():
    led = Ledger()
    led.seal_block()  # height 0
    led.submit_funding(A, 7, 1)
    led.submit_funding(B, 3, 1)
    led.seal_block()  # height 1
    led.submit_funding(C, 5, 2)
    led.seal_block()  # height 2, window end
    return led


def deliver_ledger(agents, led):
    out = {a.index: [] for a in agents}
    for ev in led.events:
        for a in agents:
            out[a.index].extend(a.on_ledger_event(ev, 0))
    return out


def ready_world(**kwargs):
    agents, keys, policy, cfg = make_world(**kwargs)
    exchange_attestations(agents)
    actions = deliver_ledger(agents, funded_ledger())
    return agents, keys, policy, cfg, actions


def sends(actions):
    return [a for a in actions if isinstance(a, SendPeer)]


def logs(actions, event=None):
    picked = [a for a in actions if isinstance(a, Log)]
    if event is not None:
        picked = [a for a in picked if a.event == event]
    return picked


def test_attestation_round_trip():
    agents, _, _, _ = make_world()
    triple = agents[0].attest()
    assert verify_attestation(triple, AGENT_MEASUREMENT)


def test_forged_attestation_quote_rejected():
    agents, _, _, _ = make_world()
    triple = agents[0].attest()
    forged = dataclasses.replace(triple, attestation=b"\x00" * 32)
    assert not verify_attestation(forged, AGENT_MEASUREMENT)


def test_tampered_measurement_excluded_from_roster():
    agents, _, _, _ = make_world()
    triples = [a.attest() for a in agents]
    bad_measurement = b"\xee" * 32
    vk = triples[2].verifying_key
    triples[2] = AttestationTriple(
        measurement=bad_measurement,
        verifying_key=vk,
        attestation=hashlib.sha256(bad_measurement + vk).digest(),
    )
    actions = agents[0].observe_attestations(triples)
    assert agents[0].roster == (0, 1)
    (roster_log,) = logs(actions, "roster")
    assert roster_log.detail["excluded"] == [2]
    # the excluded agent notices and goes quiet
    abort_actions = agents[2].observe_attestations(triples)
    assert agents[2].phase == "aborted"
    assert logs(abort_actions, "abort")[0].detail["reason"] == "attestation_rejected"


def test_funding_during_window_accumulates_silently():
    agents, _, _, _ = make_world()
    exchange_attestations(agents)
    led = Ledger()
    led.seal_block()
    led.submit_funding(A, 7, 1)
    actions = []
    for ev in led.events:
        actions.extend(agents[0].on_ledger_event(ev, 0))
    led.seal_block()
    funding_ev = [e for e in led.events if e.height == 1][0]
    got = agents[0].on_ledger_event(funding_ev, 0)
    assert got == []
    assert len(agents[0].view) == 1
    assert agents[0].phase == PHASE_MONITORING


def test_window_end_seal_enters_cross_validation_with_oracle_root():
    agents, _, _, cfg, actions = ready_world()
    agent = agents[0]
    assert agent.phase == PHASE_CROSS_VALIDATING
    bids, late = auction.aggregate(agent.view, WINDOW)
    result = auction.compute_clearing(cfg, auction.canonical_sort(bids), late)
    expected = commitment.bid_list_root(list(result.winners) + list(result.losers))
    assert agent.root == expected
    assert any(isinstance(a, SetTimer) for a in actions[0])


def test_round_zero_proposer_broadcasts_to_roster():
    agents, _, _, _, actions = ready_world()
    proposes = sends(actions[0])
    assert [s.to for s in proposes] == [1, 2]
    assert all(isinstance(s.envelope.msg, Propose) for s in proposes)
    assert sends(actions[1]) == [] and sends(actions[2]) == []


def test_matching_propose_acked_with_valid_share():
    agents, _, policy, _, actions = ready_world()
    env = sends(actions[0])[0].envelope
    reply = agents[1].on_peer_message(env, 6)
    assert agents[1].phase == PHASE_SIGNING
    (send,) = sends(reply)
    assert send.to == 0
    ack = send.envelope.msg
    assert isinstance(ack, Ack)
    assert wallet.verify_signature(
        policy.agent_keys[1], agents[1].digest, ack.share.sig
    )


def test_mismatching_root_nacked_and_rechecked():
    agents, keys, _, _, actions = ready_world()
    honest = sends(actions[0])[0].envelope.msg
    twisted = dataclasses.replace(honest, root=b"\x66" * 32)
    env = seal(keys[0], 0, twisted)
    reply = agents[1].on_peer_message(env, 6)
    (send,) = sends(reply)
    nack = send.envelope.msg
    assert isinstance(nack, Nack) and nack.reason == "root_mismatch"
    phase_events = [lg.detail.get("from") for lg in logs(reply, "phase")]
    assert phase_events == [PHASE_CROSS_VALIDATING, "computing"]
    (recheck,) = logs(reply, "recheck")
    assert recheck.detail["changed"] is False
    assert agents[1].phase == PHASE_CROSS_VALIDATING


def test_digest_mismatch_logged_loudly():
    agents, keys, _, _, actions = ready_world()
    honest = sends(actions[0])[0].envelope.msg
    twisted = dataclasses.replace(honest, settlement_digest=b"\x55" * 32)
    env = seal(keys[0], 0, twisted)
    reply = agents[1].on_peer_message(env, 6)
    assert logs(reply, "digest_mismatch")
    (send,) = sends(reply)
    assert send.envelope.msg.reason == "digest_mismatch"


def test_not_ready_before_computation():
    agents, keys, _, _ = make_world()
    exchange_attestations(agents)
    msg = Propose(
        round_index=0,
        root=b"\x01" * 32,
        clearing_price=1,
        settlement_digest=b"\x02" * 32,
    )
    reply = agents[1].on_peer_message(seal(keys[0], 0, msg), 1)
    (send,) = sends(reply)
    assert send.envelope.msg.reason == "not_ready"
    assert agents[1].phase == PHASE_MONITORING


def test_unknown_sender_dropped():
    agents, keys, _, _, _ = ready_world()
    msg = Nack(round_index=0, reason="not_ready")
    env = dataclasses.replace(seal(keys[0], 0, msg), sender=7)
    reply = agents[1].on_peer_message(env, 6)
    assert logs(reply, "unknown_sender")
    assert sends(reply) == []


def test_bad_transport_signature_dropped():
    agents, keys, _, _, _ = ready_world()
    msg = Nack(round_index=0, reason="not_ready")
    env = seal(keys[2], 0, msg)  # sealed with the wrong agent's key
    reply = agents[1].on_peer_message(env, 6)
    assert logs(reply, "bad_transport_sig")


def test_wrong_proposer_dropped():
    agents, keys, _, _, actions = ready_world()
    honest = sends(actions[0])[0].envelope.msg  # round 0 belongs to agent 0
    env = seal(keys[1], 1, honest)
    reply = agents[2].on_peer_message(env, 6)
    assert logs(reply, "wrong_proposer")
    assert sends(reply) == []


def test_quorum_of_acks_triggers_single_submit():
    agents, _, policy, _, actions = ready_world()
    env = sends(actions[0])[0].envelope
    ack1 = sends(agents[1].on_peer_message(env, 6))[0].envelope
    ack2 = sends(agents[2].on_peer_message(env, 6))[0].envelope
    first = agents[0].on_peer_message(ack1, 7)
    submits = [a for a in first if isinstance(a, SubmitSettlement)]
    assert len(submits) == 1
    verdict = wallet.verify_bundle(
        policy, agents[0].digest, list(submits[0].shares)
    )
    assert verdict.accepted
    # second ack arrives after submission: ignored, no second submit
    second = agents[0].on_peer_message(ack2, 8)
    assert [a for a in second if isinstance(a, SubmitSettlement)] == []
    assert logs(second, "ack_ignored")


def test_stale_ack_ignored():
    agents, keys, _, _, actions = ready_world()
    stale = Ack(
        round_index=0,
        settlement_digest=b"\x44" * 32,
        share=SignatureShare(agent_index=1, sig=b"\x00" * 64),
    )
    reply = agents[0].on_peer_message(seal(keys[1], 1, stale), 7)
    assert logs(reply, "stale_ack_ignored")
    assert agents[0].submitted is False


def test_corrupted_ack_share_ignored():
    agents, keys, _, _, actions = ready_world()
    env = sends(actions[0])[0].envelope
    good = sends(agents[1].on_peer_message(env, 6))[0].envelope.msg
    bad_share = SignatureShare(
        agent_index=1, sig=bytes([good.share.sig[0] ^ 1]) + good.share.sig[1:]
    )
    forged = dataclasses.replace(good, share=bad_share)
    reply = agents[0].on_peer_message(seal(keys[1], 1, forged), 7)
    assert logs(reply, "invalid_share_ignored")
    assert agents[0].submitted is False


def test_single_agent_policy_submits_without_acks():
    agents, _, _, _, actions = ready_world(n=1, m=1)
    submits = [a for a in actions[0] if isinstance(a, SubmitSettlement)]
    assert len(submits) == 1


def test_timer_in_monitoring_is_noop():
    agents, _, _, _ = make_world()
    exchange_attestations(agents)
    assert agents[0].on_timer(3) == []


def test_timer_rotates_proposer():
    agents, _, _, _, _ = ready_world()
    reply = agents[1].on_timer(16)
    assert agents[1].round == 1
    assert any(isinstance(a, SetTimer) for a in reply)
    proposes = [s for s in sends(reply) if isinstance(s.envelope.msg, Propose)]
    assert [s.to for s in proposes] == [0, 2]
    # agent 2 is not round-1 proposer: rotates without proposing
    reply2 = agents[2].on_timer(16)
    assert sends(reply2) == []


def test_rounds_exhausted_aborts_and_broadcasts():
    agents, _, _, _, _ = ready_world(r_max=2)
    agents[1].on_timer(16)
    final = agents[1].on_timer(26)
    assert agents[1].phase == "aborted"
    assert logs(final, "abort")[0].detail["reason"] == "rounds_exhausted"
    aborts = [s for s in sends(final) if isinstance(s.envelope.msg, AbortMsg)]
    assert [s.to for s in aborts] == [0, 2]
    assert agents[1].on_timer(36) == []


def test_peer_abort_is_advisory_only():
    agents, keys, _, _, _ = ready_world()
    reply = agents[1].on_peer_message(
        seal(keys[2], 2, AbortMsg(round_index=0)), 7
    )
    assert logs(reply, "peer_abort")
    assert agents[1].phase == PHASE_CROSS_VALIDATING


def test_settlement_event_finishes_run():
    agents, _, _, _, _ = ready_world()
    receipt = SettlementReceipt(
        digest=agents[1].digest,
        partial_refund_total=0,
        full_refund_total=0,
        retained_balance=10,
        tx=agents[1].tx,
    )
    ev = LedgerEvent(kind=SETTLEMENT_EXECUTED, height=3, index=0, payload=receipt)
    reply = agents[1].on_ledger_event(ev, 9)
    assert agents[1].phase == PHASE_DONE
    (settled,) = logs(reply, "settled")
    assert settled.detail["foreign"] is False
    assert not logs(reply, "foreign_settlement")


def test_foreign_settlement_flagged():
    agents, _, _, _, _ = ready_world()
    receipt = SettlementReceipt(
        digest=b"\x13" * 32,
        partial_refund_total=0,
        full_refund_total=0,
        retained_balance=10,
        tx=agents[1].tx,
    )
    ev = LedgerEvent(kind=SETTLEMENT_EXECUTED, height=3, index=0, payload=receipt)
    reply = agents[1].on_ledger_event(ev, 9)
    assert agents[1].phase == PHASE_DONE
    assert logs(reply, "foreign_settlement")


def test_out_of_order_ledger_event_raises():
    agents, _, _, _, _ = ready_world()
    led = funded_ledger()
    with pytest.raises(OutOfOrderEvent):
        agents[0].on_ledger_event(led.events[0], 9)


def test_no_in_window_funding_reaches_an_agent_past_the_window_end_seal():
    # `_on_funding` splices every funding in as a full refund. That rests on
    # this: the window-end seal has the highest index of its height, so once
    # an agent has seen it, any funding inside the window is out of order.
    agents, _, _, _, _ = ready_world()
    agent = agents[1]
    assert agent.phase == PHASE_CROSS_VALIDATING
    led = funded_ledger()
    (end_seal,) = [
        e for e in led.events if e.kind == BLOCK_SEALED and e.height == WINDOW.end_height
    ]
    assert end_seal.index == max(e.index for e in led.events if e.height == end_seal.height)
    in_window = [e for e in led.events if e.kind == FUNDING_RECEIVED]
    late = Contribution(sender=C, amount=9, block_height=end_seal.height, tx_id=b"\x77" * 32)
    in_window.append(LedgerEvent(FUNDING_RECEIVED, end_seal.height, end_seal.index, late))
    for ev in in_window:
        assert WINDOW.contains(ev.height)
        with pytest.raises(OutOfOrderEvent):
            agent.on_ledger_event(ev, 9)
    assert agent.phase == PHASE_CROSS_VALIDATING and len(agent.view) == 3


def test_signing_guard_refuses_second_digest():
    agents, _, _, _, actions = ready_world()
    env = sends(actions[0])[0].envelope
    agents[1].on_peer_message(env, 6)  # signs the current digest
    first = agents[1].signed_digest
    late = Contribution(sender=C, amount=9, block_height=3, tx_id=b"\x77" * 32)
    led_ev = LedgerEvent(kind=FUNDING_RECEIVED, height=3, index=0, payload=late)
    refresh = agents[1].on_ledger_event(led_ev, 8)
    assert logs(refresh, "refresh")
    assert agents[1].digest != first
    with pytest.raises(SigningGuardViolation):
        agents[1]._sign_current()


fundings = st.tuples(
    st.integers(min_value=0, max_value=5),  # sender
    st.one_of(
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=(1 << 100) - 3, max_value=1 << 100),
    ),
)


def cleared_state(agent):
    """What an agent keeps from its last clearing."""
    return (agent.tx, agent.digest, agent.root, agent.clearing_price, agent.bid_count)


@settings(max_examples=60, deadline=None)
@given(
    view=st.lists(st.tuples(fundings, st.integers(min_value=0, max_value=2)), max_size=8),
    late=st.lists(fundings, min_size=1, max_size=4),
    n_items=st.integers(min_value=1, max_value=3),
    recheck_after=st.integers(min_value=0, max_value=4),
)
def test_late_fundings_leave_the_state_a_fresh_recompute_gives(
    view, late, n_items, recheck_after
):
    # a conflict re-check between late fundings re-clears the view in the
    # middle; the refreshes after it must start from what it built
    agents, _, _, _ = make_world(n_items=n_items)
    exchange_attestations(agents)
    agent = agents[1]
    led = Ledger()
    heights = [h for _, h in view] + list(range(3, 3 + len(late)))
    for (sender, amount), height in zip([f for f, _ in view] + late, heights):
        led.submit_funding(bytes([sender + 1]) * 20, amount, height)
    while led.next_height < 3 + len(late):
        led.seal_block()
    actions = []
    for ev in led.events:
        actions += agent.on_ledger_event(ev, 0)
        if ev.kind == FUNDING_RECEIVED and ev.height == 3 + recheck_after:
            assert logs(agent._recheck(), "recheck")
    refreshes = logs(actions, "refresh")
    assert len(refreshes) == len(late)
    assert refreshes[-1].detail["digest"] == agent.digest.hex()
    after = cleared_state(agent)
    agent._recompute()
    assert after == cleared_state(agent)


def counting_aggregate(monkeypatch):
    calls = []
    aggregate = auction.aggregate

    def counting(*args):
        calls.append(1)
        return aggregate(*args)

    monkeypatch.setattr(auction, "aggregate", counting)
    return calls


def test_late_fundings_clear_the_auction_once_per_agent(monkeypatch):
    data = build_scenario_dict(delay=(2, 3))
    data["bidders"] = {
        "explicit": [
            {"address": f"{i:02x}" * 20, "amount": 100 + 37 * i, "height": height}
            for i, height in enumerate([1, 2, 3, 4, 5, 5, 6, 6, 6, 7, 7], start=1)
        ]
    }
    calls = counting_aggregate(monkeypatch)
    tr, report = run_scenario_dict(data)
    assert report.outcome == "SETTLED_CORRECT"
    assert sum('"event":"refresh"' in line for line in tr.lines) == 3 * 5
    assert len(calls) == 3


def test_conflicts_clear_the_auction_once_per_agent(monkeypatch):
    # wrong roots and equivocation make every agent re-check, but no view
    # grows after the window seals, so no re-check needs a re-clear
    data = build_scenario_dict(
        agents=7, threshold=5, faults=("0:wrong_root:3", "1:equivocate"),
        drop_rate=0.1, r_max=6,
    )
    calls = counting_aggregate(monkeypatch)
    tr, report = run_scenario_dict(data)
    assert report.outcome == "SETTLED_CORRECT"
    assert sum('"event":"recheck"' in line for line in tr.lines) > 7
    assert len(calls) == 7


def test_recheck_after_a_late_funding_clears_again(monkeypatch):
    agents, _, _, _, _ = ready_world()
    agent = agents[1]
    calls = counting_aggregate(monkeypatch)
    (recheck,) = logs(agent._recheck(), "recheck")
    assert calls == [] and recheck.detail["changed"] is False
    late = Contribution(sender=C, amount=9, block_height=3, tx_id=b"\x77" * 32)
    agent.on_ledger_event(
        LedgerEvent(kind=FUNDING_RECEIVED, height=3, index=0, payload=late), 8
    )
    refreshed = cleared_state(agent)
    (recheck,) = logs(agent._recheck(), "recheck")
    assert len(calls) == 1 and recheck.detail["changed"] is False
    assert cleared_state(agent) == refreshed
    logs(agent._recheck(), "recheck")
    assert len(calls) == 1


def test_enclave_holds_a_key_object_not_the_key_bytes():
    key = agent_signing_key(42, 0)
    enclave = EnclaveMock(key)
    assert not hasattr(enclave, "__dict__")
    for name in EnclaveMock.__slots__:
        value = getattr(enclave, name)
        assert not isinstance(value, (bytearray, memoryview, str))
        assert not isinstance(value, bytes) or key not in value
    assert repr(enclave) == "EnclaveMock(code_version='swarmsim-agent/1.0.0')"
    assert enclave.verifying_key == wallet.verifying_key_for(key)
    digest = b"\x42" * 32
    assert enclave.sign(digest) == wallet.sign(key, digest)


def test_handlers_are_deterministic():
    outs = []
    for _ in range(2):
        agents, _, _, _, actions = ready_world()
        env = sends(actions[0])[0].envelope
        reply = agents[1].on_peer_message(env, 6)
        outs.append((actions[0], actions[1], reply))
    assert outs[0] == outs[1]
