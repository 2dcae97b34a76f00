"""Agent state machine: attestation roster, phases, votes, signing guard."""

import hashlib
import re
import tracemalloc

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
    AMOUNT_LIMIT,
    BLOCK_FUNDINGS,
    BLOCK_SEALED,
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


def new_ledger():
    """A chain for the agents to watch; no test here settles on it."""
    return Ledger(make_world()[2])


def fed_contributions(led):
    """Every funding `led` sealed, in the order the agents were fed them."""
    return [tx for e in led.events if e.kind == BLOCK_FUNDINGS for tx in e.payload]


def feed(agent, ev, now=0):
    """Hand `agent` one ledger entry as the driver does: a block's fundings
    in one call, anything else one event a call. Returns its actions in order."""
    if ev.kind == BLOCK_FUNDINGS:
        return [act for actions in agent.on_fundings(ev, now) or () for act in actions]
    return agent.on_ledger_event(ev, now)


def late_block(height, index, *late):
    """A block's fundings at `height` from `index` on, past the window."""
    return LedgerEvent(BLOCK_FUNDINGS, height, index, late)


def funded_ledger():
    led = new_ledger()
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
            out[a.index].extend(feed(a, ev))
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
    forged = triple._replace(attestation=b"\x00" * 32)
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
    led = new_ledger()
    led.seal_block()
    led.submit_funding(A, 7, 1)
    actions = []
    for ev in led.events:
        actions.extend(feed(agents[0], ev))
    led.seal_block()
    funding_ev = [e for e in led.events if e.height == 1][0]
    assert funding_ev.kind == BLOCK_FUNDINGS
    got = agents[0].on_fundings(funding_ev, 0)
    assert got is None and actions == []
    assert len(agents[0].view) == 1
    assert agents[0].phase == PHASE_MONITORING


def test_window_end_seal_enters_cross_validation_with_oracle_root():
    agents, _, _, cfg, actions = ready_world()
    agent = agents[0]
    assert agent.phase == PHASE_CROSS_VALIDATING
    bids, late = auction.aggregate(fed_contributions(funded_ledger()), WINDOW)
    ranked, _ = auction.compute_clearing(cfg, auction.canonical_sort(bids))
    expected = commitment.bid_list_root(ranked)
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
    twisted = honest._replace(root=b"\x66" * 32)
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
    twisted = honest._replace(settlement_digest=b"\x55" * 32)
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
    env = seal(keys[0], 0, msg)._replace(sender=7)
    reply = agents[1].on_peer_message(env, 6)
    assert logs(reply, "unknown_sender")
    assert sends(reply) == []


def test_validly_signed_message_from_an_agent_outside_the_roster_dropped():
    # agent 2 is in range (2 < n) but left out of agent 0's roster by a bad
    # attestation; its key still signs, so only the roster check stops it
    agents, keys, _, _ = make_world()
    triples = [a.attest() for a in agents]
    triples[2] = AttestationTriple.quote(b"\xee" * 32, triples[2].verifying_key)
    agents[0].observe_attestations(triples)
    assert agents[0].roster == (0, 1)
    msg = Nack(round_index=0, reason="not_ready")
    reply = agents[0].on_peer_message(seal(keys[2], 2, msg), 6)
    assert logs(reply, "unknown_sender")[0].detail["sender"] == 2
    assert sends(reply) == []


def test_message_from_sender_n_dropped_even_when_its_attestation_is_valid():
    # n + 1 valid triples put index n in the roster; the policy has no key
    # for it, so the range check must stop the message before the key lookup
    agents, keys, policy, _ = make_world()
    extra_key = agent_signing_key(42, 3)
    triples = [a.attest() for a in agents] + [EnclaveMock(extra_key).attest()]
    agents[0].observe_attestations(triples)
    assert agents[0].roster == (0, 1, 2, 3) and policy.n == 3
    msg = Nack(round_index=0, reason="not_ready")
    reply = agents[0].on_peer_message(seal(extra_key, 3, msg), 6)
    assert logs(reply, "unknown_sender")[0].detail["sender"] == 3


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
    forged = good._replace(share=bad_share)
    reply = agents[0].on_peer_message(seal(keys[1], 1, forged), 7)
    assert logs(reply, "invalid_share_ignored")
    assert agents[0].submitted is False


def test_ack_share_for_agent_index_n_ignored():
    # a share index equal to n has no key in the policy: the range check must
    # refuse it before the signature is looked at
    agents, keys, policy, _, actions = ready_world()
    env = sends(actions[0])[0].envelope
    good = sends(agents[1].on_peer_message(env, 6))[0].envelope.msg
    forged = good._replace(share=SignatureShare(agent_index=policy.n, sig=good.share.sig))
    reply = agents[0].on_peer_message(seal(keys[1], 1, forged), 7)
    assert logs(reply, "invalid_share_ignored")[0].detail["agent"] == policy.n
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
    with pytest.raises(OutOfOrderEvent):
        agents[0].on_fundings(led.events[1], 9)


def test_a_block_of_fundings_moves_the_order_check_past_its_last_funding():
    # positions inside a block are the ledger's own: once the fundings at
    # (1, 0) and (1, 1) arrive as one entry, another entry at (1, 1) is stale
    agents, _, _, _ = make_world()
    exchange_attestations(agents)
    agent = agents[0]
    seal0, block1, seal1 = list(funded_ledger().events)[:3]
    assert (block1.kind, block1.height, block1.index, len(block1.payload)) == (
        BLOCK_FUNDINGS, 1, 0, 2
    )
    feed(agent, seal0)
    feed(agent, block1)
    with pytest.raises(OutOfOrderEvent):
        agent.on_fundings(LedgerEvent(BLOCK_FUNDINGS, 1, 1, block1.payload[1:]), 0)
    assert feed(agent, seal1) == [] and agent.view == list(block1.payload)


def test_no_in_window_funding_reaches_an_agent_past_the_window_end_seal():
    # `_on_funding` splices every funding in as a full refund. That rests on
    # this: the window-end seal has the highest index of its height, so once
    # an agent has seen it, any funding inside the window is out of order.
    agents, _, _, _, _ = ready_world()
    agent = agents[1]
    assert agent.phase == PHASE_CROSS_VALIDATING
    cleared = cleared_state(agent)
    led = funded_ledger()
    (end_seal,) = [
        e for e in led.events if e.kind == BLOCK_SEALED and e.height == WINDOW.end_height
    ]
    in_window = [e for e in led.events if e.kind == BLOCK_FUNDINGS]
    assert end_seal.index == max(
        e.index + len(e.payload) for e in in_window if e.height == end_seal.height
    )
    late = Contribution(sender=C, amount=9, block_height=end_seal.height, tx_id=b"\x77" * 32)
    in_window.append(late_block(end_seal.height, end_seal.index, late))
    for ev in in_window:
        assert WINDOW.contains(ev.height)
        with pytest.raises(OutOfOrderEvent):
            agent.on_fundings(ev, 9)
    assert agent.phase == PHASE_CROSS_VALIDATING and cleared_state(agent) == cleared


def test_the_window_end_seal_releases_the_view_and_late_fundings_still_splice():
    agents, _, _, cfg, _ = ready_world()
    assert [agent.view for agent in agents] == [None] * len(agents)
    agent = agents[1]
    tx, digest = agent.tx, agent.digest
    late = Contribution(sender=C, amount=9, block_height=3, tx_id=b"\x77" * 32)
    agent.on_fundings(late_block(3, 0, late), 8)
    assert agent.view is None
    assert agent.tx.full_refunds == tx.full_refunds + ((C, 9),)
    assert agent.digest == wallet.settlement_digest(agent.tx) != digest
    assert cleared_state(agent) == fresh_clear(cfg, fed_contributions(funded_ledger()) + [late])


def test_a_block_of_late_fundings_answers_one_refresh_per_funding_in_block_order():
    # the driver writes funding k's line, then each agent's actions for it:
    # so the agent answers a block with one action list per funding, each
    # refresh going on from the digest the one before it left
    agents, _, _, cfg, _ = ready_world()
    agent = agents[1]
    first = agent.digest
    late = [
        Contribution(sender=s, amount=9 + k, block_height=3, tx_id=bytes([0x70 + k]) * 32)
        for k, s in enumerate((C, A, C))
    ]
    per_funding = agent.on_fundings(late_block(3, 0, *late), 8)
    assert [len(actions) for actions in per_funding] == [1, 1, 1]
    refreshes = [actions[0] for actions in per_funding]
    assert [r.event for r in refreshes] == ["refresh"] * 3
    digests = [first.hex()] + [r.detail["digest"] for r in refreshes]
    assert [r.detail["old_digest"] for r in refreshes] == digests[:-1]
    assert digests[-1] == agent.digest.hex()
    assert cleared_state(agent) == fresh_clear(cfg, fed_contributions(funded_ledger()) + late)
    # a settled agent takes a later block and answers nothing
    receipt = SettlementReceipt(agent.digest, 0, 0, 10, agent.tx)
    agent.on_ledger_event(LedgerEvent(SETTLEMENT_EXECUTED, 4, 0, receipt), 9)
    assert agent.phase == PHASE_DONE
    assert agent.on_fundings(late_block(5, 0, late[0]), 9) is None


@pytest.mark.parametrize(
    "sender, amount", [(C, -1), (C, True), (C, 1.5), (C, AMOUNT_LIMIT), (C[:19], 9)]
)
def test_a_bad_late_funding_raises_what_encode_settlement_raises(sender, amount):
    # the splice checks a late full refund with encode_settlement's own
    # per-entry code, and raises before the agent's state moves
    agents, _, _, cfg, _ = ready_world()
    agent = agents[1]
    cleared = cleared_state(agent)
    grown = agent.tx._replace(full_refunds=agent.tx.full_refunds + ((sender, amount),))
    with pytest.raises(Exception) as expected:
        auction.encode_settlement(grown)
    bad = Contribution(sender=sender, amount=amount, block_height=3, tx_id=b"\x76" * 32)
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        agent.on_fundings(late_block(3, 0, bad), 8)
    assert cleared_state(agent) == cleared
    late = Contribution(sender=C, amount=9, block_height=3, tx_id=b"\x77" * 32)
    agent.on_fundings(late_block(3, 1, late), 8)
    assert cleared_state(agent) == fresh_clear(cfg, fed_contributions(funded_ledger()) + [late])


@pytest.mark.parametrize("late_fundings", [0, 1, 4])
def test_an_agent_holds_nothing_as_large_as_its_settlement_encoding(late_fundings):
    # the agent hashes its encoding at clearing and keeps only a hash state;
    # a late funding splices into that state and the encoded full refunds,
    # so no copy of the encoding outlives the handler that made it
    agents, _, _, _ = make_world(n_items=40)
    exchange_attestations(agents)
    agent = agents[1]
    led = new_ledger()
    for i in range(120):
        led.submit_funding(i.to_bytes(2, "big") * 10, 1000 + i, 1 + i % 2)
    while led.next_height < 3:
        led.seal_block()
    for i in range(late_fundings):
        led.submit_funding(C, 5 + i, 3 + i)
        led.seal_block()
    events = list(led.events)
    tracemalloc.start()
    try:
        for ev in events:
            feed(agent, ev)
        held = max(trace.size for trace in tracemalloc.take_snapshot().traces)
    finally:
        tracemalloc.stop()
    assert agent.phase == PHASE_CROSS_VALIDATING
    assert len(agent.tx.full_refunds) == 80 + late_fundings
    assert held < len(auction.encode_settlement(agent.tx))


def test_signing_guard_refuses_second_digest():
    agents, _, _, _, actions = ready_world()
    env = sends(actions[0])[0].envelope
    agents[1].on_peer_message(env, 6)  # signs the current digest
    first = agents[1].signed_digest
    late = Contribution(sender=C, amount=9, block_height=3, tx_id=b"\x77" * 32)
    refresh = feed(agents[1], late_block(3, 0, late), 8)
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


def fresh_clear(cfg, contributions):
    """The `cleared_state` of one clearing of `contributions`."""
    bids, late = auction.aggregate(contributions, cfg.window)
    ranked, price = auction.compute_clearing(cfg, bids)
    tx = auction.build_settlement(cfg, ranked, price, late)
    root = commitment.bid_list_root(ranked)
    return (tx, wallet.settlement_digest(tx), root, price, len(ranked))


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
    # a conflict re-check between late fundings keeps the spliced state; the
    # refreshes after it go on from it and must end where a fresh clear does
    agents, _, _, cfg = make_world(n_items=n_items)
    exchange_attestations(agents)
    agent = agents[1]
    led = new_ledger()
    heights = [h for _, h in view] + list(range(3, 3 + len(late)))
    for (sender, amount), height in zip([f for f, _ in view] + late, heights):
        led.submit_funding(bytes([sender + 1]) * 20, amount, height)
    while led.next_height < 3 + len(late):
        led.seal_block()
    actions = []
    for ev in led.events:
        actions += feed(agent, ev)
        if ev.kind == BLOCK_FUNDINGS and ev.height == 3 + recheck_after:
            assert logs(agent._recheck(), "recheck")
    refreshes = logs(actions, "refresh")
    assert len(refreshes) == len(late)
    assert refreshes[-1].detail["digest"] == agent.digest.hex()
    assert cleared_state(agent) == fresh_clear(cfg, fed_contributions(led))


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


def test_recheck_after_a_late_funding_keeps_the_spliced_state(monkeypatch):
    # a re-check never re-clears: a late funding is already spliced in, and
    # the spliced state is what a fresh clear of every funding gives
    agents, _, _, cfg, _ = ready_world()
    agent = agents[1]
    calls = counting_aggregate(monkeypatch)
    (recheck,) = logs(agent._recheck(), "recheck")
    assert calls == [] and recheck.detail["changed"] is False
    late = Contribution(sender=C, amount=9, block_height=3, tx_id=b"\x77" * 32)
    agent.on_fundings(late_block(3, 0, late), 8)
    refreshed = cleared_state(agent)
    (recheck,) = logs(agent._recheck(), "recheck")
    assert calls == [] and recheck.detail["changed"] is False
    assert cleared_state(agent) == refreshed
    assert refreshed == fresh_clear(cfg, fed_contributions(funded_ledger()) + [late])


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
