"""Deterministic discrete-event network and fault injection.

A single heap of (time, seq) events drives everything: ledger ticks (one
block height per tick, each scheduled by the one before it with sequence -1
so it sorts ahead of same-time deliveries), peer message deliveries, and
timer fires. Ledger events are pushed to every agent synchronously and in
total order, so two honest agents always hold identical views. A sealed
block's fundings reach each agent in one call, from the block's one seal
entry, as a chain watcher reads a whole block; the transcript still gets
one line per funding, ahead of the block's line.

Faults are wrappers around the unmodified honest state machine: they crash
it, mute it, bump one funding in its own ledger view before it clears, or
tamper with its outgoing proposals and published attestation. Each fault
kind overrides one hook of a shared base, `_up` (is the agent running?) or
`_filter` (rewrite its actions), or one handler, and holds no state beyond
the agent it wraps and its spec. Honest agents' code is never touched,
which keeps the safety claims about the honest machine auditable.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import random
import struct
from typing import NamedTuple

from .agent import (
    Agent,
    AgentAction,
    AttestationTriple,
    Log,
    SendPeer,
    SetTimer,
    SubmitSettlement,
)
from .consensus import MESSAGE_TYPES, Envelope, Propose, body_json
from .ledger import (
    BLOCK_SEALED,
    AlreadySettled,
    BadSignatureBundle,
    InsufficientBalance,
    Ledger,
    checked,
)
from .transcript import Transcript, canonical_json

FAULT_CRASH = "crash"
FAULT_SILENT = "silent"
FAULT_WRONG_ROOT = "wrong_root"
FAULT_EQUIVOCATE = "equivocate"
FAULT_BAD_ATTESTATION = "bad_attestation"


class Partition(NamedTuple):
    from_time: int
    to_time: int
    side_a: frozenset[int]
    side_b: frozenset[int]

    def separates(self, a: int, b: int, now: int) -> bool:
        if not (self.from_time <= now < self.to_time):
            return False
        return (a in self.side_a and b in self.side_b) or (
            a in self.side_b and b in self.side_a
        )


@checked
class NetConfig(NamedTuple):
    delay_min: int = 1
    delay_max: int = 2
    drop_rate: float = 0.0
    partitions: tuple[Partition, ...] = ()
    seed: int = 0

    def _check(self) -> None:
        if self.delay_min < 0 or self.delay_max < self.delay_min:
            raise ValueError("need 0 <= delay_min <= delay_max")
        if not (0.0 <= self.drop_rate <= 1.0):
            raise ValueError("drop_rate must be in [0, 1]")


@checked
class FaultSpec(NamedTuple):
    agent_index: int
    kind: str
    at_time: int | None = None
    perturb_seed: int = 0

    def _check(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == FAULT_CRASH and self.at_time is None:
            raise ValueError("crash fault needs at_time")


# -- byzantine wrappers --------------------------------------------------------


class _Fault:
    """Runs the wrapped honest agent through two hooks, both identity here.

    Every handler reaches the inner agent only while `_up(now)` holds and
    passes its actions through `_filter`. Anything not overridden (`attest`,
    `phase`, `round`, ...) is read from the inner agent.
    """

    def __init__(self, inner: Agent, spec: FaultSpec):
        self.inner = inner
        self.spec = spec

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _up(self, now: int) -> bool:
        return True

    def _filter(self, actions: list[AgentAction]) -> list[AgentAction]:
        return actions

    def observe_attestations(self, triples):
        return self._filter(self.inner.observe_attestations(triples)) if self._up(0) else []

    def on_fundings(self, ev, now):
        per_funding = self.inner.on_fundings(ev, now) if self._up(now) else None
        return per_funding and [self._filter(actions) for actions in per_funding]

    def on_ledger_event(self, ev, now):
        return self._filter(self.inner.on_ledger_event(ev, now)) if self._up(now) else []

    def on_peer_message(self, env, now):
        return self._filter(self.inner.on_peer_message(env, now)) if self._up(now) else []

    def on_timer(self, now):
        return self._filter(self.inner.on_timer(now)) if self._up(now) else []


class CrashFault(_Fault):
    """Stops processing entirely at `at_time`; no recovery."""

    def _up(self, now: int) -> bool:
        return now < self.spec.at_time


class SilentFault(_Fault):
    """Processes normally but all outgoing peer messages vanish."""

    def _filter(self, actions):
        return [a for a in actions if not isinstance(a, SendPeer)]


class WrongRootFault(_Fault):
    """Clears the honest machine over its own view with one in-window amount +1.

    Each ledger event goes straight through. At the window-end seal, before
    the agent clears, the victim among the in-window fundings of its view
    (perturb_seed mod their count) is bumped in place; the end block's
    fundings reached the view just before its seal, so they count too. Two
    agents whose seeds agree mod that count derive identical wrong roots and
    will validate each other.
    """

    def on_ledger_event(self, ev, now):
        window = self.inner.auction_cfg.window
        if ev.kind == BLOCK_SEALED and ev.height == window.end_height:
            view = self.inner.view  # held until the agent clears at this seal
            in_window = [i for i, tx in enumerate(view) if window.contains(tx.block_height)]
            if in_window:
                victim = in_window[self.spec.perturb_seed % len(in_window)]
                view[victim] = view[victim]._replace(amount=view[victim].amount + 1)
        return super().on_ledger_event(ev, now)


class EquivocateFault(_Fault):
    """Sends a different root to every peer in the same proposal round."""

    def _filter(self, actions):
        out = []
        for act in actions:
            if isinstance(act, SendPeer) and isinstance(act.envelope.msg, Propose):
                p = act.envelope.msg
                root = hashlib.sha256(
                    b"swarmsim/equivocate/v1" + p.root + struct.pack(">I", act.to)
                ).digest()
                # A subverted agent can feed anything to its own key, so the
                # transport signature stays valid; it still cannot forge peers'.
                env = self.inner._seal(p._replace(root=root))
                act = SendPeer(to=act.to, envelope=env)
            out.append(act)
        return out


class BadAttestationFault(_Fault):
    """Publishes a tampered measurement with a self-consistent quote."""

    def attest(self) -> AttestationTriple:
        honest = self.inner.attest()
        measurement = hashlib.sha256(
            b"swarmsim/tampered/v1" + honest.measurement
        ).digest()
        return AttestationTriple.quote(measurement, honest.verifying_key)


_FAULT_CLASSES = {
    FAULT_CRASH: CrashFault,
    FAULT_SILENT: SilentFault,
    FAULT_WRONG_ROOT: WrongRootFault,
    FAULT_EQUIVOCATE: EquivocateFault,
    FAULT_BAD_ATTESTATION: BadAttestationFault,
}
FAULT_KINDS = tuple(_FAULT_CLASSES)  # its order is pinned: tests/test_corpus.py draws from it


def apply_fault(agent: Agent, fault: FaultSpec):
    return _FAULT_CLASSES[fault.kind](agent, fault)


# -- transcript line shapes -----------------------------------------------------


# The funding, block and network lines as canonical JSON: their keys are in
# sorted order and every value filled in is an int, a decimal string,
# lowercase hex, a message body from `body_json` or a constant
# identifier (a message type, a drop cause, a phase or an event name), none
# of which JSON escapes. A log line's detail is encoded.
_FUNDING_LINE = '{"amount":"%d","h":%d,"i":%d,"kind":"funding_received","sender":"%s","tx_id":"%s"}'
_BLOCK_LINE = '{"h":%d,"i":%d,"kind":"block_sealed","tx_count":%d}'
_SEND_LINE = '{"event":"peer_send","from":%d,"msg":%s,"sig":"%s","t":%d,"to":%d}'
_DELIVER_LINE = '{"event":"peer_deliver","from":%d,"t":%d,"to":%d,"type":"%s"}'
_DROP_LINE = '{"cause":"%s","event":"peer_drop","from":%d,"t":%d,"to":%d,"type":"%s"}'
_TIMER_SET_LINE = '{"agent":%d,"at":%d,"event":"timer_set","t":%d}'
_TIMER_FIRE_LINE = '{"agent":%d,"event":"timer_fire","t":%d}'
_LOG_LINE = '{"agent":%d,"detail":%s,"event":"%s","phase":"%s"}'

# Array items per piece of the settlement line.
_SLICE = 1024


def _mint_items(mints) -> str:
    return ",".join(['["%s",1]' % addr.hex() for addr in mints])


def _refund_items(refunds) -> str:
    return ",".join(['["%s","%d"]' % (addr.hex(), amt) for addr, amt in refunds])


def _settlement_pieces(h: int, i: int, r):
    """The settlement line as canonical JSON, in pieces: sorted keys, hex and
    decimal values. Each array comes `_SLICE` items to a piece, so one slice
    of hex strings is alive at a time, never the whole batch."""
    tx = r.tx
    yield '{"auction_id":"%s","digest":"%s","full_refund_total":"%d","full_refunds":[' % (
        tx.auction_id.hex(), r.digest.hex(), r.full_refund_total
    )
    for rows, items, tail in (
        (tx.full_refunds, _refund_items,
         '],"h":%d,"i":%d,"kind":"settlement_executed","mint_count":%d,"mints":['
         % (h, i, len(tx.mints))),
        (tx.mints, _mint_items,
         '],"partial_refund_total":"%d","partial_refunds":[' % r.partial_refund_total),
        (tx.partial_refunds, _refund_items, '],"retained":"%d"}' % r.retained_balance),
    ):
        for n in range(0, len(rows), _SLICE):
            if n:
                yield ","
            yield items(rows[n:n + _SLICE])
        yield tail


# -- the driver -------------------------------------------------------------------


class Simulation:
    """Owns the ledger, the agents, the clock, and the transcript. Beside the
    lines it writes, it tallies the report's message counts and funding inflow.
    `submissions` holds the scenario's own (address, amount, height) entries
    by height; each height's tick submits its list in order, then drops it."""

    def __init__(
        self,
        *,
        ledger: Ledger,
        agents: list,
        submissions: dict[int, list],
        last_height: int,
        net: NetConfig,
        max_time: int,
        transcript: Transcript,
    ):
        self.ledger = ledger
        self.agents = agents
        self.submissions = submissions
        self.net = net
        self.max_time = max_time
        self.transcript = transcript
        self.max_time_exceeded = False
        self.counts = dict.fromkeys(
            ("propose", "ack", "nack", "abort", "delivered", "dropped", "submits"), 0
        )
        self.inflow = 0

        self._rng = random.Random(
            int.from_bytes(
                hashlib.sha256(
                    b"swarmsim/net/v1" + struct.pack(">Q", net.seed)
                ).digest(),
                "big",
            )
        )
        self._heap: list = []
        self._count = itertools.count()
        self._last_height = last_height
        # A tick holds sequence -1, below every other item's, so a block at
        # height t always seals before same-time message deliveries. Each
        # tick schedules the next, so the heap holds one tick at a time.
        self._heap.append((0, -1, ("tick", 0)))

    def _push(self, at: int, item) -> None:
        heapq.heappush(self._heap, (at, next(self._count), item))

    def run(self) -> None:
        triples = [a.attest() for a in self.agents]
        for i, a in enumerate(self.agents):
            self._exec(i, a.observe_attestations(triples), 0)
        self._pump_ledger(0)
        add_line = self.transcript.add_line
        while self._heap:
            t, _, item = heapq.heappop(self._heap)
            if t > self.max_time:
                self.max_time_exceeded = True
                self.transcript.add({"t": t, "event": "max_time_exceeded"})
                break
            kind = item[0]
            if kind == "tick":
                self._tick(item[1])
            elif kind == "deliver":
                _, frm, to, env, msg_type = item
                add_line(_DELIVER_LINE % (frm, t, to, msg_type))
                self.counts["delivered"] += 1
                self._exec(to, self.agents[to].on_peer_message(env, t), t)
            elif kind == "timer":
                i = item[1]
                add_line(_TIMER_FIRE_LINE % (i, t))
                self._exec(i, self.agents[i].on_timer(t), t)
            self._pump_ledger(t)

    # -- dispatch helpers ----------------------------------------------------

    def _tick(self, height: int) -> None:
        if height < self._last_height:
            heapq.heappush(self._heap, (height + 1, -1, ("tick", height + 1)))
        for sender, amount, _ in self.submissions.pop(height, ()):
            self.ledger.submit_funding(sender, amount, height)
        self.ledger.seal_block()

    def _pump_ledger(self, now: int) -> None:
        """Drain the ledger's log to every agent, in total order.

        A seal that carries fundings first hands them to each agent in one
        call (`_fund`), and each funding still gets its own `funding_received`
        line. An agent that has cleared answers with each funding's actions
        apart, and they run as if each funding were its own event: funding
        k's line, then agent 0's actions for it, ..., then agent n-1's, then
        funding k+1's line. Then comes the block's line and the seal itself.

        A settlement executed mid-pump lands on the log and is delivered by
        the same loop after the current event finishes its full fan-out.
        """
        events = self.ledger.events
        if not events:  # the usual case: one pump follows every heap item
            return
        add_line = self.transcript.add_line
        handlers = [a.on_ledger_event for a in self.agents]
        while events:
            ev = events.popleft()
            kind, height, index, payload = ev
            if kind == BLOCK_SEALED:
                if payload:
                    self._fund(ev, now)
                add_line(_BLOCK_LINE % (height, index, len(payload)))
            else:
                self.transcript.add_pieces(_settlement_pieces(height, index, payload))
            for i, handle in enumerate(handlers):
                actions = handle(ev, now)
                if actions:
                    self._exec(i, actions, now)

    def _fund(self, ev, now: int) -> None:
        """Hand a seal's fundings to every agent, then write funding k's line,
        at index k, followed by the actions each agent returned for it."""
        _, height, _, txs = ev
        replies = []
        for i, a in enumerate(self.agents):
            per_funding = a.on_fundings(ev, now)
            if per_funding:
                replies.append((i, per_funding))
        add_line = self.transcript.add_line
        for k, (sender, amount, _, tx_id) in enumerate(txs):
            add_line(_FUNDING_LINE % (amount, height, k, sender.hex(), tx_id.hex()))
            for i, per_funding in replies:
                self._exec(i, per_funding[k], now)
        self.inflow += sum([tx.amount for tx in txs])

    def _exec(self, agent_index: int, actions: list[AgentAction], now: int) -> None:
        add_line = self.transcript.add_line
        for act in actions:
            if isinstance(act, Log):
                add_line(_LOG_LINE % (
                    agent_index, canonical_json(act.detail), act.event, act.phase
                ))
            elif isinstance(act, SetTimer):
                at = now + act.duration
                add_line(_TIMER_SET_LINE % (agent_index, at, now))
                self._push(at, ("timer", agent_index))
            elif isinstance(act, SendPeer):
                self._send(agent_index, act.to, act.envelope, now)
            else:  # SubmitSettlement, the last of the agent's four action types
                self._submit(agent_index, act, now)

    def _send(self, frm: int, to: int, env: Envelope, now: int) -> None:
        msg = env.msg
        msg_type = MESSAGE_TYPES[type(msg)]
        self.transcript.add_line(_SEND_LINE % (
            frm, body_json(msg), env.transport_sig.hex(), now, to
        ))
        self.counts[msg_type] += 1
        # the random drop is drawn only for links no partition cuts
        if any(p.separates(frm, to, now) for p in self.net.partitions):
            cause = "partition"
        elif self._rng.random() < self.net.drop_rate:
            cause = "random"
        else:
            delay = self._rng.randint(self.net.delay_min, self.net.delay_max)
            self._push(now + delay, ("deliver", frm, to, env, msg_type))
            return
        self.transcript.add_line(_DROP_LINE % (cause, frm, now, to, msg_type))
        self.counts["dropped"] += 1

    def _submit(self, agent_index: int, act: SubmitSettlement, now: int) -> None:
        self.transcript.add(
            {
                "t": now,
                "event": "submit",
                "agent": agent_index,
                "digest": act.digest.hex(),
                "shares": [s.agent_index for s in act.shares],
            }
        )
        self.counts["submits"] += 1
        try:
            self.ledger.execute_settlement(act.tx, list(act.shares))
        except (AlreadySettled, BadSignatureBundle, InsufficientBalance) as exc:
            self.transcript.add(
                {
                    "t": now,
                    "event": "submit_rejected",
                    "agent": agent_index,
                    "error": type(exc).__name__,
                }
            )
