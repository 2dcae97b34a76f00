"""Deterministic discrete-event network and fault injection.

A single heap of (time, seq) events drives everything: ledger ticks (one
block height per tick, pre-scheduled so they sort ahead of same-time
deliveries), peer message deliveries, and timer fires. Ledger events are
pushed to every agent synchronously and in total order, so two honest
agents always hold identical views.

Faults are wrappers around the unmodified honest state machine: they crash
it, mute it, feed it a perturbed ledger view, or tamper with its outgoing
proposals and published attestation. Each fault kind overrides one hook of
a shared base, `_up` (is the agent running?) or `_filter` (rewrite its
actions), or one handler. Honest agents' code is never touched, which keeps
the safety claims about the honest machine auditable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import itertools
import random
import struct
from dataclasses import dataclass

from . import consensus
from .agent import (
    Agent,
    AgentAction,
    AttestationTriple,
    Log,
    SendPeer,
    SetTimer,
    SubmitSettlement,
)
from .consensus import Envelope, Propose
from .ledger import (
    BLOCK_SEALED,
    FUNDING_RECEIVED,
    SETTLEMENT_EXECUTED,
    AlreadySettled,
    BadSignatureBundle,
    Ledger,
    LedgerEvent,
)
from .transcript import Transcript, canonical_json_sliced

FAULT_CRASH = "crash"
FAULT_SILENT = "silent"
FAULT_WRONG_ROOT = "wrong_root"
FAULT_EQUIVOCATE = "equivocate"
FAULT_BAD_ATTESTATION = "bad_attestation"

FAULT_KINDS = (
    FAULT_CRASH,
    FAULT_SILENT,
    FAULT_WRONG_ROOT,
    FAULT_EQUIVOCATE,
    FAULT_BAD_ATTESTATION,
)


@dataclass(frozen=True)
class Partition:
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


@dataclass(frozen=True)
class NetConfig:
    delay_min: int = 1
    delay_max: int = 2
    drop_rate: float = 0.0
    partitions: tuple[Partition, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.delay_min < 0 or self.delay_max < self.delay_min:
            raise ValueError("need 0 <= delay_min <= delay_max")
        if not (0.0 <= self.drop_rate <= 1.0):
            raise ValueError("drop_rate must be in [0, 1]")


@dataclass(frozen=True)
class FaultSpec:
    agent_index: int
    kind: str
    at_time: int | None = None
    perturb_seed: int = 0

    def __post_init__(self) -> None:
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
    """Feeds the honest machine a ledger view with one in-window amount +1.

    Events are buffered until the funding window seals, the victim
    contribution (perturb_seed mod count) is bumped, and the whole stream
    is replayed into the unmodified agent. Two agents sharing a
    perturb_seed derive identical wrong roots and will validate each other.
    """

    def __init__(self, inner: Agent, spec: FaultSpec):
        super().__init__(inner, spec)
        self._buffer: list[LedgerEvent] = []
        self._released = False

    def on_ledger_event(self, ev, now):
        if self._released:
            return self.inner.on_ledger_event(ev, now)
        window = self.inner.auction_cfg.window
        if ev.kind == BLOCK_SEALED and ev.height == window.end_height:
            events = self._buffer + [ev]
            in_window = [
                i
                for i, e in enumerate(events)
                if e.kind == FUNDING_RECEIVED and window.contains(e.height)
            ]
            if in_window:
                victim = in_window[self.spec.perturb_seed % len(in_window)]
                tx = events[victim].payload
                events[victim] = events[victim]._replace(
                    payload=tx._replace(amount=tx.amount + 1)
                )
            self._released = True
            self._buffer = []
            actions = []
            for e in events:
                actions.extend(self.inner.on_ledger_event(e, now))
            return actions
        self._buffer.append(ev)
        return []


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
                env = self.inner._seal(dataclasses.replace(p, root=root))
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


def apply_fault(agent: Agent, fault: FaultSpec):
    return _FAULT_CLASSES[fault.kind](agent, fault)


# -- transcript line shapes -----------------------------------------------------


def _ledger_line(ev: LedgerEvent) -> dict:
    kind, h, i, payload = ev
    if kind == FUNDING_RECEIVED:
        return {
            "h": h,
            "i": i,
            "kind": "funding_received",
            "sender": payload.sender.hex(),
            "amount": str(payload.amount),
            "tx_id": payload.tx_id.hex(),
        }
    if kind == BLOCK_SEALED:
        return {"h": h, "i": i, "kind": "block_sealed", "tx_count": len(payload)}
    if kind == SETTLEMENT_EXECUTED:
        # The three lists as generators, for `canonical_json_sliced`: one
        # slice of hex strings and pairs is alive at a time, never the whole
        # batch. Pairs are tuples, which it writes as arrays.
        r = payload
        return {
            "h": h,
            "i": i,
            "kind": "settlement_executed",
            "auction_id": r.tx.auction_id.hex(),
            "digest": r.digest.hex(),
            "mints": ((addr.hex(), 1) for addr in r.tx.mints),
            "partial_refunds": ((addr.hex(), str(amt)) for addr, amt in r.tx.partial_refunds),
            "full_refunds": ((addr.hex(), str(amt)) for addr, amt in r.tx.full_refunds),
            "mint_count": len(r.tx.mints),
            "partial_refund_total": str(r.partial_refund_total),
            "full_refund_total": str(r.full_refund_total),
            "retained": str(r.retained_balance),
        }
    raise ValueError(f"unknown ledger event kind {kind!r}")


# -- the driver -------------------------------------------------------------------


class Simulation:
    """Owns the ledger, the agents, the clock, and the transcript. Beside the
    lines it writes, it tallies the report's message counts and funding inflow."""

    def __init__(
        self,
        *,
        ledger: Ledger,
        agents: list,
        submissions: dict[int, list[tuple[bytes, int]]],
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
        # Ticks pre-scheduled at init take the lowest sequence numbers, so a
        # block at height t always seals before same-time message deliveries.
        for t in range(last_height + 1):
            self._push(t, ("tick", t))

    def _push(self, at: int, item) -> None:
        heapq.heappush(self._heap, (at, next(self._count), item))

    def run(self) -> None:
        triples = [a.attest() for a in self.agents]
        for i, a in enumerate(self.agents):
            self._exec(i, a.observe_attestations(triples), 0)
        self._pump_ledger(0)
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
                self.transcript.add(
                    {"t": t, "event": "peer_deliver", "from": frm, "to": to, "type": msg_type}
                )
                self.counts["delivered"] += 1
                self._exec(to, self.agents[to].on_peer_message(env, t), t)
            elif kind == "timer":
                i = item[1]
                self.transcript.add({"t": t, "event": "timer_fire", "agent": i})
                self._exec(i, self.agents[i].on_timer(t), t)
            self._pump_ledger(t)

    # -- dispatch helpers ----------------------------------------------------

    def _tick(self, height: int) -> None:
        for sender, amount in self.submissions.pop(height, ()):
            self.ledger.submit_funding(sender, amount, height)
        self.ledger.seal_block()

    def _pump_ledger(self, now: int) -> None:
        """Drain the ledger's log to every agent, in total order.

        A settlement executed mid-pump lands on the log and is delivered by
        the same loop after the current event finishes its full fan-out.
        """
        events = self.ledger.events
        if not events:  # the usual case: one pump follows every heap item
            return
        add = self.transcript.add
        handlers = [a.on_ledger_event for a in self.agents]
        while events:
            ev = events.popleft()
            if ev.kind == SETTLEMENT_EXECUTED:
                self.transcript.add_line(canonical_json_sliced(_ledger_line(ev)))
            else:
                add(_ledger_line(ev))
                if ev.kind == FUNDING_RECEIVED:
                    self.inflow += ev.payload.amount
            for i, handle in enumerate(handlers):
                actions = handle(ev, now)
                if actions:
                    self._exec(i, actions, now)

    def _exec(self, agent_index: int, actions: list[AgentAction], now: int) -> None:
        for act in actions:
            if isinstance(act, Log):
                self.transcript.add(
                    {
                        "agent": agent_index,
                        "phase": act.phase,
                        "event": act.event,
                        "detail": act.detail,
                    }
                )
            elif isinstance(act, SetTimer):
                at = now + act.duration
                self.transcript.add(
                    {"t": now, "event": "timer_set", "agent": agent_index, "at": at}
                )
                self._push(at, ("timer", agent_index))
            elif isinstance(act, SendPeer):
                self._send(agent_index, act.to, act.envelope, now)
            elif isinstance(act, SubmitSettlement):
                self._submit(agent_index, act, now)
            else:
                raise TypeError(f"unknown action {type(act).__name__}")

    def _send(self, frm: int, to: int, env: Envelope, now: int) -> None:
        body = consensus.body_dict(env.msg)
        self.transcript.add(
            {
                "t": now,
                "event": "peer_send",
                "from": frm,
                "to": to,
                "msg": body,
                "sig": env.transport_sig.hex(),
            }
        )
        self.counts[body["type"]] += 1
        # the random drop is drawn only for links no partition cuts
        if any(p.separates(frm, to, now) for p in self.net.partitions):
            cause = "partition"
        elif self._rng.random() < self.net.drop_rate:
            cause = "random"
        else:
            delay = self._rng.randint(self.net.delay_min, self.net.delay_max)
            self._push(now + delay, ("deliver", frm, to, env, body["type"]))
            return
        self.transcript.add(
            {
                "t": now,
                "event": "peer_drop",
                "from": frm,
                "to": to,
                "type": body["type"],
                "cause": cause,
            }
        )
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
        except (AlreadySettled, BadSignatureBundle) as exc:
            self.transcript.add(
                {
                    "t": now,
                    "event": "submit_rejected",
                    "agent": agent_index,
                    "error": type(exc).__name__,
                }
            )
