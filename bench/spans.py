"""Span recorder for the traced benchmark run, and the per-layer sums built from it.

The recorder wraps swarmsim functions from outside the package: every module
binding of a traced function (``encode_settlement`` is bound in ``auction``,
``wallet`` and ``harness``) and the class attribute of a traced method.
Each call becomes one span of five integers (name index, start ns, end ns,
parent span index, sample id), appended to one flat in-memory array that
is written to disk once, when the sample ends. Garbage-collector pauses are
recorded as spans named ``gc`` through ``gc.callbacks``.
"""

from __future__ import annotations

import array
import functools
import gc
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

FIELDS = 5  # name index, start ns, end ns, parent span index (-1: none), sample id

# (span name, module, function or Class.method). A function is looked up in
# its module first and, if a refactor moved it, in any other swarmsim module.
TARGETS = (
    ("harness.load_scenario", "harness", "load_scenario"),
    ("harness.parse_scenario", "harness", "parse_scenario"),
    ("harness.run", "harness", "_run"),
    ("harness.oracle_settlement", "harness", "oracle_settlement"),
    ("harness.report", "harness", "_build_report"),
    ("harness.verify_transcript", "harness", "verify_transcript"),
    ("ledger.submit_funding", "ledger", "Ledger.submit_funding"),
    ("ledger.seal_block", "ledger", "Ledger.seal_block"),
    ("ledger.execute_settlement", "ledger", "Ledger.execute_settlement"),
    ("agent.observe_attestations", "agent", "Agent.observe_attestations"),
    ("agent.on_ledger_event", "agent", "Agent.on_ledger_event"),
    ("agent.on_peer_message", "agent", "Agent.on_peer_message"),
    ("agent.on_timer", "agent", "Agent.on_timer"),
    ("auction.aggregate", "auction", "aggregate"),
    ("auction.compute_clearing", "auction", "compute_clearing"),
    ("commitment.bid_list_root", "commitment", "bid_list_root"),
    ("auction.build_settlement", "auction", "build_settlement"),
    ("auction.encode_settlement", "auction", "encode_settlement"),
    ("wallet.sign", "wallet", "sign"),
    ("wallet.verify_signature", "wallet", "verify_signature"),
    ("wallet.verifying_key_for", "wallet", "verifying_key_for"),
    ("consensus.transport_digest", "consensus", "transport_digest"),
    ("netsim.run", "netsim", "Simulation.run"),
    ("transcript.add", "transcript", "Transcript.add"),
    ("transcript.body_hash", "transcript", "Transcript.body_hash"),
    ("transcript.write", "transcript", "Transcript.write"),
    ("transcript.iter_events", "transcript", "Transcript.iter_events"),
    ("transcript.load_lines", "transcript", "load_lines"),
    ("transcript.hash_body_lines", "transcript", "hash_body_lines"),
)


class Recorder:
    def __init__(self, sample_id: int):
        self.sample = sample_id
        self.names: list[str] = []
        self.buf = array.array("q")
        self.stack = [-1]
        self._gc_start = 0

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        idx = self._index(name)
        buf, stack, sample, now = self.buf, self.stack, self.sample, time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            # One span per next() that yields, appended once the item is in
            # hand; the final, exhausting next() is not recorded, so the
            # span count is the number of items.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    start = now()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    buf.extend((idx, start, now(), stack[-1], sample))
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # The span index is read after extend: a collection triggered
            # while building the tuple appends its gc span first.
            buf.extend((idx, now(), 0, stack[-1], sample))
            sid = len(buf) // FIELDS - 1
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                buf[sid * FIELDS + 2] = now()

        return traced

    @contextmanager
    def span(self, name: str):
        idx = self._index(name)
        self.buf.extend((idx, time.perf_counter_ns(), 0, self.stack[-1], self.sample))
        sid = len(self.buf) // FIELDS - 1
        self.stack.append(sid)
        try:
            yield
        finally:
            self.stack.pop()
            self.buf[sid * FIELDS + 2] = time.perf_counter_ns()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.buf.extend(
                (self._gc_idx, self._gc_start, time.perf_counter_ns(), self.stack[-1], self.sample)
            )

    def install(self) -> None:
        """Wrap every target in the already imported swarmsim package."""
        modules = [m for n, m in sys.modules.items() if n == "swarmsim" or n.startswith("swarmsim.")]
        for name, module, attr in TARGETS:
            home = importlib.import_module(f"swarmsim.{module}")
            owner, _, fname = attr.rpartition(".")
            if owner:
                cls = getattr(home, owner)
                setattr(cls, fname, self.wrap(name, vars(cls)[fname]))
                continue
            fn = vars(home).get(fname) or next(
                (vars(m)[fname] for m in modules if inspect.isfunction(vars(m).get(fname))),
                None,
            )
            if fn is None:
                raise LookupError(f"traced function {attr!r} not found in swarmsim")
            traced = self.wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)
        self._gc_idx = self._index("gc")
        gc.callbacks.append(self._on_gc)

    def dump(self, prefix: str) -> None:
        with open(prefix + ".bin", "wb") as fh:
            self.buf.tofile(fh)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(self.names, fh)


def load_totals(prefix: str) -> dict[tuple[str, str], tuple[int, int, int]]:
    """(root span name, span name) -> (calls, inclusive ns, self ns).

    Self time is a span's duration minus the durations of its direct
    children. Parents always precede their children in the array.
    """
    with open(prefix + ".json", encoding="utf-8") as fh:
        names = json.load(fh)
    buf = array.array("q")
    with open(prefix + ".bin", "rb") as fh:
        buf.frombytes(fh.read())
    name_col, parents = buf[0::FIELDS], buf[3::FIELDS]
    dur = [end - start for start, end in zip(buf[1::FIELDS], buf[2::FIELDS])]
    n = len(dur)
    child_ns = [0] * n
    root = list(range(n))
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child_ns[p] += dur[i]
            root[i] = root[p]
    totals: dict[tuple[str, str], list[int]] = {}
    for i in range(n):
        t = totals.setdefault((names[name_col[root[i]]], names[name_col[i]]), [0, 0, 0])
        t[0] += 1
        t[1] += dur[i]
        t[2] += dur[i] - child_ns[i]
    return {k: tuple(v) for k, v in totals.items()}
