"""A pinned corpus over the whole scenario space.

The goldens pin the bytes of fourteen chosen runs. This test pins 600 seeded
random scenarios: n <= 7 agents, every threshold m, mixed faults, drops, at
most one partition, explicit bidders at heights up to `end + delay_min`, and
amounts up to 2^100. For each run it records the outcome, `conservation_ok`
and the sha256 of the transcript body; for a run that raises, the exception's
class name. A refactor or a deletion that moves any byte anywhere in that
space then fails here, not only in the goldens.

A deliberate change to transcript bytes or outcomes re-records the pins:

    PYTHONPATH=src python tests/test_corpus.py --record
"""

import json
import random
import sys
from pathlib import Path

import pytest

from swarmsim.harness import run_scenario_dict
from swarmsim.netsim import FAULT_CRASH, FAULT_KINDS, FAULT_WRONG_ROOT
from swarmsim.scenario import MAX_SINGLE_AMOUNT

CORPUS_SIZE = 600
PINS = Path(__file__).with_name("corpus.json")


def corpus_scenario(index: int) -> dict:
    rng = random.Random(f"swarmsim-corpus/{index}")
    n = rng.randint(1, 7)
    start = rng.randint(0, 3)
    end = start + rng.randint(0, 4)
    delay_min = rng.randint(0, 2)
    addresses = ["%040x" % rng.getrandbits(160) for _ in range(rng.randint(1, 8))]
    bidders = []
    for _ in range(rng.randint(0, 12)):
        amount = rng.choice([
            rng.randint(1, 50),
            rng.randint(1, 10_000),
            MAX_SINGLE_AMOUNT - rng.randint(0, 3),
        ])
        bidders.append({
            "address": rng.choice(addresses),
            "amount": rng.choice([amount, str(amount)]),
            "height": rng.randint(0, end + delay_min),
        })
    faults = []
    for i in rng.sample(range(n), rng.randint(0, min(n, 3))):
        fault = {"agent_index": i, "kind": rng.choice(FAULT_KINDS)}
        if fault["kind"] == FAULT_CRASH:
            fault["at_time"] = rng.randint(0, 30)
        elif fault["kind"] == FAULT_WRONG_ROOT:
            fault["perturb_seed"] = rng.randint(0, 5)
        faults.append(fault)
    partitions = []
    if n > 1 and rng.random() < 0.3:
        order = rng.sample(range(n), n)
        cut = rng.randint(1, n - 1)
        frm = rng.randint(0, 20)
        partitions.append({
            "from_time": frm,
            "to_time": frm + rng.randint(0, 40),
            "side_a": sorted(order[:cut]),
            "side_b": sorted(order[cut:]),
        })
    return {
        "seed": rng.randrange(1 << 32),
        "auction": {"n_items": rng.randint(1, 6), "window": {"start": start, "end": end}},
        "bidders": {"explicit": bidders},
        "agents": {"n": n, "m": rng.randint(1, n), "faults": faults},
        "net": {
            "delay_min": delay_min,
            "delay_max": delay_min + rng.randint(0, 3),
            "drop_rate": rng.choice([0.0, 0.0, 0.1, 0.3]),
            "partitions": partitions,
        },
        "consensus": {"r_max": rng.randint(1, 4), "round_timeout": rng.randint(2, 12)},
        "max_time": rng.choice([10, 60, 500]),
    }


def corpus_entry(data: dict) -> dict:
    try:
        _, report = run_scenario_dict(data, sink=lambda header: lambda line: None)
    except Exception as exc:  # a valid scenario that raises is pinned by class name
        return {"raises": type(exc).__name__}
    return {
        "outcome": report.outcome,
        "conservation_ok": report.conservation_ok,
        "body_sha256": report.transcript_hash,
    }


def corpus_entries() -> list[dict]:
    return [corpus_entry(corpus_scenario(i)) for i in range(CORPUS_SIZE)]


@pytest.mark.golden_matrix
def test_every_corpus_run_matches_its_pin():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    entries = corpus_entries()
    moved = [i for i, (got, pin) in enumerate(zip(entries, pinned)) if got != pin]
    assert len(pinned) == CORPUS_SIZE
    assert moved == [], f"{len(moved)} runs moved, first {moved[0]}: {entries[moved[0]]}"


def test_the_corpus_covers_every_outcome_and_the_known_crash():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    kinds = {entry.get("outcome", entry.get("raises")) for entry in pinned}
    assert kinds == {
        "SETTLED_CORRECT", "SETTLED_FRAUDULENT", "ABORTED", "STUCK", "HeightInPast",
    }
    # ROADMAP item 1: only a single-signature run settles before a late funding lands
    crashed = [i for i, entry in enumerate(pinned) if "raises" in entry]
    assert all(corpus_scenario(i)["agents"]["m"] == 1 for i in crashed)
    assert all(entry.get("conservation_ok", True) for entry in pinned)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --record")
    with open(PINS, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in corpus_entries()) + "\n]\n")
