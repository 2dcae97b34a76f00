"""The one pin file of the tests, and a pinned corpus over the whole scenario space.

`tests/corpus.json` pins every whole run the tests pin: the fourteen goldens
of `test_golden.py` by name, and 600 seeded random scenarios by index: n <= 7
agents, every threshold m, mixed faults, drops, at most one partition,
explicit bidders at heights up to `end + delay_min`, and amounts up to 2^100.
Each pin holds the run's outcome, `conservation_ok` and the sha256 of its
transcript body; for a run that raises, the exception's class name. A
refactor or a deletion that moves any byte anywhere in that space then fails
here, not only in the goldens. A failing pin test lists each pin whose
outcome, `conservation_ok` or raised class moved, as `key: old → new`, and
counts the pins whose body hash alone moved.

A deliberate change to transcript bytes or outcomes re-records both sections,
printing the same list first:

    PYTHONPATH=src python tests/test_corpus.py --record
"""

import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from swarmsim.agent import (
    PHASE_COMPUTING,
    PHASE_CROSS_VALIDATING,
    PHASE_DONE,
    PHASE_MONITORING,
    PHASE_SIGNING,
)
from swarmsim import cli
from swarmsim.harness import EXIT_CODES, run_scenario_dict
from swarmsim.ledger import HeightInPast
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


def report_entry(report) -> dict:
    """The pin of a run that returned its report."""
    return {
        "outcome": report.outcome,
        "conservation_ok": report.conservation_ok,
        "body_sha256": report.transcript_hash,
    }


def corpus_entry(data: dict, consume=lambda line: None) -> dict:
    try:
        _, report = run_scenario_dict(data, consume=consume)
    except Exception as exc:  # a valid scenario that raises is pinned by class name
        return {"raises": type(exc).__name__}
    return report_entry(report)


def load_pins() -> dict:
    """{"golden": {name: entry}, "corpus": [entry per index]}"""
    return json.loads(PINS.read_text(encoding="utf-8"))


def pins_text(pins: dict) -> str:
    """The pin file's text: one entry a line, the goldens by name."""
    golden = ",\n".join(
        f"{json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
        for name, entry in sorted(pins["golden"].items())
    )
    corpus = ",\n".join(json.dumps(entry, sort_keys=True) for entry in pins["corpus"])
    return f'{{"golden": {{\n{golden}\n}},\n"corpus": [\n{corpus}\n]}}\n'


def _shown(entry: dict | None) -> str:
    if entry is None:
        return "none"
    if "raises" in entry:
        return f"raises {entry['raises']}"
    return f"{entry['outcome']}, conservation_ok {json.dumps(entry['conservation_ok'])}"


def moved_pins(pinned: dict, fresh: dict) -> str:
    """Compare pins with fresh entries, both keyed by golden name or corpus
    index: one line per pin whose outcome, `conservation_ok` or raised class
    moved (or that one side lacks), as `key: old → new`, then the count of
    pins whose body hash alone moved. Empty when no pin moved."""
    lines, hash_only = [], 0
    for key in [*fresh, *(key for key in pinned if key not in fresh)]:
        old, new = pinned.get(key), fresh.get(key)
        if old == new:
            continue
        if old is not None and new is not None and _shown(old) == _shown(new):
            hash_only += 1
        else:
            lines.append(f"{key}: {_shown(old)} → {_shown(new)}")
    if hash_only:
        lines.append(f"pins whose body hash alone moved: {hash_only}")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def corpus_runs() -> list[tuple[dict, dict, list[dict]]]:
    """Each corpus scenario, its entry and its agents' phase and abort lines,
    from one run, so every test below reads the same 600 runs."""
    runs = []
    for i in range(CORPUS_SIZE):
        data, logs = corpus_scenario(i), []

        def keep(line, logs=logs):
            if '"event":"phase"' in line or '"event":"abort"' in line:
                logs.append(json.loads(line))

        runs.append((data, corpus_entry(data, keep), logs))
    return runs


@pytest.mark.golden_matrix
def test_every_corpus_run_matches_its_pin(corpus_runs):
    pinned = load_pins()["corpus"]
    fresh = {i: entry for i, (_, entry, _) in enumerate(corpus_runs)}
    moved = moved_pins(dict(enumerate(pinned)), fresh)
    assert not moved, "corpus pins moved:\n" + moved


def test_the_pin_writer_rewrites_the_pin_file_byte_for_byte():
    assert pins_text(load_pins()).encode("utf-8") == PINS.read_bytes()


def test_the_docs_quote_the_default_golden_pin():
    # README's walkthrough output, and the CI step that greps for it
    body_hash = load_pins()["golden"]["default"]["body_sha256"]
    for doc in ("README.md", ".github/workflows/ci.yml"):
        text = PINS.parents[1].joinpath(doc).read_text(encoding="utf-8")
        assert re.findall("transcript hash: ([0-9a-f]{64})", text) == [body_hash], doc


def test_the_corpus_covers_every_outcome_and_the_known_crash():
    pinned = load_pins()["corpus"]
    kinds = {entry.get("outcome", entry.get("raises")) for entry in pinned}
    assert kinds == {
        "SETTLED_CORRECT", "SETTLED_FRAUDULENT", "ABORTED", "STUCK", "HeightInPast",
    }
    # ROADMAP item 1: only a single-signature run settles before a late funding lands
    crashed = [i for i, entry in enumerate(pinned) if "raises" in entry]
    assert all(corpus_scenario(i)["agents"]["m"] == 1 for i in crashed)
    assert all(entry.get("conservation_ok", True) for entry in pinned)


# The agent's phase relation: any phase may end in an abort, which writes an
# `abort` line, not a `phase` line; these are the only moves a `phase` line shows.
PHASE_MOVES = {
    (PHASE_MONITORING, PHASE_COMPUTING),
    (PHASE_COMPUTING, PHASE_CROSS_VALIDATING),
    (PHASE_CROSS_VALIDATING, PHASE_COMPUTING),
    (PHASE_CROSS_VALIDATING, PHASE_SIGNING),
    (PHASE_CROSS_VALIDATING, PHASE_DONE),
    (PHASE_SIGNING, PHASE_DONE),
}


def test_every_corpus_run_moves_its_agents_only_along_the_phase_relation(corpus_runs):
    """Every line a run wrote counts, also those before a run raised."""
    seen, aborts = set(), 0
    for i, (_, _, logs) in enumerate(corpus_runs):
        aborted = set()
        for log in logs:
            if log["event"] == "abort":
                aborted.add(log["agent"])
                aborts += 1
                continue
            assert log["agent"] not in aborted, f"run {i}: agent {log['agent']} moved after its abort"
            move = (log["detail"]["from"], log["phase"])
            assert move in PHASE_MOVES, f"run {i}: agent {log['agent']} moved {move}"
            seen.add(move)
    assert seen == PHASE_MOVES  # the corpus reaches every move
    assert aborts


def test_every_fraudulent_corpus_run_has_m_wrong_roots_that_share_a_victim(corpus_runs):
    """Fraud needs m agents that share a corrupted view: a `wrong_root` agent
    bumps the in-window funding at `perturb_seed mod k`, where k counts the
    in-window fundings, so different seeds can share a victim."""
    frauds = 0
    for i, (data, entry, _) in enumerate(corpus_runs):
        if entry.get("outcome") != "SETTLED_FRAUDULENT":
            continue
        frauds += 1
        window = data["auction"]["window"]
        k = sum(window["start"] <= b["height"] <= window["end"] for b in data["bidders"]["explicit"])
        victims = Counter(
            f["perturb_seed"] % k for f in data["agents"]["faults"] if k and f["kind"] == FAULT_WRONG_ROOT
        )
        assert max(victims.values(), default=0) >= data["agents"]["m"], f"run {i}: {victims}"
    assert frauds


def test_verify_accepts_every_tenth_corpus_run_and_rejects_each_flipped_bit(tmp_path):
    """Through the CLI, as a third party would check a published run. A run
    that raises is the known crash (ROADMAP item 1): m=1 and `HeightInPast`."""
    accepted = raised = 0
    for i in range(0, CORPUS_SIZE, 10):
        data = corpus_scenario(i)
        spath, tfile = (tmp_path / f"{i}.json").as_posix(), (tmp_path / f"{i}.jsonl").as_posix()
        with open(spath, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        try:
            assert cli.main(["run", spath, "--transcript", tfile]) in EXIT_CODES.values()
        except HeightInPast:
            assert data["agents"]["m"] == 1, f"run {i}"
            raised += 1
            continue
        assert cli.main(["verify", tfile, spath]) == 0, f"run {i}"
        accepted += 1
        stored = Path(tfile).read_bytes()
        rng = random.Random(f"swarmsim-corpus-flip/{i}")
        # the first flip lands inside the header line, its "\n" excluded
        for at in (rng.randrange(stored.index(b"\n")), *rng.sample(range(len(stored)), 2)):
            flipped = bytearray(stored)
            flipped[at] ^= 1 << rng.randrange(8)
            bad = tmp_path / "flipped.jsonl"
            bad.write_bytes(flipped)
            assert cli.main(["verify", bad.as_posix(), spath]) == 1, f"run {i}, byte {at}"
    assert accepted and raised


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --record")
    from test_golden import GOLDEN

    fresh = {
        "golden": {name: corpus_entry(build()) for name, build in GOLDEN.items()},
        "corpus": [corpus_entry(corpus_scenario(i)) for i in range(CORPUS_SIZE)],
    }
    pinned = load_pins()
    print(moved_pins(
        {**pinned["golden"], **dict(enumerate(pinned["corpus"]))},
        {**fresh["golden"], **dict(enumerate(fresh["corpus"]))},
    ) or "no pin moved")
    with open(PINS, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(pins_text(fresh))
