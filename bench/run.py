"""swarmsim benchmark: how long `swarmsim run` takes to reach a classified
outcome and how long `swarmsim verify` takes to replay it, plus where that
time goes layer by layer.

    python3 bench/run.py --workload {bulk,late,swarm} --seed N --seconds S --trace {0,1} [--smoke]

Run it from anywhere; it uses the swarmsim sources in `src/` next to this
directory. The workload's scenario files are made from `--seed` and written
to `.bench_work/` in the repository root, which is removed at the end. Each
sample is one fresh process (bench/sample.py) that runs every scenario of
the workload through `swarmsim.cli.main(["run", ...])` and then verifies each
transcript with `main(["verify", ...])`. Samples repeat while the next one,
judged by the longest so far, still ends within `--seconds`. Every sample is
checked for correctness, and the counts that a pure speed-up must not
change are checked to repeat across samples.

With `--trace 0` the last stdout line carries the end-to-end metrics (the
median over samples, with times rescaled to a reference host speed by a
calibration loop timed in the same process; see REFERENCE_CALIBRATION_S);
with `--trace 1` samples alternate traced and
untraced, and it carries the per-layer metrics of the traced ones plus the
tracing overhead. `--smoke` shrinks every workload to a size that runs in
about a second. BENCHMARK.json at the repository root lists the metrics;
bench/NOTES.md says why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

EXPECTED_OUTCOME = "SETTLED_CORRECT"
WINDOW = (1, 5)
LATE_FUNDINGS = 10
# No sample starts that would end, judged by the longest one so far, more
# than this long after the first began, so a run stays inside 180 s.
RUN_BUDGET_S = 150.0

# Set-up, run and verify times are rescaled to one host speed: each is
# multiplied by this over the time the calibration loop in sample.py took
# next to it, in the same process. On a shared host whose speed drifts by
# 20-30 % within minutes, this halves the run-to-run spread. The raw wall
# seconds are printed beside the rescaled ones.
REFERENCE_CALIBRATION_S = 0.16

# Counts that repeat exactly across samples and that a pure speed-up must
# not move; every other per-layer metric is a time, or the gc counter,
# which depends on allocation history rather than on the work done.
NOT_DETERMINISTIC = {"gc.collections"}


# -- workloads ----------------------------------------------------------------


def _scenario(seed, n_items, bidders, *, agents=3, m=2, delay=(1, 2), drop_rate=0.0,
              faults=(), r_max=3):
    """The scenario shape `swarmsim gen` writes, with its defaults."""
    return {
        "seed": seed,
        "auction": {"n_items": n_items, "window": {"start": WINDOW[0], "end": WINDOW[1]}},
        "bidders": bidders,
        "agents": {"n": agents, "m": m, "faults": list(faults), "expected_measurement": "auto"},
        "net": {
            "delay_min": delay[0],
            "delay_max": delay[1],
            "drop_rate": drop_rate,
            "partitions": [],
            "seed": seed,
        },
        "consensus": {"r_max": r_max, "round_timeout": 10},
        "max_time": 500,
    }


def _pareto(count):
    return {
        "generator": {
            "count": count,
            "distribution": {"kind": "pareto", "scale": 1000, "shape": 1.5},
            "height_spread": WINDOW[1] - WINDOW[0] + 1,
        }
    }


def bulk(seed: int, smoke: bool) -> list[dict]:
    count = 600 if smoke else 50_000
    return [_scenario(seed, count * 2 // 3, _pareto(count))]


def late(seed: int, smoke: bool) -> list[dict]:
    rng = random.Random(f"late/{seed}")
    in_window = 300 if smoke else 10_000
    delay_min = 1
    start, end = WINDOW

    def bidder(height):
        amount = int(1000 * rng.paretovariate(1.5))
        return {"address": rng.randbytes(20).hex(), "amount": amount, "height": height}

    explicit = [bidder(rng.randint(start, end)) for _ in range(in_window)]
    # Post-window fundings land at end+1 .. end+delay_min, the latest
    # heights the scenario schema accepts.
    explicit += [bidder(end + 1 + i % delay_min) for i in range(LATE_FUNDINGS)]
    return [_scenario(seed, in_window * 2 // 3, {"explicit": explicit}, delay=(delay_min, 2))]


def swarm(seed: int, smoke: bool) -> list[dict]:
    rng = random.Random(f"swarm/{seed}")
    faults = (
        {"agent_index": 0, "kind": "wrong_root"},
        {"agent_index": 1, "kind": "equivocate"},
        {"agent_index": 2, "kind": "silent"},
    )
    bidders = {
        "generator": {
            "count": 24,
            "distribution": {"kind": "uniform", "lo": 100, "hi": 1000},
            "height_spread": WINDOW[1] - WINDOW[0] + 1,
        }
    }
    return [
        _scenario(rng.getrandbits(32), 4, bidders, agents=31, m=21, delay=(1, 4),
                  drop_rate=0.1, faults=faults, r_max=8)
        for _ in range(3 if smoke else 40)
    ]


WORKLOADS = {"bulk": bulk, "late": late, "swarm": swarm}


# -- one sample -----------------------------------------------------------------


def _settle_tick(body_lines: list[bytes]) -> int | None:
    """Logical time of the settlement: the `t` of the last timed line before it."""
    last_timed = None
    for line in body_lines:
        if b'"t":' in line:
            last_timed = line
        elif b'"settlement_executed"' in line and last_timed is not None:
            if json.loads(line).get("kind") == "settlement_executed":
                return json.loads(last_timed)["t"]
    return None


def check_outputs(result: dict) -> tuple[dict, list[str]]:
    """Correctness problems of one sample, and the counts it produced."""
    problems = []
    digest = hashlib.sha256()
    facts = dict.fromkeys(
        ("transcript.lines", "transcript.bytes", "netsim.sent", "netsim.delivered",
         "netsim.dropped", "netsim.rounds_used", "sim.settle_tick"),
        0,
    )
    for base, run_rc, verify_rc in zip(result["outputs"], result["run_rcs"], result["verify_rcs"]):
        name = os.path.basename(base)
        with open(base + ".report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        with open(base + ".jsonl", "rb") as fh:
            data = fh.read()
        digest.update(data)
        body = data.split(b"\n")[1:-1]

        if report["outcome"] != EXPECTED_OUTCOME or run_rc != 0:
            problems.append(f"{name}: outcome {report['outcome']} (exit {run_rc})")
        executed = report["executed"] or {}
        if executed.get("digest") != report["oracle"]["digest"]:
            problems.append(f"{name}: executed digest {executed.get('digest')} != oracle")
        if not report["conservation_ok"]:
            problems.append(f"{name}: conservation_ok is false")
        if verify_rc != 0:
            problems.append(f"{name}: verify rejected its own transcript (exit {verify_rc})")
        settle = _settle_tick(body)
        if settle is None:
            problems.append(f"{name}: no settlement in the transcript")

        mc = report["message_counts"]
        facts["transcript.lines"] += len(body)
        facts["transcript.bytes"] += len(data)
        facts["netsim.sent"] += mc["propose"] + mc["ack"] + mc["nack"] + mc["abort"]
        facts["netsim.delivered"] += mc["delivered"]
        facts["netsim.dropped"] += mc["dropped"]
        facts["netsim.rounds_used"] += report["rounds_used"]
        facts["sim.settle_tick"] += settle or 0
    facts["transcript_sha256"] = digest.hexdigest()
    return facts, problems


TIMED = (
    "harness.parse_scenario", "harness.oracle_settlement", "harness.report",
    "ledger.submit_funding", "ledger.seal_block", "ledger.execute_settlement",
    "agent.on_ledger_event", "agent.on_peer_message",
    "auction.aggregate", "auction.compute_clearing", "commitment.bid_list_root",
    "auction.build_settlement", "auction.encode_settlement",
    "wallet.sign", "wallet.verify_signature", "wallet.verifying_key_for",
    "consensus.transport_digest", "netsim.run",
    "transcript.add", "transcript.body_hash", "transcript.write",
)
COUNTED = (
    "ledger.submit_funding", "agent.on_ledger_event", "auction.encode_settlement",
    "wallet.sign", "wallet.verify_signature", "wallet.verifying_key_for",
    "consensus.transport_digest", "transcript.body_hash",
)


def layer_metrics(totals: dict, facts: dict, n_agents: int) -> dict:
    """Per-layer metrics of one traced sample.

    Layer times are inclusive span sums over the `swarmsim run` phase;
    `netsim.self.s` and `verify.diff.s` are self times, and the verify-path
    metrics come from the `swarmsim verify` phase.
    """
    def run(name):
        return totals.get(("phase.run", name), (0, 0, 0))

    def verify(name):
        return totals.get(("phase.verify", name), (0, 0, 0))

    m = {f"{name}.s": run(name)[1] / 1e9 for name in TIMED}
    m.update({f"{name}.calls": run(name)[0] for name in COUNTED})
    m["netsim.self.s"] = run("netsim.run")[2] / 1e9
    m["agent.recompute_per_agent"] = run("auction.aggregate")[0] / n_agents
    m["transcript.reparse_ratio"] = run("transcript.iter_events")[0] / facts["transcript.lines"]
    m["transcript.load_lines.s"] = verify("transcript.load_lines")[1] / 1e9
    m["verify.replay.s"] = verify("harness.run")[1] / 1e9
    m["verify.diff.s"] = verify("harness.verify_transcript")[2] / 1e9
    m["gc.collections"] = run("gc")[0]
    m["gc.s"] = run("gc")[1] / 1e9
    m.update({k: v for k, v in facts.items() if k != "transcript_sha256"})
    m["netsim.delivered_ratio"] = facts["netsim.delivered"] / facts["netsim.sent"]
    return m


def run_sample(job_path: Path, work: Path, k: int, traced: bool, timeout: float) -> dict:
    out_dir = work / f"s{k}"
    out_dir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "sample.py"), str(job_path), str(out_dir), str(k),
           "1" if traced else "0"]
    sample = {"traced": traced, "problems": []}
    with open(out_dir / "cli.out", "wb") as out:
        spawn_ns = time.monotonic_ns()
        try:
            proc = subprocess.run(cmd + [str(spawn_ns)], stdout=out, stderr=subprocess.PIPE,
                                  cwd=ROOT, env=env, timeout=timeout)
        except subprocess.TimeoutExpired:
            sample["problems"].append(f"sample {k} did not finish within {timeout:.0f} s")
            return sample
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
        sample["problems"].append(f"sample {k} exited {proc.returncode}: " + " | ".join(tail))
        return sample
    with open(out_dir / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)
    before_run, before_verify, after_verify = result["calibration_s"]
    sample["wall"] = {key: result[key] for key in ("setup_s", "run_s", "verify_s")}
    sample["wall"]["calibration_s"] = statistics.mean(result["calibration_s"])
    sample["setup_s"] = result["setup_s"] * REFERENCE_CALIBRATION_S / before_run
    sample["run_s"] = result["run_s"] * REFERENCE_CALIBRATION_S / statistics.mean(
        (before_run, before_verify))
    sample["verify_s"] = result["verify_s"] * REFERENCE_CALIBRATION_S / statistics.mean(
        (before_verify, after_verify))
    sample["peak_rss_mib"] = result["peak_rss_mib"]
    sample["facts"], sample["problems"] = check_outputs(result)
    if traced:
        sample["totals"] = spans.load_totals(str(out_dir / "spans"))
    shutil.rmtree(out_dir)
    return sample


# -- the run --------------------------------------------------------------------


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny workload sizes")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running sample,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not 0 <= args.seed < 1 << 32:
        parser.error("--seed must be in [0, 2^32)")

    if not (SRC / "swarmsim" / "cli.py").is_file():
        print(f"error: no swarmsim sources at {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(BENCH / "pinned.json", encoding="utf-8") as fh:
        pinned = json.load(fh)["smoke" if args.smoke else "full"][args.workload].get(str(args.seed))

    scenarios = WORKLOADS[args.workload](args.seed, args.smoke)
    n_agents = sum(s["agents"]["n"] for s in scenarios)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        paths = []
        for i, scenario in enumerate(scenarios):
            path = work / f"scenario-{i:03d}.json"
            path.write_text(json.dumps(scenario, indent=1) + "\n", encoding="utf-8")
            paths.append(str(path))
        job_path = work / "job.json"
        job_path.write_text(json.dumps({"src": str(SRC), "scenarios": paths}), encoding="utf-8")

        samples, longest = [], 0.0
        start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(samples) % 2 == 0
            began = time.monotonic()
            samples.append(run_sample(job_path, work, len(samples), traced,
                                      RUN_BUDGET_S - (began - start) + 20))
            now = time.monotonic()
            longest = max(longest, now - began)
            if "run_s" not in samples[-1] or now - start + longest > RUN_BUDGET_S:
                break
            # Stop before a sample that would end after --seconds, once the
            # samples the mode needs (one traced, one untraced) are in.
            kinds = {s["traced"] for s in samples}
            if len(kinds) > args.trace and now - start + longest > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [s for s in samples if "run_s" in s]
    failed = sum(1 for s in samples if s["problems"])
    for s in samples:
        for problem in s["problems"]:
            print(f"FAIL: {problem}", file=sys.stderr)
    if len({s["traced"] for s in ok}) < 1 + args.trace:
        print("error: not enough samples completed", file=sys.stderr)
        return 1

    correct = failed == 0
    facts = ok[0]["facts"]
    if any(s["facts"] != facts for s in ok):
        print("FAIL: transcripts or counts differ between samples", file=sys.stderr)
        correct = False
    if pinned is not None and facts["transcript_sha256"] != pinned:
        print(f"FAIL: transcript sha256 {facts['transcript_sha256']} != pinned {pinned}",
              file=sys.stderr)
        failed = len(samples)
        correct = False

    print(f"workload {args.workload}, seed {args.seed}{' (smoke)' if args.smoke else ''}: "
          f"{len(scenarios)} scenario(s), {len(samples)} samples")
    pin_status = "no pin for this seed" if pinned is None else (
        "matches pin" if facts["transcript_sha256"] == pinned else "DIFFERS FROM PIN")
    print(f"transcript sha256 {facts['transcript_sha256']} ({pin_status})")

    values: dict[str, list] = {}
    if args.trace:
        traced = [s for s in ok if s["traced"]]
        per_sample = [layer_metrics(s["totals"], s["facts"], n_agents) for s in traced]
        for name in per_sample[0]:
            values[name] = [m[name] for m in per_sample]
        counts = [m["name"] for m in spec["per_layer"]
                  if m["unit"] != "s" and m["name"] not in NOT_DETERMINISTIC]
        for name in counts:
            if len(set(values[name])) != 1:
                print(f"FAIL: {name} differs between traced samples: {values[name]}",
                      file=sys.stderr)
                correct = False
        untraced_run = statistics.median(s["run_s"] for s in ok if not s["traced"])
        values["trace.overhead_s"] = [s["run_s"] - untraced_run for s in traced]
        wanted = spec["per_layer"]
    else:
        for name in ("run_s", "verify_s", "setup_s", "peak_rss_mib"):
            values[name] = [s[name] for s in ok]
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        vals = values[m["name"]]
        median = statistics.median(vals)
        q1, q3 = _quartiles(vals)
        print(f"  {m['name']:32s} {median:14.6g} {m['unit']:6s} q1 {q1:.6g} q3 {q3:.6g} n={len(vals)}")
        metrics[m["name"]] = {"value": median, "unit": m["unit"]}
    if not args.trace:
        wall = {k: statistics.median(s["wall"][k] for s in ok) for k in ok[0]["wall"]}
        print("  wall seconds before rescaling (medians): "
              + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
