"""One benchmark sample, in a fresh process: run every scenario of a job
through ``swarmsim run``, then verify every transcript it wrote.

Usage: sample.py JOB_JSON OUT_DIR SAMPLE_ID TRACE SPAWN_MONOTONIC_NS

SPAWN_MONOTONIC_NS is the parent's ``time.monotonic_ns()`` just before it
started this process, so ``setup_s`` covers interpreter start-up, importing
swarmsim and reading the job. A fixed calibration loop is timed before the
run, between run and verify, and after verify, so the parent can rescale
the wall times to one host speed. Results go to OUT_DIR/result.json; the
CLI's own stdout goes wherever the parent pointed this process's stdout.
"""

import hashlib
import json
import os
import random
import resource
import sys
import time
from contextlib import nullcontext


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work like swarmsim's own:
    hashing, dict building, a keyed sort and a canonical JSON round trip.
    It works in small batches so it adds little to the peak RSS."""
    start = time.perf_counter()
    rng = random.Random(7)
    for batch in range(10):
        rows = [
            {"a": rng.getrandbits(64), "b": hashlib.sha256(b"%d" % i).hexdigest(), "c": [i, batch]}
            for i in range(3_000)
        ]
        rows.sort(key=lambda r: (r["a"], r["b"]))
        json.loads(json.dumps(rows, sort_keys=True, separators=(",", ":")))
    return time.perf_counter() - start


def main() -> int:
    job_path, out_dir, sample_id, trace, spawn_ns = sys.argv[1:6]
    from swarmsim import cli

    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    setup_s = (time.monotonic_ns() - int(spawn_ns)) / 1e9

    src = os.path.realpath(job["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"swarmsim imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    recorder = None
    if trace == "1":
        import spans

        recorder = spans.Recorder(int(sample_id))
        recorder.install()

    def phase(name):
        return recorder.span(name) if recorder else nullcontext()

    names = [os.path.join(out_dir, f"{i:03d}") for i in range(len(job["scenarios"]))]
    calibration = [calibrate()]
    t0 = time.perf_counter()
    with phase("phase.run"):
        run_rcs = [
            cli.main(["run", scn, "--transcript", base + ".jsonl", "--report", base + ".report.json"])
            for scn, base in zip(job["scenarios"], names)
        ]
    t1 = time.perf_counter()
    calibration.append(calibrate())
    t1_verify = time.perf_counter()
    with phase("phase.verify"):
        verify_rcs = [
            cli.main(["verify", base + ".jsonl", scn]) for scn, base in zip(job["scenarios"], names)
        ]
    t2 = time.perf_counter()
    calibration.append(calibrate())
    sys.stdout.flush()

    result = {
        "setup_s": setup_s,
        "run_s": t1 - t0,
        "verify_s": t2 - t1_verify,
        "calibration_s": calibration,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "run_rcs": run_rcs,
        "verify_rcs": verify_rcs,
        "outputs": names,
    }
    if recorder:
        recorder.dump(os.path.join(out_dir, "spans"))
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
