"""
A full honest run, start to finish
==================================

Three agents watch the same simulated ledger, each computes the auction
alone, they cross-check merkle roots, and two of three signatures release
exactly one settlement. Afterwards the transcript is re-verified from the
scenario alone.
"""

import json
import tempfile
from pathlib import Path

from swarmsim import build_scenario_dict, run_scenario, verify_transcript

# 12 bidders, 4 items, 3 agents with a 2-of-3 signing policy
scenario = build_scenario_dict(seed=7, bidders=12, items=4, agents=3, threshold=2)
print("scenario:", json.dumps(scenario["auction"]))

with tempfile.TemporaryDirectory() as tmp:
    spath = Path(tmp, "scenario.json")
    spath.write_text(json.dumps(scenario, indent=2), encoding="utf-8")

    transcript, report = run_scenario(spath)
    for line in report.summary_lines():
        print(line)

    # the oracle recomputes the settlement from scenario inputs alone
    assert report.outcome == "SETTLED_CORRECT"
    assert report.executed["digest"] == report.oracle["digest"]
    print("executed digest matches the independent oracle")

    # anyone holding the scenario file can replay the transcript bit for bit
    tpath = Path(tmp, "run.jsonl")
    transcript.write(tpath)
    result = verify_transcript(tpath, spath)
print("verifier says:", result.reason, "/ outcome", result.outcome)
