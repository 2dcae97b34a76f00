"""Golden transcripts: full body hashes of fixed scenarios across code changes.

Rerun determinism (acceptance criterion 4) only compares a run with itself.
These pins compare a run with the bytes the code produced when they were
recorded, so a refactor that shifts one transcript line fails here. Every
fault kind, collusion, a lossy network, a partition with drops, and each
non-settling outcome is covered. A deliberate change to transcript bytes
needs a SCHEMA_VERSION bump and new pins.
"""

import pytest

from swarmsim.harness import build_scenario_dict, run_scenario_dict


def _partition_with_drops() -> dict:
    data = build_scenario_dict(agents=4, threshold=3, drop_rate=0.1)
    data["net"]["partitions"] = [
        {"from_time": 0, "to_time": 30, "side_a": [0], "side_b": [1, 2, 3]}
    ]
    return data


# name -> (scenario builder, transcript body sha256, outcome)
GOLDEN = {
    "default": (
        lambda: build_scenario_dict(),
        "eb15ce830e308c7c9951be6569ac628d8265ba2441809cb9fdd7e7686ee504dd",
        "SETTLED_CORRECT",
    ),
    "crash_at_5": (
        lambda: build_scenario_dict(faults=("0:crash:5",)),
        "a066c37eb07cc6ed6679c6617babf0e13866f500d082d1a32daa8a4b92199585",
        "SETTLED_CORRECT",
    ),
    "crash_at_0": (
        lambda: build_scenario_dict(faults=("0:crash:0",)),
        "dde053b2d9b905ceb651abbec685563ecd7ad905fea605dbe556ef556f0f0410",
        "SETTLED_CORRECT",
    ),
    "silent": (
        lambda: build_scenario_dict(faults=("1:silent",)),
        "dece243e80afe4ce09fc8adec2bc981a85203249c69f9a488a79f1b2960d1041",
        "SETTLED_CORRECT",
    ),
    "wrong_root": (
        lambda: build_scenario_dict(faults=("0:wrong_root:5",)),
        "e17a0d41addc5c7983aec64cdb6e9d481cda7fc3234bfd87b7948eea88e5c0df",
        "SETTLED_CORRECT",
    ),
    "equivocate": (
        lambda: build_scenario_dict(faults=("0:equivocate",)),
        "f1d8ee1765676e1eaa917aad0e38d71bb76226eaeeb1d744fca5e3af4f2e4fff",
        "SETTLED_CORRECT",
    ),
    "bad_attestation": (
        lambda: build_scenario_dict(faults=("2:bad_attestation",)),
        "97e9c4bcc27a8620300f4d737a7c8dc4acbd454f4212da20c8b94c9a595f55be",
        "SETTLED_CORRECT",
    ),
    "collusion": (
        lambda: build_scenario_dict(faults=("0:wrong_root:5", "1:wrong_root:5")),
        "98cba253cbc56070dda0071e5a7efa12e5b06d7fb507f7fd2f477e0f584383ba",
        "SETTLED_FRAUDULENT",
    ),
    "lossy": (
        lambda: build_scenario_dict(
            agents=5, threshold=3, drop_rate=0.2, delay=(1, 4), r_max=6
        ),
        "26fe4f21ab99beea4ef1687614ac4adf709c847bbd87f16d6296a8c395eef337",
        "SETTLED_CORRECT",
    ),
    "partition_with_drops": (
        _partition_with_drops,
        "a581ba1b1eece2932d4e90eeb02acf44dc4c78c81ddf9b5dff595e99a4f572fd",
        "SETTLED_CORRECT",
    ),
    "aborted": (
        lambda: build_scenario_dict(threshold=3, faults=("1:silent",)),
        "f3a197618fd72ac42c7a230c6ea0250f38f70d8150f297ac4b245b2f3c6a0116",
        "ABORTED",
    ),
    "stuck": (
        lambda: build_scenario_dict(max_time=6),
        "1014d22157a4d68c01d47ffcee4a737cc1c99cdfceb26c32290b4cf56f7f388f",
        "STUCK",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_transcript(name):
    build, body_hash, outcome = GOLDEN[name]
    tr, report = run_scenario_dict(build())
    assert report.outcome == outcome
    assert tr.body_hash().hex() == body_hash
    assert report.transcript_hash == body_hash
