"""The search-effort golden file: counters, stages and witnesses stay put.

See ``tests/effort_golden.py`` for what is pinned and how to regenerate
the file after an intended change.
"""

from __future__ import annotations

import json

import effort_golden


def test_effort_matches_golden_file():
    expected = json.loads(effort_golden.GOLDEN_PATH.read_text(encoding="utf-8"))
    actual = effort_golden.compute_records()
    problems = effort_golden.mismatches(expected, actual)
    assert not problems, "search effort drifted from the golden file:\n" + "\n".join(
        problems
    )
    # Byte-identical too: the file is exactly what the helper renders.
    assert effort_golden.render(actual) == effort_golden.GOLDEN_PATH.read_text(
        encoding="utf-8"
    )


def test_mismatch_report_names_the_drifted_counter():
    record = {"side": 3, "optimal": True, "terminated_at": "S1", "witness": [[], []]}
    expected = {"g/hbvMBB/bits": dict(record, stats={"nodes": 4})}
    actual = {"g/hbvMBB/bits": dict(record, stats={"nodes": 5})}
    assert effort_golden.mismatches(expected, actual) == [
        "g/hbvMBB/bits: stats.nodes=5 (pinned 4)"
    ]
    assert effort_golden.mismatches(expected, {}) == ["g/hbvMBB/bits: missing"]
