"""Every committed ``BENCH_*.json`` at the repository root is a complete A/B record.

A record names the two commits it compares and the machine it ran on, and
gives, for each (workload, metric) it measured, each side's median and
quartiles over the runs and how many of the parent/change pairs the change
won.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
TOP_KEYS = {"commits", "python", "platform", "nproc", "results"}
RESULT_KEYS = {"workload", "metric", "parent", "change", "wins", "pairs"}
SIDE_KEYS = {"median", "q1", "q3"}


def test_some_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_has_the_record_keys(path):
    doc = json.loads(path.read_text())
    assert TOP_KEYS <= doc.keys()
    assert set(doc["commits"]) == {"parent", "change"}
    assert all(re.fullmatch(r"[0-9a-f]{40}", sha) for sha in doc["commits"].values())
    assert isinstance(doc["nproc"], int) and doc["nproc"] > 0
    assert doc["results"]
    seen = set()
    for result in doc["results"]:
        assert RESULT_KEYS <= result.keys()
        key = (result["workload"], result["metric"])
        assert key not in seen
        seen.add(key)
        for side in ("parent", "change"):
            stats = result[side]
            assert SIDE_KEYS <= stats.keys()
            assert stats["q1"] <= stats["median"] <= stats["q3"]
        assert 0 <= result["wins"] <= result["pairs"]
