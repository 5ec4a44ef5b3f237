"""The traced run's work counts repeat exactly under another hash seed and
another workload seed.

Sites found, applies and distinct canonical codes are what a claim of
"less work" rests on, so they must depend neither on ``PYTHONHASHSEED`` nor
on the seed, which only renames the inputs.  Each case runs the benchmark
twice with ``--trace 1`` (about a minute for ``search``):

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def traced_counts(workload: str, hash_seed: int, seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["search", "scale"])
def test_counts_repeat_across_seeds(workload):
    first = traced_counts(workload, 1, 7)
    assert first["moves.find_sites.sites_out"] > 0
    if workload == "search":
        assert first["moves.search_equivalence.applies"] > 0
        assert first["moves.search_equivalence.distinct_codes"] > 0
    assert traced_counts(workload, 2, 8) == first
