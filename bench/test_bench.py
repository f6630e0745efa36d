"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def test_smoke_every_workload_every_check():
    proc = subprocess.run([sys.executable, RUN, "--smoke"], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert {r["workload"] for r in results} == {"exact-identities", "orbits",
                                                "flow-sweep", "leaves"}
    for r in results:
        assert r["correct"] and r["attempted"] >= 1
        # the known scale-1e-4 faults: O-+, O--, O+ and O3, once per round
        want = 4 * (2 if r["trace"] else 1) if r["workload"] == "orbits" else 0
        assert r["failed"] == want, r


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "leaves",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
