"""Smoke test of scripts/ab_bench.py: one tensor_hydro pair, this checkout
against itself, at the default seed and at another."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "ab_bench.py")


def ab_bench(*args):
    return subprocess.run([sys.executable, SCRIPT, *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=170)


def test_one_pair_of_this_checkout_against_itself():
    proc = ab_bench(ROOT, ROOT, "--pairs", "1", "--workload", "tensor_hydro")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout
    assert re.search(r"^tensor_hydro pair 1 \(parent first\): wall_s=\S+/\S+ ", out, re.M)
    digests = re.search(r"^tensor_hydro: digest parent (\w+) change (\w+)$", out, re.M)
    assert digests and digests[1] == digests[2] and len(digests[1]) == 64
    for name in ("wall_s", "setup_s", "peak_rss_mb", "output_mb"):
        assert re.search(rf"^tensor_hydro {name}: parent \S+ \(IQR \S+-\S+\), change \S+ .*"
                         r"change won [01]/1$", out, re.M), name
    assert "disagree" not in out


def test_refuses_checkout_paths_of_unequal_length():
    """Refused before anything runs, so the longer path need not exist."""
    proc = ab_bench(ROOT, ROOT + "-longer", "--pairs", "1")
    assert proc.returncode == 2
    assert "unequal length" in proc.stderr


def test_seed_reaches_every_execution():
    """``--seed`` generates other inputs than the default seed 7, so the
    payload digests differ, and both sides of a pair still agree."""
    digests = {}
    for seed in ("7", "3"):
        args = ("--seed", seed) if seed != "7" else ()
        proc = ab_bench(ROOT, ROOT, "--pairs", "1", "--workload", "tensor_hydro", *args)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert re.match(rf"seed={seed} pairs=1 cpus_usable=\d+\n", proc.stdout)
        found = re.search(r"^tensor_hydro: digest parent (\w+) change (\w+)$", proc.stdout, re.M)
        assert found and found[1] == found[2]
        digests[seed] = found[1]
    assert digests["7"] != digests["3"]
