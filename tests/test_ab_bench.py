"""Smoke test of scripts/ab_bench.py: one tensor_hydro pair, this checkout
against itself, at the default seed and at another; its pure helpers on
temporary checkouts; and its warm-up with a stubbed execution."""

import importlib.util
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "ab_bench.py")


def ab_bench(*args):
    return subprocess.run([sys.executable, SCRIPT, *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=170)


def test_one_pair_of_this_checkout_against_itself():
    proc = ab_bench(ROOT, ROOT, "--pairs", "1", "--workload", "tensor_hydro")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout
    assert re.search(r"^tensor_hydro warm-up \(change first\): wall_s=\S+/\S+ ", out, re.M)
    assert re.search(r"^tensor_hydro pair 1 \(parent first\): wall_s=\S+/\S+ ", out, re.M)
    digests = re.search(r"^tensor_hydro: digest parent (\w+) change (\w+)$", out, re.M)
    assert digests and digests[1] == digests[2] and len(digests[1]) == 64
    for name in ("wall_s", "setup_s", "peak_rss_mb", "output_mb"):
        assert re.search(rf"^tensor_hydro {name}: parent \S+ \(IQR \S+-\S+\), change \S+ .*"
                         r"change won [01]/1$", out, re.M), name
    assert "disagree" not in out and "warning" not in out


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
        lines = _script().source_lines(ROOT)
        assert re.match(rf"seed={seed} pairs=1 cpus_usable=\d+ src_lines={lines}/{lines} "
                        r"\(parent/change\)\n", proc.stdout)
        found = re.search(r"^tensor_hydro: digest parent (\w+) change (\w+)$", proc.stdout, re.M)
        assert found and found[1] == found[2]
        digests[seed] = found[1]
    assert digests["7"] != digests["3"]


def _script():
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Ten parent runs with quartiles 1.0 and 1.1 (IQR 0.1) and median 1.05.
PARENT = [0.9, 1.0, 1.0, 1.0, 1.05, 1.05, 1.1, 1.1, 1.1, 1.2]


@pytest.mark.parametrize(
    "change, lower, expected",
    [
        ([b - 0.2 for b in PARENT], True, "gain"),  # 10/10, medians 0.2 apart
        ([b - 0.2 for b in PARENT[:9]] + [1.3], True, "gain"),  # 9/10 is enough
        ([b - 0.2 for b in PARENT[:8]] + [1.3, 1.3], True, "no gain shown"),  # 8/10
        ([b - 0.2 for b in PARENT[:8]] + PARENT[8:], True, "no gain shown"),  # ties win nothing
        ([b - 0.05 for b in PARENT], True, "no gain shown"),  # 10/10 within the IQR
        ([b + 0.2 for b in PARENT], True, "no gain shown"),  # worse
        ([b + 0.2 for b in PARENT], False, "gain"),  # higher is better
    ],
)
def test_verdict_rule(change, lower, expected):
    ab = _script()
    q1, q3 = ab.quartiles(PARENT)
    assert (q1, q3) == (1.0, 1.1)
    assert ab.verdict(PARENT, change, lower) == expected


def _checkout(root, files):
    """A checkout holding ``files``, relative path -> text; None leaves a file out."""
    for name, text in files.items():
        if text is None:
            continue
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def test_source_lines_counts_the_package_modules(tmp_path):
    """Newlines of src/hydrolimit/*.py, as ``wc -l`` counts them; other
    files and subdirectories do not count."""
    root = _checkout(tmp_path, {
        "src/hydrolimit/a.py": "x = 1\ny = 2\n\n",
        "src/hydrolimit/b.py": "z = 3",  # no final newline: 0 lines for wc -l
        "src/hydrolimit/c.py": "\n\n",
        "src/hydrolimit/data.txt": "1\n2\n",
        "src/hydrolimit/sub/d.py": "1\n",
        "tests/e.py": "1\n",
    })
    assert _script().source_lines(root) == 5


BENCH_FILES = {
    "BENCHMARK.json": '{"workloads": []}\n',
    "perfbench/run.py": "print('run')\n",
    "perfbench/child.py": "print('child')\n",
    "perfbench/README.md": "notes\n",
    "src/hydrolimit/core.py": "x = 1\n",
}


@pytest.mark.parametrize(
    "edit, expected",
    [
        ({}, []),
        ({"perfbench/run.py": "print('other')\n"}, ["perfbench/run.py"]),
        ({"BENCHMARK.json": "{}\n", "perfbench/child.py": ""},
         ["BENCHMARK.json", "perfbench/child.py"]),
        ({"perfbench/spans.py": "pass\n"}, ["perfbench/spans.py"]),  # in one checkout only
        ({"BENCHMARK.json": None}, ["BENCHMARK.json"]),
        ({"perfbench/README.md": "other\n", "src/hydrolimit/core.py": "x = 2\n"}, []),
    ],
    ids=["same", "script", "spec-and-script", "one-side-only", "spec-missing",
         "not-benchmark-code"],
)
def test_benchmark_differences(tmp_path, edit, expected):
    parent = _checkout(tmp_path / "parent", BENCH_FILES)
    change = _checkout(tmp_path / "change", {**BENCH_FILES, **edit})
    ab = _script()
    assert ab.benchmark_differences(parent, change) == expected
    assert ab.benchmark_differences(change, parent) == expected


METRICS = ("wall_s", "setup_s", "peak_rss_mb", "output_mb")


def _fake_run_once(first_correct):
    """A ``run_once`` whose first call, the change's warm-up, reads 100 on
    every metric and has its own digest; later calls read 1.0 for the parent
    and 0.9 for the change."""
    calls = []

    def run_once(root, workload, seed):
        calls.append(root)
        if len(calls) == 1:
            return {name: 100.0 for name in METRICS}, first_correct, "cold"
        value = 1.0 if root.endswith("a") else 0.9
        return {name: value for name in METRICS}, True, "warm"

    return run_once, calls


@pytest.mark.parametrize("first_correct", [True, False])
def test_warm_up_enters_no_statistic(tmp_path, monkeypatch, capsys, first_correct):
    """The warm-up executions are printed and their correctness and digests
    count, but the medians, IQRs and tallies hold only the pairs."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = fh.read()
    parent = _checkout(tmp_path / "a", {"BENCHMARK.json": spec})
    change = _checkout(tmp_path / "b", {"BENCHMARK.json": spec})
    ab = _script()
    fake, calls = _fake_run_once(first_correct)
    monkeypatch.setattr(ab, "run_once", fake)
    rc = ab.main([parent, change, "--pairs", "2", "--workload", "tensor_hydro"])
    out = capsys.readouterr().out
    assert calls == [change, parent, parent, change, change, parent]
    assert re.search(r"^tensor_hydro warm-up \(change first\): wall_s=1/100 ", out, re.M)
    assert re.search(r"^tensor_hydro pair 2 \(change first\): wall_s=1/0.9 ", out, re.M)
    for name in METRICS:
        assert re.search(rf"^tensor_hydro {name}: parent 1 \(IQR 1-1\), change 0.9 \S+ "
                         r"\(-10.0%\), change won 2/2$", out, re.M), name
    assert "tensor_hydro: change executions disagree on the digest: ['cold', 'warm']" in out
    assert rc == (0 if first_correct else 1)
