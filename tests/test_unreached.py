"""scripts/unreached.py on a fast selection: the statements it runs, in this
process and in a forked sweep member, are absent from the report, one it
does not run is present, and the exit status is pytest's."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "unreached.py")
SELECTION = [
    "tests/test_sources.py",
    "tests/test_harness.py::test_sweep_member_that_exits_before_sending_its_result",
]


def unreached(*args):
    return subprocess.run([sys.executable, SCRIPT, "-q", "-p", "no:cacheprovider", *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)


def test_report_lists_what_the_selection_does_not_run():
    proc = unreached(*SELECTION)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = [ln for ln in proc.stdout.splitlines() if ln.startswith("src/hydrolimit/")]

    def listed(module, statement):
        return any(ln.startswith(f"src/hydrolimit/{module}:") and ln.endswith(f": {statement}")
                   for ln in report)

    # run in this process: a refusal of test_sources and the sweep's EOFError branch
    assert not listed("sources.py", 'raise ValueError(f"unknown source kind {self.kind!r}")')
    assert not listed("harness.py", "received[e] = RuntimeError(")
    # run only in the forked member of eps = 0.5
    assert not listed("harness.py", "conn.send((res, errs, modulus))")
    # run by neither
    assert listed("cli.py", 'print(f"numerical abort: {exc}", file=sys.stderr)')
    total = proc.stdout.splitlines()[-1]
    assert total == f"{len(report)} statements in function bodies of src/hydrolimit not run"


def test_exit_status_is_pytests():
    proc = unreached("tests/test_sources.py", "-k", "no_test_has_this_name")
    assert proc.returncode == 5, proc.stdout + proc.stderr  # pytest: no tests collected
