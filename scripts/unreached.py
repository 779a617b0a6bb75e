#!/usr/bin/env python3
"""List the statements of ``src/hydrolimit`` that a pytest run never executes.

Usage:  python scripts/unreached.py [pytest args]

Runs pytest in this process with the given arguments under ``sys.settrace``
and records every line executed in ``src/hydrolimit/*.py``.  A process
forked during the run (a sweep member) inherits the tracer and writes its
lines to a temporary directory when it calls ``os._exit``; they join this
process's lines.  A fresh interpreter that a test starts (``subprocess``) is
not traced.

Then, module by module, it prints each statement in a function body,
docstrings excluded, that no traced process ran, as
``src/hydrolimit/<module>.py:<line>: <first source line>``, and a total.
A compound statement (``if``, ``for``, ``while``, ``with``, ``def``) counts
as run when its header ran.  The exit status is pytest's.
"""

import ast
import glob
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "hydrolimit")

_HEADED = (ast.If, ast.For, ast.While, ast.With, ast.FunctionDef)


def _statements(body):
    """The statements of a function body and of the blocks nested in it,
    not those of a nested function, which counts as a function of its own."""
    for node in body:
        if not isinstance(node, ast.Try):  # no code of its own
            yield node
        if isinstance(node, ast.FunctionDef):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(node, field, []))
        for handler in getattr(node, "handlers", []):
            yield from _statements(handler.body)


def _own_lines(node) -> range:
    """The lines whose execution means ``node`` ran: a compound statement's
    header (a definition's with its decorators), a simple one's every line."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    if isinstance(node, _HEADED):
        return range(first, node.body[0].lineno)
    return range(first, node.end_lineno + 1)


def unreached(path: str, ran: set) -> list:
    """(line, source) of each statement in a function body of ``path`` that
    none of the ``ran`` lines belongs to."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    source = text.splitlines()
    found = {}
    for fn in ast.walk(ast.parse(text)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        body = fn.body
        if ast.get_docstring(fn, clean=False) is not None:
            body = body[1:]
        for node in _statements(body):
            if not ran.intersection(_own_lines(node)):
                found[node.lineno] = source[node.lineno - 1].strip()
    return sorted(found.items())


def main() -> int:
    import pytest

    sys.path.insert(0, SRC)
    modules = {os.path.realpath(p): p for p in glob.glob(os.path.join(PACKAGE, "*.py"))}
    lines = {p: set() for p in modules}
    homes = {}  # code filename -> module path, or None outside the package
    parent = os.getpid()

    def local(frame, event, arg):
        if event == "line":
            lines[homes[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        home = homes.get(name, False)
        if home is False:
            home = homes[name] = modules.get(os.path.realpath(name))
        return local if home is not None else None

    real_exit = os._exit

    def exit_with_lines(code):
        if os.getpid() != parent:
            sys.settrace(None)
            with open(os.path.join(spill, f"{os.getpid()}.txt"), "w", encoding="utf-8") as fh:
                for path, ran in lines.items():
                    fh.writelines(f"{path}\t{n}\n" for n in ran)
        real_exit(code)

    with tempfile.TemporaryDirectory(prefix="unreached-") as spill:
        os._exit = exit_with_lines
        sys.settrace(trace)
        try:
            status = pytest.main(sys.argv[1:])
        finally:
            sys.settrace(None)
            os._exit = real_exit
        for name in os.listdir(spill):
            with open(os.path.join(spill, name), encoding="utf-8") as fh:
                for row in fh:
                    path, n = row.rstrip("\n").split("\t")
                    lines[path].add(int(n))

    total = 0
    print()
    for path in sorted(modules):
        rel = os.path.relpath(modules[path], ROOT)
        for n, text in unreached(path, lines[path]):
            print(f"{rel}:{n}: {text}")
            total += 1
    print(f"{total} statements in function bodies of src/hydrolimit not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
