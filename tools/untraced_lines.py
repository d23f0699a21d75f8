#!/usr/bin/env python3
"""Print each statement line of src/weakmem that the tier-1 tests never run.

    python3 tools/untraced_lines.py

The tests run in this process under a ``sys.settrace`` line tracer, with
pytest's cache plugin off so that the run writes nothing.  A statement line
is the first line of an ``ast`` statement; docstrings, ``def`` and
``class`` lines and imports are left out, since they run at import or
never run as code.  File names are compared by ``os.path.realpath``, since
``tests/conftest.py`` imports the package through ``tests/../src``.

``test_verifying_a_corpus_file_leaves_no_cyclic_garbage`` is deselected:
it counts the objects a run leaves to the cyclic collector, and a tracer's
own frame references can keep objects alive.  Code reached only in a
subprocess, such as ``python -m weakmem``, is not traced.

Terms are interned and memoised per process, so which code a test reaches
can depend on the hash seed; set ``PYTHONHASHSEED`` to compare two trees.

Each line is printed as ``path:line: source``, then their count.  The exit
code is pytest's when the tests fail, and 0 otherwise.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "weakmem")
UNTRACEABLE = "tests/test_frontend.py::test_verifying_a_corpus_file_leaves_no_cyclic_garbage"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SKIPPED = _DEFS + (ast.Import, ast.ImportFrom)


def statement_lines(path: str) -> set[int]:
    """The first line of every statement of a file that runs as code."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module,) + _DEFS) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(body[0])
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, _SKIPPED)
            and node not in docstrings}


def main() -> int:
    import pytest

    ran: dict[str, set[int]] = {}
    files: dict[str, Optional[set[int]]] = {}    # a code file name -> its lines, if ours

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            real = os.path.realpath(name)
            files[name] = ran.setdefault(real, set()) if os.path.dirname(real) == PACKAGE else None
        return local if files[name] is not None else None

    # as tier-1 runs: the subprocesses some tests start import from src
    src = os.path.join(ROOT, "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", ROOT,
                            "--deselect", UNTRACEABLE, os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
    if code != 0:
        print(f"the tests failed (pytest exit code {code})", file=sys.stderr)
        return int(code)
    count = 0
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, fname)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for line in sorted(statement_lines(path) - ran.get(path, set())):
            print(f"src/weakmem/{fname}:{line}: {text[line - 1].strip()}")
            count += 1
    print(f"{count} statement lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
