"""Print every statement of src/modfesh that the test suite never runs.

    python tests/unreached_lines.py [pytest arguments]

Runs the suite in this process (pytest's default is the tests/ directory)
under a sys.settrace line tracer, which roughly doubles its time; that is why
pytest does not collect this file.  A statement counts as run when a line
event fires on one of its own lines: every line of a simple statement, and the
header of a compound one (decorators through the line before its body).
Docstrings run no code and are not counted.

Exits 1 when a statement outside ALLOWED never runs, or when an ALLOWED
statement does run; pytest's own outcome (one acceptance criterion fails by
design) does not change the exit code.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "modfesh"

# (file, first source line) -> reason, of each statement no in-process test can run
ALLOWED = {
    ("cli.py", "sys.exit(run())"): "the `python -m modfesh.cli` entry; tests run it in a "
                                   "subprocess",
}


def _statements(tree):
    """(first, last) own lines of each statement of a module, docstrings left out."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(first, body[0].lineno - 1) if body else node.end_lineno
        spans.append((first, last))
    return sorted(spans)


def main(argv) -> int:
    files = sorted(PACKAGE.glob("*.py"))
    hit = {str(path): set() for path in files}   # file name -> the line numbers that ran

    def trace_lines(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in hit else None

    sys.settrace(trace_calls)
    try:
        status = pytest.main(argv or [str(PACKAGE.parents[1] / "tests")])
    finally:
        sys.settrace(None)
    loaded = sys.modules.get("modfesh")
    if loaded is None or Path(loaded.__file__).resolve().parent != PACKAGE:
        print(f"the tests did not import modfesh from {PACKAGE}")
        return 1

    total, unreached, stale = 0, [], set(ALLOWED)   # stale: allowed, yet it ran or is gone
    for path in files:
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, last in _statements(ast.parse("\n".join(lines))):
            total += 1
            if any(line in hit[str(path)] for line in range(first, last + 1)):
                continue
            key = (path.name, lines[first - 1].strip())
            if key in ALLOWED:
                stale.discard(key)
                print(f"{path.name}:{first}: never ran, allowed: {ALLOWED[key]}")
            else:
                unreached.append(f"{path.name}:{first}: {key[1]}")
    for name, source in sorted(stale):
        print(f"{name}: allowed entry {source!r} ran or is gone")
    for line in unreached:
        print(line)
    print(f"{len(unreached)} of {total} statements never ran outside the allow-list "
          f"(pytest exit status {int(status)})")
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
