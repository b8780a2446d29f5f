#!/usr/bin/env python3
"""List the statements of orbipar that the benchmark traffic never executes.

    python scripts/traffic_lines.py SRC_DIR

SRC_DIR is a directory holding the ``orbipar`` package (``src`` of a
checkout).  Seeds 1-3 of each perfbench workload are generated by
``perfbench/gen.py`` of this checkout into a temporary directory.  Then, under
``sys.settrace`` line events, orbipar is imported from SRC_DIR, every op is
run through ``run_command`` and ``corpus run`` on this checkout's corpus
through ``cli.main``, the one-shot entry point.  Every statement that no line
event reached is printed as ``module:line: text``, the ``raise`` statements
after the others, and the next line counts both.  Then the refusal twins of
every op (see ``op_digests.py``) are run under the tracer too, and the last
line counts the statements that neither the traffic nor its twins reached.
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
from collections import defaultdict

from op_digests import ROOT, seed_ops, twin_ops


def traced_lines(package, argvs) -> dict:
    """filename -> the line numbers that line events reached, over the import
    of orbipar (on the first call), the ops and the corpus run."""
    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(on_call)
    try:
        from orbipar import cli
        for argv in argvs:
            cli.run_command(argv)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["corpus", "run", os.path.join(ROOT, "corpus")])
    finally:
        sys.settrace(None)
    return hits


def statements(tree):
    """(statement, its own lines) for every statement that compiles to code,
    so not a function's docstring, global or nonlocal: a compound statement
    owns its decorators and header, not its body."""
    docstrings = {id(f.body[0]) for f in ast.walk(tree)
                  if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and isinstance(f.body[0], ast.Expr) and isinstance(f.body[0].value, ast.Constant)
                  and isinstance(f.body[0].value.value, str)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)) \
                or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        yield node, range(first, max(last, node.lineno) + 1)


def missed_statements(package, *hits) -> dict:
    """For False and True, the statements (module, line, text) that are not
    resp. are ``raise`` statements and that no line of any of hits reached."""
    missed = {False: [], True: []}
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        for stmt, own in statements(ast.parse(text)):
            if not any(h[path].intersection(own) for h in hits):
                missed[isinstance(stmt, ast.Raise)].append(
                    (name, stmt.lineno, lines[stmt.lineno - 1].strip()))
    return missed


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    package = os.path.join(src, "orbipar")
    sys.path.insert(0, src)
    with tempfile.TemporaryDirectory() as tmp:
        argvs = [argv for _, _, ops in seed_ops(tmp) for argv in ops]
        hits = traced_lines(package + os.sep, argvs)
        twins = (twin for op in argvs for _, twin in twin_ops(tmp, op))
        twin_hits = traced_lines(package + os.sep, twins)
    missed = missed_statements(package, hits)
    for raises in (False, True):
        for name, line, source in sorted(missed[raises]):
            print(f"{name}:{line}: {source}")
    print(f"never executed: {len(missed[False])} statements "
          f"and {len(missed[True])} raise statements")
    both = missed_statements(package, hits, twin_hits)
    print(f"never executed by the traffic or its twins: {len(both[False])} statements "
          f"and {len(both[True])} raise statements")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
