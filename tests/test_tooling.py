"""Checks on the package as a whole: no runtime asserts, no numpy on import,
and every cochain payload, however hostile, ending in exit 0, 1 or 2."""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from orbipar.cli import run_command

SRC = Path(__file__).resolve().parent.parent / "src" / "orbipar"


def test_no_assert_statements_in_src():
    # `python -O` strips asserts, so every runtime invariant is an explicit raise
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_import_leaves_numpy_out():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import orbipar.cli, sys; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


CELL = st.one_of(st.integers(-3, 40), st.booleans(), st.none(),
                 st.sampled_from(["0", "1/2", "2/3", "-1/4", "5/8", "1/0", "x", ""]),
                 st.text(max_size=4))
COCHAIN = st.fixed_dictionaries({
    "group": st.sampled_from([[1], [2], [3], [4], [2, 2], [6], [8]]),
    "coeff_order": st.one_of(st.integers(-2, 2 ** 80), st.booleans(), st.just(0)),
    "table": st.lists(st.lists(CELL, max_size=4), max_size=8),
})
CALL_BUDGET_S = 2.0


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cochain=COCHAIN, verb=st.sampled_from(["verify", "zeta", "extend"]),
       element=st.lists(st.one_of(st.integers(-1, 8), st.booleans()), max_size=3))
def test_fuzz_cochain_payloads(tmp_path, cochain, verb, element):
    payload = {"cochain": cochain, "element": element} if verb == "zeta" else cochain
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, text = run_command(["cocycle", verb, str(path)])
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2)
    body = json.loads(text)
    assert ("result" in body) == (code == 0)
    assert elapsed < CALL_BUDGET_S, f"{verb} took {elapsed:.2f} s"
