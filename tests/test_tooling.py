"""Checks on the package as a whole: no runtime asserts, no numpy on import,
the benchmark tracer's entry points all present, and every cochain and
pseudorepresentation payload, however hostile, ending in exit 0, 1 or 2."""

import ast
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from orbipar.cli import run_command
from orbipar.jsonio import cyclotomic_to_json
from orbipar.scalars import root_of_unity

SRC = Path(__file__).resolve().parent.parent / "src" / "orbipar"
PERFBENCH = SRC.parent.parent / "perfbench"


def test_no_assert_statements_in_src():
    # `python -O` strips asserts, so every runtime invariant is an explicit raise
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_benchmark_tracer_installs():
    # perfbench/tracer.py wraps its entry points by name; a missing one is a KeyError
    # or AttributeError that would stop `perfbench/run.py --trace 1`
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), str(PERFBENCH)]))
    code = "import orbipar.cli; from tracer import Tracer; Tracer().install()"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


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


def run_bounded(tmp_path, argv, payload):
    """Run one CLI call on payload; its exit is 0, 1 or 2 with a JSON body, in budget."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, text = run_command([*argv, str(path)])
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2)
    body = json.loads(text)
    assert ("result" in body) == (code == 0)
    assert elapsed < CALL_BUDGET_S, f"{argv} took {elapsed:.2f} s"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cochain=COCHAIN, verb=st.sampled_from(["verify", "zeta", "extend"]),
       element=st.lists(st.one_of(st.integers(-1, 8), st.booleans()), max_size=3))
def test_fuzz_cochain_payloads(tmp_path, cochain, verb, element):
    payload = {"cochain": cochain, "element": element} if verb == "zeta" else cochain
    run_bounded(tmp_path, ["cocycle", verb], payload)


ENTRY = st.one_of(
    st.sampled_from(["1", "0", "-1", "1/2", "x", ""]), st.integers(-2, 2), st.booleans(),
    st.none(), st.fixed_dictionaries({
        "order": st.one_of(st.sampled_from([1, 2, 3, 4, 6, 12]), st.integers(-1, 10 ** 6)),
        "coeffs": st.lists(st.sampled_from(["0", "1", "-1", "1/3"]), max_size=4)}))
SQUARE = st.integers(1, 4).flatmap(lambda r: st.fixed_dictionaries({
    "size": st.just(r),
    "entries": st.lists(st.lists(ENTRY, min_size=r, max_size=r), min_size=r, max_size=r)}))
# wrong sizes, ragged rows, oversized grids and non-objects
MATRIX = st.one_of(SQUARE, st.fixed_dictionaries({
    "size": st.one_of(st.integers(-1, 6), st.booleans(), st.just("2")),
    "entries": st.lists(st.lists(ENTRY, max_size=6), max_size=6)}), st.none(), st.integers())
IMAGES = st.one_of(
    st.dictionaries(st.sampled_from(["0", "1", "2", "3", "-1", "01", "x"]), MATRIX, max_size=5),
    st.lists(MATRIX, max_size=3), st.none())
CYCLIC_COCHAIN = st.fixed_dictionaries({
    "group": st.sampled_from([[1], [2], [3], [4], [6], [24], [2, 2], []]),
    "coeff_order": st.one_of(st.integers(-1, 8), st.just(341), st.just(2 ** 80), st.booleans()),
    "table": st.lists(st.lists(CELL, max_size=4), max_size=8)})


@st.composite
def shaped_pseudoreps(draw):
    """A diagonal representation of Z/n with the trivial cocycle, so that the
    checks past parsing run, then perhaps spoiled: table entries added, the
    coefficient order or the stated order changed, an image dropped or replaced."""
    n = draw(st.sampled_from([1, 2, 3, 4, 6, 24]))
    r = draw(st.integers(1, 4))
    ks = draw(st.lists(st.integers(0, n - 1), min_size=r, max_size=r))
    images = {str(j): {"size": r, "entries": [
        [cyclotomic_to_json(root_of_unity(Fraction(j * k % n, n))) if a == b else "0"
         for b in range(r)] for a, k in enumerate(ks)]} for j in range(n)}
    m = draw(st.sampled_from([1, 2, 3, 6, 341, 2 ** 80]))
    index = st.integers(min(1, n - 1), n - 1)
    table = draw(st.lists(st.tuples(index, index,
                                    st.sampled_from(["0", f"1/{m}", f"-1/{m}", "1/2"])),
                          max_size=3, unique_by=lambda e: e[:2]))
    key = str(draw(st.integers(0, n - 1)))
    spoil = draw(st.sampled_from(["none", "drop", "replace"]))
    if spoil == "drop":
        del images[key]
    elif spoil == "replace":
        images[key] = draw(MATRIX)
    return {"order": draw(st.sampled_from([n, n, n, n + 1, 0, True])),
            "cocycle": {"group": [n], "coeff_order": m, "table": [list(e) for e in table]},
            "images": images}


PSEUDOREP = st.one_of(shaped_pseudoreps(), st.fixed_dictionaries({
    "order": st.one_of(st.integers(-1, 6), st.just(24), st.booleans(), st.just("2")),
    "cocycle": st.one_of(CYCLIC_COCHAIN, st.none()),
    "images": IMAGES}))
INT_LIST = st.lists(st.one_of(st.integers(-2, 30), st.booleans()), max_size=3)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pseudorep=PSEUDOREP, verb=st.sampled_from(["verify", "classify", "transport"]),
       ambient=INT_LIST, gamma0=INT_LIST, generator_image=INT_LIST)
def test_fuzz_pseudorep_payloads(tmp_path, pseudorep, verb, ambient, gamma0, generator_image):
    payload = pseudorep
    if verb == "transport":
        payload = {"pseudorep": pseudorep, "ambient_group": ambient, "gamma0": gamma0,
                   "generator_image": generator_image}
    run_bounded(tmp_path, ["pseudorep", verb], payload)
