"""Checks on the package as a whole: no runtime asserts, no except clause
that could hide a program bug, every error code raised somewhere, no weight
built outside alcove_normalize, no memo table without a bound, no numpy on
import, the benchmark tracer's entry points all present, the corpus script
writing the committed corpus, and every payload of every verb, however hostile, ending in exit 0, 1 or 2
within a per-call time budget."""

import ast
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orbipar import jsonio
from orbipar.cli import run_command
from orbipar.cocycles import DEFAULT_MAX_ORDER
from orbipar.errors import ScaleExceeded
from orbipar.jsonio import cyclotomic_to_json
from orbipar.jsonio import MAX_RATIONAL_DIGITS
from orbipar.scalars import root_of_unity

SRC = Path(__file__).resolve().parent.parent / "src" / "orbipar"
PERFBENCH = SRC.parent.parent / "perfbench"


def test_no_assert_statements_in_src():
    # `python -O` strips asserts, so every runtime invariant is an explicit raise
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


PROGRAM_ERRORS = {"KeyError", "TypeError", "AttributeError", "Exception", "BaseException"}


def _caught(handler) -> set:
    """The exception names an except clause catches; a bare except catches all."""
    if handler.type is None:
        return {"BaseException"}
    return {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}


def test_no_except_clause_catches_program_errors():
    # jsonio checks every wire value, so these errors can only come from a
    # program bug, which must surface as a traceback, not as malformed input
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ExceptHandler) and _caught(node) & PROGRAM_ERRORS]
    assert found == []


def test_cli_execute_catches_only_input_and_domain_errors():
    # _execute reads the input file and hands its payload to _dispatch
    tree = ast.parse((SRC / "cli.py").read_text())
    path = [node for name in ("_execute", "_dispatch") for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == name]
    caught = [_caught(node) for function in path for node in ast.walk(function)
              if isinstance(node, ast.ExceptHandler)]
    assert caught == [{"OSError", "ValueError", "RecursionError"}, {"MalformedInput"},
                      {"DomainError"}]


def test_every_error_code_is_raised_in_src():
    # a DomainError subclass that nothing in src/ raises is a code no verb can emit
    tree = ast.parse((SRC / "errors.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(defined - {"DomainError", "MalformedInput"} - raised) == []


def test_only_alcove_normalize_builds_a_weight():
    # every WeightVector is then in alcove form, with its betas computed once
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        builders = {id(node): function.name for function in ast.walk(tree)
                    if isinstance(function, ast.FunctionDef) for node in ast.walk(function)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "WeightVector"
                  and builders.get(id(node)) != "alcove_normalize"]
    assert found == []


TABLES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
TABLE_TYPES = {"dict", "list", "set", "defaultdict", "OrderedDict"}
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "clear", "update", "setdefault",
            "add", "discard", "remove", "sort", "reverse", "__setitem__", "__delitem__"}


def _is_lru_cache(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")
            or isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache"))


def _targets(node) -> list:
    """The targets an assignment or del statement writes."""
    return getattr(node, "targets", None) or [node.target]


def _bounded(call) -> bool:
    """The lru_cache(...) call gives an int maxsize."""
    size = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
    return bool(size) and isinstance(size[0], ast.Constant) and type(size[0].value) is int


def _unbounded_memo_tables(source: str, name: str) -> list:
    """Where the module's source keeps a memo table that can grow without
    bound: an lru_cache with no int maxsize (a decorated function of no
    parameters holds one value and passes), or a module-level dict, list or
    set that a function writes or mutates."""
    tree = ast.parse(source, name)
    tables = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
              and (isinstance(node.value, TABLES) or isinstance(node.value, ast.Call)
                   and getattr(node.value.func, "id", None) in TABLE_TYPES)
              for t in _targets(node) if isinstance(t, ast.Name)}
    found, decorators = [], set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = function.args
        takes = a.posonlyargs or a.args or a.kwonlyargs or a.vararg or a.kwarg
        for deco in function.decorator_list:
            decorators.add(id(deco))
            bare = not isinstance(deco, ast.Call)
            if (takes and _is_lru_cache(deco if bare else deco.func)
                    and (bare or not _bounded(deco))):
                found.append(f"{name}:{deco.lineno} {function.name}")
        for node in ast.walk(function):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                written = [s.value for t in _targets(node) for s in ast.walk(t)
                           if isinstance(s, ast.Subscript)]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                written = [node.func.value] if node.func.attr in MUTATORS else []
            elif isinstance(node, ast.Global):
                written = [ast.Name(n) for n in node.names]
            else:
                continue
            found += [f"{name}:{node.lineno} {w.id}" for w in written
                      if isinstance(w, ast.Name) and w.id in tables]
    found += [f"{name}:{node.lineno} lru_cache" for node in ast.walk(tree)
              if isinstance(node, ast.Call) and _is_lru_cache(node.func)
              and id(node) not in decorators and not _bounded(node)]
    return found


def test_memo_tables_are_bounded():
    # a long-lived process (perfbench, corpus run, a pytest run) keeps every
    # memo table for its lifetime, so each one needs a bound it cannot pass
    found = [f for path in sorted(SRC.glob("*.py"))
             for f in _unbounded_memo_tables(path.read_text(), path.name)]
    assert found == []


@pytest.mark.parametrize("source", [
    "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(n):\n    return n\n",
    "import functools\n@functools.lru_cache\ndef f(n):\n    return n\n",
    "from functools import cache\n@cache\ndef f(*n):\n    return n\n",
    "from functools import lru_cache\ng = lru_cache(maxsize=None)(abs)\n",
    "SEEN = {}\ndef f(n):\n    SEEN[n] = n\n",
    "SEEN: dict[int, int] = {}\ndef f(n):\n    SEEN.setdefault(n, n)\n",
    "SEEN = []\nclass C:\n    def f(self, n):\n        SEEN.append(n)\n",
    "SEEN = set()\ndef f(n):\n    global SEEN\n    SEEN = SEEN | {n}\n",
])
def test_unbounded_memo_tables_are_found(source):
    assert _unbounded_memo_tables(source, "m.py") != []


def test_benchmark_tracer_installs():
    # perfbench/tracer.py wraps its entry points by name; a missing one is a KeyError
    # or AttributeError that would stop `perfbench/run.py --trace 1`
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), str(PERFBENCH)]))
    code = "import orbipar.cli; from tracer import Tracer; Tracer().install()"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_numpy_out():
    # numpy is for tests only; dataclasses would pull in inspect, ast and dis
    # on every cold start
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import orbipar.cli, sys; "
            "print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_tempfile_out():
    # corpus run hands each case's input to its verb as loaded; -S keeps out
    # site-packages, which may import tempfile before orbipar runs
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import orbipar.cli, sys; print('tempfile' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
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
    """Run one CLI call on payload; its exit is 0, 1 or 2 with a JSON body, in budget.

    A timer fails the call when the budget runs out, so a hang fails the test
    instead of stalling the suite."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))

    def over_budget(signum, frame):
        pytest.fail(f"{argv} ran past the {CALL_BUDGET_S} s budget")

    previous = signal.signal(signal.SIGALRM, over_budget)
    signal.setitimer(signal.ITIMER_REAL, CALL_BUDGET_S)
    try:
        code, text = run_command([*argv, str(path)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    body = json.loads(text)
    assert ("result" in body) == (code == 0)
    return code, body


def test_run_bounded_fails_a_hang_at_the_budget(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "run_command", lambda argv: time.sleep(10 * CALL_BUDGET_S))
    start = time.perf_counter()
    with pytest.raises(pytest.fail.Exception, match="budget"):
        run_bounded(tmp_path, ["cocycle", "verify"], {})
    assert time.perf_counter() - start < CALL_BUDGET_S + 1


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


RATIONAL = st.one_of(
    st.sampled_from(["0", "1/2", "1/3", "-1/3", "2/3", "1/4", "-1/4", "1", "1/0", "x"]),
    st.integers(-2, 2), st.booleans(), st.none())
# (model, alpha, N) in alcove form with N alpha integral, so the checks past parsing run
LOCAL_MODELS = [({"kind": "gl", "r": 1}, ["0"], 4001),
                ({"kind": "gl", "r": 2}, ["1/2", "0"], 2),
                ({"kind": "gl", "r": 3}, ["2/3", "1/3", "0"], 6),
                ({"kind": "sl", "r": 2}, ["1/4", "-1/4"], 4),
                ({"kind": "sl", "r": 3}, ["1/3", "0", "-1/3"], 3),
                ({"kind": "upq", "p": 1, "q": 1}, ["1/3", "1/4"], 12),
                ({"kind": "sl", "r": 1}, ["0"], 2)]  # m^C = 0: no basis keys
MODEL = st.one_of(st.sampled_from([m for m, _, _ in LOCAL_MODELS]), st.none(),
                  st.fixed_dictionaries({"kind": st.sampled_from(["gl", "sl", "upq", "x"]),
                                         "r": st.one_of(st.integers(-1, 6), st.booleans()),
                                         "p": st.integers(0, 3), "q": st.integers(0, 3)}))
# past the digit cap on rationals, and numbers that would print past 4300 digits if multiplied
LONG = st.sampled_from(["9" * 80, "1/" + "7" * 70, 10 ** 70, 10 ** 4000, 9 * 10 ** 4299])
HOSTILE = st.one_of(RATIONAL, MODEL, st.integers(-2, 10 ** 6), st.sampled_from(["z", "w", "2"]),
                    st.lists(RATIONAL, max_size=5), st.lists(st.integers(-1, 30), max_size=4),
                    LONG)
COEFF = st.one_of(st.sampled_from(["1", "-1", "1/2", "2/3"]),
                  st.sampled_from([{"order": 3, "coeffs": ["0", "1"]},
                                   {"order": 12, "coeffs": ["1", "0", "-1", "1/5"]}]), ENTRY)


def spoiled(draw, payload, *paths):
    """payload, or, half the time, a copy with the field at one of the paths
    replaced by a HOSTILE value."""
    path = draw(st.sampled_from([None] * len(paths) + list(paths)))
    if path is None:
        return payload
    payload = json.loads(json.dumps(payload))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(HOSTILE)
    return payload


@st.composite
def series_payloads(draw, variable):
    """A series on a valid local model with basis keys of the model and, often,
    invariant exponents, then perhaps one field spoiled."""
    model_json, alpha, N = draw(st.sampled_from(LOCAL_MODELS))
    model = jsonio.model_from_json(model_json)
    betas = jsonio.weight_vector_from_json(model, alpha).beta
    terms = {}
    keys = st.lists(st.sampled_from(model.basis), max_size=4) if model.basis else st.just([])
    for key in draw(keys):
        invariant = (-N * betas[key] - 1) % N  # k = N l - N beta - 1
        k = draw(st.one_of(st.integers(-1 if variable == "w" else 0, 2 * N),
                           st.integers(0, 2).map(lambda t: int(invariant) + N * t)))
        terms[(key, k)] = draw(COEFF)
    payload = {"model": model_json, "alpha": alpha, "N": N, "variable": variable,
               "trunc": draw(st.one_of(st.just(3 * N), st.integers(-3, 3 * N),
                                       st.just(10 ** 9))),
               "terms": [{"basis": list(key), "k": k, "coeff": c}
                         for (key, k), c in terms.items()]}
    term_fields = [("terms", i, f) for i in range(len(terms)) for f in ("basis", "k", "coeff")]
    return spoiled(draw, payload, ("model",), ("alpha",), ("N",), ("variable",), ("trunc",),
                   ("terms",), *term_fields, *[(*f, 0) for f in term_fields if f[2] == "basis"])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), verb=st.sampled_from(["check", "descend", "ascend", "residue"]),
       working_order=st.sampled_from([None, None, 0, 12, 24, 8192, 16384]),
       twist=st.sampled_from([None, None, "0", "1/3", "2/3", "1/7", "1/0", "x"]))
def test_fuzz_series_payloads(tmp_path, data, verb, working_order, twist):
    upstairs = verb in ("check", "descend")
    series = data.draw(series_payloads("z" if upstairs else "w"))
    argv = ["local", verb]
    if working_order is not None and verb != "residue":
        argv += ["--working-order", str(working_order)]
    if twist is not None and verb == "check":
        argv += ["--twist", twist]
    run_bounded(tmp_path, argv, series)


DECK_ORDERS = [1, 2, 3, 4, 6, 8, 12, 24]


@st.composite
def covering_payloads(draw):
    """A strata request on a valid cyclic covering, perhaps one field spoiled."""
    n = draw(st.sampled_from(DECK_ORDERS))
    divisors = [d for d in DECK_ORDERS if d > 1 and n % d == 0] or [2]
    payload = {"group": [n], "covering": {
                   "genus_x": draw(st.one_of(st.integers(2, 40), st.just(10 ** 6))),
                   "group_order": n,
                   "orbit_orders": draw(st.lists(st.sampled_from(divisors), max_size=4))},
               "coeff_order": draw(st.sampled_from([1, 2, 3, 4, 6, 12, 10 ** 6, 2 ** 80])),
               "model": draw(st.sampled_from([{"kind": "gl", "r": r} for r in (1, 2, 3, 4)] +
                                             [{"kind": "sl", "r": r} for r in (2, 3)] +
                                             [{"kind": "upq", "p": 1, "q": 1}]))}
    covering = [("covering", f) for f in ("genus_x", "group_order", "orbit_orders")]
    first_orbit = [("covering", "orbit_orders", 0)] if payload["covering"]["orbit_orders"] else []
    return spoiled(draw, payload, ("group",), ("coeff_order",), ("model",), ("covering",),
                   *covering, *first_orbit)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=covering_payloads(), verb=st.sampled_from(["rh", "strata"]))
def test_fuzz_covering_payloads(tmp_path, payload, verb):
    run_bounded(tmp_path, ["moduli", verb], payload["covering"] if verb == "rh" else payload)


H2_GROUPS = [[1], [2], [3], [4], [2, 2], [6], [8], [2, 3], [12], [2, 2, 2], [24]]
SMALL_RATIONAL = st.sampled_from(["0", "1/2", "1/3", "-1/3", "2/3", "1/4", "-3/2", "2"])


@st.composite
def group_payloads(draw, verb):
    """A valid `cocycle h2`, `pseudorep enumerate` or `pseudorep project`
    request, then perhaps one field spoiled."""
    if verb == "cocycle h2":
        payload = {"group": draw(st.sampled_from(H2_GROUPS)),
                   "coeff_order": draw(st.integers(1, 24))}
        return spoiled(draw, payload, ("group",), ("coeff_order",), ("group", 0))
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    z = Fraction(draw(st.integers(0, m - 1)), m)
    if verb == "pseudorep enumerate":
        payload = {"order": n, "rank": draw(st.integers(1, 4)), "zeta": str(z),
                   "model": draw(st.sampled_from(["gl", "sl"]))}
        return spoiled(draw, payload, ("order",), ("rank",), ("zeta",), ("model",))
    exps = sorted(((z + draw(st.integers(0, n - 1))) / n for _ in range(draw(st.integers(1, 4)))),
                  reverse=True)
    payload = {"class": {"order": n, "zeta": str(z), "exponents": [str(q) for q in exps]},
               "scalar_order": draw(st.integers(1, 12))}
    return spoiled(draw, payload, ("class",), ("class", "order"), ("class", "zeta"),
                   ("class", "exponents"), ("class", "exponents", 0), ("scalar_order",))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), verb=st.sampled_from(["cocycle h2", "pseudorep enumerate",
                                             "pseudorep project"]),
       scale_bound=st.sampled_from([1, 4, 64]))
def test_fuzz_group_payloads(tmp_path, data, verb, scale_bound):
    # at the default bound an `h2` output may be megabytes, which takes its
    # time to render without a fault; the bound keeps each call in budget
    argv = verb.split()
    if verb == "cocycle h2":
        argv += ["--scale-bound", str(scale_bound)]
    run_bounded(tmp_path, argv, data.draw(group_payloads(verb)))


@pytest.mark.parametrize("verb", ["cocycle h2", "moduli strata"])
def test_many_trivial_factors_are_refused_in_budget(tmp_path, verb):
    # 10,000 factors of 1 (30 KB) make a group of order 1, but H^2 loops over
    # the pairs of factors
    payload = {"group": [1] * 10000, "coeff_order": 2}
    if verb == "moduli strata":
        payload.update(covering={"genus_x": 2, "group_order": 1, "orbit_orders": []},
                       model={"kind": "gl", "r": 1})
    code, body = run_bounded(tmp_path, verb.split(), payload)
    assert code == 1 and body["error"] == "scale_exceeded"
    assert body["detail"] == f"10000 cyclic factors exceed the bound {DEFAULT_MAX_ORDER}"


def test_project_of_a_long_class_is_refused_in_budget(tmp_path):
    # a 25 KB class of order n = r with the exponents j/n: projecting it
    # would sort all r exponents once for each of its r distinct shifts
    r = 2000
    cls = {"order": r, "zeta": "0", "exponents": [str(Fraction(j, r)) for j in range(r)][::-1]}
    run_bounded(tmp_path, ["pseudorep", "project"], {"class": cls, "scalar_order": r})
    with pytest.raises(ScaleExceeded, match=f"{r} exponents exceed the bound 24"):
        jsonio.rep_class_from_json(cls)


@st.composite
def lie_payloads(draw, verb):
    """A `lie` request on a valid model, then perhaps one field spoiled."""
    model, alpha, _ = draw(st.sampled_from(LOCAL_MODELS))
    key = {"alcove": "exponents", "eigenspaces": "alpha", "parabolic": "s"}[verb]
    values = alpha
    if verb == "alcove":
        values = draw(st.lists(SMALL_RATIONAL, min_size=len(alpha), max_size=len(alpha)))
    return spoiled(draw, {"model": model, key: values}, ("model",), (key,), (key, 0))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), verb=st.sampled_from(["alcove", "eigenspaces", "parabolic"]))
def test_fuzz_lie_payloads(tmp_path, data, verb):
    run_bounded(tmp_path, ["lie", verb], data.draw(lie_payloads(verb)))


@st.composite
def flag_payloads(draw):
    """A flag whose pieces match its s-values, then perhaps one field spoiled."""
    values = draw(st.lists(SMALL_RATIONAL, min_size=1, max_size=4,
                           unique_by=lambda v: Fraction(v)))
    ranks = [draw(st.integers(1, 2)) for _ in values]
    corrections = draw(st.lists(SMALL_RATIONAL, max_size=3))
    payload = {"s": [v for v, r in zip(values, ranks) for _ in range(r)],
               "pieces": [{"value": v, "rank": r, "degree": draw(st.integers(-5, 5))}
                          for v, r in zip(values, ranks)],
               "corrections": corrections}
    pieces = [("pieces", 0, f) for f in ("value", "rank", "degree")]
    return spoiled(draw, payload, ("s",), ("pieces",), ("corrections",), ("s", 0),
                   ("pieces", 0), *pieces, *([("corrections", 0)] if corrections else []))


@st.composite
def moduli_payloads(draw, verb):
    """A `moduli degree`, `stability` or `scale` request, perhaps one field spoiled."""
    if verb == "degree":
        return draw(flag_payloads())
    if verb == "stability":
        payload = {"candidates": draw(st.lists(flag_payloads(), max_size=3)),
                   "mode": draw(st.sampled_from(["semistable", "stable"]))}
        return spoiled(draw, payload, ("candidates",), ("mode",))
    payload = {"parabolic_degree_y": draw(SMALL_RATIONAL),
               "group_order": draw(st.integers(1, 24)),
               "claimed_degree_x": draw(SMALL_RATIONAL)}
    return spoiled(draw, payload, ("parabolic_degree_y",), ("group_order",),
                   ("claimed_degree_x",))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), verb=st.sampled_from(["degree", "stability", "scale"]))
def test_fuzz_moduli_payloads(tmp_path, data, verb):
    run_bounded(tmp_path, ["moduli", verb], data.draw(moduli_payloads(verb)))


CORPUS = SRC.parent.parent / "corpus"
# the longest ints under the digit cap, and the longest json.load reads
LONG_INTS = [10 ** MAX_RATIONAL_DIGITS - 1, -(10 ** MAX_RATIONAL_DIGITS - 1), 9 * 10 ** 4299]


def _with_ints(node, value):
    """node with every int in it set to value, at once."""
    if isinstance(node, list):
        return [_with_ints(x, value) for x in node]
    if isinstance(node, dict):
        return {k: _with_ints(x, value) for k, x in node.items()}
    return value if isinstance(node, int) and not isinstance(node, bool) else node


def _with_long_lists(node):
    """node with every nonempty list of ints replaced by 80 ints under the digit cap."""
    if isinstance(node, list) and node and all(jsonio._is_int(x) for x in node):
        return [10 ** MAX_RATIONAL_DIGITS - 1] * 80
    if isinstance(node, list):
        return [_with_long_lists(x) for x in node]
    if isinstance(node, dict):
        return {k: _with_long_lists(x) for k, x in node.items()}
    return node


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.json")))
def test_corpus_inputs_with_every_int_long_at_once(tmp_path, name):
    # the fuzz tests spoil one field at a time; products and lcms of several
    # long fields must end in exit 0, 1 or 2 as well
    case = json.loads((CORPUS / name).read_text())
    argv = [*case["command"], *map(str, case.get("args", []))]
    for value in LONG_INTS:
        run_bounded(tmp_path, argv, _with_ints(case["input"], value))
    run_bounded(tmp_path, argv, _with_long_lists(case["input"]))


def test_generate_corpus_writes_the_committed_corpus(tmp_path):
    script = SRC.parent.parent / "scripts" / "generate_corpus.py"
    spec = importlib.util.spec_from_file_location("generate_corpus", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.CORPUS = str(tmp_path)
    module.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(p.name for p in CORPUS.glob("*.json"))
    for path in sorted(CORPUS.glob("*.json")):
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
