import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from orbipar.cli import HANDLERS, build_parser, main, run_command
from orbipar import jsonio
from orbipar.cocycles import (MAX_EXTENSION_ORDER, Cochain2, CoefficientGroup,
                              FiniteAbelianGroup)
from orbipar.liemodel import GroupModel, alcove_normalize
from orbipar.localseries import GradedSeries
from orbipar.pseudoreps import PseudoRep
from orbipar.matrices import CycMatrix
from orbipar.scalars import MAX_CYCLOTOMIC_ORDER, root_of_unity
from fractions import Fraction

import helpers  # noqa: F401  (attaches PseudoRep.from_generator, equal_on_common_range)


def invoke(tmp_path, command, payload, *extra):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    return run_command([*command, str(path), *extra])


def result_of(text):
    return json.loads(text)["result"]


def test_cocycle_h2(tmp_path):
    code, text = invoke(tmp_path, ["cocycle", "h2"], {"group": [2], "coeff_order": 2})
    assert code == 0
    out = json.loads(text)
    assert out["result"]["classes"] == 2
    assert out["audit"]["command"] == "cocycle h2"


STRATA_EXTRA = {"covering": {"genus_x": 2, "group_order": 2, "orbit_orders": [2]},
                "model": {"kind": "gl", "r": 1}}


@pytest.mark.parametrize("bad", [0, -3, True])
@pytest.mark.parametrize("command,extra", [(["cocycle", "h2"], {}),
                                           (["moduli", "strata"], STRATA_EXTRA)])
def test_coeff_order_validated(tmp_path, command, extra, bad):
    code, text = invoke(tmp_path, command, {"group": [2], "coeff_order": bad, **extra})
    out = json.loads(text)
    assert code == 2 and out["error"] == "malformed_input"
    assert "coeff_order" in out["detail"]


TRANSPORT = {"ambient_group": [6], "gamma0": [3], "generator_image": [3],
             "pseudorep": {"order": 2, "cocycle": {"group": [2], "coeff_order": 1, "table": []},
                           "images": {"0": {"size": 1, "entries": [["1"]]},
                                      "1": {"size": 1, "entries": [["-1"]]}}}}


@pytest.mark.parametrize("bad", [True, 2.5, "2"])
@pytest.mark.parametrize("command,payload,key", [
    (["cocycle", "h2"], {"group": [2], "coeff_order": 2}, "group"),
    (["moduli", "strata"], {"group": [2], "coeff_order": 2, **STRATA_EXTRA}, "group"),
    (["cocycle", "verify"], {"group": [2], "coeff_order": 2, "table": []}, "group"),
    (["pseudorep", "transport"], TRANSPORT, "ambient_group"),
    (["cocycle", "zeta"], {"cochain": {"group": [2], "coeff_order": 2, "table": []},
                           "element": [1]}, "element"),
    (["pseudorep", "transport"], TRANSPORT, "gamma0"),
    (["pseudorep", "transport"], TRANSPORT, "generator_image"),
])
def test_group_items_must_be_ints(tmp_path, command, payload, key, bad):
    code, _ = invoke(tmp_path, command, payload)
    assert code == 0
    code, text = invoke(tmp_path, command, {**payload, key: [bad, *payload[key]]})
    out = json.loads(text)
    assert code == 2 and out["error"] == "malformed_input"
    assert repr(key) in out["detail"]


@pytest.mark.parametrize("bound", ["0", "-5"])
@pytest.mark.parametrize("command,extra", [(["cocycle", "h2"], {}),
                                           (["moduli", "strata"], STRATA_EXTRA)])
def test_scale_bound_below_one_is_malformed(tmp_path, command, extra, bound):
    code, text = invoke(tmp_path, command, {"group": [2], "coeff_order": 2, **extra},
                        "--scale-bound", bound)
    out = json.loads(text)
    assert code == 2 and out["error"] == "malformed_input"
    assert "scale bound" in out["detail"]


@pytest.mark.parametrize("flags", [["-o", "{}"], ["--out={}"]])
def test_out_flag_writes_file(tmp_path, capsys, flags):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"group": [2], "coeff_order": 2}))
    out = tmp_path / "out.json"
    code = main(["cocycle", "h2", str(path), *[f.format(out) for f in flags]])
    assert code == 0 and capsys.readouterr().out == ""
    assert out.read_text() == run_command(["cocycle", "h2", str(path)])[1]


def test_cocycle_verify_and_zeta(tmp_path):
    cochain = {"group": [2], "coeff_order": 2,
               "table": [[0, 0, "0"], [0, 1, "0"], [1, 0, "0"], [1, 1, "1/2"]]}
    code, text = invoke(tmp_path, ["cocycle", "verify"], cochain)
    assert code == 0 and result_of(text)["is_cocycle"]
    code, text = invoke(tmp_path, ["cocycle", "zeta"],
                        {"cochain": cochain, "element": [1]})
    assert code == 0
    assert result_of(text) == {"zeta": "1/2", "element_order": 2}


def test_cocycle_extend(tmp_path):
    cochain = {"group": [2], "coeff_order": 2,
               "table": [[0, 0, "0"], [0, 1, "0"], [1, 0, "0"], [1, 1, "1/2"]]}
    code, text = invoke(tmp_path, ["cocycle", "extend"], cochain)
    assert code == 0
    assert result_of(text)["order_profile"] == [1, 2, 4, 4]


@pytest.mark.parametrize("index", [[True, True], [True, 1], [1, False]])
def test_table_indices_must_be_ints(tmp_path, index):
    # a bool index is not an element index, even where it compares equal to one
    cochain = {"group": [3], "coeff_order": 3, "table": [[*index, "1/3"]]}
    for command in (["cocycle", "verify"], ["cocycle", "extend"]):
        code, text = invoke(tmp_path, command, cochain)
        out = json.loads(text)
        assert code == 2 and out["error"] == "malformed_input"
        assert "bad table index" in out["detail"]


def test_extension_order_capped_before_any_table(tmp_path):
    start = time.perf_counter()
    code, text = invoke(tmp_path, ["cocycle", "extend"],
                        {"group": [24], "coeff_order": 1000000, "table": []})
    assert time.perf_counter() - start < 1
    out = json.loads(text)
    assert code == 1 and out["error"] == "scale_exceeded"
    assert str(MAX_EXTENSION_ORDER) in out["detail"]


def test_extension_at_the_cap_is_fast_in_a_fresh_process(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"group": [16], "coeff_order": MAX_EXTENSION_ORDER // 16,
                                "table": []}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "orbipar.cli", "cocycle", "extend", str(path)],
                          capture_output=True, text=True, env=env, timeout=30)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["result"]["order"] == MAX_EXTENSION_ORDER
    assert elapsed < 1, f"took {elapsed:.2f} s"


HUGE = 10 ** 20


@pytest.mark.parametrize("table", [[], [[1, 1, "1/2"]]])
def test_huge_coefficient_order(tmp_path, table):
    cochain = {"group": [2], "coeff_order": HUGE, "table": table}
    code, text = invoke(tmp_path, ["cocycle", "verify"], cochain)
    assert code == 0 and result_of(text)["is_cocycle"]
    code, text = invoke(tmp_path, ["cocycle", "zeta"], {"cochain": cochain, "element": [1]})
    assert code == 0 and result_of(text)["zeta"] == ("1/2" if table else "0")
    code, text = invoke(tmp_path, ["cocycle", "extend"], cochain)
    assert code == 1 and json.loads(text)["error"] == "scale_exceeded"


def test_h2_huge_coefficient_order(tmp_path):
    code, text = invoke(tmp_path, ["cocycle", "h2"], {"group": [2], "coeff_order": 2 ** 40})
    assert code == 0
    reps = result_of(text)["representatives"]
    assert result_of(text)["classes"] == 2
    # c(g, g) moves by 2 f(g) under coboundaries: the classes are its parity
    assert [r["table"][3][2] for r in reps] == ["0", f"1/{2 ** 40}"]


def test_pseudorep_roundtrip(tmp_path):
    c = Cochain2(FiniteAbelianGroup([2]), CoefficientGroup(2), [[0, 0], [0, 1]])
    i4 = root_of_unity(Fraction(1, 4), 4)
    mi4 = root_of_unity(Fraction(3, 4), 4)
    sigma = PseudoRep.from_generator(c, CycMatrix.diagonal([i4, mi4]))
    payload = jsonio.pseudorep_to_json(sigma)
    code, text = invoke(tmp_path, ["pseudorep", "verify"], payload)
    assert code == 0 and result_of(text)["valid"]
    code, text = invoke(tmp_path, ["pseudorep", "classify"], payload)
    assert code == 0
    assert result_of(text) == {"exponents": ["3/4", "1/4"], "order": 2, "zeta": "1/2"}


ORDER_ONE = {"order": 1, "cocycle": {"group": [1], "coeff_order": 3, "table": [[0, 0, "0"]]},
             "images": {"0": {"size": 2, "entries": [["1", "0"], ["0", "1"]]}}}


def test_pseudorep_classify_on_the_trivial_group(tmp_path):
    # the generator of Z/1 is the identity, element 0; there is no element 1
    code, text = invoke(tmp_path, ["pseudorep", "verify"], ORDER_ONE)
    assert code == 0 and result_of(text) == {"valid": True, "witness": None}
    code, text = invoke(tmp_path, ["pseudorep", "classify"], ORDER_ONE)
    assert code == 0
    assert result_of(text) == {"exponents": ["0", "0"], "order": 1, "zeta": "0"}


def test_pseudorep_enumerate_and_project(tmp_path):
    code, text = invoke(tmp_path, ["pseudorep", "enumerate"],
                        {"order": 3, "rank": 2, "zeta": "0", "model": "gl"})
    assert code == 0 and result_of(text)["count"] == 6
    code, text = invoke(tmp_path, ["pseudorep", "project"],
                        {"class": {"order": 2, "zeta": "0",
                                   "exponents": ["1/2", "1/2"]},
                         "scalar_order": 2})
    assert code == 0
    assert result_of(text) == {"order": 2, "exponents": ["0", "0"]}


def test_lie_commands(tmp_path):
    code, text = invoke(tmp_path, ["lie", "alcove"],
                        {"model": {"kind": "gl", "r": 2},
                         "exponents": ["5/4", "-1/3"]})
    assert code == 0
    assert result_of(text) == {"alpha": ["2/3", "1/4"], "interior": True}
    code, text = invoke(tmp_path, ["lie", "eigenspaces"],
                        {"model": {"kind": "gl", "r": 2}, "alpha": ["1/3", "0"]})
    assert code == 0
    spaces = result_of(text)["eigenspaces"]
    assert [(e["beta"], e["dimension"]) for e in spaces] == \
        [("1/3", 1), ("0", 2), ("-1/3", 1)]
    code, text = invoke(tmp_path, ["lie", "parabolic"],
                        {"model": {"kind": "gl", "r": 2}, "s": ["1", "0"]})
    assert code == 0
    out = result_of(text)
    assert out["p_mask"] == [[1, 0], [1, 1]] and out["verified"]


def make_series_payload():
    return {"model": {"kind": "gl", "r": 2}, "alpha": ["1/2", "0"], "N": 2,
            "variable": "z", "trunc": 8,
            "terms": [{"basis": [1, 0], "k": 0, "coeff": "1"}]}


def test_local_pipeline(tmp_path):
    code, text = invoke(tmp_path, ["local", "check"], make_series_payload())
    assert code == 0 and result_of(text)["invariant"]
    code, text = invoke(tmp_path, ["local", "descend"], make_series_payload())
    assert code == 0
    out = result_of(text)
    assert out["series"]["terms"] == [{"basis": [1, 0], "k": -1,
                                       "coeff": {"coeffs": ["1/2"], "order": 1}}]
    assert out["residue"]["nilpotent"] and out["residue"]["levi_projection_zero"]
    # ascend the descended series back
    path = tmp_path / "down.json"
    path.write_text(json.dumps(out["series"]))
    code, text = run_command(["local", "ascend", str(path)])
    assert code == 0
    up = result_of(text)["series"]
    assert up["terms"] == [{"basis": [1, 0], "k": 0,
                            "coeff": {"coeffs": ["1"], "order": 1}}]
    code, text = run_command(["local", "residue", str(path)])
    assert code == 0 and result_of(text)["support_in_negative_beta"]


def test_local_twist_flag(tmp_path):
    payload = make_series_payload()
    payload["alpha"] = ["1/3", "0"]
    payload["N"] = 3
    payload["terms"] = [{"basis": [0, 1], "k": 0, "coeff": "1"}]
    code, text = invoke(tmp_path, ["local", "check"], payload)
    assert code == 0 and not result_of(text)["invariant"]
    code, text = invoke(tmp_path, ["local", "check"], payload, "--twist", "2/3")
    assert code == 0 and result_of(text)["invariant"]
    assert json.loads(text)["audit"]["twist"] == "2/3"


def test_local_check_large_prime_order(tmp_path):
    # gl(1) at N = 4001: invariant terms sit at k = -1 (mod N); k = 7 is not
    N = 4001
    payload = {"model": {"kind": "gl", "r": 1}, "alpha": ["0"], "N": N,
               "variable": "z", "trunc": 3 * N,
               "terms": [{"basis": [0, 0], "k": k, "coeff": c}
                         for k, c in [(N - 1, "1"), (2 * N - 1, "-2/3"),
                                      (3 * N - 1, "5"), (7, "1/2")]]}
    code, text = invoke(tmp_path, ["local", "check"], payload)
    assert code == 0
    out = json.loads(text)
    assert out["audit"]["M"] == N
    assert out["result"] == {"invariant": False, "by_index": False,
                             "by_substitution": False, "twist": "0",
                             "violations": [{"beta": "0", "k": 7, "basis": [0, 0]}]}


def test_huge_cyclotomic_order_fails_fast(tmp_path):
    for order in (10 ** 12, 2 ** 61 - 1):  # the second is prime: no factor below 1.5e9
        payload = make_series_payload()
        payload["terms"][0]["coeff"] = {"order": order, "coeffs": []}
        start = time.perf_counter()
        code, text = invoke(tmp_path, ["local", "check"], payload)
        assert code == 2 and json.loads(text)["error"] == "malformed_input"
        assert time.perf_counter() - start < 5


def test_moduli_commands(tmp_path):
    code, text = invoke(tmp_path, ["moduli", "rh"],
                        {"genus_x": 2, "group_order": 2, "orbit_orders": [2, 2]})
    assert code == 0 and result_of(text) == {"genus_y": 1}
    code, text = invoke(tmp_path, ["moduli", "strata"],
                        {"group": [2], "coeff_order": 2,
                         "covering": {"genus_x": 2, "group_order": 2,
                                      "orbit_orders": [2]},
                         "model": {"kind": "gl", "r": 1}})
    assert code == 0 and result_of(text)["count"] == 2
    code, text = invoke(tmp_path, ["moduli", "degree"],
                        {"s": ["-1", "1"],
                         "pieces": [{"value": "-1", "rank": 1, "degree": 1},
                                    {"value": "1", "rank": 1, "degree": -1}],
                         "corrections": []})
    assert code == 0 and result_of(text) == {"pairing": "-2"}
    code, text = invoke(tmp_path, ["moduli", "stability"],
                        {"mode": "semistable",
                         "candidates": [{"s": ["-1", "1"],
                                         "pieces": [{"value": "-1", "rank": 1, "degree": 1},
                                                    {"value": "1", "rank": 1, "degree": -1}],
                                         "corrections": []}]})
    assert code == 0
    assert result_of(text) == {"mode": "semistable", "ok": False,
                               "violator": 0, "pairing": "-2"}
    code, text = invoke(tmp_path, ["moduli", "scale"],
                        {"parabolic_degree_y": "1/2", "group_order": 2,
                         "claimed_degree_x": "1"})
    assert code == 0 and result_of(text) == {"scaling_ok": True, "integral": True}


def test_error_exit_codes(tmp_path):
    # domain error: weight on an alcove wall -> exit 1 with machine-readable code
    payload = make_series_payload()
    payload["alpha"] = ["0", "0"]
    payload["N"] = 1
    payload["terms"] = []
    code, text = invoke(tmp_path, ["local", "descend"], payload)
    assert code == 1
    assert json.loads(text)["error"] == "weight_on_wall"
    # malformed json -> exit 2
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, text = run_command(["cocycle", "verify", str(path)])
    assert code == 2 and json.loads(text)["error"] == "malformed_input"
    # schema violation -> exit 2
    code, text = invoke(tmp_path, ["cocycle", "verify"], {"group": [2]})
    assert code == 2 and json.loads(text)["error"] == "malformed_input"
    # scale exceeded (8 classes, bound 4) -> exit 1
    code, text = invoke(tmp_path, ["cocycle", "h2"],
                        {"group": [8], "coeff_order": 8}, "--scale-bound", "4")
    assert code == 1 and json.loads(text)["error"] == "scale_exceeded"


def test_serialization_roundtrip():
    # parse(print(x)) = x for the compound domain types
    model = GroupModel("gl", r=2)
    w = alcove_normalize(model, [Fraction(1, 2), 0])
    series = GradedSeries(model, w, 2, "z", 6,
                          {(model.basis_index((1, 0)), 0): root_of_unity(Fraction(1, 3), 3)})
    again = jsonio.series_from_json(json.loads(json.dumps(jsonio.series_to_json(series))))
    assert again.equal_on_common_range(series) and again.trunc == series.trunc
    c = Cochain2(FiniteAbelianGroup([4]), CoefficientGroup(2),
                 [[0] * 4, [0, 1, 0, 1], [0] * 4, [0, 1, 0, 1]])
    assert jsonio.cochain_from_json(jsonio.cochain_to_json(c)) == c


def test_determinism(tmp_path):
    payload = make_series_payload()
    outs = set()
    for _ in range(3):
        code, text = invoke(tmp_path, ["local", "descend"], payload)
        assert code == 0
        outs.add(text)
    assert len(outs) == 1


def _set(payload, path, value):
    """A deep copy of payload with the field at path (keys and indices) set."""
    payload = json.loads(json.dumps(payload))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


PSEUDOREP = TRANSPORT["pseudorep"]
PROJECT = {"class": {"order": 2, "zeta": "0", "exponents": ["1/2", "1/2"]},
           "scalar_order": 2}
SCALE = {"parabolic_degree_y": "1/2", "group_order": 2, "claimed_degree_x": "1"}


@pytest.mark.parametrize("command,payload,path", [
    (["cocycle", "verify"], {"group": [2], "coeff_order": 2, "table": [[1, 1, "1"]]},
     ["table", 0, 2]),
    (["pseudorep", "enumerate"], {"order": 4, "rank": 2, "zeta": "0"}, ["zeta"]),
    (["pseudorep", "enumerate"], {"order": 4, "rank": 2, "zeta": "0"}, ["order"]),
    (["pseudorep", "enumerate"], {"order": 4, "rank": 2, "zeta": "0"}, ["rank"]),
    (["pseudorep", "verify"], PSEUDOREP, ["order"]),
    (["pseudorep", "verify"], _set(PSEUDOREP, ["images", "0", "size"], 1),
     ["images", "0", "size"]),
    (["pseudorep", "verify"], PSEUDOREP, ["images", "0", "entries", 0, 0]),
    (["pseudorep", "verify"],
     _set(PSEUDOREP, ["images", "0", "entries", 0, 0], {"order": 1, "coeffs": ["1"]}),
     ["images", "0", "entries", 0, 0, "order"]),
    (["pseudorep", "project"], PROJECT, ["scalar_order"]),
    (["pseudorep", "project"], PROJECT, ["class", "order"]),
    (["local", "check"], make_series_payload(), ["N"]),
    (["local", "check"], make_series_payload(), ["trunc"]),
    (["local", "check"], make_series_payload(), ["terms", 0, "k"]),
    (["local", "check"], make_series_payload(), ["terms", 0, "coeff"]),
    (["moduli", "scale"], SCALE, ["group_order"]),
    (["moduli", "rh"], {"genus_x": 2, "group_order": 2, "orbit_orders": [2, 2]},
     ["group_order"]),
])
def test_json_booleans_are_not_numbers(tmp_path, command, payload, path):
    code, text = invoke(tmp_path, command, payload)
    assert code == 0, text
    code, text = invoke(tmp_path, command, _set(payload, path, True))
    assert code == 2 and json.loads(text)["error"] == "malformed_input", text


@pytest.mark.parametrize("value", ["1e10000000", "1.5", " 1/2", "1/2 ", "1_000", "+-1",
                                   "1/-2", "0x10", "١"])
def test_rationals_follow_the_p_q_grammar(tmp_path, value):
    cochain = {"group": [2], "coeff_order": 2, "table": [[1, 1, value]]}
    start = time.perf_counter()
    code, text = invoke(tmp_path, ["cocycle", "verify"], cochain)
    assert time.perf_counter() - start < 1
    out = json.loads(text)
    assert code == 2 and out["error"] == "malformed_input"
    assert "p/q" in out["detail"]


def test_twist_follows_the_p_q_grammar(tmp_path):
    code, text = invoke(tmp_path, ["local", "check"], make_series_payload(), "--twist", "1e9")
    assert code == 2 and json.loads(text)["error"] == "malformed_input"


def test_calls_in_one_process_share_no_state(tmp_path):
    # the parser is built once per process; a flag given to one call must not
    # leak into the next
    payload = make_series_payload()
    payload["alpha"] = ["1/3", "0"]
    payload["N"] = 3
    payload["terms"] = [{"basis": [0, 1], "k": 0, "coeff": "1"}]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for flags in (["--twist", "2/3"], []):
        argv = ["local", "check", str(path), *flags]
        fresh = subprocess.run([sys.executable, "-m", "orbipar.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert run_command(argv) == (fresh.returncode, fresh.stdout)
    assert json.loads(fresh.stdout)["result"]["twist"] == "0"


def test_oversized_json_integer_is_malformed(tmp_path):
    # past Python's int-string digit limit json.load raises a plain ValueError
    path = tmp_path / "in.json"
    path.write_text('{"group": [2], "coeff_order": ' + "7" * 5000 + ', "table": []}')
    code, text = run_command(["cocycle", "verify", str(path)])
    assert code == 2 and json.loads(text)["error"] == "malformed_input"


def fresh_cli(*argv, timeout=60):
    """(exit code, stdout, stderr, seconds) of a new `python -m orbipar.cli` process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "orbipar.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def gl1_payload(N):
    # gl(1) at alpha = 0: the term at k = N - 2 is not invariant
    return {"model": {"kind": "gl", "r": 1}, "alpha": ["0"], "N": N, "variable": "z",
            "trunc": N, "terms": [{"basis": [0, 0], "k": N - 2, "coeff": "1"}]}


def test_local_check_at_order_2520_is_fast(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(gl1_payload(2520)))
    code, out, err, elapsed = fresh_cli("local", "check", path)
    assert code == 0, out + err
    assert json.loads(out)["result"]["violations"] == [{"beta": "0", "k": 2518,
                                                        "basis": [0, 0]}]
    assert elapsed < 2, f"took {elapsed:.2f} s"


def test_series_order_capped_before_any_work(tmp_path):
    start = time.perf_counter()
    code, text = invoke(tmp_path, ["local", "check"], gl1_payload(10 ** 9))
    assert time.perf_counter() - start < 1
    out = json.loads(text)
    assert code == 1 and out["error"] == "scale_exceeded"
    assert str(MAX_CYCLOTOMIC_ORDER) in out["detail"]


def test_working_order_capped_before_any_work(tmp_path):
    start = time.perf_counter()
    code, text = invoke(tmp_path, ["local", "descend"], make_series_payload(),
                        "--working-order", "1000000000")
    assert time.perf_counter() - start < 1
    out = json.loads(text)
    assert code == 1 and out["error"] == "scale_exceeded"
    assert str(MAX_CYCLOTOMIC_ORDER) in out["detail"]


def test_pseudorep_order_capped_at_n_times_m(tmp_path):
    # n * m = 2 * (cap / 2) is allowed, one more coefficient order step is not
    for m, expected in ((MAX_CYCLOTOMIC_ORDER // 2, 0), (MAX_CYCLOTOMIC_ORDER, 1)):
        payload = _set(PSEUDOREP, ["cocycle", "coeff_order"], m)
        code, text = invoke(tmp_path, ["pseudorep", "verify"], payload)
        assert code == expected, text
    assert json.loads(text)["error"] == "scale_exceeded"
    assert str(MAX_CYCLOTOMIC_ORDER) in json.loads(text)["detail"]


def test_working_order_embeds_the_natural_output(tmp_path):
    payload = make_series_payload()
    payload["terms"][0]["coeff"] = {"order": 3, "coeffs": ["1", "1/2"]}
    code, text = invoke(tmp_path, ["local", "descend"], payload)
    assert code == 0
    natural = json.loads(text)
    M = natural["audit"]["M"]
    assert M == 6
    code, text = invoke(tmp_path, ["local", "descend"], payload, "--working-order", str(2 * M))
    assert code == 0
    forced = json.loads(text)
    assert forced["audit"]["M"] == 2 * M
    expected = natural["result"]["series"]["terms"]
    for term in expected:
        coeff = jsonio.cyclotomic_from_json(term["coeff"])
        term["coeff"] = jsonio.cyclotomic_to_json(coeff.embed(2 * M))
    assert forced["result"]["series"]["terms"] == expected
    assert forced["result"]["residue"] == natural["result"]["residue"]


@pytest.mark.parametrize("order", ["9", "0", "-6"])
def test_working_order_must_be_a_positive_multiple(tmp_path, order):
    payload = make_series_payload()
    payload["terms"][0]["coeff"] = {"order": 3, "coeffs": ["1", "1/2"]}
    for verb in ("check", "descend"):
        code, text = invoke(tmp_path, ["local", verb], payload, "--working-order", order)
        out = json.loads(text)
        assert code == 2 and out["error"] == "malformed_input"
        assert "natural order 6" in out["detail"]


@pytest.mark.parametrize("command,payload,flag", [
    (["local", "residue"], None, ["--working-order", "4"]),
    (["pseudorep", "verify"], PSEUDOREP, ["--scale-bound", "4"]),
])
def test_flags_of_other_verbs_are_argv_errors(tmp_path, command, payload, flag):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload or make_series_payload()))
    code, out, err, _ = fresh_cli(*command, path)
    assert code in (0, 1, 2) and out
    code, out, err, _ = fresh_cli(*command, path, *flag)
    assert code == 2 and out == ""
    assert err.startswith("usage: orbipar") and f"unrecognized arguments: {flag[0]}" in err


def verbs_accepting(option):
    """The "noun verb" leaves of the parser that declare the option."""
    def subcommands(parser):
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices.items()

    return sorted(f"{noun} {verb}" for noun, sub in subcommands(build_parser())
                  for verb, leaf in subcommands(sub)
                  if any(option in a.option_strings for a in leaf._actions))


def test_flags_exist_only_on_the_verbs_that_read_them():
    assert verbs_accepting("--scale-bound") == ["cocycle h2", "moduli strata"]
    assert verbs_accepting("--working-order") == ["local ascend", "local check",
                                                  "local descend"]
    assert verbs_accepting("--twist") == ["local check"]
    assert len(verbs_accepting("--out")) == len(HANDLERS) + 1  # corpus run too


def test_corpus_run_reports_a_case_with_bad_args(tmp_path):
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    case = json.loads((corpus / "local_residue_mixed.json").read_text())
    (tmp_path / "a.json").write_text(json.dumps({**case, "args": ["--working-order", "4"]}))
    (tmp_path / "b.json").write_text((corpus / "moduli_rh_elliptic_quotient.json").read_text())
    code, text = run_command(["corpus", "run", str(tmp_path)])
    assert code == 1
    assert text.splitlines() == ["FAIL a.json (bad args ['--working-order', '4'])",
                                 "ok b.json", "1/2 cases passed"]
