import argparse
import gc
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

from orbipar.cli import VERBS, build_parser, main, run_command
from orbipar import jsonio, liemodel
from orbipar.cocycles import (DEFAULT_SCALE_BOUND, MAX_EXTENSION_ORDER, Cochain2,
                              FiniteAbelianGroup, central_extension, h2_classes)
from orbipar.errors import ScaleExceeded
from orbipar.liemodel import GroupModel, alcove_normalize
from orbipar.localseries import GradedSeries
from orbipar.pseudoreps import PseudoRep
from orbipar.matrices import CycMatrix
from orbipar.jsonio import MAX_FLAG_CORRECTIONS, MAX_FLAG_PIECES, MAX_RATIONAL_DIGITS
from orbipar.moduli import MAX_STRATA_CELLS, CoveringData, enumerate_strata
from orbipar.scalars import MAX_CYCLOTOMIC_ORDER, root_of_unity
from fractions import Fraction

import helpers  # also attaches PseudoRep.from_generator, equal_on_common_range


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
    (["moduli", "rh"], {"genus_x": 2, "group_order": 2, "orbit_orders": [2, 2]},
     "orbit_orders"),
])
def test_group_items_must_be_ints(tmp_path, command, payload, key, bad):
    code, _ = invoke(tmp_path, command, payload)
    assert code == 0
    code, text = invoke(tmp_path, command, {**payload, key: [bad, *payload[key]]})
    out = json.loads(text)
    assert code == 2 and out["error"] == "malformed_input"
    assert repr(key) in out["detail"]


@pytest.mark.parametrize("image", [[9], [-3], [3, 5]])
def test_transport_generator_image_must_be_an_ambient_element(tmp_path, image):
    code, text = invoke(tmp_path, ["pseudorep", "transport"],
                        {**TRANSPORT, "generator_image": image})
    out = json.loads(text)
    assert code == 1 and out["error"] == "isotropy_mismatch"
    assert "not an ambient element" in out["detail"]


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


@pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing_dir", "a_dir"])
@pytest.mark.parametrize("command", [["cocycle", "h2"], ["corpus", "run"]],
                         ids=["h2", "corpus_run"])
def test_out_flag_to_an_unwritable_path_is_malformed(tmp_path, capsys, command, target):
    # the output cannot be written: the error goes to stdout as JSON, with exit 2
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"group": [2], "coeff_order": 2}))
    if command[0] == "corpus":
        path = Path(__file__).resolve().parent.parent / "corpus"
    code = main([*command, str(path), "-o", str(tmp_path / target)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error"] == "malformed_input"
    assert str(tmp_path) in out["detail"]


def test_deeply_nested_input_is_malformed(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, text = run_command(["cocycle", "verify", str(path)])
    assert code == 2 and json.loads(text)["error"] == "malformed_input"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv", [["cocycle", "h2", "{}"], ["cocycle", "h2", "{}", "-o", "{}.out"],
                                  ["cocycle", "nope", "{}"], ["cocycle", "h2", "{}", "--bad"]])
def test_main_restores_the_collector_state(tmp_path, capsys, enabled, argv):
    # main turns the cyclic collector off for its call only: it runs in process here
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"group": [2], "coeff_order": 2}))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            assert main([a.format(path) for a in argv]) == 0
        except SystemExit:  # argparse refuses the verb or the flag
            pass
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


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
    c = Cochain2(FiniteAbelianGroup([2]), 2, [[0, 0], [0, 1]])
    i4 = root_of_unity(Fraction(1, 4), 4)
    mi4 = root_of_unity(Fraction(3, 4), 4)
    sigma = PseudoRep.from_generator(c, CycMatrix.diagonal([i4, mi4]))
    payload = json.loads(jsonio.dumps(jsonio.pseudorep_to_json(sigma)))
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


@pytest.mark.parametrize("command,payload,result", [
    (["pseudorep", "project"], {"class": {"order": 2, "zeta": "0", "exponents": ["1/2", "1/2"]},
                                "scalar_order": 2 ** 80}, {"order": 2, "exponents": ["0", "0"]}),
    (["moduli", "strata"], {"group": [2], "coeff_order": 2 ** 80, **STRATA_EXTRA}, None),
])
def test_projection_by_a_huge_scalar_order_is_fast(tmp_path, command, payload, result):
    # only one shift per exponent is tried, so the work does not grow with m
    start = time.perf_counter()
    code, text = invoke(tmp_path, command, payload)
    assert time.perf_counter() - start < 1
    assert code == 0
    if result is not None:
        assert result_of(text) == result
    else:
        assert result_of(text)["count"] == 2


def test_strata_output_capped_before_rendering(tmp_path):
    # 6084 strata with a 144-row table each: 74 MB of JSON when rendered
    payload = {"group": [12], "coeff_order": 1, "model": {"kind": "gl", "r": 2},
               "covering": {"genus_x": 2, "group_order": 12, "orbit_orders": [12, 12]}}
    start = time.perf_counter()
    code, text = invoke(tmp_path, ["moduli", "strata"], payload)
    assert time.perf_counter() - start < 1
    out = json.loads(text)
    assert code == 1 and out["error"] == "scale_exceeded"
    assert str(MAX_STRATA_CELLS) in out["detail"]
    code, text = invoke(tmp_path, ["moduli", "strata"],
                        _set(payload, ["covering", "orbit_orders"], [12]))
    assert code == 0 and result_of(text)["count"] == 78


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


@pytest.mark.parametrize("verb,flags", [("check", []), ("residue", []), ("descend", []),
                                         ("ascend", ["--working-order", "4"])])
def test_a_local_request_normalizes_alpha_once(tmp_path, monkeypatch, verb, flags):
    # the wire's weight carries its alcove form and betas; the request's
    # series, and every series derived from them, share that weight
    calls = []

    def counted(model, exponents):
        calls.append(exponents)
        return alcove_normalize(model, exponents)

    monkeypatch.setattr(liemodel, "alcove_normalize", counted)
    monkeypatch.setattr(jsonio, "alcove_normalize", counted)
    payload = make_series_payload()
    if verb in ("residue", "ascend"):
        payload.update(variable="w", terms=[{"basis": [1, 0], "k": -1, "coeff": "1/2"}])
    code, text = invoke(tmp_path, ["local", verb], payload, *flags)
    assert code == 0, text
    assert len(calls) == 1


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


def _cyclotomic_json(order, coeffs):
    return {"order": order, "coeffs": [str(c) for c in coeffs]}


def test_residue_entries_lie_in_the_field_of_the_pole_coefficients(tmp_path):
    # poles zeta_3 at [1, 0] and zeta_5 at [0, 1]: every entry, zeros included,
    # is printed in Q(zeta_15), where zeta_5 = zeta_15^3 and zeta_3 = zeta_15^5;
    # the order-7 coefficient off the pole does not enter
    payload = {"model": {"kind": "gl", "r": 2}, "alpha": ["1/2", "0"], "N": 2,
               "variable": "w", "trunc": 1,
               "terms": [{"basis": [1, 0], "k": -1, "coeff": _cyclotomic_json(3, [0, 1])},
                         {"basis": [0, 1], "k": -1,
                          "coeff": _cyclotomic_json(5, [0, 1, 0, 0])},
                         {"basis": [0, 0], "k": 0,
                          "coeff": _cyclotomic_json(7, [0, 1, 0, 0, 0, 0])}]}
    code, text = invoke(tmp_path, ["local", "residue"], payload)
    assert code == 0, text

    def power(e):
        return _cyclotomic_json(15, [int(i == e) for i in range(8)])

    zero = _cyclotomic_json(15, [0] * 8)
    assert result_of(text)["residue"] == {"size": 2,
                                          "entries": [[zero, power(3)], [power(5), zero]]}


def test_sl_diagonal_pole_is_a_difference_of_units(tmp_path):
    # on sl(3) the key [0, 0] is E_00 - E_11, in the zero eigenspace
    c, minus_c = _cyclotomic_json(3, [1, 2]), _cyclotomic_json(3, [-1, -2])
    payload = {"model": {"kind": "sl", "r": 3}, "alpha": ["1/3", "0", "-1/3"], "N": 3,
               "variable": "w", "trunc": 0,
               "terms": [{"basis": [0, 0], "k": -1, "coeff": c}]}
    code, text = invoke(tmp_path, ["local", "residue"], payload)
    assert code == 0, text
    out = result_of(text)
    zero = _cyclotomic_json(3, [0, 0])
    assert out["residue"] == {"size": 3, "entries": [[c, zero, zero],
                                                     [zero, minus_c, zero],
                                                     [zero, zero, zero]]}
    assert out["support_in_negative_beta"] is False


SL3_SERIES = {"model": {"kind": "sl", "r": 3}, "alpha": ["1/3", "0", "-1/3"], "N": 3,
              "variable": "z", "trunc": 5,
              "terms": [{"basis": [1, 0], "k": 0, "coeff": "1"},
                        {"basis": [2, 0], "k": 1, "coeff": "2"},
                        {"basis": [0, 1], "k": 1, "coeff": "1/2"},
                        {"basis": [0, 0], "k": 2, "coeff": "1"}]}


def rational_cyc(x):
    return {"coeffs": [x], "order": 1}


def test_local_on_sl3_keeps_signed_weights(tmp_path):
    # sl weights and betas are signed: negative strings on the wire, "signed" in the audit
    code, text = invoke(tmp_path, ["local", "descend"], SL3_SERIES)
    assert code == 0
    out = json.loads(text)
    assert out["audit"] == {"M": 3, "N": 3, "alpha": ["1/3", "0", "-1/3"],
                            "command": "local descend", "convention": "signed"}
    assert out["result"]["series"]["terms"] == [
        {"basis": [0, 0], "coeff": rational_cyc("1/3"), "k": 0},
        {"basis": [0, 1], "coeff": rational_cyc("1/6"), "k": 0},
        {"basis": [1, 0], "coeff": rational_cyc("1/3"), "k": -1},
        {"basis": [2, 0], "coeff": rational_cyc("2/3"), "k": -1}]
    assert out["result"]["series"]["trunc"] == 0
    assert out["result"]["residue"]["support_in_negative_beta"]
    bad = {**SL3_SERIES, "terms": [{"basis": [1, 0], "k": 1, "coeff": "1"},
                                   {"basis": [2, 0], "k": 0, "coeff": "1"}]}
    code, text = invoke(tmp_path, ["local", "check"], bad)
    assert code == 0
    assert result_of(text)["violations"] == [{"basis": [1, 0], "beta": "-1/3", "k": 1},
                                             {"basis": [2, 0], "beta": "-2/3", "k": 0}]


@pytest.mark.parametrize("verb,variable", [("check", "z"), ("descend", "z"),
                                           ("ascend", "w"), ("residue", "w")])
def test_local_verbs_refuse_sl1(tmp_path, verb, variable):
    # sl(1) has m^C = 0, so no basis key and no eigencomponent to truncate by
    payload = {"model": {"kind": "sl", "r": 1}, "alpha": ["0"], "N": 2,
               "variable": variable, "trunc": 4, "terms": []}
    code, text = invoke(tmp_path, ["local", verb], payload)
    assert code == 1
    assert json.loads(text)["error"] == "unsupported_model"


# an invariant series, the same with two terms off their invariant slots, a
# downstairs series with poles on the negative components and, for residue,
# the same with poles on two overlapping sl diagonals
SL3_INVARIANT = {**SL3_SERIES, "terms": SL3_SERIES["terms"] + [
    {"basis": [2, 1], "k": 3, "coeff": "5"}, {"basis": [0, 2], "k": 0, "coeff": "-1"},
    {"basis": [1, 1], "k": 5, "coeff": _cyclotomic_json(4, [0, 1])}]}
SL3_MIXED = {**SL3_INVARIANT, "terms": SL3_INVARIANT["terms"] + [
    {"basis": [1, 0], "k": 1, "coeff": "1"}, {"basis": [0, 2], "k": 2, "coeff": "-2"}]}
SL3_DOWN = {**SL3_SERIES, "variable": "w", "trunc": 2,
            "terms": [{"basis": [0, 0], "k": 0, "coeff": "1"},
                      {"basis": [0, 1], "k": 1, "coeff": "1/2"},
                      {"basis": [1, 0], "k": -1, "coeff": "1"},
                      {"basis": [1, 0], "k": 2, "coeff": "3"},
                      {"basis": [2, 0], "k": -1, "coeff": _cyclotomic_json(3, [1, 2])},
                      {"basis": [2, 1], "k": -1, "coeff": "-1"}]}
SL3_DIAGONAL_POLES = {**SL3_DOWN, "terms": [{"basis": [0, 0], "k": -1, "coeff": "2"},
                                            {"basis": [1, 1], "k": -1, "coeff": "1/3"}]
                      + SL3_DOWN["terms"]}


@pytest.mark.parametrize("verb,payload,flags", [
    ("check", SL3_MIXED, []), ("check", SL3_MIXED, ["--twist", "1/3"]),
    ("descend", SL3_INVARIANT, []), ("ascend", SL3_DOWN, []),
    ("residue", SL3_DIAGONAL_POLES, [])])
def test_local_output_does_not_depend_on_the_term_order(tmp_path, verb, payload, flags):
    terms = sorted(payload["terms"], key=lambda t: (t["basis"], t["k"]))
    shuffled = terms[:]
    random.Random(27).shuffle(shuffled)
    assert shuffled not in (terms, terms[::-1])
    code, text = invoke(tmp_path, ["local", verb], {**payload, "terms": terms}, *flags)
    assert code == 0, text
    if verb == "check":
        assert result_of(text)["violations"]
    for order in (terms[::-1], shuffled):
        assert invoke(tmp_path, ["local", verb], {**payload, "terms": order}, *flags) \
            == (code, text)


@pytest.mark.parametrize("model,exponents,alpha,convention", [
    ({"kind": "sl", "r": 3}, ["1/3", "2/3", "0"], ["1/3", "0", "-1/3"], "signed"),
    ({"kind": "upq", "p": 1, "q": 1}, ["4/3", "-3/4"], ["1/3", "1/4"], "zero_one"),
])
def test_lie_alcove_audits_the_model_convention(tmp_path, model, exponents, alpha,
                                               convention):
    code, text = invoke(tmp_path, ["lie", "alcove"], {"model": model, "exponents": exponents})
    assert code == 0
    out = json.loads(text)
    assert out["result"] == {"alpha": alpha, "interior": True}
    assert out["audit"]["convention"] == convention


def test_lie_eigenspaces_on_upq(tmp_path):
    code, text = invoke(tmp_path, ["lie", "eigenspaces"],
                        {"model": {"kind": "upq", "p": 1, "q": 1}, "alpha": ["1/3", "1/4"]})
    assert code == 0
    out = json.loads(text)
    assert out["result"] == {"dim_m": 2, "eigenspaces": [
        {"basis": [[0, 1]], "beta": "1/12", "dimension": 1},
        {"basis": [[1, 0]], "beta": "-1/12", "dimension": 1}]}
    assert out["audit"]["convention"] == "signed"


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
    series = GradedSeries(w, 2, "z", 6,
                          {((1, 0), 0): root_of_unity(Fraction(1, 3), 3)})
    again = jsonio.series_from_json(json.loads(json.dumps(jsonio.series_to_json(series))))
    assert again.equal_on_common_range(series) and again.trunc == series.trunc
    c = Cochain2(FiniteAbelianGroup([4]), 2,
                 [[0] * 4, [0, 1, 0, 1], [0] * 4, [0, 1, 0, 1]])
    assert jsonio.cochain_from_json(json.loads(jsonio.dumps(jsonio.cochain_to_json(c)))) == c


def test_determinism(tmp_path):
    payload = make_series_payload()
    outs = set()
    for _ in range(3):
        code, text = invoke(tmp_path, ["local", "descend"], payload)
        assert code == 0
        outs.add(text)
    assert len(outs) == 1


def stdlib_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


STRINGS = st.text() | st.sampled_from(["1", "", '"', "\\", "\n\t\x00\x1f\x7f", "é ",
                                        "\U0001f600", "a, b"])


class Text(str):
    pass


class Count(int):
    pass


# subclasses of str and int are rendered by the stdlib fallback
SCALARS = st.one_of(st.integers(), st.integers(-10 ** 30, 10 ** 30), st.booleans(), st.none(),
                    st.floats(), STRINGS, STRINGS.map(Text), st.integers().map(Count))
TREES = st.recursive(
    SCALARS, lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                           | st.dictionaries(STRINGS, kids, max_size=4)
                           | st.dictionaries(st.integers(), kids, max_size=3)),
    max_leaves=25)
ROWS = [[1], [True], ["1"], [1, 0], [True, False]]
COLUMNS = st.sampled_from([st.integers(), st.integers(-3, 3), st.booleans(), STRINGS])


@st.composite
def uniform_rows(draw):
    """A list of rows of one length and one type per column, mixing int, bool
    and str columns, as the `[i, j, "v"]` rows of a cochain table are."""
    columns = draw(st.lists(COLUMNS, min_size=1, max_size=4))
    return draw(st.lists(st.tuples(*columns).map(list), max_size=8))


@settings(max_examples=150, deadline=None)
@given(shared=TREES, other=TREES, uniform=uniform_rows())
def test_dumps_is_the_stdlib_rendering(shared, other, uniform):
    # the same subtree object twice at one depth and once at another, next to
    # rows that are equal (1 == True) or alike (1, "1") but render differently
    row = [1, True, "1"]
    tree = {"twice": [shared, shared], "once": shared, "é\n": other,
            "rows": ROWS + [row], "deeper": [[row, ROWS], {"k": ROWS}]}
    # shared first renders inside a shared container that recurs at three depths,
    # so a kept text holds kept texts; and shared empty containers
    outer = {"s": shared, "t": [shared, other]}
    nested = {"a": outer, "b": [outer, outer, shared], "c": [[outer], shared]}
    empty_list, empty_dict = [], {}
    empties = {"l": [empty_list, empty_list, {"x": empty_list}],
               "d": [empty_dict, [empty_dict, empty_dict]], "both": [empty_list, empty_dict] * 2}
    tables = {"rows": uniform, "again": [uniform, uniform[:1], shared]}
    for obj in (shared, other, tree, [tree, tree], nested, [nested, [nested]], empties,
                uniform, tables):
        assert jsonio.dumps(obj) == stdlib_dumps(obj)


@pytest.mark.parametrize("command,payload,count", [
    (["moduli", "strata"], {"group": [6], "coeff_order": 6,
                            "covering": {"genus_x": 20, "group_order": 6, "orbit_orders": [6, 6]},
                            "model": {"kind": "gl", "r": 3}}, ("count", 600)),
    (["cocycle", "h2"], {"group": [24], "coeff_order": 24}, ("classes", 24)),
])
def test_large_outputs_are_the_stdlib_rendering(tmp_path, command, payload, count):
    code, text = invoke(tmp_path, command, payload)
    assert code == 0 and result_of(text)[count[0]] == count[1]
    assert text == stdlib_dumps(json.loads(text))


@pytest.mark.parametrize("factors,m", [([1], 3), ([2], 2 ** 40), ([6], 6), ([2, 4], 2),
                                        ([4, 2], 4), ([1, 4], 2), ([2, 1, 2], 2), ([2, 2, 2], 2)])
def test_h2_tables_are_the_rendering_of_their_cells(tmp_path, factors, m):
    code, text = invoke(tmp_path, ["cocycle", "h2"], {"group": factors, "coeff_order": m})
    reps = h2_classes(FiniteAbelianGroup(factors), m)
    expected = {"classes": len(reps), "representatives": list(map(helpers.cochain_to_json, reps))}
    assert code == 0
    assert text == stdlib_dumps({"result": expected, "audit": json.loads(text)["audit"]})


@pytest.mark.parametrize("n,m,r", [(1, 3, 1), (2, 4, 2), (4, 6, 2), (6, 3, 1)])
def test_transport_tables_are_the_rendering_of_their_cells(tmp_path, n, m, r):
    sigma = helpers.random_pseudorep(random.Random(n * m * r), n, m, r)
    payload = {"ambient_group": [n], "gamma0": [0], "generator_image": [1 % n],
               "pseudorep": helpers.pseudorep_to_json(sigma)}
    code, text = invoke(tmp_path, ["pseudorep", "transport"], payload)
    assert code == 0
    assert text == stdlib_dumps({"result": payload["pseudorep"],
                                 "audit": json.loads(text)["audit"]})


def test_tables_of_two_moduli_render_apart_in_one_output():
    # cells with equal (i, j, k) but another m, or another depth, render apart,
    # also in two groups of one order; the oracle's own [i, j, "k/m"] lists are
    # rendered as scalar rows alongside
    g, cyclic = FiniteAbelianGroup([2, 2]), FiniteAbelianGroup([4])
    tables = [h2_classes(g, 2)[-1], h2_classes(g, 4)[-1], h2_classes(cyclic, 4)[-1],
              h2_classes(g, 6)[-1]]
    encoded = [jsonio.cochain_to_json(c) for c in tables]
    oracle = [helpers.cochain_to_json(c) for c in tables]
    obj = [encoded, {"deeper": [encoded[::-1]], "oracle": oracle}, encoded[0]]
    expected = [oracle, {"deeper": [oracle[::-1]], "oracle": oracle}, oracle[0]]
    assert jsonio.dumps(obj) == stdlib_dumps(expected)


def test_tables_of_one_shape_render_alike_across_dumps_calls():
    # the cell heads of a table are kept per (depth, n) from one dumps call to
    # the next: tables of one order and depth over other moduli, in separate calls
    g, cyclic = FiniteAbelianGroup([2, 2]), FiniteAbelianGroup([4])
    tables = [h2_classes(g, 2)[-1], h2_classes(cyclic, 4)[-1], h2_classes(g, 6)[-1],
              h2_classes(cyclic, 2)[-1], h2_classes(g, 2)[0]]
    for wrap in (lambda c: {"c": c}, lambda c: [[c]], lambda c: {"c": c}):
        for c in tables:
            assert (jsonio.dumps(wrap(jsonio.cochain_to_json(c)))
                    == stdlib_dumps(wrap(helpers.cochain_to_json(c))))


@pytest.mark.parametrize("factors,m", [([1], 2), ([2], 2), ([3], 3), ([4], 2), ([2, 2], 2),
                                        ([2, 2], 4), ([2, 4], 2), ([3, 3], 3), ([6], 6)])
def test_extension_tables_are_the_rendering_of_their_rows(factors, m):
    kinds = set()
    for c in h2_classes(FiniteAbelianGroup(factors), m):
        ext = central_extension(c)
        encoded = jsonio.extension_to_json(ext)
        kinds.add(ext.is_abelian)
        assert encoded["table"] is ext.table  # the rows go to dumps as they are
        assert jsonio.dumps(encoded) == stdlib_dumps(
            {**encoded, "table": [list(row) for row in ext.table]})
    # a group with two cyclic factors has classes with a non-abelian extension
    assert kinds == ({True, False} if len(factors) > 1 else {True})


V = "1/3"  # a value the table has read before the hostile cell, so that it is cached


@pytest.mark.parametrize("table,code,body", [
    ([[1, 2, V], [True, 1, V]], 2,
     {"detail": "bad table index in [True, 1, '1/3']", "error": "malformed_input"}),
    ([[1, 2, V], [10 ** 70, 1, V]], 1,
     {"detail": "integer with more than 64 digits", "error": "scale_exceeded"}),
    ([[1, 2, V], [1, 1, 0.5]], 2,
     {"detail": "expected a rational string, got 0.5", "error": "malformed_input"}),
    ([[1, 2, V], [1, 1]], 2, {"detail": "bad table entry [1, 1]", "error": "malformed_input"}),
    ([[1, 2, V], [2, 1, V], [1, 2, V]], 2,
     {"detail": "duplicate table entry (1, 2)", "error": "malformed_input"}),
    ([[1, 2, V], [1, 1, "1/2"]], 2,
     {"detail": "value '1/2' is not an m-th root of unity exponent", "error": "malformed_input"}),
    ([[1, 2, V], [1, 1, "1/" + "3" * 65]], 1,
     {"detail": "rational with more than 64 digits in its numerator or denominator",
      "error": "scale_exceeded"}),
])
def test_hostile_table_cells_keep_their_errors(tmp_path, table, code, body):
    # each (exit, stdout) pair is the one the decoder gave before cells it had
    # read a value for were stored without the per-cell checks
    out = invoke(tmp_path, ["cocycle", "verify"], {"group": [3], "coeff_order": 3, "table": table})
    assert out == (code, stdlib_dumps(body))


def test_strata_encode_each_cocycle_and_class_once(monkeypatch):
    # 6 H^2 classes times 10 quotient classes per orbit, both orbits of order 6
    strata = enumerate_strata(FiniteAbelianGroup([6]), 6, CoveringData(20, 6, (6, 6)),
                              GroupModel("gl", r=3))
    assert len(strata) == 600
    calls = {"cochain_to_json": 0, "quotient_class_to_json": 0}
    for name in calls:
        def counted(x, name=name, encode=getattr(jsonio, name)):
            calls[name] += 1
            return encode(x)
        monkeypatch.setattr(jsonio, name, counted)
    dumps = jsonio.dumps

    def reentered(obj):
        raise AssertionError("the strata renderer called the public dumps")
    monkeypatch.setattr(jsonio, "dumps", reentered)
    text = dumps({"strata": jsonio.strata_to_json(strata)})
    assert calls == {"cochain_to_json": 6, "quotient_class_to_json": 10}
    monkeypatch.undo()
    assert text == stdlib_dumps({"strata": helpers.strata_to_json(strata)})


@st.composite
def strata_payloads(draw):
    """A `moduli strata` request: a cyclic deck group of order at most 8
    (order 1 included), m <= 6, gl or sl of rank <= 3, and up to three branch
    orbits (none for the trivial group)."""
    n = draw(st.integers(1, 8))
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    orbits = draw(st.lists(st.sampled_from(divisors), max_size=3)) if divisors else []
    return {"group": [n], "coeff_order": draw(st.integers(1, 6)),
            "covering": {"genus_x": draw(st.integers(2, 9)), "group_order": n,
                         "orbit_orders": orbits},
            "model": {"kind": draw(st.sampled_from(["gl", "sl"])), "r": draw(st.integers(1, 3))}}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=strata_payloads())
def test_strata_text_is_the_rendering_of_one_dict_per_stratum(tmp_path, payload):
    code, text = invoke(tmp_path, ["moduli", "strata"], payload)
    try:
        strata = enumerate_strata(FiniteAbelianGroup(payload["group"]), payload["coeff_order"],
                                  jsonio.covering_from_json(payload["covering"]),
                                  jsonio.model_from_json(payload["model"]))
    except ScaleExceeded as exc:  # the cells of three orbits of order 8 can pass the cap
        assert (code, json.loads(text)) == (1, {"error": exc.code, "detail": exc.detail})
        return
    expected = {"count": len(strata), "strata": helpers.strata_to_json(strata)}
    assert code == 0
    assert text == stdlib_dumps({"result": expected, "audit": json.loads(text)["audit"]})


def test_dumps_leaves_no_reference_cycle():
    # a recursive emitter that is a closure over itself would leave a cycle
    # holding the output list and the caches until the collector runs
    shared = {"a": [1, "x", [True, None]], "b": {"c": [], "d": [[1, 2], [1, 2]]}}
    tree = {"one": shared, "two": [shared, shared, {"s": shared}], "rows": [[1, "2"]] * 3}
    strata = enumerate_strata(FiniteAbelianGroup([4]), 2, CoveringData(3, 4, (2, 4)),
                              GroupModel("gl", r=2))
    enabled = gc.isenabled()
    gc.disable()
    try:
        for obj in (tree, {"strata": jsonio.strata_to_json(strata)}):
            gc.collect()
            jsonio.dumps(obj)
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


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
    (["local", "check"], make_series_payload(), ["terms", 0, "basis", 0]),
    (["moduli", "scale"], SCALE, ["group_order"]),
    (["moduli", "rh"], {"genus_x": 2, "group_order": 2, "orbit_orders": [2, 2]},
     ["group_order"]),
])
def test_json_booleans_are_not_numbers(tmp_path, command, payload, path):
    code, text = invoke(tmp_path, command, payload)
    assert code == 0, text
    code, text = invoke(tmp_path, command, _set(payload, path, True))
    assert code == 2 and json.loads(text)["error"] == "malformed_input", text


@pytest.mark.parametrize("key", [[1.9, 0], [1.0, 0], ["1", 0]])
def test_basis_keys_must_be_ints(tmp_path, key):
    code, text = invoke(tmp_path, ["local", "check"],
                        _set(make_series_payload(), ["terms", 0, "basis"], key))
    out = json.loads(text)
    assert code == 2 and out["error"] == "malformed_input"
    assert "'basis'" in out["detail"]


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
    assert len(verbs_accepting("--out")) == len(VERBS) + 1  # corpus run too


def test_corpus_run_reports_a_case_with_bad_args(tmp_path):
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    case = json.loads((corpus / "local_residue_mixed.json").read_text())
    (tmp_path / "a.json").write_text(json.dumps({**case, "args": ["--working-order", "4"]}))
    (tmp_path / "b.json").write_text((corpus / "moduli_rh_elliptic_quotient.json").read_text())
    code, text = run_command(["corpus", "run", str(tmp_path)])
    assert code == 1
    assert text.splitlines() == ["FAIL a.json (bad args ['--working-order', '4'])",
                                 "ok b.json", "1/2 cases passed"]


@pytest.mark.parametrize("command,payload,detail", [
    (["pseudorep", "enumerate"], {"order": 0, "rank": 2}, "must be positive"),
    (["pseudorep", "enumerate"], {"order": -3, "rank": 2}, "must be positive"),
    (["pseudorep", "enumerate"], {"order": 3, "rank": -2}, "must be positive"),
    (["moduli", "degree"], {"s": ["0"], "pieces": [{"value": "0", "rank": 1, "degree": 0}],
                            "corrections": 5}, "'corrections'"),
    (["cocycle", "zeta"], [{"group": [2], "coeff_order": 2, "table": []}, [1]], "'cochain'"),
    (["pseudorep", "project"], _set(PROJECT, ["class", "order"], 0), "must be positive"),
    (["pseudorep", "project"], _set(PROJECT, ["class", "order"], -3), "must be positive"),
])
def test_inputs_are_checked_where_they_are_read(tmp_path, command, payload, detail):
    code, text = invoke(tmp_path, command, payload)
    out = json.loads(text)
    assert code == 2 and out["error"] == "malformed_input", text
    assert detail in out["detail"]


def test_strata_count_checked_as_the_orbits_multiply(tmp_path):
    # 24^10000 strata: the classes of order 24 are enumerated once, and the count
    # stops growing once it passes the bound, so it is never printed
    payload = {"group": [24], "coeff_order": 1, "model": {"kind": "gl", "r": 1},
               "covering": {"genus_x": 2, "group_order": 24, "orbit_orders": [24] * 10000}}
    start = time.perf_counter()
    code, text = invoke(tmp_path, ["moduli", "strata"], payload)
    assert time.perf_counter() - start < 1
    out = json.loads(text)
    assert code == 1 and out["error"] == "scale_exceeded"
    assert "first 5 orbits" in out["detail"]
    assert out["detail"] == (f"the first 5 orbits already give {24 ** 5} strata, "
                             f"above the bound {DEFAULT_SCALE_BOUND}")


def flag_payload(values, degrees, corrections):
    return {"s": values, "pieces": [{"value": v, "rank": 1, "degree": d}
                                    for v, d in zip(values, degrees)],
            "corrections": corrections}


@pytest.mark.parametrize("payload,cap", [
    (flag_payload(["9" * 4000], [int("9" * 4000)], []), MAX_RATIONAL_DIGITS),
    (flag_payload(["1"], [10 ** MAX_RATIONAL_DIGITS], []), MAX_RATIONAL_DIGITS),
    (flag_payload(["1"], [1], ["1/" + "7" * (MAX_RATIONAL_DIGITS + 1)]), MAX_RATIONAL_DIGITS),
    (flag_payload([str(i) for i in range(MAX_FLAG_PIECES + 1)], [1] * (MAX_FLAG_PIECES + 1),
                  []), MAX_FLAG_PIECES),
    (flag_payload(["1"], [1], [f"1/{p}" for p in range(3, 3 + MAX_FLAG_CORRECTIONS + 1)]),
     MAX_FLAG_CORRECTIONS),
])
def test_flag_digits_and_sizes_capped_at_parse_time(tmp_path, payload, cap):
    code, text = invoke(tmp_path, ["moduli", "degree"], payload)
    out = json.loads(text)
    assert code == 1 and out["error"] == "scale_exceeded", text
    assert str(cap) in out["detail"]
    if cap != MAX_RATIONAL_DIGITS:  # a count cap: the detail gives the counts received
        assert out["detail"].endswith(
            f", got {len(payload['pieces'])} and {len(payload['corrections'])}")


def test_pairing_at_the_flag_caps_prints(tmp_path):
    # the largest pairing the caps allow: every value, degree and correction at
    # the digit cap, and coprime denominators, so the lcm has their total digits
    primes = [sympy.prevprime(10 ** MAX_RATIONAL_DIGITS)]
    while len(primes) < MAX_FLAG_PIECES + MAX_FLAG_CORRECTIONS:
        primes.append(sympy.prevprime(primes[-1]))
    top = 10 ** MAX_RATIONAL_DIGITS - 1
    values = [f"{top - i}/{p}" for i, p in enumerate(primes[:MAX_FLAG_PIECES])]
    corrections = [f"{top}/{p}" for p in primes[MAX_FLAG_PIECES:]]
    payload = flag_payload(values, [top] * MAX_FLAG_PIECES, corrections)
    code, text = invoke(tmp_path, ["moduli", "degree"], payload)
    assert code == 0, text
    pairing = Fraction(result_of(text)["pairing"])
    expected = sum(Fraction(v) * top for v in values) + sum(map(Fraction, corrections))
    assert pairing == expected and len(str(pairing.denominator)) > 3000


# the longest int json.load reads (4300 digits); a product or lcm with it
# would print past Python's 4300-digit limit
LONGEST = 9 * 10 ** 4299
SERIES_GL1 = {"model": {"kind": "gl", "r": 1}, "alpha": ["0"], "N": 8192,
              "variable": "w", "trunc": 0, "terms": []}
ORDER_7 = {"order": 7, "coeffs": ["1", "0", "0", "0", "0", "0"]}


@pytest.mark.parametrize("command,payload", [
    (["pseudorep", "enumerate"], {"order": 10 ** 4000, "rank": 10 ** 4000}),
    (["cocycle", "extend"], {"group": [12], "coeff_order": LONGEST, "table": []}),
    (["pseudorep", "verify"], _set(TRANSPORT["pseudorep"], ["cocycle", "coeff_order"], LONGEST)),
    (["pseudorep", "classify"], _set(TRANSPORT["pseudorep"], ["cocycle", "coeff_order"], LONGEST)),
    (["local", "check"], {**SERIES_GL1, "N": LONGEST, "variable": "z",
                          "terms": [{"basis": [0, 0], "k": 0, "coeff": ORDER_7}]}),
    (["local", "ascend"], {**SERIES_GL1, "trunc": int("9" * 4299)}),
    (["local", "ascend"], {**SERIES_GL1, "terms": [{"basis": [0, 0], "k": -LONGEST,
                                                    "coeff": "1"}]}),
    (["pseudorep", "project"], _set(PROJECT, ["scalar_order"], 10 ** MAX_RATIONAL_DIGITS)),
])
def test_wire_ints_capped_at_parse_time(tmp_path, command, payload):
    code, text = invoke(tmp_path, command, payload)
    out = json.loads(text)
    assert code == 1 and out["error"] == "scale_exceeded", text
    assert str(MAX_RATIONAL_DIGITS) in out["detail"]


def test_group_order_checked_as_the_factors_multiply(tmp_path):
    # each factor is within the digit cap, but their product would print past 4300 digits
    top = 10 ** MAX_RATIONAL_DIGITS - 1
    code, text = invoke(tmp_path, ["cocycle", "h2"], {"group": [top] * 80, "coeff_order": 2})
    out = json.loads(text)
    assert code == 1 and out["error"] == "scale_exceeded", text
    assert "first 1 factors" in out["detail"]


def test_corpus_run_reports_bad_case_files(tmp_path):
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    case = json.loads((corpus / "moduli_rh_elliptic_quotient.json").read_text())
    (tmp_path / "a.json").write_text(json.dumps({**case, "args": 5}))
    (tmp_path / "b.json").write_text(json.dumps({k: v for k, v in case.items()
                                                 if k != "expected_output"}))
    (tmp_path / "c.json").write_text(json.dumps(case))
    code, text = run_command(["corpus", "run", str(tmp_path)])
    assert code == 1
    assert text.splitlines() == ["FAIL a.json (bad case file: field 'args' has wrong type)",
                                 "FAIL b.json (bad case file: missing field 'expected_output')",
                                 "ok c.json", "1/3 cases passed"]


def test_corpus_run_reports_a_long_int_in_a_case_file(tmp_path):
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    case = json.loads((corpus / "moduli_rh_elliptic_quotient.json").read_text())
    (tmp_path / "a.json").write_text(json.dumps({**case, "expected_exit": 10 ** 70}))
    code, text = run_command(["corpus", "run", str(tmp_path)])
    assert code == 1
    assert text.splitlines() == [
        f"FAIL a.json (bad case file: integer with more than {MAX_RATIONAL_DIGITS} digits)",
        "0/1 cases passed"]


def test_corpus_run_reports_a_deeply_nested_case_file(tmp_path):
    (tmp_path / "a.json").write_text("[" * 100_000 + "]" * 100_000)
    code, text = run_command(["corpus", "run", str(tmp_path)])
    assert code == 1
    lines = text.splitlines()
    assert lines[0].startswith("FAIL a.json (bad case file: maximum recursion depth")
    assert lines[1:] == ["0/1 cases passed"]


def test_corpus_run_fails_a_case_of_corpus_run(tmp_path):
    # `corpus run` takes a directory, not an input, so no case can run it
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    case = json.loads((corpus / "moduli_rh_elliptic_quotient.json").read_text())
    (tmp_path / "a.json").write_text(json.dumps({**case, "command": ["corpus", "run"]}))
    code, text = run_command(["corpus", "run", str(tmp_path)])
    assert code == 1
    assert text.splitlines() == ["FAIL a.json (exit 2, expected 0)", "0/1 cases passed"]


def test_corpus_run_lets_a_program_bug_surface(tmp_path, monkeypatch):
    # a bug in a command is not a bad case file: it must reach the caller
    import orbipar.cli

    def broken(args, payload):
        raise TypeError("a program bug")

    monkeypatch.setattr(orbipar.cli, "_dispatch", broken)
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    (tmp_path / "a.json").write_text((corpus / "moduli_rh_elliptic_quotient.json").read_text())
    with pytest.raises(TypeError, match="a program bug"):
        orbipar.cli.run_corpus(str(tmp_path))
