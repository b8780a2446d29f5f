"""Command line interface: every operation over JSON files, plus a golden
corpus runner.

Exit codes: 0 success, 1 precondition/domain error (machine-readable
{"error": code, "detail": ...}), 2 malformed input.  Outputs are
byte-deterministic: canonical key order, canonically sorted lists, no
timestamps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import lru_cache

from . import jsonio
from .cocycles import (DEFAULT_SCALE_BOUND, FiniteAbelianGroup,
                       central_extension, h2_classes, is_cocycle, zeta)
from .errors import DomainError, MalformedInput
from .liemodel import alcove_normalize, isotropy_eigenspaces, parabolic_from_s
from .localseries import ascend, check_invariance, descend, residue_report
from .moduli import (degree_pairing, degree_scaling_check, enumerate_strata,
                     riemann_hurwitz, stability_verdict)
from .pseudoreps import (classify, deck_transport, enumerate_classes,
                         project_mod_center, verify_pseudorep)
from .scalars import check_order, rational


# -- command handlers ---------------------------------------------------------

def _audit(command, **params):
    return {"command": command, **params}


def cmd_cocycle_verify(payload, args):
    c = jsonio.cochain_from_json(payload)
    verdict = is_cocycle(c)
    witness = None if verdict.witness is None else [list(e) for e in verdict.witness]
    return ({"is_cocycle": verdict.ok, "witness": witness},
            _audit("cocycle verify", group=list(c.group.factors),
                   coeff_order=c.coefficients.order))


def cmd_cocycle_h2(payload, args):
    m = jsonio.coeff_order_from_json(payload)
    group = FiniteAbelianGroup(jsonio.int_list_from_json(payload, "group"))
    reps = h2_classes(group, m, args.scale_bound)
    return ({"classes": len(reps),
             "representatives": [jsonio.cochain_to_json(r) for r in reps]},
            _audit("cocycle h2", group=list(group.factors), coeff_order=m,
                   scale_bound=args.scale_bound))


def cmd_cocycle_extend(payload, args):
    c = jsonio.cochain_from_json(payload)
    ext = central_extension(c)
    return (jsonio.extension_to_json(ext),
            _audit("cocycle extend", group=list(c.group.factors),
                   coeff_order=c.coefficients.order))


def cmd_cocycle_zeta(payload, args):
    c = jsonio.cochain_from_json(payload.get("cochain"))
    element = tuple(jsonio.int_list_from_json(payload, "element"))
    if element not in c.group.index:
        raise MalformedInput(f"{list(element)} is not an element of the group")
    value = zeta(c, element)
    return ({"zeta": str(value.value), "element_order": c.group.element_order(element)},
            _audit("cocycle zeta", group=list(c.group.factors),
                   coeff_order=c.coefficients.order))


def cmd_pseudorep_verify(payload, args):
    sigma = jsonio.pseudorep_from_json(payload)
    verdict = verify_pseudorep(sigma)
    witness = None if verdict.witness is None else [list(e) for e in verdict.witness]
    return ({"valid": verdict.ok, "witness": witness},
            _audit("pseudorep verify", order=sigma.order,
                   coeff_order=sigma.cochain.coefficients.order, rank=sigma.size))


def cmd_pseudorep_classify(payload, args):
    sigma = jsonio.pseudorep_from_json(payload)
    cls = classify(sigma)
    return (jsonio.rep_class_to_json(cls),
            _audit("pseudorep classify", order=sigma.order, rank=sigma.size,
                   convention="zero_one"))


def cmd_pseudorep_enumerate(payload, args):
    n = jsonio._need(payload, "order", int)
    r = jsonio._need(payload, "rank", int)
    z = jsonio.rational_from_json(payload.get("zeta", "0"))
    model = payload.get("model", "gl")
    classes = enumerate_classes(n, r, z, model)
    return ({"count": len(classes),
             "classes": [jsonio.rep_class_to_json(c) for c in classes]},
            _audit("pseudorep enumerate", order=n, rank=r, zeta=str(z % 1),
                   model=model))


def cmd_pseudorep_transport(payload, args):
    sigma = jsonio.pseudorep_from_json(jsonio._need(payload, "pseudorep"))
    ambient = FiniteAbelianGroup(jsonio.int_list_from_json(payload, "ambient_group"))
    gamma0 = tuple(jsonio.int_list_from_json(payload, "gamma0"))
    gen_image = tuple(jsonio.int_list_from_json(payload, "generator_image"))
    out = deck_transport(sigma, gamma0, ambient, gen_image)
    return (jsonio.pseudorep_to_json(out),
            _audit("pseudorep transport", order=sigma.order,
                   ambient=list(ambient.factors), gamma0=list(gamma0)))


def cmd_pseudorep_project(payload, args):
    cls = jsonio.rep_class_from_json(jsonio._need(payload, "class"))
    m = jsonio._need(payload, "scalar_order", int)
    out = project_mod_center(cls, m)
    return (jsonio.quotient_class_to_json(out),
            _audit("pseudorep project", order=cls.order, scalar_order=m))


def cmd_lie_alcove(payload, args):
    model = jsonio.model_from_json(jsonio._need(payload, "model"))
    exponents = [jsonio.rational_from_json(x)
                 for x in jsonio._need(payload, "exponents", list)]
    weight = alcove_normalize(model, exponents)
    return ({"alpha": jsonio.weights_to_json(weight),
             "interior": weight.is_interior()},
            _audit("lie alcove", model=jsonio.model_to_json(model),
                   convention=weight.model.weight_convention().value))


def cmd_lie_eigenspaces(payload, args):
    model = jsonio.model_from_json(jsonio._need(payload, "model"))
    weight = jsonio.weight_vector_from_json(model, jsonio._need(payload, "alpha", list))
    spaces = isotropy_eigenspaces(model, weight)
    out = []
    for beta, idxs in spaces:
        keys = sorted(model.basis_key(i) for i in idxs)
        out.append({"beta": str(beta.value), "dimension": len(idxs),
                    "basis": [[i, j] for i, j in keys]})
    return ({"dim_m": model.dim_m, "eigenspaces": out},
            _audit("lie eigenspaces", model=jsonio.model_to_json(model),
                   alpha=jsonio.weights_to_json(weight), convention="signed"))


def cmd_lie_parabolic(payload, args):
    model = jsonio.model_from_json(jsonio._need(payload, "model"))
    s = [jsonio.rational_from_json(x) for x in jsonio._need(payload, "s", list)]
    data = parabolic_from_s(model, s)
    result = jsonio.parabolic_to_json(data)
    result["verified"] = data.verify()
    return (result, _audit("lie parabolic", model=jsonio.model_to_json(model)))


def _resolve_order(native: int, override) -> int:
    """The working cyclotomic order: the natural lcm, or a forced positive
    multiple of it, capped before any work."""
    if override is None:
        return native
    if override < 1 or override % native != 0:
        raise MalformedInput(
            f"working order {override} is not a positive multiple of the natural order {native}")
    return check_order(override)


def _series_with_order(series, override):
    M = _resolve_order(series.working_field_order(), override)
    if override is None:
        return series, M
    terms = {key: coeff.embed(M) for key, coeff in series.terms.items()}
    return series.with_terms(terms), M


def _local_audit(command, series, M, twist=None):
    audit = _audit(command, M=M, N=series.N,
                   alpha=jsonio.weights_to_json(series.weight),
                   convention=series.weight.model.weight_convention().value)
    if twist is not None:
        audit["twist"] = str(twist)
    return audit


def cmd_local_check(payload, args):
    series = jsonio.series_from_json(payload)
    twist = rational(args.twist) if args.twist is not None else None
    report = check_invariance(series, twist)
    M = _resolve_order(series.working_field_order(), args.working_order)
    return (jsonio.invariance_to_json(report),
            _local_audit("local check", series, M, twist=report.twist))


def cmd_local_descend(payload, args):
    series = jsonio.series_from_json(payload)
    down, residue = descend(series)
    down, M = _series_with_order(down, args.working_order)
    return ({"series": jsonio.series_to_json(down),
             "residue": jsonio.residue_to_json(residue)},
            _local_audit("local descend", series, M))


def cmd_local_ascend(payload, args):
    series = jsonio.series_from_json(payload)
    up = ascend(series)
    up, M = _series_with_order(up, args.working_order)
    return ({"series": jsonio.series_to_json(up)},
            _local_audit("local ascend", series, M))


def cmd_local_residue(payload, args):
    series = jsonio.series_from_json(payload)
    report = residue_report(series)
    return (jsonio.residue_to_json(report),
            _local_audit("local residue", series, series.working_field_order()))


def cmd_moduli_rh(payload, args):
    data = jsonio.covering_from_json(payload)
    return ({"genus_y": riemann_hurwitz(data)},
            _audit("moduli rh", **jsonio.covering_to_json(data)))


def cmd_moduli_strata(payload, args):
    m = jsonio.coeff_order_from_json(payload)
    group = FiniteAbelianGroup(jsonio.int_list_from_json(payload, "group"))
    covering = jsonio.covering_from_json(jsonio._need(payload, "covering"))
    model = jsonio.model_from_json(jsonio._need(payload, "model"))
    strata = enumerate_strata(group, m, covering, model, args.scale_bound)
    return ({"count": len(strata),
             "strata": [jsonio.stratum_to_json(s) for s in strata]},
            _audit("moduli strata", group=list(group.factors), coeff_order=m,
                   model=jsonio.model_to_json(model),
                   scale_bound=args.scale_bound))


def cmd_moduli_degree(payload, args):
    flag = jsonio.flag_from_json(payload)
    return ({"pairing": str(degree_pairing(flag))},
            _audit("moduli degree", rank=flag.rank))


def cmd_moduli_stability(payload, args):
    candidates = [jsonio.flag_from_json(f)
                  for f in jsonio._need(payload, "candidates", list)]
    mode = jsonio._need(payload, "mode", str)
    verdict = stability_verdict(candidates, mode)
    return ({"mode": verdict.mode, "ok": verdict.ok,
             "violator": verdict.violator,
             "pairing": None if verdict.pairing is None else str(verdict.pairing)},
            _audit("moduli stability", mode=mode, candidates=len(candidates)))


def cmd_moduli_scale(payload, args):
    par = jsonio.rational_from_json(jsonio._need(payload, "parabolic_degree_y"))
    n = jsonio._need(payload, "group_order", int)
    claimed = jsonio.rational_from_json(jsonio._need(payload, "claimed_degree_x"))
    report = degree_scaling_check(par, n, claimed)
    return ({"scaling_ok": report.scaling_ok, "integral": report.integral},
            _audit("moduli scale", group_order=n))


HANDLERS = {
    ("cocycle", "verify"): cmd_cocycle_verify,
    ("cocycle", "h2"): cmd_cocycle_h2,
    ("cocycle", "extend"): cmd_cocycle_extend,
    ("cocycle", "zeta"): cmd_cocycle_zeta,
    ("pseudorep", "verify"): cmd_pseudorep_verify,
    ("pseudorep", "classify"): cmd_pseudorep_classify,
    ("pseudorep", "enumerate"): cmd_pseudorep_enumerate,
    ("pseudorep", "transport"): cmd_pseudorep_transport,
    ("pseudorep", "project"): cmd_pseudorep_project,
    ("lie", "alcove"): cmd_lie_alcove,
    ("lie", "eigenspaces"): cmd_lie_eigenspaces,
    ("lie", "parabolic"): cmd_lie_parabolic,
    ("local", "check"): cmd_local_check,
    ("local", "descend"): cmd_local_descend,
    ("local", "ascend"): cmd_local_ascend,
    ("local", "residue"): cmd_local_residue,
    ("moduli", "rh"): cmd_moduli_rh,
    ("moduli", "strata"): cmd_moduli_strata,
    ("moduli", "degree"): cmd_moduli_degree,
    ("moduli", "stability"): cmd_moduli_stability,
    ("moduli", "scale"): cmd_moduli_scale,
}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by later ones;
    parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="orbipar",
        description="Exact local models for equivariant Higgs fields: cocycles, "
                    "pseudorepresentations, parabolic masks, and descent.")
    nouns = parser.add_subparsers(dest="noun", required=True)
    for noun in ("cocycle", "pseudorep", "lie", "local", "moduli"):
        sub = nouns.add_parser(noun)
        verbs = sub.add_subparsers(dest="verb", required=True)
        for (n, v) in HANDLERS:
            if n != noun:
                continue
            leaf = verbs.add_parser(v)
            leaf.add_argument("input", help="input JSON file")
            leaf.add_argument("-o", "--out", help="output file (default stdout)")
            # every other flag exists only on the verbs whose handlers read it
            if (n, v) in (("cocycle", "h2"), ("moduli", "strata")):
                leaf.add_argument("--scale-bound", type=int, default=DEFAULT_SCALE_BOUND,
                                  help="bound on the output size: classes or strata")
            if n == "local" and v != "residue":
                leaf.add_argument("--working-order", type=int, default=None,
                                  help="embed output cyclotomics in Q(zeta_M)")
            if (n, v) == ("local", "check"):
                leaf.add_argument("--twist", default=None,
                                  help="character twist as a rational p/q")
    corpus = nouns.add_parser("corpus")
    cverbs = corpus.add_subparsers(dest="verb", required=True)
    run = cverbs.add_parser("run")
    run.add_argument("directory", help="directory of golden case files")
    run.add_argument("-o", "--out", help="output file (default stdout)")
    return parser


def run_command(argv) -> tuple[int, str]:
    """Execute one CLI invocation, returning (exit code, output text)."""
    return _execute(build_parser().parse_args(argv))


def _execute(args) -> tuple[int, str]:
    if (args.noun, args.verb) == ("corpus", "run"):
        return run_corpus(args.directory)
    handler = HANDLERS[(args.noun, args.verb)]
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError, or an int past the digit limit
        return 2, jsonio.dumps({"error": "malformed_input", "detail": str(exc)})
    try:
        result, audit = handler(payload, args)
    except MalformedInput as exc:
        return 2, jsonio.dumps({"error": exc.code, "detail": exc.detail})
    except DomainError as exc:
        return 1, jsonio.dumps({"error": exc.code, "detail": exc.detail})
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return 2, jsonio.dumps({"error": "malformed_input",
                                "detail": f"{type(exc).__name__}: {exc}"})
    return 0, jsonio.dumps({"result": result, "audit": audit})


def run_corpus(directory) -> tuple[int, str]:
    """Replay every golden case file; a case passes when its rendered output
    is byte-identical to the rendering of its expected output."""
    try:
        names = sorted(f for f in os.listdir(directory) if f.endswith(".json"))
    except OSError as exc:
        return 2, jsonio.dumps({"error": "malformed_input", "detail": str(exc)})
    lines = []
    failures = 0
    for name in names:
        path = os.path.join(directory, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                case = json.load(fh)
            command = case["command"]
            extra = [str(x) for x in case.get("args", [])]
            expected_code = int(case.get("expected_exit", 0))
            expected = jsonio.dumps(case["expected_output"])
            with tempfile.TemporaryDirectory() as tmp:
                inpath = os.path.join(tmp, "input.json")
                with open(inpath, "w", encoding="utf-8") as fh:
                    json.dump(case["input"], fh)
                code, text = run_command([*command, inpath, *extra])
            if code == expected_code and text == expected:
                lines.append(f"ok {name}")
            else:
                failures += 1
                lines.append(f"FAIL {name} (exit {code}, expected {expected_code})")
        except (KeyError, TypeError, ValueError, OSError) as exc:
            failures += 1
            lines.append(f"FAIL {name} (bad case file: {exc})")
        except SystemExit:  # argparse rejected the case's args and printed why to stderr
            failures += 1
            lines.append(f"FAIL {name} (bad args {extra})")
    lines.append(f"{len(names) - failures}/{len(names)} cases passed")
    return (0 if failures == 0 and names else 1), "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code, text = _execute(args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
