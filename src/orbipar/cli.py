"""Command line interface: every operation over JSON files, plus a golden
corpus runner.

Exit codes: 0 success, 1 precondition/domain error (machine-readable
{"error": code, "detail": ...}), 2 malformed input.  Outputs are
byte-deterministic: canonical key order, canonically sorted lists, no
timestamps.  A well-formed argv is read off the verb table (parse_argv);
argparse is built only for help, usage errors and other spellings.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from functools import lru_cache

from . import jsonio
from .cocycles import (DEFAULT_SCALE_BOUND, abelian_group, central_extension,
                       h2_classes, is_cocycle, zeta)
from .errors import DomainError, MalformedInput, ScaleExceeded
from .liemodel import alcove_normalize, isotropy_eigenspaces, parabolic_from_s
from .localseries import ascend, check_invariance, descend, residue_report
from .moduli import (degree_pairing, degree_scaling_check, enumerate_strata,
                     riemann_hurwitz, stability_verdict)
from .pseudoreps import (classify, deck_transport, enumerate_classes,
                         project_mod_center, verify_pseudorep)
from .scalars import check_order


# -- command handlers ---------------------------------------------------------

def cmd_cocycle_verify(payload, args):
    c = jsonio.cochain_from_json(payload)
    verdict = is_cocycle(c)
    return ({"is_cocycle": verdict.ok, "witness": verdict.witness},
            dict(group=list(c.group.factors), coeff_order=c.coeff_order))


def cmd_cocycle_h2(payload, args):
    m = jsonio.coeff_order_from_json(payload)
    group = abelian_group(tuple(jsonio.int_list_from_json(payload, "group")))
    reps = h2_classes(group, m, args.scale_bound)
    return ({"classes": len(reps),
             "representatives": [jsonio.cochain_to_json(r) for r in reps]},
            dict(group=list(group.factors), coeff_order=m, scale_bound=args.scale_bound))


def cmd_cocycle_extend(payload, args):
    c = jsonio.cochain_from_json(payload)
    ext = central_extension(c)
    return (jsonio.extension_to_json(ext),
            dict(group=list(c.group.factors), coeff_order=c.coeff_order))


def cmd_cocycle_zeta(payload, args):
    c = jsonio.cochain_from_json(jsonio._need(payload, "cochain"))
    element = tuple(jsonio.int_list_from_json(payload, "element"))
    if element not in c.group.index:
        raise MalformedInput(f"{list(element)} is not an element of the group")
    value = zeta(c, element)
    return ({"zeta": str(value), "element_order": c.group.element_order(element)},
            dict(group=list(c.group.factors), coeff_order=c.coeff_order))


def cmd_pseudorep_verify(payload, args):
    sigma = jsonio.pseudorep_from_json(payload)
    verdict = verify_pseudorep(sigma)
    return ({"valid": verdict.ok, "witness": verdict.witness},
            dict(order=sigma.order, coeff_order=sigma.cochain.coeff_order, rank=sigma.size))


def cmd_pseudorep_classify(payload, args):
    sigma = jsonio.pseudorep_from_json(payload)
    cls = classify(sigma)
    return (jsonio.rep_class_to_json(cls),
            dict(order=sigma.order, rank=sigma.size, convention="zero_one"))


def cmd_pseudorep_enumerate(payload, args):
    n = jsonio._need(payload, "order", int)
    r = jsonio._need(payload, "rank", int)
    z = jsonio.rational_from_json(jsonio._field(payload, "zeta", None, "0"))
    model = jsonio._field(payload, "model", str, "gl")
    classes = enumerate_classes(n, r, z, model)
    return ({"count": len(classes),
             "classes": [jsonio.rep_class_to_json(c) for c in classes]},
            dict(order=n, rank=r, zeta=str(z % 1), model=model))


def cmd_pseudorep_transport(payload, args):
    sigma = jsonio.pseudorep_from_json(jsonio._need(payload, "pseudorep"))
    ambient = abelian_group(tuple(jsonio.int_list_from_json(payload, "ambient_group")))
    gamma0 = tuple(jsonio.int_list_from_json(payload, "gamma0"))
    gen_image = tuple(jsonio.int_list_from_json(payload, "generator_image"))
    out = deck_transport(sigma, gamma0, ambient, gen_image)
    return (jsonio.pseudorep_to_json(out),
            dict(order=sigma.order, ambient=list(ambient.factors), gamma0=list(gamma0)))


def cmd_pseudorep_project(payload, args):
    cls = jsonio.rep_class_from_json(jsonio._need(payload, "class"))
    m = jsonio._need(payload, "scalar_order", int)
    out = project_mod_center(cls, m)
    return jsonio.quotient_class_to_json(out), dict(order=cls.order, scalar_order=m)


def cmd_lie_alcove(payload, args):
    model = jsonio.model_from_json(jsonio._need(payload, "model"))
    exponents = [jsonio.rational_from_json(x)
                 for x in jsonio._need(payload, "exponents", list)]
    weight = alcove_normalize(model, exponents)
    return ({"alpha": jsonio.weights_to_json(weight),
             "interior": weight.is_interior()},
            dict(model=jsonio.model_to_json(model), convention=model.weight_convention()))


def cmd_lie_eigenspaces(payload, args):
    model = jsonio.model_from_json(jsonio._need(payload, "model"))
    weight = jsonio.weight_vector_from_json(model, jsonio._need(payload, "alpha", list))
    spaces = isotropy_eigenspaces(weight)
    out = [{"beta": str(beta), "dimension": len(keys),
            "basis": [list(key) for key in sorted(keys)]} for beta, keys in spaces]
    return ({"dim_m": model.dim_m, "eigenspaces": out},
            dict(model=jsonio.model_to_json(model), alpha=jsonio.weights_to_json(weight),
                 convention="signed"))


def cmd_lie_parabolic(payload, args):
    model = jsonio.model_from_json(jsonio._need(payload, "model"))
    s = [jsonio.rational_from_json(x) for x in jsonio._need(payload, "s", list)]
    data = parabolic_from_s(model, s)
    result = jsonio.parabolic_to_json(data)
    result["verified"] = data.verify()
    return result, dict(model=jsonio.model_to_json(model))


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


def _local_audit(series, M):
    return dict(M=M, N=series.N, alpha=jsonio.weights_to_json(series.weight),
                convention=series.model.weight_convention())


def cmd_local_check(payload, args):
    series = jsonio.series_from_json(payload)
    twist = None if args.twist is None else jsonio.rational_from_json(args.twist)
    report = check_invariance(series, twist)
    M = _resolve_order(series.working_field_order(), args.working_order)
    return (jsonio.invariance_to_json(report),
            dict(_local_audit(series, M), twist=str(report.twist)))


def cmd_local_descend(payload, args):
    series = jsonio.series_from_json(payload)
    down, residue = descend(series)
    down, M = _series_with_order(down, args.working_order)
    return ({"series": jsonio.series_to_json(down),
             "residue": jsonio.residue_to_json(residue)},
            _local_audit(series, M))


def cmd_local_ascend(payload, args):
    series = jsonio.series_from_json(payload)
    up = ascend(series)
    up, M = _series_with_order(up, args.working_order)
    return {"series": jsonio.series_to_json(up)}, _local_audit(series, M)


def cmd_local_residue(payload, args):
    series = jsonio.series_from_json(payload)
    report = residue_report(series)
    return (jsonio.residue_to_json(report),
            _local_audit(series, series.working_field_order()))


def cmd_moduli_rh(payload, args):
    data = jsonio.covering_from_json(payload)
    return {"genus_y": riemann_hurwitz(data)}, jsonio.covering_to_json(data)


def cmd_moduli_strata(payload, args):
    m = jsonio.coeff_order_from_json(payload)
    group = abelian_group(tuple(jsonio.int_list_from_json(payload, "group")))
    covering = jsonio.covering_from_json(jsonio._need(payload, "covering"))
    model = jsonio.model_from_json(jsonio._need(payload, "model"))
    strata = enumerate_strata(group, m, covering, model, args.scale_bound)
    return ({"count": len(strata),
             "strata": jsonio.strata_to_json(strata)},
            dict(group=list(group.factors), coeff_order=m,
                 model=jsonio.model_to_json(model), scale_bound=args.scale_bound))


def cmd_moduli_degree(payload, args):
    flag = jsonio.flag_from_json(payload)
    return {"pairing": str(degree_pairing(flag))}, dict(rank=flag.rank)


def cmd_moduli_stability(payload, args):
    candidates = [jsonio.flag_from_json(f)
                  for f in jsonio._need(payload, "candidates", list)]
    mode = jsonio._need(payload, "mode", str)
    verdict = stability_verdict(candidates, mode)
    return ({"mode": mode, "ok": verdict.ok,
             "violator": verdict.violator,
             "pairing": None if verdict.pairing is None else str(verdict.pairing)},
            dict(mode=mode, candidates=len(candidates)))


def cmd_moduli_scale(payload, args):
    par = jsonio.rational_from_json(jsonio._need(payload, "parabolic_degree_y"))
    n = jsonio._need(payload, "group_order", int)
    claimed = jsonio.rational_from_json(jsonio._need(payload, "claimed_degree_x"))
    report = degree_scaling_check(par, n, claimed)
    return ({"scaling_ok": report.scaling_ok, "integral": report.integral},
            dict(group_order=n))


# each flag's argparse spec; a verb has only the flags its handler reads
FLAGS = {
    "--scale-bound": dict(type=int, default=DEFAULT_SCALE_BOUND,
                          help="bound on the output size: classes or strata"),
    "--working-order": dict(type=int, default=None,
                            help="embed output cyclotomics in Q(zeta_M)"),
    "--twist": dict(default=None, help="character twist as a rational p/q"),
}

# (noun, verb) -> (handler, the flags it reads), in the order help lists them
VERBS = {
    ("cocycle", "verify"): (cmd_cocycle_verify, ()),
    ("cocycle", "h2"): (cmd_cocycle_h2, ("--scale-bound",)),
    ("cocycle", "extend"): (cmd_cocycle_extend, ()),
    ("cocycle", "zeta"): (cmd_cocycle_zeta, ()),
    ("pseudorep", "verify"): (cmd_pseudorep_verify, ()),
    ("pseudorep", "classify"): (cmd_pseudorep_classify, ()),
    ("pseudorep", "enumerate"): (cmd_pseudorep_enumerate, ()),
    ("pseudorep", "transport"): (cmd_pseudorep_transport, ()),
    ("pseudorep", "project"): (cmd_pseudorep_project, ()),
    ("lie", "alcove"): (cmd_lie_alcove, ()),
    ("lie", "eigenspaces"): (cmd_lie_eigenspaces, ()),
    ("lie", "parabolic"): (cmd_lie_parabolic, ()),
    ("local", "check"): (cmd_local_check, ("--working-order", "--twist")),
    ("local", "descend"): (cmd_local_descend, ("--working-order",)),
    ("local", "ascend"): (cmd_local_ascend, ("--working-order",)),
    ("local", "residue"): (cmd_local_residue, ()),
    ("moduli", "rh"): (cmd_moduli_rh, ()),
    ("moduli", "strata"): (cmd_moduli_strata, ("--scale-bound",)),
    ("moduli", "degree"): (cmd_moduli_degree, ()),
    ("moduli", "stability"): (cmd_moduli_stability, ()),
    ("moduli", "scale"): (cmd_moduli_scale, ()),
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
    verbs = {}
    for (noun, verb), (_, flags) in VERBS.items():
        if noun not in verbs:
            verbs[noun] = nouns.add_parser(noun).add_subparsers(dest="verb", required=True)
        leaf = verbs[noun].add_parser(verb)
        leaf.add_argument("input", help="input JSON file")
        leaf.add_argument("-o", "--out", help="output file (default stdout)")
        for flag in flags:
            leaf.add_argument(flag, **FLAGS[flag])
    corpus = nouns.add_parser("corpus")
    cverbs = corpus.add_subparsers(dest="verb", required=True)
    run = cverbs.add_parser("run")
    run.add_argument("directory", help="directory of golden case files")
    run.add_argument("-o", "--out", help="output file (default stdout)")
    return parser


def parse_argv(argv) -> argparse.Namespace:
    """argv's namespace, read off the verb's VERBS row and the FLAGS specs
    when argv is noun, verb, input, then distinct flags of the verb with
    values: none starts with '-', and an int flag's is [0-9]+.  Any other
    argv goes to argparse, which alone prints help and usage errors."""
    row = VERBS.get(tuple(argv[:2]))
    if row is None or len(argv) % 2 == 0 or argv[2].startswith("-"):
        return build_parser().parse_args(argv)
    dests = {"-o": "out", "--out": "out", **{f: f[2:].replace("-", "_") for f in row[1]}}
    args = dict(noun=argv[0], verb=argv[1], input=argv[2], out=None,
                **{dests[f]: FLAGS[f]["default"] for f in row[1]})
    given = set()
    for flag, value in zip(argv[3::2], argv[4::2]):
        dest, kind = dests.get(flag), FLAGS.get(flag, {}).get("type")
        if (dest is None or dest in given or value.startswith("-") or kind is int
                and not (value.isascii() and value.isdigit() and len(value) <= 64)):
            return build_parser().parse_args(argv)
        given.add(dest)
        args[dest] = int(value) if kind is int else value
    return argparse.Namespace(**args)


def run_command(argv) -> tuple[int, str]:
    """Execute one CLI invocation, returning (exit code, output text)."""
    return _execute(parse_argv(argv))


def _execute(args) -> tuple[int, str]:
    if (args.noun, args.verb) == ("corpus", "run"):
        return run_corpus(args.directory)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, a long int, deep nesting
        return 2, jsonio.dumps({"error": "malformed_input", "detail": str(exc)})
    return _dispatch(args, payload)


def _dispatch(args, payload) -> tuple[int, str]:
    """Run the verb that args names on its loaded input: (exit code, output text)."""
    try:
        result, audit = VERBS[args.noun, args.verb][0](payload, args)
    except MalformedInput as exc:
        return 2, jsonio.dumps({"error": exc.code, "detail": exc.detail})
    except DomainError as exc:
        return 1, jsonio.dumps({"error": exc.code, "detail": exc.detail})
    audit = {"command": f"{args.noun} {args.verb}", **audit}
    return 0, jsonio.dumps({"result": result, "audit": audit})


def run_corpus(directory) -> tuple[int, str]:
    """Replay every golden case file; a case passes when its rendered output
    is byte-identical to the rendering of its expected output.  Each case's
    input goes to its verb as loaded; the case file stands as the input path."""
    try:
        names = sorted(f for f in os.listdir(directory) if f.endswith(".json"))
    except OSError as exc:
        return 2, jsonio.dumps({"error": "malformed_input", "detail": str(exc)})
    lines = []
    failures = 0
    for name in names:
        path = os.path.abspath(os.path.join(directory, name))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                case = json.load(fh)
            command = [str(x) for x in jsonio._need(case, "command", list)]
            extra = [str(x) for x in jsonio._field(case, "args", list, [])]
            expected_code = jsonio._field(case, "expected_exit", int, 0)
            expected = jsonio.dumps(jsonio._need(case, "expected_output"))
            payload = jsonio._need(case, "input")
        except (OSError, ValueError, RecursionError, MalformedInput, ScaleExceeded) as exc:
            failures += 1
            lines.append(f"FAIL {name} (bad case file: {exc})")
            continue
        try:
            args = parse_argv([*command, path, *extra])
        except SystemExit:  # argparse rejected the case's args and printed why to stderr
            failures += 1
            lines.append(f"FAIL {name} (bad args {extra})")
            continue
        # `corpus run` reads a directory, not an input: a case of it fails with exit 2
        code, text = (_dispatch(args, payload) if (args.noun, args.verb) in VERBS
                      else (2, None))
        if code == expected_code and text == expected:
            lines.append(f"ok {name}")
        else:
            failures += 1
            lines.append(f"FAIL {name} (exit {code}, expected {expected_code})")
    lines.append(f"{len(names) - failures}/{len(names)} cases passed")
    return (0 if failures == 0 and names else 1), "\n".join(lines) + "\n"


def main(argv=None) -> int:
    """One invocation, with the cyclic garbage collector off: a one-shot
    process frees everything at exit, and a large output's rows would set the
    collector off again and again.  The caller's collector state comes back
    on the way out, so run_command and run_corpus keep theirs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        code, text = _execute(args)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:  # a missing directory, a directory, no permission
                sys.stdout.write(jsonio.dumps({"error": "malformed_input", "detail": str(exc)}))
                return 2
        else:
            sys.stdout.write(text)
        return code
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
