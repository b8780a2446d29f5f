"""Output oracles, one per verb, that never call into orbipar.

Each oracle gets the op (payload, flags and the ``expect`` record the
generator wrote) and the parsed output, and returns None when the output is
right or a one-line reason when it is not.  Expected values come from how the
input was built or from closed forms computed here in plain Python.
"""

import json
from fractions import Fraction

import cyclo
import plain


def check(op, code, text):
    if code != 0:
        return f"exit {code}: {text[:200]}"
    try:
        result = json.loads(text)["result"]
    except (ValueError, KeyError) as exc:
        return f"unparsable output: {exc}"
    try:
        return CHECKS[op["verb"]](op["payload"], op["expect"], result, op["flags"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"output does not have the expected shape: {type(exc).__name__}: {exc}"


def _differ(name, got, want):
    return None if got == want else f"{name}: got {got!r}, expected {want!r}"


# -- cohomology -------------------------------------------------------------------

def _h2(payload, expect, result, flags):
    factors, m = payload["group"], payload["coeff_order"]
    if result["classes"] != expect["classes"]:
        return _differ("classes (universal coefficient theorem)", result["classes"],
                       expect["classes"])
    reps = [plain.table_from_json(r) for r in result["representatives"]]
    if len(reps) != expect["classes"] or len({str(t) for t in reps}) != len(reps):
        return "representatives are not distinct or do not match the class count"
    for table in reps:
        if plain.first_violation(table, factors, m) is not None:
            return "a representative is not a cocycle"
    return None


def _strata(payload, expect, result, flags):
    if result["count"] != expect["count"] or len(result["strata"]) != expect["count"]:
        return _differ("strata count (|H^2| x projected classes)", result["count"],
                       expect["count"])
    return None


def _verify(payload, expect, result, flags):
    witness = expect["witness"]
    if witness is None:
        return _differ("verdict", (result["is_cocycle"], result["witness"]), (True, None))
    els = plain.elements(payload["group"])
    return _differ("verdict", (result["is_cocycle"], result["witness"]),
                   (False, [list(els[i]) for i in witness]))


def _extend(payload, expect, result, flags):
    factors, m = payload["group"], payload["coeff_order"]
    table = plain.table_from_json(payload)
    ext = plain.extension_table(table, factors, m)
    symmetric = all(table[a][b] == table[b][a]
                    for a in range(len(table)) for b in range(len(table)))
    return (_differ("order", result["order"], m * len(table))
            or _differ("table", result["table"], ext)
            or _differ("is_abelian", result["is_abelian"], symmetric)
            or _differ("order_profile", result["order_profile"], plain.table_element_orders(ext)))


def _zeta(payload, expect, result, flags):
    return _differ("zeta", (result["zeta"], result["element_order"]),
                   (expect["zeta"], expect["element_order"]))


def _rh(payload, expect, result, flags):
    return _differ("genus_y", result["genus_y"], expect["genus_y"])


def _degree(payload, expect, result, flags):
    return _differ("pairing", result["pairing"], expect["pairing"])


def _stability(payload, expect, result, flags):
    v = expect["violator"]
    want = (expect["mode"], v is None, None if v is None else v[0], None if v is None else v[1])
    return _differ("verdict", (result["mode"], result["ok"], result["violator"],
                               result["pairing"]), want)


def _scale(payload, expect, result, flags):
    return _differ("scaling", (result["scaling_ok"], result["integral"]),
                   (expect["scaling_ok"], expect["integral"]))


# -- descent ---------------------------------------------------------------------

def _alpha(series):
    return [Fraction(a) for a in series["alpha"]]


def _working_order(flags):
    return int(flags[flags.index("--working-order") + 1]) if "--working-order" in flags else None


def _check(payload, expect, result, flags):
    model, alpha = payload["model"], _alpha(payload)
    want = sorted((tuple(b), k) for b, k in expect["violations"])
    got = sorted((tuple(v["basis"]), v["k"]) for v in result["violations"])
    for v in result["violations"]:
        if Fraction(v["beta"]) != plain.beta(model, alpha, tuple(v["basis"])):
            return f"violation beta {v['beta']} is wrong for basis {v['basis']}"
    invariant = not want
    return (_differ("violations", got, want)
            or _differ("verdicts", (result["invariant"], result["by_index"],
                                    result["by_substitution"]), (invariant,) * 3)
            or _differ("twist", result["twist"], expect["twist"]))


def _image_map(series, up_to_down):
    """Term map of descent (upstairs -> downstairs) or of ascent (the inverse).

    Returns {(basis, exponent): (coeff json, scale)} keyed in the target
    variable: k = N*l - N*beta - 1 goes to j = l - 1 with factor 1/N.
    """
    model, alpha, N = series["model"], _alpha(series), series["N"]
    out = {}
    for t in series["terms"]:
        key = tuple(t["basis"])
        nb = N * plain.beta(model, alpha, key)
        if up_to_down:
            nl = t["k"] + 1 + nb
            if nl.denominator != 1 or int(nl) % N:
                raise ValueError(f"term {key}, k={t['k']} is not invariant")
            out[key, int(nl) // N - 1] = (t["coeff"], Fraction(1, N))
        else:
            out[key, N * (t["k"] + 1) - int(nb) - 1] = (t["coeff"], Fraction(N))
    return out


def _valid_through(series, up_to_down):
    """The output truncation the module docstring of localseries specifies:
    one below the image of the first unknown input slot, minimized over the
    eigencomponents."""
    model, alpha, N, T = series["model"], _alpha(series), series["N"], series["trunc"]
    best = []
    for nb in {int(N * plain.beta(model, alpha, key)) for key in plain.basis_keys(model)}:
        if up_to_down:
            r = (-nb - 1) % N
            k_star = T + 1 + ((r - (T + 1)) % N)  # least unknown slot of this component
            best.append((k_star + 1 + nb) // N - 2)
        else:
            best.append(N * (T + 2) - nb - 2)
    return max(min(best), -2 if up_to_down else -1)


def _round_trip(source, image, up_to_down, flags):
    """Every output term is the image of an input term, every input term whose
    image lies within the output truncation is present, and that truncation
    is the largest one the input determines."""
    if image["trunc"] != _valid_through(source, up_to_down):
        return _differ("output truncation", image["trunc"], _valid_through(source, up_to_down))
    expected = _image_map(source, up_to_down)
    got = {(tuple(t["basis"]), t["k"]): t["coeff"] for t in image["terms"]}
    order = _working_order(flags)
    for key, coeff in got.items():
        if key not in expected:
            return f"output term {key} is not the image of an input term"
        want, scale = expected[key]
        if order is not None and coeff["order"] != order:
            return f"output term {key} is not in Q(zeta_{order})"
        if not cyclo.json_equal(coeff, want, scale):
            return f"output term {key} has the wrong coefficient"
    missing = [key for key in expected if key[1] <= image["trunc"] and key not in got]
    if missing:
        return f"input terms missing from the output: {missing[:3]}"
    return None


def _residue_entries(series):
    """Residue matrix entries (i, j) -> coefficient json of the w^-1 terms."""
    return {tuple(t["basis"]): t["coeff"] for t in series["terms"] if t["k"] == -1}


def _residue_matches(matrix, series):
    """Entries are compared as numbers, so an embedded series still matches."""
    poles = _residue_entries(series)
    for i, row in enumerate(matrix["entries"]):
        for j, entry in enumerate(row):
            want = poles.get((i, j), "0")
            if not cyclo.json_equal(entry, want):
                return f"residue entry ({i}, {j}) is wrong"
    return None


def _residue_verdicts(report, series):
    """The generator puts pole terms only in negative eigencomponents, so the
    residue is strictly triangular in the order of alpha, hence nilpotent."""
    model, alpha = series["model"], _alpha(series)
    poles = _residue_entries(series)
    negative = all(plain.beta(model, alpha, key) < 0 for key in poles)
    levi_zero = all(alpha[i] != alpha[j] for i, j in poles)
    size = plain.model_size(model)
    index = report["nilpotency_index"]
    return (_differ("support_in_negative_beta", report["support_in_negative_beta"], negative)
            or _differ("levi_projection_zero", report["levi_projection_zero"], levi_zero)
            or _differ("nilpotent", report["nilpotent"], True)
            or (None if 1 <= index <= size and (index == 1) == (not poles)
                else f"nilpotency index {index} out of range"))


def _descend(payload, expect, result, flags):
    down = result["series"]
    return (_differ("variable", down["variable"], "w")
            or _round_trip(payload, down, True, flags)
            or _residue_matches(result["residue"]["residue"], down)
            or _residue_verdicts(result["residue"], down))


def _ascend(payload, expect, result, flags):
    up = result["series"]
    return (_differ("variable", up["variable"], "z")
            or _round_trip(payload, up, False, flags))


def _residue(payload, expect, result, flags):
    return (_residue_matches(result["residue"], payload)
            or _residue_verdicts(result, payload))


def _alcove(payload, expect, result, flags):
    return _differ("alcove", (result["alpha"], result["interior"]),
                   (expect["alpha"], expect["interior"]))


def _eigenspaces(payload, expect, result, flags):
    model, alpha = payload["model"], _alpha(payload)
    spaces = {}
    for key in plain.basis_keys(model):
        spaces.setdefault(plain.beta(model, alpha, key), []).append(list(key))
    want = [{"beta": str(b), "dimension": len(keys), "basis": sorted(keys)}
            for b, keys in sorted(spaces.items(), reverse=True)]
    return (_differ("dim_m", result["dim_m"], len(plain.basis_keys(model)))
            or _differ("eigenspaces", result["eigenspaces"], want))


def _parabolic(payload, expect, result, flags):
    model = payload["model"]
    s = [Fraction(x) for x in payload["s"]]
    r = len(s)

    def mask(rel, space):
        return [[int(rel(s[i], s[j]) and space(model, i, j)) for j in range(r)]
                for i in range(r)]

    le, eq = (lambda a, b: a <= b), (lambda a, b: a == b)
    want = {"s": [str(x) for x in s], "p_mask": mask(le, plain.in_h),
            "l_mask": mask(eq, plain.in_h), "m_mask": mask(le, plain.in_m),
            "m0_mask": mask(eq, plain.in_m), "verified": True}
    return _differ("parabolic", result, want)


# -- pseudorepresentations --------------------------------------------------------

def _rep_verify(payload, expect, result, flags):
    bad = expect["perturbed"]
    if bad is None:
        return _differ("verdict", (result["valid"], result["witness"]), (True, None))
    if result["valid"] or result["witness"] is None:
        return "a perturbed pseudorepresentation passed verification"
    (a,), (b,) = result["witness"]
    if bad not in (a, b, (a + b) % payload["order"]):
        return f"witness {result['witness']} does not involve the perturbed image {bad}"
    return None


def _classify(payload, expect, result, flags):
    return _differ("class", result, {"order": payload["order"], "zeta": expect["zeta"],
                                     "exponents": expect["exponents"]})


def _transport(payload, expect, result, flags):
    # an abelian ambient group conjugates trivially, so transport is the identity
    return _differ("transported pseudorep", result, payload["pseudorep"])


def _enumerate(payload, expect, result, flags):
    n = payload["order"]
    z = Fraction(expect["zeta"])
    for cls in result["classes"]:
        if any((n * Fraction(q) - z).denominator != 1 for q in cls["exponents"]):
            return f"class {cls['exponents']} does not satisfy lambda^{n} = zeta"
    seen = {tuple(c["exponents"]) for c in result["classes"]}
    return (_differ("count C(n+r-1, r)", result["count"], expect["count"])
            or _differ("distinct classes", len(seen), expect["count"]))


def _project(payload, expect, result, flags):
    return _differ("projection", result, {"order": payload["class"]["order"],
                                          "exponents": expect["exponents"]})


CHECKS = {
    "cocycle h2": _h2, "moduli strata": _strata, "cocycle verify": _verify,
    "cocycle extend": _extend, "cocycle zeta": _zeta, "moduli rh": _rh,
    "moduli degree": _degree, "moduli stability": _stability, "moduli scale": _scale,
    "local check": _check, "local descend": _descend, "local ascend": _ascend,
    "local residue": _residue, "lie alcove": _alcove, "lie eigenspaces": _eigenspaces,
    "lie parabolic": _parabolic, "pseudorep verify": _rep_verify,
    "pseudorep classify": _classify, "pseudorep transport": _transport,
    "pseudorep enumerate": _enumerate, "pseudorep project": _project,
}
