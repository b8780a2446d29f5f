"""Canonical JSON encodings for every domain type.

All encoders emit canonically ordered structures (sorted term lists, sorted
table entries) so that rendering with sorted keys is byte-deterministic.
Decoders raise MalformedInput on any structural problem.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cocycles import Cochain2, CoefficientGroup, ExtensionGroup, FiniteAbelianGroup
from .errors import MalformedInput
from .liemodel import GroupModel, ParabolicData, WeightVector, alcove_normalize
from .localseries import GradedSeries, InvarianceReport, ResidueReport
from .matrices import CycMatrix
from .moduli import CoveringData, FlagDegreeData, StratumIndex
from .pseudoreps import PseudoRep, PseudoRepClass, QuotientClass
from .scalars import Cyclotomic, FractionalWeight, euler_phi, rational


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _need(data, key, kind=None):
    """data[key], checked against kind; a JSON boolean is not an int."""
    if not isinstance(data, dict) or key not in data:
        raise MalformedInput(f"missing field {key!r}")
    value = data[key]
    if kind is not None and not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise MalformedInput(f"field {key!r} has wrong type")
    return value


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# -- scalars -----------------------------------------------------------------

def rational_from_json(data) -> Fraction:
    if not (isinstance(data, str) or _is_int(data)):
        raise MalformedInput(f"expected a rational string, got {data!r}")
    return rational(data)


def cyclotomic_to_json(c: Cyclotomic) -> dict:
    return {"order": c.order, "coeffs": [str(x) for x in c.coeffs]}


def cyclotomic_from_json(data) -> Cyclotomic:
    if isinstance(data, str) or _is_int(data):
        return Cyclotomic.from_rational(rational(data))
    order = _need(data, "order", int)
    coeffs = _need(data, "coeffs", list)
    # phi(n) >= sqrt(n/2), so past 2 len^2 no factorisation is needed to reject
    if order < 1 or order > 2 * len(coeffs) ** 2 or len(coeffs) != euler_phi(order):
        raise MalformedInput(f"cyclotomic of order {order} needs phi(order) coefficients")
    return Cyclotomic(order, [rational_from_json(x) for x in coeffs])


# -- cohomology ---------------------------------------------------------------

def cochain_to_json(c: Cochain2) -> dict:
    m = c.coefficients.order
    table = []
    for i in range(c.group.order):
        for j in range(c.group.order):
            table.append([i, j, str(Fraction(c.table[i][j], m))])
    return {"group": list(c.group.factors), "coeff_order": m, "table": table}


def coeff_order_from_json(data) -> int:
    m = _need(data, "coeff_order")
    if not _is_int(m) or m < 1:
        raise MalformedInput("coeff_order must be a positive integer")
    return m


def int_list_from_json(data, key) -> list:
    """Field `key` as a list of ints; bools, floats and strings are rejected."""
    values = _need(data, key, list)
    if not all(map(_is_int, values)):
        raise MalformedInput(f"field {key!r} must be a list of integers")
    return values


def cochain_from_json(data) -> Cochain2:
    factors = int_list_from_json(data, "group")
    m = coeff_order_from_json(data)
    group = FiniteAbelianGroup(factors)
    n = group.order
    table = [[0] * n for _ in range(n)]
    seen = set()
    for row in _need(data, "table", list):
        if not isinstance(row, list) or len(row) != 3:
            raise MalformedInput(f"bad table entry {row!r}")
        i, j, value = row
        if not (_is_int(i) and _is_int(j) and 0 <= i < n and 0 <= j < n):
            raise MalformedInput(f"bad table index in {row!r}")
        frac = rational_from_json(value) % 1
        k = frac * m
        if k.denominator != 1:
            raise MalformedInput(f"value {value!r} is not an m-th root of unity exponent")
        if (i, j) in seen:
            raise MalformedInput(f"duplicate table entry ({i}, {j})")
        seen.add((i, j))
        table[i][j] = k.numerator
    return Cochain2(group, CoefficientGroup(m), table)


def extension_to_json(ext: ExtensionGroup) -> dict:
    return {
        "order": ext.order,
        "is_abelian": ext.is_abelian(),
        "order_profile": list(ext.order_profile()),
        "table": [list(row) for row in ext.table],
    }


# -- matrices and pseudoreps --------------------------------------------------

def matrix_to_json(mat: CycMatrix) -> dict:
    return {"size": mat.size,
            "entries": [[cyclotomic_to_json(x) for x in row] for row in mat.rows]}


def matrix_from_json(data) -> CycMatrix:
    size = _need(data, "size", int)
    entries = _need(data, "entries", list)
    if len(entries) != size or any(not isinstance(r, list) or len(r) != size
                                   for r in entries):
        raise MalformedInput("matrix entries must form a size x size grid")
    return CycMatrix([[cyclotomic_from_json(x) for x in row] for row in entries])


def pseudorep_to_json(sigma: PseudoRep) -> dict:
    return {
        "order": sigma.order,
        "cocycle": cochain_to_json(sigma.cochain),
        "images": {str(i): matrix_to_json(im) for i, im in enumerate(sigma.images)},
    }


def pseudorep_from_json(data) -> PseudoRep:
    n = _need(data, "order", int)
    cochain = cochain_from_json(_need(data, "cocycle"))
    if cochain.group.factors != (n,):
        raise MalformedInput("cocycle group must be cyclic of the stated order")
    images_raw = _need(data, "images", dict)
    images = []
    for i in range(n):
        if str(i) not in images_raw:
            raise MalformedInput(f"missing image for element {i}")
        images.append(matrix_from_json(images_raw[str(i)]))
    return PseudoRep(cochain, images)


def rep_class_to_json(cls: PseudoRepClass) -> dict:
    return {
        "order": cls.order,
        "zeta": str(cls.zeta.value),
        "exponents": [str(q.value) for q in cls.exponents],
    }


def rep_class_from_json(data) -> PseudoRepClass:
    n = _need(data, "order", int)
    z = FractionalWeight(rational_from_json(_need(data, "zeta")) % 1)
    exps = [FractionalWeight(rational_from_json(x) % 1)
            for x in _need(data, "exponents", list)]
    return PseudoRepClass(n, z, tuple(exps))


def quotient_class_to_json(cls: QuotientClass) -> dict:
    return {"order": cls.order, "exponents": [str(q.value) for q in cls.exponents]}


# -- Lie structure -------------------------------------------------------------

def model_to_json(model: GroupModel) -> dict:
    if model.kind == "upq":
        return {"kind": "upq", "p": model.p, "q": model.q}
    return {"kind": model.kind, "r": model.size}


def model_from_json(data) -> GroupModel:
    kind = _need(data, "kind", str)
    if kind == "upq":
        return GroupModel("upq", p=_need(data, "p", int), q=_need(data, "q", int))
    return GroupModel(kind, r=_need(data, "r", int))


def weights_to_json(weight: WeightVector) -> list:
    return [str(v) for v in weight.values()]


def weight_vector_from_json(model: GroupModel, data) -> WeightVector:
    if not isinstance(data, list):
        raise MalformedInput("alpha must be a list of rationals")
    vals = [rational_from_json(x) for x in data]
    weight = alcove_normalize(model, vals)
    if weight.values() != tuple(vals):
        raise MalformedInput(f"alpha {data} is not in alcove form")
    return weight


def mask_to_json(mask) -> list:
    return [[int(x) for x in row] for row in mask]


def parabolic_to_json(p: ParabolicData) -> dict:
    return {
        "s": [str(x) for x in p.s],
        "p_mask": mask_to_json(p.p_mask),
        "l_mask": mask_to_json(p.l_mask),
        "m_mask": mask_to_json(p.ms_mask),
        "m0_mask": mask_to_json(p.m0_mask),
    }


# -- series ---------------------------------------------------------------------

def series_to_json(s: GradedSeries) -> dict:
    terms = []
    for (b, k), coeff in s.sorted_terms():
        key = s.model.basis_key(b)
        terms.append({"basis": [key[0], key[1]], "k": k,
                      "coeff": cyclotomic_to_json(coeff)})
    return {
        "model": model_to_json(s.model),
        "alpha": weights_to_json(s.weight),
        "N": s.N,
        "variable": s.variable,
        "trunc": s.trunc,
        "terms": terms,
    }


def series_from_json(data) -> GradedSeries:
    model = model_from_json(_need(data, "model"))
    weight = weight_vector_from_json(model, _need(data, "alpha", list))
    N = _need(data, "N", int)
    variable = _need(data, "variable", str)
    trunc = _need(data, "trunc", int)
    terms = {}
    for entry in _need(data, "terms", list):
        basis = _need(entry, "basis", list)
        if len(basis) != 2:
            raise MalformedInput(f"bad basis key {basis!r}")
        idx = model.basis_index((basis[0], basis[1]))
        k = _need(entry, "k", int)
        coeff = cyclotomic_from_json(_need(entry, "coeff"))
        if (idx, k) in terms:
            raise MalformedInput(f"duplicate term at basis {basis}, k={k}")
        terms[(idx, k)] = coeff
    return GradedSeries(model, weight, N, variable, trunc, terms)


def invariance_to_json(report: InvarianceReport) -> dict:
    return {
        "invariant": report.invariant,
        "by_index": report.by_index,
        "by_substitution": report.by_substitution,
        "twist": str(report.twist),
        "violations": [{"beta": str(beta.value), "k": k, "basis": [key[0], key[1]]}
                       for beta, k, key in report.violations],
    }


def residue_to_json(report: ResidueReport) -> dict:
    return {
        "residue": matrix_to_json(report.residue),
        "support_in_negative_beta": report.support_in_negative_beta,
        "nilpotent": report.nilpotent,
        "nilpotency_index": report.nilpotency_index,
        "levi_projection_zero": report.levi_projection_zero,
    }


# -- moduli -----------------------------------------------------------------------

def covering_to_json(data: CoveringData) -> dict:
    return {"genus_x": data.genus_x, "group_order": data.group_order,
            "orbit_orders": list(data.orbit_orders)}


def covering_from_json(data) -> CoveringData:
    return CoveringData(_need(data, "genus_x", int),
                        _need(data, "group_order", int),
                        tuple(_need(data, "orbit_orders", list)))


def flag_from_json(data) -> FlagDegreeData:
    s = [rational_from_json(x) for x in _need(data, "s", list)]
    pieces = []
    for p in _need(data, "pieces", list):
        pieces.append({"value": rational_from_json(_need(p, "value")),
                       "rank": _need(p, "rank", int),
                       "degree": _need(p, "degree", int)})
    corrections = [rational_from_json(x) for x in data.get("corrections", [])]
    return FlagDegreeData(s, pieces, corrections)


def stratum_to_json(stratum: StratumIndex) -> dict:
    return {
        "cocycle": cochain_to_json(stratum.cocycle),
        "orbit_classes": [quotient_class_to_json(c) for c in stratum.orbit_classes],
    }
