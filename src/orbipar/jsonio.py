"""Canonical JSON encodings for every domain type.

This is the one module that turns wire values into domain values: decoders
check every field's type and raise MalformedInput on any structural problem,
and ScaleExceeded on an int or rational past MAX_RATIONAL_DIGITS digits, so
the library below them takes ints, Fractions and Cyclotomics as given.
All encoders emit canonically ordered structures (sorted term lists, sorted
table entries) so that rendering with sorted keys is byte-deterministic.
dumps renders exactly as the stdlib does; the one value it does not walk is
a Splice, which appends its own text.  dumps splices in two places: a
strata list is rendered from the product's factors, each cocycle and class
once, and a cochain table straight from its int rows, two pieces per cell.
A cochain table in row-major order is decoded by column: one parse per
distinct value text, one lookup per cell.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product, repeat
from math import gcd, lcm

from .cocycles import Cochain2, Extension, abelian_group
from .errors import MalformedInput, ScaleExceeded
from .liemodel import KINDS, GroupModel, ParabolicData, WeightVector, alcove_normalize
from .localseries import GradedSeries, InvarianceReport, ResidueReport
from .matrices import CycMatrix
from .moduli import CoveringData, FlagDegreeData, FlagPiece, Strata
from .pseudoreps import MAX_ENUMERATION, PseudoRep, PseudoRepClass, QuotientClass
from .scalars import Cyclotomic, check_order, euler_phi

MAX_FLAG_PIECES = 16  # graded pieces of one flag; with the corrections and
MAX_FLAG_CORRECTIONS = 32  # MAX_RATIONAL_DIGITS they bound a pairing's digits
MAX_RATIONAL_DIGITS = 64  # numerator and denominator of one input rational, and one input int
_INT_BOUND = 10 ** MAX_RATIONAL_DIGITS
_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


_encode_str = json.encoder.encode_basestring_ascii
# exact scalar types and their JSON text; subclasses go to the stdlib
_SCALARS = {str: _encode_str, int: int.__repr__, bool: ("false", "true").__getitem__,
            type(None): lambda _: "null"}
_SCALAR_TYPES = frozenset(_SCALARS)


def dumps(obj) -> str:
    """Exactly json.dumps(obj, sort_keys=True, indent=2) + "\\n".

    With an indent the stdlib encodes in pure Python, token by token.  This
    appends the text's pieces (brackets with their indents, separators, keys,
    scalars) to one list and joins that list once, at the end, so no nesting
    level copies the text below it; a row of scalars is one piece.  One rule
    splices: a Splice value appends its own pieces for the depth it is met
    at, as strata_to_json's does."""
    out = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


class Splice(namedtuple("Splice", "render")):
    """A value that dumps does not walk: render(out, depth) appends its text
    at that depth to out."""

    __slots__ = ()


def _emit(o, depth, out):
    """Append the pieces of o's text at depth to out."""
    kind = type(o)
    if kind in _SCALARS:
        return out.append(_SCALARS[kind](o))
    if kind is Splice:
        return o.render(out, depth)
    if isinstance(o, (list, tuple)):
        if not o:
            return out.append("[]")
        if _SCALAR_TYPES.issuperset(map(type, o)):
            return out.append(_wrap("[", [_SCALARS[type(v)](v) for v in o], depth, "]"))
    elif isinstance(o, dict):
        if not o:
            return out.append("{}")
        if not all(isinstance(k, str) for k in o):
            return out.append(_stdlib(o, depth))
    else:
        return out.append(_stdlib(o, depth))
    append = out.append
    inner = "\n" + "  " * (depth + 1)
    sep = "," + inner
    if isinstance(o, dict):
        lead, close = "{" + inner, "}"
        for k in sorted(o):
            append(f"{lead}{_encode_str(k)}: ")
            lead = sep
            _emit(o[k], depth + 1, out)
    else:
        lead, close = "[" + inner, "]"
        for v in o:
            append(lead)
            lead = sep
            _emit(v, depth + 1, out)
    append(f"\n{'  ' * depth}{close}")


def _text(o, depth) -> str:
    """o's text at depth, as _emit renders it."""
    out = []
    _emit(o, depth, out)
    return "".join(out)


def _wrap(open_, parts, depth, close) -> str:
    """One copy of the parts: a chain of + would copy the text at each step."""
    inner = "\n" + "  " * (depth + 1)
    return f"{open_}{inner}{(',' + inner).join(parts)}\n{'  ' * depth}{close}"


def _stdlib(o, depth) -> str:
    """The stdlib's text for o, indented to depth: with ensure_ascii every
    newline in it is structural."""
    return json.dumps(o, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def _need(data, key, kind=None):
    """data[key], checked against kind; a JSON boolean is not an int."""
    if not isinstance(data, dict) or key not in data:
        raise MalformedInput(f"missing field {key!r}")
    value = data[key]
    if kind is not None and not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise MalformedInput(f"field {key!r} has wrong type")
    return value


def _field(data, key, kind, default):
    """_need(data, key, kind), or default when the object lacks the field."""
    if isinstance(data, dict) and key not in data:
        return default
    return _need(data, key, kind)


def _is_int(v) -> bool:
    """v is a JSON int, not a boolean; past MAX_RATIONAL_DIGITS digits it raises
    ScaleExceeded, so no product or lcm of a request's ints passes 4300 digits."""
    if not isinstance(v, int) or isinstance(v, bool):
        return False
    if abs(v) >= _INT_BOUND:
        raise ScaleExceeded(f"integer with more than {MAX_RATIONAL_DIGITS} digits")
    return True


# -- scalars -----------------------------------------------------------------

def rational_parts(data) -> tuple[int, int]:
    """A wire rational, a JSON int or a 'p/q' string, as the ints (p, q) in
    lowest terms with q > 0."""
    if isinstance(data, str):
        return (_cached_parts if len(data) <= _CACHED_TEXT else _string_parts)(data)
    if _is_int(data):
        return data, 1
    raise MalformedInput(f"expected a rational string, got {data!r}")


def _string_parts(data: str) -> tuple[int, int]:
    """The parts of a 'p/q' string.

    Strings must match [+-]?digits(/digits)?: no spaces, decimals or exponents,
    so a short string cannot ask for a huge power of ten.  A zero denominator
    or a part past Python's int-string limit is reported as Fraction() reports
    it.  Numerator and denominator must stay below 10^MAX_RATIONAL_DIGITS, so
    that sums of the few rationals a request may carry print within Python's
    4300 digits.
    """
    match = _RATIONAL.fullmatch(data)
    if not match:
        raise MalformedInput(f"bad rational {data!r}: expected p/q")
    sign, num, den = match.groups()
    try:
        p, q = int(num), int(den or 1)
    except ValueError as exc:
        raise MalformedInput(f"bad rational {data!r}: {exc}") from None
    if sign == "-":
        p = -p
    if q == 0:
        raise MalformedInput(f"bad rational {data!r}: Fraction({p}, 0)")
    g = gcd(p, q)
    p, q = p // g, q // g
    if abs(p) >= _INT_BOUND or q >= _INT_BOUND:
        raise ScaleExceeded(f"rational with more than {MAX_RATIONAL_DIGITS} digits "
                            f"in its numerator or denominator")
    return p, q


# Inputs repeat a few values many times.  Only texts up to the longest canonical
# one (sign, digits, '/', digits) are cached; an lru_cache stores no exception.
_CACHED_TEXT = 2 * MAX_RATIONAL_DIGITS + 2
_cached_parts = lru_cache(maxsize=1024)(_string_parts)


def rational_from_json(data) -> Fraction:
    return Fraction(*rational_parts(data))


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, from ints."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def cyclotomic_to_json(c: Cyclotomic) -> dict:
    return {"order": c.order, "coeffs": [_ratio_text(n, c.den) for n in c.nums]}


def cyclotomic_from_json(data) -> Cyclotomic:
    if isinstance(data, str) or _is_int(data):
        p, q = rational_parts(data)
        return Cyclotomic(1, (p,), q)
    order = _need(data, "order", int)
    coeffs = _need(data, "coeffs", list)
    # phi(n) >= sqrt(n/2), so past 2 len^2 no factorisation is needed to reject
    if order < 1 or order > 2 * len(coeffs) ** 2 or len(coeffs) != euler_phi(order):
        raise MalformedInput(f"cyclotomic of order {order} needs phi(order) coefficients")
    # capped one by one, the lcm of a request's orders prints within 4300 digits
    check_order(order)
    parts = [rational_parts(x) for x in coeffs]
    den = lcm(*[q for _, q in parts])
    # each p/q is in lowest terms, so no prime of den divides every numerator
    return Cyclotomic(order, tuple(p * (den // q) for p, q in parts), den)


# -- cohomology ---------------------------------------------------------------

def cochain_to_json(c: Cochain2) -> dict:
    """The cochain; dumps renders its table of [i, j, "k/m"] cells by _render_table."""
    return {"group": list(c.group.factors), "coeff_order": c.coeff_order,
            "table": Splice(lambda out, depth: _render_table(c, out, depth))}


@lru_cache(maxsize=32)
def _cell_heads(depth: int, n: int) -> tuple:
    """The text of each cell of an n x n table at depth up to its value,
    each cell led by the separator before it."""
    sep, ind = ",\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    return tuple(f'{sep}[{ind}{i},{ind}{j},{ind}"' for i in range(n) for j in range(n))


def _render_table(c: Cochain2, out, depth):
    """Append c's table at depth, two pieces per cell: its head and its value's text."""
    m, start = c.coeff_order, len(out)
    close = "\n" + "  " * (depth + 1) + "]"
    cells = list(chain.from_iterable(c.table))
    values = {k: f'{_ratio_text(k, m)}"{close}' for k in set(cells)}
    out += chain.from_iterable(zip(_cell_heads(depth, c.group.order),
                                   map(values.__getitem__, cells)))
    out[start] = "[" + out[start][1:]
    out.append(f"\n{'  ' * depth}]")


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
    """A table that _table_by_column reads is decoded by column; any other
    runs every check on every cell, in order, and a missing cell is 0."""
    factors = int_list_from_json(data, "group")
    m = coeff_order_from_json(data)
    group = abelian_group(tuple(factors))
    n = group.order
    rows = _need(data, "table", list)
    table = _table_by_column(rows, n, m)
    if table is not None:
        return Cochain2(group, m, table)
    table = [[None] * n for _ in range(n)]  # None: no cell read yet
    for row in rows:
        if not isinstance(row, list) or len(row) != 3:
            raise MalformedInput(f"bad table entry {row!r}")
        i, j, value = row
        if not (_is_int(i) and _is_int(j) and 0 <= i < n and 0 <= j < n):
            raise MalformedInput(f"bad table index in {row!r}")
        p, q = rational_parts(value)
        if m % q:  # p/q mod 1 times m is the int k with p*m = k*q (mod q*m)
            raise MalformedInput(f"value {value!r} is not an m-th root of unity exponent")
        if table[i][j] is not None:
            raise MalformedInput(f"duplicate table entry ({i}, {j})")
        table[i][j] = p * (m // q) % m
    return Cochain2(group, m, [[k or 0 for k in row] for row in table])


def _table_by_column(rows, n: int, m: int):
    """The exponent rows of n^2 cells [i, j, text] in row-major order, int
    indices and texts of m-th roots, each distinct text parsed once; None for
    any other table, so that the cell loop names the cell a refusal names."""
    if len(rows) != n * n or set(map(type, rows)) != {list} or set(map(len, rows)) != {3}:
        return None
    i, j, values = zip(*rows)
    if ((i, j) != _row_major(n) or {*map(type, i), *map(type, j)} != {int}
            or set(map(type, values)) != {str}):
        return None
    try:
        parts = {value: rational_parts(value) for value in set(values)}
    except (MalformedInput, ScaleExceeded):
        return None
    if any(m % q for _, q in parts.values()):
        return None
    exponent = {value: p * (m // q) % m for value, (p, q) in parts.items()}
    cells = list(map(exponent.__getitem__, values))
    return [cells[k:k + n] for k in range(0, n * n, n)]


# the row and the column indices of the cells of an n x n table, in row-major order
_row_major = lru_cache(maxsize=32)(lambda n: tuple(zip(*product(range(n), repeat=2))))


def extension_to_json(ext: Extension) -> dict:
    return {
        "order": ext.order,
        "is_abelian": ext.is_abelian,
        "order_profile": list(ext.order_profile),
        "table": ext.table,
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
        "zeta": str(cls.zeta),
        "exponents": [str(q) for q in cls.exponents],
    }


def rep_class_from_json(data) -> PseudoRepClass:
    """A class of at most MAX_ENUMERATION exponents, as many as any class
    orbipar prints: projecting it sorts them once per distinct shift."""
    n = _need(data, "order", int)
    if n < 1:
        raise MalformedInput(f"class order {n} must be positive")
    z = rational_from_json(_need(data, "zeta")) % 1
    raw = _need(data, "exponents", list)
    if len(raw) > MAX_ENUMERATION:
        raise ScaleExceeded(f"{len(raw)} exponents exceed the bound {MAX_ENUMERATION}")
    return PseudoRepClass(n, z, tuple(rational_from_json(x) % 1 for x in raw))


def quotient_class_to_json(cls: QuotientClass) -> dict:
    return {"order": cls.order, "exponents": [str(q) for q in cls.exponents]}


# -- Lie structure -------------------------------------------------------------

def model_to_json(model: GroupModel) -> dict:
    return {"kind": model.kind, **dict(zip(KINDS[model.kind][0], model.dims))}


def model_from_json(data) -> GroupModel:
    kind = _need(data, "kind", str)
    names = KINDS[kind][0] if kind in KINDS else ()  # GroupModel reports the kind
    return GroupModel(kind, **{name: _need(data, name, int) for name in names})


def weights_to_json(weight: WeightVector) -> list:
    return [str(v) for v in weight.entries]


def weight_vector_from_json(model: GroupModel, data: list) -> WeightVector:
    vals = [rational_from_json(x) for x in data]
    weight = alcove_normalize(model, vals)
    if weight.entries != tuple(vals):
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
    terms = [{"basis": list(key), "k": k, "coeff": cyclotomic_to_json(coeff)}
             for (key, k), coeff in s.terms.items()]
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
        basis = int_list_from_json(entry, "basis")
        k = _need(entry, "k", int)
        coeff = cyclotomic_from_json(_need(entry, "coeff"))
        key = (tuple(basis), k)
        if key in terms:
            raise MalformedInput(f"duplicate term at basis {basis}, k={k}")
        terms[key] = coeff
    return GradedSeries(weight, N, variable, trunc, terms)


def invariance_to_json(report: InvarianceReport) -> dict:
    return {
        "invariant": report.invariant,
        "by_index": report.by_index,
        "by_substitution": report.by_substitution,
        "twist": str(report.twist),
        "violations": [{"beta": str(beta), "k": k, "basis": list(key)}
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
                        tuple(int_list_from_json(data, "orbit_orders")))


def flag_from_json(data) -> FlagDegreeData:
    """A flag whose pairing prints within Python's 4300 digits: few pieces and
    corrections of bounded digits."""
    s = [rational_from_json(x) for x in _need(data, "s", list)]
    pieces = _need(data, "pieces", list)
    corrections = _need(data, "corrections", list)
    if len(pieces) > MAX_FLAG_PIECES or len(corrections) > MAX_FLAG_CORRECTIONS:
        raise ScaleExceeded(f"a flag carries at most {MAX_FLAG_PIECES} pieces and "
                            f"{MAX_FLAG_CORRECTIONS} corrections, got {len(pieces)} "
                            f"and {len(corrections)}")
    return FlagDegreeData(
        s, [FlagPiece(rational_from_json(_need(p, "value")), _need(p, "rank", int),
                      _need(p, "degree", int)) for p in pieces],
        [rational_from_json(x) for x in corrections])


def strata_to_json(strata: Strata) -> Splice:
    """The strata list, rendered by dumps from the product's factors."""
    return Splice(lambda out, depth: _render_strata(strata, out, depth))


def _render_strata(strata: Strata, out, depth):
    """Append the text of the list of {"cocycle", "orbit_classes"} objects,
    one per stratum in order, at depth.  Each cocycle and each quotient class
    is encoded and rendered once; each orbit-class list is joined from the
    class texts once per distinct tuple of classes, and each stratum is two
    pieces of out: its cocycle's head and its orbit-class list's tail."""
    ind = "\n" + "  " * (depth + 1)
    key_ind = "\n" + "  " * (depth + 2)
    cls_ind = "\n" + "  " * (depth + 3)
    list_end = "\n" + "  " * (depth + 2) + "]"
    close = "\n" + "  " * (depth + 1) + "}"
    class_texts, tails = {}, {}  # by id: strata keep every class and tuple alive
    start = len(out)
    for cocycle, per_orbit in strata.blocks:
        if id(per_orbit) not in tails:
            texts = []
            for classes in per_orbit:
                for c in classes:
                    if id(c) not in class_texts:
                        class_texts[id(c)] = _text(quotient_class_to_json(c), depth + 3)
                texts.append([class_texts[id(c)] for c in classes])
            tails[id(per_orbit)] = [
                f"[{cls_ind}{(',' + cls_ind).join(combo)}{list_end}{close}" if combo
                else "[]" + close for combo in product(*texts)]
        head = (f",{ind}{{{key_ind}\"cocycle\": "
                f"{_text(cochain_to_json(cocycle), depth + 2)},"
                f"{key_ind}\"orbit_classes\": ")
        out += chain.from_iterable(zip(repeat(head), tails[id(per_orbit)]))
    if len(out) == start:
        return out.append("[]")
    out[start] = "[" + out[start][1:]
    out.append(f"\n{'  ' * depth}]")
