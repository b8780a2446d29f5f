"""Matrix models of (H^C, m^C), Weyl alcoves, and parabolic entry masks.

A model kind is one row of KINDS: the wire names of its block sizes, and
whether m^C is traceless.  H^C is block diagonal, on diagonal torus
representatives; m^C is the full matrix algebra on one block and the
off-diagonal blocks on two, whose brackets are block diagonal ([m, m] in h):

  gl(r):    H^C = GL(r, C), m^C the full matrix algebra;
  sl(r):    its traceless variant, weights shifted to a zero-sum
            representative in (-1, 1);
  upq(p,q): H^C = GL(p) x GL(q), m^C the off-diagonal blocks.

A basis element of m^C is its key (i, j), the same key the wire format
uses: the matrix unit E_ij, Ad-eigenvector of the torus e^{2 pi i alpha}
with exponent alpha_i - alpha_j.  In a traceless m^C the diagonal units are
H_i = E_ii - E_{i+1,i+1}, keyed (i, i), exponent 0; ``GroupModel.entries``
is the one place that spells a key out as matrix entries.

Subspaces cut out by a rational diagonal s are represented as entry masks:
(i, j) lies in p_s iff s_i <= s_j (that is exactly boundedness of
e^{t(s_i - s_j)} as t grows), in the Levi iff s_i = s_j.  A weight vector
is a named tuple of its model, its entries and the exponent beta of each
basis key; only ``alcove_normalize`` builds one, so every weight is in
alcove form and its betas are computed once.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from .errors import MalformedInput, NotInIH, RankMismatch
from .scalars import signed_mod1

MAX_MODEL_SIZE = 4
# kind -> (wire names of its block sizes, whether m^C is traceless)
KINDS = {"gl": (("r",), False), "sl": (("r",), True), "upq": (("p", "q"), False)}


class GroupModel:
    """A matrix model built from its kind's row of KINDS: the block sizes
    `dims`, in the row's order, the ambient size, masks and basis keys of m^C."""

    def __init__(self, kind: str, **dims):
        if kind not in KINDS:
            raise MalformedInput(f"unknown model kind {kind!r}")
        names, self.traceless = KINDS[kind]
        if dims.keys() != set(names) or not all(d and d >= 1 for d in dims.values()):
            raise MalformedInput(f"{kind} models need positive {' and '.join(names)}")
        self.kind = kind
        self.dims = tuple(dims[name] for name in names)
        starts = tuple(accumulate(self.dims, initial=0))
        self.size = n = starts[-1]
        if n > MAX_MODEL_SIZE:
            raise MalformedInput(f"model size {n} exceeds {MAX_MODEL_SIZE}")
        self.blocks = [range(a, b) for a, b in zip(starts, starts[1:])]

        block_of = tuple(bi for bi, blk in enumerate(self.blocks) for _ in blk)
        one_block = len(self.blocks) == 1  # m^C: h^C's entries on one block, the rest on two
        self.h_mask = tuple(tuple(x == y for y in block_of) for x in block_of)
        self.m_mask = tuple(tuple((x == y) == one_block for y in block_of) for x in block_of)

        # basis of m^C by key: matrix units row-major, then the traceless diagonals
        self.basis = tuple((i, j) for i in range(n) for j in range(n)
                           if self.m_mask[i][j] and not (i == j and self.traceless)) \
            + tuple((i, i) for i in range(n - 1) if self.traceless)

    @property
    def dim_m(self) -> int:
        return len(self.basis)

    def entries(self, key) -> tuple:
        """The nonzero entries (i, j, sign) of the basis element with this key:
        E_ij, or if traceless and i == j the difference E_ii - E_{i+1,i+1}."""
        i, j = key
        if i == j and self.traceless:
            return ((i, i, 1), (i + 1, i + 1, -1))
        return ((i, j, 1),)

    def weight_convention(self) -> str:
        """The audit name of the alcove weights' range: (-1,1) if traceless, else [0,1)."""
        return "signed" if self.traceless else "zero_one"

    def __eq__(self, other):
        return isinstance(other, GroupModel) and (self.kind, self.dims) == (other.kind, other.dims)

    def __repr__(self):
        sizes = ", ".join(f"{name}={d}" for name, d in zip(KINDS[self.kind][0], self.dims))
        return f"GroupModel({self.kind}, {sizes})"


class WeightVector(namedtuple("WeightVector", "model entries beta")):
    """An alcove representative: one Fraction weight per diagonal slot, in
    model.weight_convention(), block-sorted; beta maps each key (i, j) of
    model.basis, in basis order, to signed_mod1(alpha_i - alpha_j)."""

    __slots__ = ()

    def is_interior(self) -> bool:
        """Strict inequalities inside each block, and strictly within the affine wall."""
        vals = self.entries
        for blk in self.model.blocks:
            b = [vals[i] for i in blk]
            if any(x <= y for x, y in zip(b, b[1:])):
                return False
            if b and b[0] - b[-1] >= 1:
                return False
        return True


def alcove_normalize(model: GroupModel, exponents) -> WeightVector:
    """The canonical alcove representative of a multiset of Fraction exponents.

    Reduce mod 1 into [0,1) and sort descending within each block; for a
    traceless m^C, shift to the zero-sum representative by subtracting 1 from the S largest
    entries, where S is the integer entry sum, and rotating them to the end:
    [2/3, 1/3] goes to [1/3, -1/3].  Idempotent and invariant under
    permutations within a block.
    """
    if len(exponents) != model.size:
        raise RankMismatch(f"need {model.size} exponents, got {len(exponents)}")
    out = [None] * model.size
    for blk in model.blocks:
        reduced = sorted((exponents[i] % 1 for i in blk), reverse=True)
        for slot, v in zip(blk, reduced):
            out[slot] = v
    if model.traceless:
        total = sum(out)
        if total.denominator != 1:
            raise NotInIH(f"sl exponents must have integral sum, got {total}")
        shift = int(total)
        if not 0 <= shift < model.size:  # entries lie in [0,1) after reduction
            raise AssertionError(f"integral sum {shift} outside [0, {model.size})")
        # subtract 1 from the `shift` largest entries: the result is the
        # zero-sum representative inside the affine wall, first - last <= 1
        out = out[shift:] + [v - 1 for v in out[:shift]]
    beta = {(i, j): signed_mod1(out[i] - out[j]) for i, j in model.basis}
    return WeightVector(model, tuple(out), beta)


def isotropy_eigenspaces(weight: WeightVector):
    """Split m^C into Ad(e^{2 pi i alpha}) eigenspaces.

    The basis element with key (i, j) is an eigenvector with exponent
    weight.beta[(i, j)], so the diagonal keys, the traceless H_i among them, sit in
    the zero eigenspace.  Returns [(beta, [keys])], beta descending, keys in
    model.basis order.
    """
    by_beta = {}
    for key, beta in weight.beta.items():
        by_beta.setdefault(beta, []).append(key)
    return sorted(by_beta.items(), key=lambda kv: kv[0], reverse=True)


class ParabolicData:
    """Entry masks for p_s, l_s, m_s, m_s^0 cut out by a diagonal s of Fractions."""

    def __init__(self, model: GroupModel, s):
        s = tuple(s)
        if len(s) != model.size:
            raise NotInIH(f"need {model.size} diagonal entries, got {len(s)}")
        if model.traceless and sum(s) != 0:
            raise NotInIH("sl requires a traceless diagonal s")
        self.model = model
        self.s = s
        le = [[x <= y for y in s] for x in s]
        eq = [[x == y for y in s] for x in s]
        self.p_mask = _mask_and(le, model.h_mask)
        self.l_mask = _mask_and(eq, model.h_mask)
        self.ms_mask = _mask_and(le, model.m_mask)
        self.m0_mask = _mask_and(eq, model.m_mask)

    def verify(self) -> bool:
        """l_s = p_s and its transpose, [p_s, p_s] in p_s, [p_s, m_s] in m_s and
        [l_s, m_s^0] in m_s^0, on the masks.

        A bracket of matrix units is E_ij E_jk - E_jk E_ij with E_ij E_jk = E_ik,
        and a diagonal basis element scales each unit, so a bracket of two
        masks lies inside a third iff the products of their entries do.
        """
        p, l = self.p_mask, self.l_mask
        return (l == _mask_and(p, tuple(zip(*p))) and _brackets_within(p, p, p)
                and _brackets_within(p, self.ms_mask, self.ms_mask)
                and _brackets_within(l, self.m0_mask, self.m0_mask))


def _brackets_within(a, b, c) -> bool:
    """[a, b] inside c for entry masks: E_ij E_jk = E_ik, both ways round."""
    n = range(len(a))
    return all(c[i][k] for i in n for j in n for k in n
               if a[i][j] and b[j][k] or b[i][j] and a[j][k])


def _mask_and(a, b):
    return tuple(tuple(x and y for x, y in zip(r, q)) for r, q in zip(a, b))


def parabolic_from_s(model: GroupModel, s) -> ParabolicData:
    return ParabolicData(model, s)
