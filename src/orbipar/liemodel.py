"""Matrix models of (H^C, m^C), Weyl alcoves, and parabolic entry masks.

Three model kinds are supported, all realized on diagonal torus
representatives:

  gl(r):    H^C = GL(r, C), m^C the full matrix algebra;
  sl(r):    traceless variant, with weights shifted to a zero-sum
            representative in (-1, 1);
  upq(p,q): H^C = GL(p) x GL(q) block diagonal, m^C the off-diagonal blocks
            (the bracket of two off-block elements is block diagonal, which
            is the Cartan relation [m, m] in h).

A basis element of m^C is its key (i, j), the same key the wire format
uses: the matrix unit E_ij, Ad-eigenvector of the torus e^{2 pi i alpha}
with exponent alpha_i - alpha_j.  For sl the diagonal units are replaced by
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

from .errors import MalformedInput, NotInIH, RankMismatch
from .scalars import signed_mod1

MAX_MODEL_SIZE = 4


class GroupModel:
    """A matrix model: its kind, ambient size, blocks, and basis keys of m^C."""

    def __init__(self, kind: str, r: int | None = None,
                 p: int | None = None, q: int | None = None):
        if kind in ("gl", "sl"):
            if not r or r < 1:
                raise MalformedInput("gl/sl models need a positive rank r")
            self.kind = kind
            self.size = r
            self.blocks = [range(0, self.size)]
        elif kind == "upq":
            if not p or not q or p < 1 or q < 1:
                raise MalformedInput("upq models need positive p and q")
            self.kind = kind
            self.p, self.q = p, q
            self.size = self.p + self.q
            self.blocks = [range(0, self.p), range(self.p, self.size)]
        else:
            raise MalformedInput(f"unknown model kind {kind!r}")
        if self.size > MAX_MODEL_SIZE:
            raise MalformedInput(f"model size {self.size} exceeds {MAX_MODEL_SIZE}")

        n = self.size
        self._block_of = tuple(bi for bi, blk in enumerate(self.blocks) for _ in blk)
        if kind == "upq":
            self.h_mask = tuple(tuple(x == y for y in self._block_of) for x in self._block_of)
            self.m_mask = tuple(tuple(not x for x in row) for row in self.h_mask)
        else:
            self.h_mask = self.m_mask = ((True,) * n,) * n

        # basis of m^C by key: matrix units row-major, then the sl diagonals
        self.basis = tuple((i, j) for i in range(n) for j in range(n)
                           if self.m_mask[i][j] and not (i == j and kind == "sl"))
        if kind == "sl":
            self.basis += tuple((i, i) for i in range(n - 1))

    @property
    def dim_m(self) -> int:
        return len(self.basis)

    def entries(self, key) -> tuple:
        """The nonzero entries (i, j, sign) of the basis element with this key:
        E_ij, or for sl and i == j the diagonal difference E_ii - E_{i+1,i+1}."""
        i, j = key
        if i == j and self.kind == "sl":
            return ((i, i, 1), (i + 1, i + 1, -1))
        return ((i, j, 1),)

    def weight_convention(self) -> str:
        """The audit name of the alcove weights' range: (-1,1) for sl, else [0,1)."""
        return "signed" if self.kind == "sl" else "zero_one"

    def __eq__(self, other):
        if not isinstance(other, GroupModel):
            return False
        if self.kind != other.kind:
            return False
        if self.kind == "upq":
            return (self.p, self.q) == (other.p, other.q)
        return self.size == other.size

    def __repr__(self):
        if self.kind == "upq":
            return f"GroupModel(upq, p={self.p}, q={self.q})"
        return f"GroupModel({self.kind}, r={self.size})"


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

    Reduce mod 1 into [0,1) and sort descending within each block; for sl,
    shift to the zero-sum representative by subtracting 1 from the S largest
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
    if model.kind == "sl":
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
    weight.beta[(i, j)], so the diagonal keys, sl's H_i among them, sit in
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
        if model.kind == "sl" and sum(s) != 0:
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
