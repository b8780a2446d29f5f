"""Matrix models of (H^C, m^C), Weyl alcoves, and parabolic entry masks.

Three model kinds are supported, all realized on diagonal torus
representatives:

  gl(r):    H^C = GL(r, C), m^C the full matrix algebra;
  sl(r):    traceless variant, with weights shifted to a zero-sum
            representative in (-1, 1);
  upq(p,q): H^C = GL(p) x GL(q) block diagonal, m^C the off-diagonal blocks
            (the bracket of two off-block elements is block diagonal, which
            is the Cartan relation [m, m] in h).

Subspaces cut out by a rational diagonal s are represented as entry masks:
(i, j) lies in p_s iff s_i <= s_j (that is exactly boundedness of
e^{t(s_i - s_j)} as t grows), in the Levi iff s_i = s_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .errors import MalformedInput, NotAlcoveForm, NotInIH, RankMismatch
from .matrices import CycMatrix
from .scalars import Convention, FractionalWeight, normalize_weight, rational

MAX_MODEL_SIZE = 4


class GroupModel:
    """A matrix model: its kind, ambient size, blocks, and basis of m^C."""

    def __init__(self, kind: str, r: int | None = None,
                 p: int | None = None, q: int | None = None):
        if kind in ("gl", "sl"):
            if not r or r < 1:
                raise MalformedInput("gl/sl models need a positive rank r")
            self.kind = kind
            self.size = int(r)
            self.blocks = [range(0, self.size)]
        elif kind == "upq":
            if not p or not q or p < 1 or q < 1:
                raise MalformedInput("upq models need positive p and q")
            self.kind = kind
            self.p, self.q = int(p), int(q)
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

        # bases of m^C and h^C: matrix units, plus diagonal differences for sl
        bases = []
        for mask in (self.m_mask, self.h_mask):
            basis = [("unit", i, j) for i in range(n) for j in range(n)
                     if mask[i][j] and not (i == j and self.kind == "sl")]
            if self.kind == "sl":
                basis += [("diagdiff", i) for i in range(n - 1)]
            bases.append(basis)
        self.m_basis, self.h_basis = bases
        self._basis_by_key = {self.basis_key(b): b for b in range(len(self.m_basis))}

    @property
    def dim_m(self) -> int:
        return len(self.m_basis)

    def basis_key(self, idx: int) -> tuple:
        """The (i, j) key used on the wire: E_ij -> (i, j), H_i -> (i, i)."""
        kind = self.m_basis[idx]
        if kind[0] == "unit":
            return (kind[1], kind[2])
        return (kind[1], kind[1])

    def basis_index(self, key) -> int:
        key = (int(key[0]), int(key[1]))
        if key not in self._basis_by_key:
            raise MalformedInput(f"{key} is not a basis key of this model")
        return self._basis_by_key[key]

    def basis_array(self, elem) -> list:
        out = [[0] * self.size for _ in range(self.size)]
        if elem[0] == "unit":
            out[elem[1]][elem[2]] = 1
        else:
            i = elem[1]
            out[i][i] = 1
            out[i + 1][i + 1] = -1
        return out

    def basis_matrix(self, idx: int) -> CycMatrix:
        return CycMatrix(self.basis_array(self.m_basis[idx]))

    def weight_convention(self) -> Convention:
        return Convention.SIGNED if self.kind == "sl" else Convention.ZERO_ONE

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


@dataclass(frozen=True)
class WeightVector:
    """An alcove representative: one weight per diagonal slot, block-sorted."""

    model: GroupModel
    entries: tuple  # FractionalWeight per slot

    def values(self):
        return tuple(w.value for w in self.entries)

    def is_interior(self) -> bool:
        """Strict inequalities inside each block, and strictly within the affine wall."""
        vals = self.values()
        for blk in self.model.blocks:
            b = [vals[i] for i in blk]
            if any(x <= y for x, y in zip(b, b[1:])):
                return False
            if b and b[0] - b[-1] >= 1:
                return False
        return True


def alcove_normalize(model: GroupModel, exponents) -> WeightVector:
    """The canonical alcove representative of a multiset of exponents.

    Reduce mod 1 into [0,1) and sort descending within each block; for sl,
    shift to the zero-sum representative by subtracting 1 from the S smallest
    entries, where S is the integer entry sum.  Idempotent and invariant
    under permutations within a block.
    """
    vals = [w.value if isinstance(w, FractionalWeight) else rational(w) for w in exponents]
    if len(vals) != model.size:
        raise RankMismatch(f"need {model.size} exponents, got {len(vals)}")
    out = [None] * model.size
    for blk in model.blocks:
        reduced = sorted((vals[i] % 1 for i in blk), reverse=True)
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
        conv = Convention.SIGNED
    else:
        conv = Convention.ZERO_ONE
    return WeightVector(model, tuple(FractionalWeight(v, conv) for v in out))


def check_alcove(model: GroupModel, weight: WeightVector):
    if weight.model != model:
        raise NotAlcoveForm("weight vector belongs to a different model")
    renorm = alcove_normalize(model, weight.values())
    if renorm.values() != weight.values():
        raise NotAlcoveForm(f"{weight.values()} is not in alcove form")


def isotropy_eigenspaces(model: GroupModel, weight: WeightVector):
    """Split m^C into Ad(e^{2 pi i alpha}) eigenspaces.

    Each matrix unit E_ij is an eigenvector with exponent alpha_i - alpha_j
    (signed representative); diagonal basis elements sit in the zero
    eigenspace.  Returns [(beta, [basis indices])], beta descending.
    """
    check_alcove(model, weight)
    vals = weight.values()
    by_beta: dict[FractionalWeight, list[int]] = {}
    for idx, elem in enumerate(model.m_basis):
        if elem[0] == "unit":
            i, j = elem[1], elem[2]
            beta = normalize_weight(vals[i] - vals[j], Convention.SIGNED)
        else:
            beta = FractionalWeight(0, Convention.SIGNED)
        by_beta.setdefault(beta, []).append(idx)
    return sorted(by_beta.items(), key=lambda kv: kv[0].value, reverse=True)


def beta_of_basis(model: GroupModel, weight: WeightVector):
    """Exponent beta per basis index, as a list aligned with model.m_basis."""
    out = [None] * model.dim_m
    for beta, idxs in isotropy_eigenspaces(model, weight):
        for i in idxs:
            out[i] = beta
    return out


class ParabolicData:
    """Entry masks for p_s, l_s, m_s, m_s^0 cut out by a rational diagonal s."""

    def __init__(self, model: GroupModel, s):
        s = [rational(x) for x in s]
        if len(s) != model.size:
            raise NotInIH(f"need {model.size} diagonal entries, got {len(s)}")
        if model.kind == "sl" and sum(s) != 0:
            raise NotInIH("sl requires a traceless diagonal s")
        self.model = model
        self.s = tuple(s)
        le = [[x <= y for y in s] for x in s]
        eq = [[x == y for y in s] for x in s]
        self.p_mask = _mask_and(le, model.h_mask)
        self.l_mask = _mask_and(eq, model.h_mask)
        self.ms_mask = _mask_and(le, model.m_mask)
        self.m0_mask = _mask_and(eq, model.m_mask)

    def _subspace_basis(self, mask, ambient):
        """Basis elements of the ambient list whose support fits inside mask."""
        arrays = (self.model.basis_array(elem) for elem in ambient)
        return [arr for arr in arrays if self._supported(arr, mask)]

    def levi_is_intersection(self) -> bool:
        opposite = ParabolicData(self.model, [-x for x in self.s])
        return self.l_mask == _mask_and(self.p_mask, opposite.p_mask)

    @staticmethod
    def _bracket(a, b):
        """ab - ba, skipping zero entries: basis elements have one or two."""
        out = [[0] * len(a) for _ in a]
        for x, y, sign in ((a, b, 1), (b, a, -1)):
            for i, row in enumerate(x):
                for k, v in enumerate(row):
                    if v:
                        for j, w in enumerate(y[k]):
                            out[i][j] += sign * v * w
        return out

    @staticmethod
    def _supported(arr, mask) -> bool:
        return all(ok or not x for row, mrow in zip(arr, mask) for x, ok in zip(row, mrow))

    def bracket_closed(self) -> bool:
        """[p_s, p_s] inside p_s, exhaustively on basis pairs."""
        basis = self._subspace_basis(self.p_mask, self.model.h_basis)
        return all(self._supported(self._bracket(x, y), self.p_mask)
                   for x in basis for y in basis)

    def p_preserves_m(self) -> bool:
        pb = self._subspace_basis(self.p_mask, self.model.h_basis)
        mb = self._subspace_basis(self.ms_mask, self.model.m_basis)
        return all(self._supported(self._bracket(x, y), self.ms_mask)
                   for x in pb for y in mb)

    def levi_preserves_m0(self) -> bool:
        lb = self._subspace_basis(self.l_mask, self.model.h_basis)
        mb = self._subspace_basis(self.m0_mask, self.model.m_basis)
        return all(self._supported(self._bracket(x, y), self.m0_mask)
                   for x in lb for y in mb)

    def verify(self) -> bool:
        return (self.levi_is_intersection() and self.bracket_closed()
                and self.p_preserves_m() and self.levi_preserves_m0())


def _mask_and(a, b):
    return tuple(tuple(x and y for x, y in zip(r, q)) for r, q in zip(a, b))


def parabolic_from_s(model: GroupModel, s) -> ParabolicData:
    return ParabolicData(model, s)


def s_from_weight(weight: WeightVector):
    """The diagonal s induced by a weight's entry ordering (the weight itself)."""
    return [Fraction(v) for v in weight.values()]
