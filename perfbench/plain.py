"""Plain-Python models of the inputs: groups, cochains, weights and classes.

The generator uses these to build inputs whose answers are known, and the
oracles use them to check outputs.  Nothing here imports ``orbipar``.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd


# -- finite abelian groups and 2-cochains --------------------------------------

def elements(factors):
    """Elements of Z/n_1 x ... x Z/n_t in the row-major order orbipar indexes."""
    return [tuple(e) for e in product(*(range(n) for n in factors))] if factors else [()]


def add(a, b, factors):
    return tuple((x + y) % n for x, y, n in zip(a, b, factors))


def group_order(factors):
    out = 1
    for n in factors:
        out *= n
    return out


def uct_count(factors, m):
    """|H^2(Z/n_1 x ... x Z/n_t, Z/m)| by the universal coefficient theorem."""
    out = 1
    for i, n in enumerate(factors):
        out *= gcd(n, m)
        for n2 in factors[i + 1:]:
            out *= gcd(gcd(n, n2), m)
    return out


def h2_candidates(factors, m):
    """Seed tables the brute-force H^2 enumerates: m^(t(|G|-1)), t generators."""
    n = group_order(factors)
    t = sum(1 for f in factors if f > 1)
    return m ** (t * (n - 1)) if n > 1 else 1


def product_table(factors):
    els = elements(factors)
    index = {e: i for i, e in enumerate(els)}
    return [[index[add(a, b, factors)] for b in els] for a in els]


def random_cocycle(rng, factors, m):
    """A normalized 2-cocycle table: carry cocycles + a bilinear form + df."""
    els = elements(factors)
    n = len(els)
    carry = [rng.randrange(m) for _ in factors]
    bil = {}
    for i, ni in enumerate(factors):
        for j, nj in enumerate(factors):
            bil[i, j] = _bilinear_step(ni, nj, m) * rng.randrange(m)
    f = [0] + [rng.randrange(m) for _ in range(n - 1)]
    prod = product_table(factors)
    table = [[0] * n for _ in range(n)]
    for ia, a in enumerate(els):
        for ib, b in enumerate(els):
            v = sum(k * ((x + y) // nf) for k, x, y, nf in zip(carry, a, b, factors))
            v += sum(k * a[i] * b[j] for (i, j), k in bil.items())
            v += f[prod[ia][ib]] - f[ia] - f[ib]
            table[ia][ib] = v % m
    return table


def _bilinear_step(ni, nj, m):
    """Least K with K*ni = K*nj = 0 mod m, so (a, b) -> K a_i b_j is bilinear."""
    a, b = m // gcd(ni, m), m // gcd(nj, m)
    return a * b // gcd(a, b)


def first_violation(table, factors, m):
    """Least (a, b, d) index triple breaking the cocycle identity, or None."""
    prod = product_table(factors)
    n = len(table)
    for a in range(n):
        for b in range(n):
            pab, tab = prod[a][b], table[a][b]
            for d in range(n):
                if (table[pab][d] + tab - table[a][prod[b][d]] - table[b][d]) % m:
                    return a, b, d
    return None


def table_to_json(table, factors, m):
    n = len(table)
    return {"group": list(factors), "coeff_order": m,
            "table": [[i, j, str(Fraction(table[i][j], m))]
                      for i in range(n) for j in range(n)]}


def table_from_json(data):
    m = data["coeff_order"]
    n = group_order(data["group"])
    table = [[0] * n for _ in range(n)]
    for i, j, v in data["table"]:
        table[i][j] = int(Fraction(v) * m) % m
    return table


def zeta_exponent(table, factors, m, gamma):
    """sum over i = 1..ord-1 of c(gamma, gamma^i), as the string of k/m."""
    index = {e: i for i, e in enumerate(elements(factors))}
    total, cur = 0, gamma
    while any(cur):
        total += table[index[gamma]][index[cur]]
        cur = add(cur, gamma, factors)
    return str(Fraction(total % m, m))


def element_order(gamma, factors):
    k, cur = 1, gamma
    while any(cur):
        cur = add(cur, gamma, factors)
        k += 1
    return k


def extension_table(table, factors, m):
    """Cayley table of Z/m x G with (z,a)(z',b) = (z + z' + c(a,b), ab)."""
    prod = product_table(factors)
    n = len(table)
    return [[((z1 + z2 + table[a][b]) % m) * n + prod[a][b]
             for z2 in range(m) for b in range(n)]
            for z1 in range(m) for a in range(n)]


def table_element_orders(ext):
    out = []
    for i in range(len(ext)):
        k, cur = 1, i
        while cur != 0:
            cur = ext[cur][i]
            k += 1
        out.append(k)
    return sorted(out)


# -- Lie models and weights -----------------------------------------------------

def model_size(model):
    return model["p"] + model["q"] if model["kind"] == "upq" else model["r"]


def blocks(model):
    if model["kind"] == "upq":
        return [list(range(model["p"])), list(range(model["p"], model_size(model)))]
    return [list(range(model_size(model)))]


def block_of(model):
    out = {}
    for bi, blk in enumerate(blocks(model)):
        for i in blk:
            out[i] = bi
    return out


def in_h(model, i, j):
    bo = block_of(model)
    return model["kind"] != "upq" or bo[i] == bo[j]


def in_m(model, i, j):
    bo = block_of(model)
    return model["kind"] != "upq" or bo[i] != bo[j]


def basis_keys(model):
    """Wire keys of the basis of m^C: E_ij -> (i, j); sl diagonal H_i -> (i, i)."""
    r = model_size(model)
    keys = [(i, j) for i in range(r) for j in range(r)
            if in_m(model, i, j) and not (i == j and model["kind"] == "sl")]
    if model["kind"] == "sl":
        keys += [(i, i) for i in range(r - 1)]
    return keys


def signed(x):
    """The representative of x mod 1 in (-1, 1) keeping the sign of x."""
    r = x - (x.numerator // x.denominator)
    if x < 0 and r != 0:
        r -= 1
    return r


def beta(model, alpha, key):
    i, j = key
    return Fraction(0) if i == j else signed(alpha[i] - alpha[j])


def alcove(model, exponents):
    """Canonical alcove representative, as orbipar's README specifies it."""
    vals = [Fraction(x) for x in exponents]
    out = [None] * len(vals)
    for blk in blocks(model):
        for slot, v in zip(blk, sorted((vals[i] % 1 for i in blk), reverse=True)):
            out[slot] = v
    if model["kind"] == "sl":
        shift = int(sum(out))
        out = out[shift:] + [v - 1 for v in out[:shift]]
    return out


def is_interior(model, alpha):
    for blk in blocks(model):
        b = [alpha[i] for i in blk]
        if any(x <= y for x, y in zip(b, b[1:])) or (b and b[0] - b[-1] >= 1):
            return False
    return True


def random_interior_weight(rng, model, N):
    """An interior alcove weight with every entry in (1/N)Z."""
    r = model_size(model)
    while True:
        vals = [Fraction(rng.randrange(N), N) for _ in range(r)]
        if model["kind"] == "sl":
            vals[-1] = Fraction(-sum(vals[:-1])) % 1
        alpha = alcove(model, vals)
        if is_interior(model, alpha):
            return alpha


# -- pseudorepresentation classes -------------------------------------------------

def project(values, m):
    """Lexicographically least sorted-descending shift by k/m, k in Z/m."""
    return min(tuple(sorted(((v + Fraction(k, m)) % 1 for v in values), reverse=True))
               for k in range(m))


def projected_class_count(nj, r, kind, m):
    """Distinct center-projected classes of order-nj diagonal reps with zeta = 0."""
    candidates = [Fraction(j, nj) for j in range(nj)]
    seen = set()
    for combo in combinations_with_replacement(candidates, r):
        if kind == "sl" and sum(combo).denominator != 1:
            continue
        seen.add(project(combo, m))
    return len(seen)
