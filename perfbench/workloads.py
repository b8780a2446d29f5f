"""Seeded input generation for the three workloads.

Each generator returns one *pass*: a list of ops, where an op is a dict with
the CLI verb, the input payload, extra CLI flags and an ``expect`` record the
oracle checks the output against.  The op mix and the size parameters of a
pass are fixed per workload; the seed draws the contents (tables, weights,
coefficients, exponents) and the order.  That keeps the cost profile of a
pass the same across seeds while the inputs differ.
"""

from fractions import Fraction
from math import comb

import cyclo
import plain

# -- cohomology -------------------------------------------------------------------

# (group, coefficient order) for `cocycle h2`: every one fits the default
# candidate bound; Z/7, m=7 is the 3 s case.  Larger ones are left out (see
# README: Z/8, m=8 takes 98.7 s).
H2_CASES = [([7], 7), ([8], 4), ([2, 4], 2), ([9], 3), ([6], 6), ([12], 2)]
# (N, m, branch orbit orders, model) for `moduli strata`; outputs 0.4-2 MB.
# Six ops share the 2 MB shape so that op_p90_ms falls inside a run of
# equal-cost ops (the seed only changes their genus) instead of on the edge
# between two op kinds, where it would jump from seed to seed.
STRATA_CASES = [(6, 6, [6, 6], {"kind": "gl", "r": 3})] * 6 + [
    (4, 4, [4, 4, 2], {"kind": "gl", "r": 3}),
    (6, 6, [6, 6, 3], {"kind": "sl", "r": 3})]
VERIFY_GROUPS = [[3], [4], [5], [6], [8], [9], [10], [12], [2, 2], [2, 4],
                 [2, 6], [3, 3], [4, 4], [2, 2, 2], [24]]
EXTEND_CASES = [([2], 2), ([3], 3), ([4], 2), ([4], 4), ([6], 2), ([2, 2], 2),
                ([6], 3), ([8], 2)]
ZETA_GROUPS = [[3], [4], [6], [8], [9], [12], [2, 4], [3, 3], [2, 6], [16]]
PERTURBED_VERIFIES = 5
SMALL_MODULI_EACH = 6


def cohomology(rng):
    ops = []
    for factors, m in H2_CASES:
        ops.append(_op("cocycle h2", {"group": factors, "coeff_order": m},
                       classes=plain.uct_count(factors, m),
                       candidates=plain.h2_candidates(factors, m)))
    for n, m, orbits, model in STRATA_CASES:
        covering = {"genus_x": rng.randint(2, 40), "group_order": n,
                    "orbit_orders": orbits}
        count = plain.uct_count([n], m)
        for nj in orbits:
            count *= plain.projected_class_count(nj, plain.model_size(model),
                                                 model["kind"], m)
        ops.append(_op("moduli strata", {"group": [n], "coeff_order": m,
                                         "covering": covering, "model": model},
                       count=count, candidates=plain.h2_candidates([n], m)))
    for idx, factors in enumerate(VERIFY_GROUPS):
        m = rng.randint(2, 6)
        table = plain.random_cocycle(rng, factors, m)
        if idx < PERTURBED_VERIFIES:
            n = len(table)
            a, b = rng.randrange(1, n), rng.randrange(1, n)
            table[a][b] = (table[a][b] + rng.randrange(1, m)) % m
        ops.append(_op("cocycle verify", plain.table_to_json(table, factors, m),
                       witness=plain.first_violation(table, factors, m)))
    for factors, m in EXTEND_CASES:
        table = plain.random_cocycle(rng, factors, m)
        ops.append(_op("cocycle extend", plain.table_to_json(table, factors, m)))
    for factors in ZETA_GROUPS:
        m = rng.randint(2, 6)
        table = plain.random_cocycle(rng, factors, m)
        gamma = rng.choice(plain.elements(factors)[1:])
        ops.append(_op("cocycle zeta", {"cochain": plain.table_to_json(table, factors, m),
                                        "element": list(gamma)},
                       zeta=plain.zeta_exponent(table, factors, m, gamma),
                       element_order=plain.element_order(gamma, factors)))
    for _ in range(SMALL_MODULI_EACH):
        ops.append(_rh_op(rng))
        ops.append(_degree_op(rng))
        ops.append(_stability_op(rng))
        ops.append(_scale_op(rng))
    rng.shuffle(ops)
    return ops


def _rh_op(rng):
    while True:
        N = rng.choice([2, 3, 4, 6, 8, 12])
        divisors = [d for d in range(2, N + 1) if N % d == 0]
        orbits = [rng.choice(divisors) for _ in range(rng.randint(0, 4))]
        g_y = rng.randint(0, 3)
        twice = N * (2 * g_y - 2) + sum(N // nj * (nj - 1) for nj in orbits)
        if twice % 2 == 0 and (twice + 2) // 2 >= 2:
            payload = {"genus_x": (twice + 2) // 2, "group_order": N,
                       "orbit_orders": orbits}
            return _op("moduli rh", payload, genus_y=g_y)


def _random_flag(rng):
    values = sorted({Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(rng.randint(1, 3))}, reverse=True)
    pieces = [{"value": str(v), "rank": rng.randint(1, 2),
               "degree": rng.randint(-5, 5)} for v in values]
    s = [p["value"] for p in pieces for _ in range(p["rank"])]
    corrections = [str(Fraction(rng.randint(-3, 3), rng.randint(1, 5)))
                   for _ in range(rng.randint(0, 2))]
    pairing = sum(Fraction(p["value"]) * p["degree"] for p in pieces)
    pairing += sum(Fraction(c) for c in corrections)
    return {"s": s, "pieces": pieces, "corrections": corrections}, pairing


def _degree_op(rng):
    flag, pairing = _random_flag(rng)
    return _op("moduli degree", flag, pairing=str(pairing))


def _stability_op(rng):
    flags = [_random_flag(rng) for _ in range(rng.randint(1, 4))]
    mode = rng.choice(["semistable", "stable"])
    violator = None
    for i, (_, value) in enumerate(flags):
        if value < 0 or (mode == "stable" and value == 0):
            violator = (i, str(value))
            break
    return _op("moduli stability", {"candidates": [f for f, _ in flags], "mode": mode},
               mode=mode, violator=violator)


def _scale_op(rng):
    N = rng.randint(1, 12)
    par = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
    claimed = N * par if rng.random() < 0.7 else N * par + Fraction(1, rng.randint(1, 3))
    return _op("moduli scale", {"parabolic_degree_y": str(par), "group_order": N,
                                "claimed_degree_x": str(claimed)},
               scaling_ok=claimed == N * par, integral=claimed.denominator == 1)


# -- descent ---------------------------------------------------------------------

MODELS = [{"kind": "gl", "r": 2}, {"kind": "gl", "r": 3}, {"kind": "gl", "r": 4},
          {"kind": "sl", "r": 3}, {"kind": "upq", "p": 2, "q": 2}]
N_SMALL = [4, 6, 8, 10, 12, 15, 20, 24, 30, 36, 40, 48, 60]
N_PRIME = [101, 103, 107, 109, 113]
# per pass: (verb, count); the first op of each local verb listed in
# PRIME_VERBS runs at a prime N drawn from N_PRIME, the rest at N_SMALL.
DESCENT_MIX = [("local check", 14), ("local descend", 10), ("local ascend", 8),
               ("local residue", 6), ("lie alcove", 6), ("lie eigenspaces", 6),
               ("lie parabolic", 6)]
PRIME_VERBS = ("local check", "local descend", "local ascend")
TWISTED_CHECKS = 4
PERTURBED_CHECKS = 3
WORKING_ORDER_OPS = 2  # per descend and ascend, plus one check
DENSITY = 0.6


def _coefficient(rng, N):
    """Mostly monomials q * zeta_M^k with M | N or M | 4; some dense values of order 3, 4 or 6."""
    q = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 4))
    if N in N_PRIME or rng.random() < 0.75:
        # at prime N only orders dividing 2N, so the working field stays Q(zeta_2N)
        M = rng.choice([1, 2, N, N] if N in N_PRIME else [1, 2, 4, N, N])
        return M, cyclo.root(M, rng.randrange(M), q)
    M = rng.choice([3, 4, 6])
    while True:
        vec = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cyclo.phi(M))]
        if any(vec):
            return M, vec


def _series(rng, model, alpha, N, trunc, variable, exponents_for):
    """A series on a DENSITY share of the allowed slots (at least one)."""
    slots = [(key, k) for key in plain.basis_keys(model)
             for k in exponents_for(plain.beta(model, alpha, key))]
    chosen = sorted(rng.sample(range(len(slots)), max(1, round(DENSITY * len(slots)))))
    terms = []
    for i in chosen:
        key, k = slots[i]
        M, vec = _coefficient(rng, N)
        terms.append({"basis": list(key), "k": k, "coeff": cyclo.to_json(M, vec)})
    return {"model": model, "alpha": [str(a) for a in alpha], "N": N,
            "variable": variable, "trunc": trunc, "terms": terms}


def _natural_order(series):
    orders = [series["N"]] + [Fraction(a).denominator for a in series["alpha"]]
    orders += [cyclo.from_json(t["coeff"])[0] for t in series["terms"]]
    return cyclo.lcm(*orders)


def _local_op(rng, verb, N, index):
    model = {"kind": "gl", "r": 2} if N in N_PRIME else MODELS[index % len(MODELS)]
    alpha = plain.random_interior_weight(rng, model, N)
    flags, expect = [], {}
    if verb in ("local check", "local descend"):
        twist = Fraction(0)
        if verb == "local check" and 0 < index <= TWISTED_CHECKS:
            twist = Fraction(rng.randrange(1, N), N)
            flags = ["--twist", str(twist)]
        trunc = 2 * N + N // 2 if N <= 60 else 2 * N

        def slots(b):
            base = (N * twist - N * b - 1) % N
            return list(range(int(base), trunc + 1, N))

        payload = _series(rng, model, alpha, N, trunc, "z", slots)
        violations = []
        if verb == "local check" and TWISTED_CHECKS < index <= TWISTED_CHECKS + PERTURBED_CHECKS:
            term = rng.choice(payload["terms"])
            term["k"] = term["k"] + 1 if term["k"] < trunc else term["k"] - 1
            violations = [[term["basis"], term["k"]]]
        expect = {"twist": str(twist), "violations": violations}
    else:
        trunc = 4

        def slots(b):
            return list(range(-1 if b < 0 else 0, trunc + 1))

        payload = _series(rng, model, alpha, N, trunc, "w", slots)
    natural = _natural_order(payload)
    if verb == "local check":
        forced = index == TWISTED_CHECKS + PERTURBED_CHECKS + 1
    else:
        forced = verb != "local residue" and 1 <= index <= WORKING_ORDER_OPS
    if forced:
        flags = flags + ["--working-order", str(2 * natural)]
    return _op(verb, payload, flags=flags, natural_order=natural, **expect)


def _lie_op(rng, verb, index):
    model = MODELS[index % len(MODELS)]
    r = plain.model_size(model)
    if verb == "lie alcove":
        exps = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(r)]
        if model["kind"] == "sl":
            exps[-1] = rng.randint(-2, 2) - sum(exps[:-1])
        alpha = plain.alcove(model, exps)
        return _op(verb, {"model": model, "exponents": [str(x) for x in exps]},
                   alpha=[str(a) for a in alpha], interior=plain.is_interior(model, alpha))
    if verb == "lie eigenspaces":
        alpha = plain.random_interior_weight(rng, model, rng.choice(N_SMALL))
        return _op(verb, {"model": model, "alpha": [str(a) for a in alpha]})
    s = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(r)]
    if model["kind"] == "sl":
        s[-1] = -sum(s[:-1])
    return _op(verb, {"model": model, "s": [str(x) for x in s]})


def descent(rng):
    ops = []
    slot = 0  # N cycles through N_SMALL, so every pass has the same N values
    for verb, count in DESCENT_MIX:
        for index in range(count):
            if verb.startswith("lie"):
                ops.append(_lie_op(rng, verb, index))
            elif verb in PRIME_VERBS and index == 0:
                ops.append(_local_op(rng, verb, rng.choice(N_PRIME), index))
            else:
                ops.append(_local_op(rng, verb, N_SMALL[slot % len(N_SMALL)], index))
                slot += 1
    rng.shuffle(ops)
    return ops


# -- pseudorepresentations ---------------------------------------------------------

# (n, m, rank, k) per op; n <= 12, m <= 6, rank 2-4.  The cocycle is k times
# the carry cocycle plus a coboundary that vanishes on the generator, so zeta
# is exactly k/m, and the exponents are drawn until they need the largest
# cyclotomic field zeta allows.  Together with a unimodular conjugator this
# fixes each op's arithmetic cost; the seed still draws the coboundary, the
# exponents, the conjugator and the order.
VERIFY_PARAMS = [
    # the first PERTURBED_REPS are perturbed
    (2, 2, 2, 1), (3, 3, 2, 0), (4, 2, 3, 1), (4, 4, 2, 0), (6, 2, 2, 1),
    (6, 3, 3, 0), (8, 2, 2, 0), (6, 6, 2, 0), (4, 2, 4, 1), (6, 2, 4, 0),
    (3, 3, 4, 1), (2, 4, 3, 1), (3, 2, 3, 1), (4, 3, 2, 1), (6, 4, 3, 1)]
# Two runs of equal-shape verifies: 16 rank-3 ones over Q(i), which hold the
# middle of the latency distribution, and 12 dense rank-4 ones over Q(zeta_18),
# the costliest ops of the pass.  op_p50_ms and op_p90_ms then each fall inside
# a run of similar-cost ops instead of on the edge between two op kinds.
VERIFY_PARAMS += [(4, 2, 3, 0)] * 16 + [(6, 3, 4, 1)] * 12
PERTURBED_REPS = 5
CLASSIFY_PARAMS = [(2, 2, 2, 1), (3, 3, 2, 1), (4, 2, 3, 0), (4, 4, 2, 1), (6, 2, 2, 0),
                   (6, 3, 3, 1), (5, 5, 2, 0), (8, 2, 2, 1), (12, 2, 2, 0), (6, 6, 2, 1),
                   (4, 2, 4, 0), (3, 3, 4, 0)]
TRANSPORT_PARAMS = [(2, 2, 2, 1), (4, 2, 2, 0), (3, 3, 3, 1), (6, 2, 2, 1), (4, 4, 2, 0),
                    (2, 2, 4, 1)]
ENUMERATE_PARAMS = [(2, 2), (3, 2), (4, 3), (6, 2), (5, 4), (8, 3), (12, 2), (6, 4)]
PROJECT_COUNT = 10


def _class_cocycle(rng, n, m, k):
    """k * carry + df on Z/n with f(0) = f(1) = 0, so that zeta(1) = k/m."""
    f = [0, 0] + [rng.randrange(m) for _ in range(n - 2)]
    return [[(k * ((a + b) // n) + f[(a + b) % n] - f[a] - f[b]) % m for b in range(n)]
            for a in range(n)]


def _admissible(n, z):
    """The n exponents q in [0, 1) with e^(2 pi i n q) = e^(2 pi i z)."""
    return [(z / n + Fraction(j, n)) % 1 for j in range(n)]


def _denominator_lcm(values):
    return cyclo.lcm(*(q.denominator for q in values))


def _exponents(rng, n, z, r):
    """r admissible exponents, sorted descending, that need the largest field."""
    choices = _admissible(n, z)
    target = _denominator_lcm(choices)
    while True:
        exps = sorted((rng.choice(choices) for _ in range(r)), reverse=True)
        if _denominator_lcm(exps) == target:
            return exps


def _int_matmul(a, b):
    return [[sum(a[i][l] * b[l][j] for l in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _inverse(mat):
    """Gauss-Jordan inverse over Q of an invertible square matrix."""
    r = len(mat)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(r)]
            for i, row in enumerate(mat)]
    for col in range(r):
        pivot = next(i for i in range(col, r) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(r):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return [row[r:] for row in rows]


def _pseudorep(rng, n, m, r, k):
    """(pseudorep JSON, zeta, exponents), written in plain Python.

    sigma(g^j) = e^(-2 pi i S_j / m) * h^-1 diag(e^(2 pi i j q)) h, with h a
    dense unimodular integer matrix, q the exponents and S_j = c(1, 0) + ... +
    c(1, j-1): the images that sigma(g) sigma(g^j) = c(g, g^j) sigma(g^(j+1))
    gives from sigma(g).  Every entry of sigma(g^j), j > 0, is written in
    Q(zeta_L), L the lcm of m and the exponent denominators.  The expected answers (validity, zeta,
    exponents) are the choices made here.
    """
    table = _class_cocycle(rng, n, m, k)
    z = Fraction(k % m, m)
    exps = _exponents(rng, n, z, r)
    # nonzero off-diagonal entries, so that every image is a dense matrix
    lower = [[rng.choice((-2, -1, 1, 2)) if i > j else int(i == j) for j in range(r)]
             for i in range(r)]
    upper = [[rng.choice((-2, -1, 1, 2)) if i < j else int(i == j) for j in range(r)]
             for i in range(r)]
    h = _int_matmul(lower, upper)  # determinant 1, so h^-1 is integral too
    h_inv = _inverse(h)
    L = cyclo.lcm(m, _denominator_lcm(exps))
    images, s = {}, 0
    for j in range(n):
        if j == 0:  # sigma(1) = Id, written with rational entries as a user would
            images["0"] = {"size": r, "entries": [[cyclo.to_json(1, [int(a == b)])
                                                   for b in range(r)] for a in range(r)]}
            s += table[1][0]
            continue
        shifts = [int((j * q - Fraction(s, m)) * L) for q in exps]
        entries = []
        for a in range(r):
            row = []
            for b in range(r):
                vec = [Fraction(0)] * cyclo.phi(L)
                for t in range(r):
                    weight = h_inv[a][t] * h[t][b]
                    if weight:
                        vec = [x + y for x, y in zip(vec, cyclo.root(L, shifts[t], weight))]
                row.append(cyclo.to_json(L, vec))
            entries.append(row)
        images[str(j)] = {"size": r, "entries": entries}
        s += table[1][j]
    payload = {"order": n, "cocycle": plain.table_to_json(table, [n], m), "images": images}
    return payload, z, exps


def _double_matrix(mat):
    """2 * mat: breaks sigma(g^k) sigma(g^-k) = c * Id, so verification must fail.
    (Negation would not do: for n = 2 it gives another valid pseudorep.)"""
    return {"size": mat["size"],
            "entries": [[{"order": x["order"], "coeffs": [str(2 * Fraction(c)) for c in x["coeffs"]]}
                         for x in row] for row in mat["entries"]]}


def reps(rng):
    ops = []
    for idx, (n, m, r, k) in enumerate(VERIFY_PARAMS):
        payload, _, _ = _pseudorep(rng, n, m, r, k)
        bad = None
        if idx < PERTURBED_REPS:
            bad = rng.randrange(1, n)
            payload["images"][str(bad)] = _double_matrix(payload["images"][str(bad)])
        ops.append(_op("pseudorep verify", payload, perturbed=bad))
    for n, m, r, k in CLASSIFY_PARAMS:
        payload, z, exps = _pseudorep(rng, n, m, r, k)
        ops.append(_op("pseudorep classify", payload, zeta=str(z),
                       exponents=[str(q) for q in exps]))
    for n, m, r, k in TRANSPORT_PARAMS:
        payload, _, _ = _pseudorep(rng, n, m, r, k)
        a = rng.randint(1, 3)
        ambient = [n * a]
        gamma0 = [rng.randrange(n * a)]
        ops.append(_op("pseudorep transport",
                       {"pseudorep": payload, "ambient_group": ambient,
                        "gamma0": gamma0, "generator_image": [a]}))
    for n, r in ENUMERATE_PARAMS:
        m = rng.randint(1, 6)
        z = Fraction(rng.randrange(m), m)
        ops.append(_op("pseudorep enumerate", {"order": n, "rank": r, "zeta": str(z),
                                               "model": "gl"},
                       count=comb(n + r - 1, r), zeta=str(z)))
    for _ in range(PROJECT_COUNT):
        n, m, r = rng.randint(2, 12), rng.randint(1, 6), rng.randint(2, 4)
        z = Fraction(rng.randrange(m), m)
        exps = _exponents(rng, n, z, r)
        sm = rng.randint(1, 6)
        ops.append(_op("pseudorep project",
                       {"class": {"order": n, "zeta": str(z), "exponents": [str(q) for q in exps]},
                        "scalar_order": sm},
                       exponents=[str(q) for q in plain.project(exps, sm)]))
    rng.shuffle(ops)
    return ops


# -----------------------------------------------------------------------------------

def _op(verb, payload, flags=(), **expect):
    return {"verb": verb, "payload": payload, "flags": list(flags), "expect": expect}


WORKLOADS = {"cohomology": cohomology, "descent": descent, "reps": reps}


def input_stats(ops):
    """Properties of one pass that a later change may target, for share reporting."""
    per_verb = {}
    max_order = 1
    terms = candidates = 0
    for op in ops:
        per_verb[op["verb"]] = per_verb.get(op["verb"], 0) + 1
        candidates += op["expect"].get("candidates", 0)
        p = op["payload"]
        if "terms" in p:
            terms += len(p["terms"])
            max_order = max(max_order, op["expect"]["natural_order"])
            if "--working-order" in op["flags"]:
                max_order = max(max_order, int(op["flags"][op["flags"].index("--working-order") + 1]))
        for x in _cyclotomics(p):
            max_order = max(max_order, x)
    return {"ops_per_pass": len(ops), "ops_per_verb": dict(sorted(per_verb.items())),
            "max_cyclotomic_order": max_order, "series_terms": terms,
            "h2_candidates": candidates}


def _cyclotomics(obj):
    if isinstance(obj, dict):
        if "order" in obj and "coeffs" in obj:
            yield obj["order"]
        for v in obj.values():
            yield from _cyclotomics(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _cyclotomics(v)
