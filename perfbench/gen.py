"""Seeded input generator for the benchmark.

Builds every workload's items as ``meroconn/1`` JSON documents using
only ``random`` and ``fractions``: it never imports meroconn, so a change
to the library's own generators, scalar type or kernel cannot change
what is measured.  Each item also carries an ``expect`` section computed
here, independently of the library, which the checks compare against.

Gaussian rationals are ``(re, im)`` pairs of Fractions throughout.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

FORMAT = "meroconn/1"

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
SMALL_WEIGHTS = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                 Fraction(2, 3), Fraction(3, 4)]


# ----------------------------------------------------------------------
# exact scalars and their encoding
# ----------------------------------------------------------------------

def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ginv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def is_zero(x):
    return x[0] == 0 and x[1] == 0


def enc_frac(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def enc_g(x):
    return {"re": enc_frac(x[0]), "im": enc_frac(x[1])}


def dec_g(obj):
    if isinstance(obj, str):
        return (Fraction(obj), Fraction(0))
    return (Fraction(obj.get("re", 0)), Fraction(obj.get("im", 0)))


def enc_mat(m):
    return [[enc_g(x) for x in row] for row in m]


def rand_frac(rng, num_max, den_max, nonzero=False):
    while True:
        f = Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))
        if f or not nonzero:
            return f


def rand_g(rng, num_max, den_max, complex_ok=True, nonzero=False):
    while True:
        re = rand_frac(rng, num_max, den_max)
        im = rand_frac(rng, num_max, den_max) if complex_ok and rng.random() < 0.4 else Fraction(0)
        if not (nonzero and re == 0 and im == 0):
            return (re, im)


# ----------------------------------------------------------------------
# exact matrices (lists of rows of Gaussian rationals)
# ----------------------------------------------------------------------

def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(n):
                if not is_zero(a[i][k]) and not is_zero(b[k][j]):
                    acc = gadd(acc, gmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def mat_inv(a):
    """Gauss-Jordan inverse; returns None for a singular matrix."""
    n = len(a)
    aug = [list(a[i]) + identity(n)[i] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not is_zero(aug[r][col])), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = ginv(aug[col][col])
        aug[col] = [gmul(x, inv_p) for x in aug[col]]
        for r in range(n):
            if r != col and not is_zero(aug[r][col]):
                f = aug[r][col]
                aug[r] = [gsub(x, gmul(f, y)) for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def diag(entries):
    n = len(entries)
    return [[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)]


# ----------------------------------------------------------------------
# series and Laurent matrices, as {exponent: coefficient} dicts
# ----------------------------------------------------------------------

def enc_series(terms, trunc):
    terms = {e: c for e, c in terms.items() if not is_zero(c) and e < trunc}
    if not terms:
        return {"order_min": 0, "coeffs": [], "trunc": trunc}
    lo, hi = min(terms), max(terms)
    return {
        "order_min": lo,
        "coeffs": [enc_g(terms.get(e, ZERO)) for e in range(lo, hi + 1)],
        "trunc": trunc,
    }


def enc_lmatrix(rows, trunc):
    return {"n": len(rows), "trunc": trunc,
            "entries": [[enc_series(x, trunc) for x in row] for row in rows]}


def weight_doc(theta):
    return [enc_frac(t) for t in theta]


def m_r(theta, i, j):
    """ceil(-(theta_i - theta_j)): valuation bound of the root group."""
    return math.ceil(-(theta[i] - theta[j]))


# ----------------------------------------------------------------------
# canonical workload
# ----------------------------------------------------------------------

def _regular_polar(rng, n, complex_ok):
    while True:
        entries = [rand_g(rng, 10, 10, complex_ok) for _ in range(n)]
        if len(set(entries)) == n:
            return sorted(entries)


def _connection(rng, n, pole, trunc, theta, complex_ok, density=0.6):
    """Diagonal polar part with a regular semisimple leading term plus a
    dense tail inside the theta-parahoric Lie algebra.  Returns the
    matrix of series and the polar diagonal {j: entries}."""
    rows = [[{} for _ in range(n)] for _ in range(n)]
    polar = {pole: _regular_polar(rng, n, complex_ok)}
    for j in range(1, pole):
        polar[j] = [rand_g(rng, 10, 10, complex_ok) for _ in range(n)]
    for j, ent in polar.items():
        for i in range(n):
            if not is_zero(ent[i]):
                rows[i][i][-j] = ent[i]
    for i in range(n):
        for k in range(n):
            lo = max(0, m_r(theta, i, k)) if i != k else 0
            for m in range(lo, trunc):
                if rng.random() < density:
                    c = rand_g(rng, 10, 10, complex_ok)
                    if not is_zero(c):
                        rows[i][k][m] = c
    return rows, polar


def _parahoric_gauge(rng, theta, trunc, factors=4):
    """Torus unit series times root elements I + c z^m E_ij with
    m >= m_r: a theta-parahoric group element by construction."""
    n = len(theta)
    g = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        g[i][i][0] = rand_g(rng, 5, 5, nonzero=True)
        for m in range(1, trunc):
            if rng.random() < 0.3:
                g[i][i][m] = rand_g(rng, 5, 5)
    for _ in range(factors):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        m = m_r(theta, i, j) + rng.randint(0, 2)
        c = rand_g(rng, 5, 5)
        # right-multiplying by I + c z^m E_ij adds c z^m (column i) to column j
        for r in range(n):
            for e, v in list(g[r][i].items()):
                if e + m < trunc:
                    g[r][j][e + m] = gadd(g[r][j].get(e + m, ZERO), gmul(c, v))
    return g


def _irregular_expect(polar, n):
    """Q = sum_j B_-j z^-j / (-j), encoded as jsonio encodes it."""
    out = {}
    for j in sorted(polar):
        ent = [(-c[0] / j, -c[1] / j) for c in polar[j]]
        if any(not is_zero(c) for c in ent):
            out[str(j)] = [enc_g(c) for c in ent]
    return {"n": n, "coeffs": out}


# (pole order, zero theta, complex coefficients): the GL2 trunc-12 items
# cycle through all of these, so every run sees the same feature mix.  The
# few costlier items per run keep pole 2, real and dense coefficients, so
# that the p90 does not depend on which features a seed gave them.
CANONICAL_FEATURES = [(pole, zero, cplx) for pole in (1, 2, 3) for zero in (True, False)
                      for cplx in (False, True)]
CANONICAL_HEAVY_FEATURES = [(2, True, False), (2, False, False)]


def canonical_item(rng, kind, n, trunc, features, density=0.6):
    pole, zero_theta, complex_ok = features
    theta = [Fraction(0)] * n if zero_theta else [rng.choice(SMALL_WEIGHTS) for _ in range(n)]
    rows, polar = _connection(rng, n, pole, trunc, theta, complex_ok, density)
    item = {
        "kind": kind, "n": n, "pole": pole, "trunc": trunc,
        "theta": weight_doc(theta),
        "conn": {"format": FORMAT, "kind": "connection", "B": enc_lmatrix(rows, trunc)},
        "expect": {"irregular_type": _irregular_expect(polar, n)},
    }
    if kind == "invariance":
        item["gauge"] = enc_lmatrix(_parahoric_gauge(rng, theta, trunc + pole), trunc + pole)
    return item


# Each block lists (kind, n, trunc) in the proportions of the mix; the
# block is shuffled and repeated, so any prefix of the item sequence has
# nearly the same mix.  The costs are tiered so that the median falls
# inside the GL2 trunc-12 reductions and the p90 inside the trunc-24
# ones (a fifth of the items), not on a boundary between tiers; GL3/GL4
# at trunc 24 are left out, as one such item costs seconds.
CANONICAL_BLOCK = (
    [("reduce", 2, 12)] * 12 + [("invariance", 2, 12)] * 2 + [("reduce", 3, 12)]
    + [("reduce", 2, 24)] * 4 + [("reduce", 4, 12)]
)


# ----------------------------------------------------------------------
# dictionary workload
# ----------------------------------------------------------------------

def de_rham_local(rng, n, complex_s):
    """Random local de Rham data: a block partition; beta, s and Q
    constant on blocks; Y strictly lower triangular inside blocks.  The
    eigenvalues s are all real, or all have a nonzero imaginary part."""
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    bounds = [0] + cuts + [n]
    blocks = [list(range(bounds[k], bounds[k + 1])) for k in range(len(bounds) - 1)]
    beta = [Fraction(0)] * n
    s = [ZERO] * n
    for idxs in blocks:
        b = rng.choice([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(-1, 4)])
        v = (rand_frac(rng, 6, 6), rand_frac(rng, 6, 6, nonzero=True) if complex_s else Fraction(0))
        for i in idxs:
            beta[i], s[i] = b, v
    q = {}
    if rng.random() < 0.8:
        for j in (1, 2):
            if rng.random() < 0.7:
                vals = [ZERO] * n
                for idxs in blocks:
                    v = rand_g(rng, 6, 6)
                    for i in idxs:
                        vals[i] = v
                q[j] = vals
    residue = diag(s)
    for idxs in blocks:
        for a in range(1, len(idxs)):
            for b in range(a):
                if rng.random() < 0.6:
                    residue[idxs[a]][idxs[b]] = rand_g(rng, 4, 4)
    q_doc = {"n": n, "coeffs": {str(j): [enc_g(c) for c in v]
                                for j, v in q.items() if any(not is_zero(c) for c in v)}}
    half_q = {"n": n, "coeffs": {str(j): [enc_g((c[0] / 2, c[1] / 2)) for c in v]
                                 for j, v in q.items() if any(not is_zero(c) for c in v)}}
    doc = {"format": FORMAT, "kind": "de_rham_local", "beta": weight_doc(beta),
           "residue": enc_mat(residue), "q": q_doc}
    expect = {
        "alpha": [enc_frac(c[0]) for c in s],
        "gamma": [enc_frac(b - c[0]) for b, c in zip(beta, s)],
        "half_q": half_q,
    }
    return doc, expect


def _oracle_exponent(rng):
    """|b| <= 1 keeps the RK4 oracle's error well below 1e-8 at the step
    counts used here."""
    den = rng.randint(1, 6)
    return Fraction(rng.randint(-den, den), den)


def expected_multiplier(b: Fraction):
    return cmath.exp(2j * cmath.pi * float(b))


def dictionary_item(rng, n, oracle, weight_jump, complex_s):
    doc, expect = de_rham_local(rng, n, complex_s)
    item = {"kind": "dictionary", "n": n, "local": doc, "expect": expect,
            "oracle": None, "weight_jump": weight_jump}
    if oracle:
        b = _oracle_exponent(rng)
        q = None
        if rng.random() < 0.5:
            q = {"n": 1, "coeffs": {"1": [enc_g(rand_g(rng, 3, 3, nonzero=True))]}}
        m = expected_multiplier(b)
        item["oracle"] = {"b": enc_frac(b), "q": q}
        item["expect"]["multiplier"] = [m.real, m.imag]
    return item


# (n, oracle, weight_jump).  The oracle items and n = 4 (about 0.55 s
# each) are the top fifth, so the p90 falls inside them.
DICTIONARY_BLOCK = (
    [(2, False, False)] * 8 + [(3, False, False)] * 6 + [(2, False, True), (3, False, True)]
    + [(4, False, False), (2, True, False), (2, True, False), (3, True, False)]
)


# ----------------------------------------------------------------------
# stokes_betti workload
# ----------------------------------------------------------------------

def _distinct_diffs(vals):
    n = len(vals)
    diffs = [gsub(vals[a], vals[b]) for a in range(n) for b in range(n) if a != b]
    return len(set(diffs)) == len(diffs) and all(not is_zero(d) for d in diffs)


def irregular_type(rng, n, pole, axis):
    """Leading coefficients with pairwise distinct differences.  With
    ``axis`` all leading differences lie on one coordinate axis, so
    every angle is a rational multiple of pi."""
    while True:
        if axis:
            ints = rng.sample(range(-9, 10), n)
            if rng.random() < 0.5:
                lead = [(Fraction(k), Fraction(0)) for k in ints]
            else:
                lead = [(Fraction(0), Fraction(k)) for k in ints]
        else:
            lead = [rand_g(rng, 8, 4, complex_ok=False) for _ in range(n)]
            lead = [(x[0], rand_frac(rng, 8, 4, nonzero=True)) for x in lead]
        if _distinct_diffs(lead):
            break
    coeffs = {pole: lead}
    for j in range(1, pole):
        if rng.random() < 0.5:
            coeffs[j] = [rand_g(rng, 6, 6) for _ in range(n)]
    return coeffs


def anti_stokes_floats(lead, k):
    """Directions of the leading terms c_r z^-k, as floats in [0, 2pi):
    (arg c_r + (2m - 1) pi) / k for every root r and m < k, merged."""
    n = len(lead)
    out = []
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            d = gsub(lead[a], lead[b])
            base = cmath.phase(complex(float(d[0]), float(d[1])))
            for m in range(k):
                phi = ((base + (2 * m - 1) * math.pi) / k) % (2 * math.pi)
                if not any(angle_close(phi, x) for x in out):
                    out.append(phi)
    return sorted(out)


def angle_close(a, b, tol=1e-9):
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d) < tol


def stokes_item(rng, n, pole, axis):
    coeffs = irregular_type(rng, n, pole, axis)
    doc = {"n": n, "coeffs": {str(j): [enc_g(c) for c in v] for j, v in coeffs.items()}}
    return {
        "kind": "stokes", "n": n, "pole": pole, "axis": axis, "q": doc,
        "expect": {"angles": anti_stokes_floats(coeffs[pole], pole),
                   "dim": pole * n * (n - 1)},
    }


def _four_direction_factors(rng):
    """GL2 puncture for diag(1, -1) z^-2, solved constructively:
    S1 = I + u E21, S2 = I + a E12, then b, c and h follow from the
    relation: b = -u/(1+au), c = -a(1+au), h = diag(1/(1+au), 1+au)."""
    while True:
        a = rand_g(rng, 5, 5, nonzero=True)
        u = rand_g(rng, 5, 5, nonzero=True)
        w = gadd(ONE, gmul(a, u))
        if not is_zero(w):
            break
    b = gmul((-u[0], -u[1]), ginv(w))
    c = gmul((-a[0], -a[1]), w)
    s = [
        [[ONE, ZERO], [u, ONE]],
        [[ONE, a], [ZERO, ONE]],
        [[ONE, ZERO], [b, ONE]],
        [[ONE, c], [ZERO, ONE]],
    ]
    return s, diag([ginv(w), w])


GL2_FOUR = {"n": 2, "coeffs": {"2": [enc_g(ONE), enc_g((Fraction(-1), Fraction(0)))]}}


def _invertible(rng, n, num_max=3, den_max=3, dense=False):
    while True:
        m = [[rand_g(rng, num_max, den_max, complex_ok=False, nonzero=dense)
              for _ in range(n)] for _ in range(n)]
        if mat_inv(m) is not None:
            return m


def relation_rep(rng, genus, punctures):
    """Relation-satisfying GL2 representation: commuting handle pairs
    (A, A^2 + cA + I) and constructively solved punctures."""
    handles = []
    for _ in range(genus):
        while True:
            a = _invertible(rng, 2)
            c = rand_g(rng, 3, 3)
            b = [[gadd(gadd(x, gmul(c, y)), e) for x, y, e in zip(ra, rb, ri)]
                 for ra, rb, ri in zip(mat_mul(a, a), a, identity(2))]
            if mat_inv(b) is not None:
                break
        handles.append([enc_mat(a), enc_mat(b)])
    ps = []
    for _ in range(punctures):
        s, h = _four_direction_factors(rng)
        ps.append({"q": GL2_FOUR, "C": enc_mat(identity(2)), "h": enc_mat(h),
                   "S": [enc_mat(x) for x in s]})
    return {"format": FORMAT, "kind": "stokes_rep", "genus": genus,
            "handles": handles, "punctures": ps}


def betti_item(rng, genus, punctures):
    rep = relation_rep(rng, genus, punctures)
    g = _invertible(rng, 2)
    ks = [diag([rand_g(rng, 4, 4, nonzero=True) for _ in range(2)]) for _ in range(punctures)]
    return {"kind": "betti", "rep": rep, "g": enc_mat(g), "ks": [enc_mat(k) for k in ks]}


def stability_rep(rng, n, irreducible):
    """Two punctures with opposite formal monodromies h, h^-1 and the
    same conjugator C, so the relation holds exactly.  Q has distinct
    real entries, so h is diagonal and the Stokes factors are trivial.
    A dense C lies in no proper parabolic (irreducible); a C that is
    block upper triangular for a random ordered partition is reducible."""
    ints = rng.sample(range(1, 10), n)
    q = {"n": n, "coeffs": {"1": [enc_g((Fraction(k), Fraction(0))) for k in ints]}}
    if irreducible:
        c = _invertible(rng, n, dense=True)
    else:
        order = list(range(n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        block = {}
        for pos, i in enumerate(order):
            block[i] = sum(1 for cut in cuts if pos >= cut)
        while True:
            c = [[ZERO if block[i] > block[j] else rand_g(rng, 3, 3, complex_ok=False)
                  for j in range(n)] for i in range(n)]
            if mat_inv(c) is not None:
                break
    h = [rand_g(rng, 4, 4, complex_ok=False, nonzero=True) for _ in range(n)]
    ndir = len(anti_stokes_floats([(Fraction(k), Fraction(0)) for k in ints], 1))
    ident = [enc_mat(identity(n))] * ndir
    ps = [{"q": q, "C": enc_mat(c), "h": enc_mat(diag(h)), "S": ident},
          {"q": q, "C": enc_mat(c), "h": enc_mat(diag([ginv(x) for x in h])), "S": ident}]
    return {"format": FORMAT, "kind": "stokes_rep", "genus": 0, "handles": [],
            "punctures": ps}


def stability_item(rng, n, irreducible):
    rep = stability_rep(rng, n, irreducible)
    weights = [[enc_frac(Fraction(rng.randint(-4, 4), rng.randint(1, 4))) for _ in range(n)]
               for _ in range(2)]
    return {"kind": "stability", "n": n, "rep": rep, "weights": weights,
            "expect": {"irreducible": irreducible}}


# Axis-aligned items for every (n, pole), interval-decided ones with
# the cost rising steeply in n and pole (n = 5, pole 3 costs about 100
# times n = 2).  Five n = 5, pole-3 items and one pole-4 item are the top
# sixth of the 36, so the p90 falls inside them.
STOKES_BETTI_BLOCK = (
    [("stokes", n, pole, True) for n in (2, 3, 4, 5) for pole in (2, 3, 4)]
    + [("stokes", n, pole, False) for n, pole in
       [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]]
    + [("stokes", 5, 3, False)] * 5 + [("stokes", 5, 4, False)]
    + [("betti", 0, 1), ("betti", 1, 1), ("betti", 0, 2), ("betti", 1, 2)]
    + [("stability", n, irr) for n in (3, 4, 5) for irr in (True, False)]
)


def _stokes_betti_item(rng, spec):
    kind, *rest = spec
    return {"stokes": stokes_item, "betti": betti_item, "stability": stability_item}[kind](rng, *rest)


# ----------------------------------------------------------------------
# cli workload
# ----------------------------------------------------------------------

def cli_item(rng, command):
    """One CLI call: argv (with {name} placeholders for input files), the
    documents to write, and the exit code the input implies."""
    if command == "canonical-form":
        item = canonical_item(rng, "reduce", 2, 8, rng.choice(CANONICAL_FEATURES))
        return {"command": command,
                "files": {"conn": ["connection", item["conn"]], "w": ["weight", item["theta"]]},
                "argv": ["canonical-form", "--input", "{conn}", "--weight", "{w}", "--trunc", "8"],
                "exit": 0}
    if command in ("antistokes", "stokes-dim"):
        item = stokes_item(rng, 3, 2, rng.random() < 0.5)
        return {"command": command, "files": {"q": ["irregular", item["q"]]},
                "argv": [command, "--irregular-type", "{q}"], "exit": 0}
    if command == "check-relation":
        rep = relation_rep(rng, rng.randint(0, 1), rng.randint(1, 2))
        return {"command": command, "files": {"rep": ["rep", rep]},
                "argv": ["check-relation", "--rep", "{rep}"], "exit": 0}
    if command == "stability":
        irr = rng.random() < 0.5
        rep = stability_rep(rng, 3, irr)
        zero = [["0"] * 3, ["0"] * 3]
        return {"command": command, "files": {"rep": ["rep", rep], "w": ["weights", zero]},
                "argv": ["stability", "--rep", "{rep}", "--weights", "{w}"],
                "exit": 0 if irr else 1}
    if command.startswith("translate"):
        doc, _ = de_rham_local(rng, 2, False)
        return {"command": command, "files": {"local": ["local", doc]},
                "argv": ["translate", "--to", command.split("-")[1], "--input", "{local}"],
                "exit": 0}
    if command.startswith("verify-metric"):
        doc, _ = de_rham_local(rng, 2, False)
        extra = ["--numeric"] if command.endswith("numeric") else []
        return {"command": command, "files": {"local": ["local", doc]},
                "argv": ["verify-metric", "--input", "{local}"] + extra, "exit": 0}
    if command == "oracle-monodromy":
        b = _oracle_exponent(rng)
        return {"command": command, "files": {},
                "argv": ["oracle-monodromy", f"--b={enc_frac(b)}", "--steps", "1024",
                         "--precision", "64"], "exit": 0}
    raise ValueError(command)


# Import-only commands (~0.25 s each) and commands that import sympy or
# numpy/scipy or run the RK4 oracle (0.55-1 s).  Each pool holds every
# light command four times and every heavy one once: 20% heavy calls put
# the median among the light calls and the p90 among the heavy ones, not
# in the gap between them.  The heavy calls get small inputs (n = 2, real
# eigenvalues), so that their cost is mostly the imports and the p90
# does not depend on which inputs a seed drew.
CLI_LIGHT = ["canonical-form", "antistokes", "stokes-dim", "check-relation", "stability"]
CLI_HEAVY = ["translate-dol", "translate-betti", "verify-metric", "verify-metric-numeric",
             "oracle-monodromy"]


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

WORKLOADS = ("canonical", "dictionary", "stokes_betti", "cli")
POOL_SIZE = {"canonical": 160, "dictionary": 160, "stokes_betti": 216}


def _blocked(rng, block, count, features=lambda spec: (None,)):
    """``count`` specs from shuffled copies of ``block``, each with a
    feature tuple; the specs of one kind cycle through features(spec)."""
    cycles = {}
    specs = []
    while len(specs) < count:
        b = list(block)
        rng.shuffle(b)
        for spec in b:
            if not cycles.get(spec):
                cycles[spec] = rng.sample(list(features(spec)), len(features(spec)))
            specs.append((*spec, cycles[spec].pop()))
    return specs[:count]


def generate(workload: str, seed: int) -> dict:
    """{"warmup": item, "items": [item, ...]} for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    # the warm-up item does not depend on the seed, so set-up time does not
    wrng = random.Random(f"{workload}:warmup")
    count = POOL_SIZE.get(workload, 0)
    if workload == "canonical":
        warmup = canonical_item(wrng, "invariance", 2, 12, (2, False, True))
        def features(spec):
            return CANONICAL_FEATURES if spec[1:] == (2, 12) else CANONICAL_HEAVY_FEATURES

        items = [canonical_item(rng, *spec, density=0.6 if spec[1:3] == (2, 12) else 1.0)
                 for spec in _blocked(rng, CANONICAL_BLOCK, count, features)]
    elif workload == "dictionary":
        warmup = dictionary_item(wrng, 2, False, True, True)
        items = [dictionary_item(rng, *spec)
                 for spec in _blocked(rng, DICTIONARY_BLOCK, count, lambda spec: (False, True))]
    elif workload == "stokes_betti":
        warmup = stokes_item(wrng, 3, 2, False)
        items = [_stokes_betti_item(rng, spec[:-1])
                 for spec in _blocked(rng, STOKES_BETTI_BLOCK, count)]
    elif workload == "cli":
        warmup = cli_item(wrng, "stokes-dim")
        commands = CLI_LIGHT * 4 + CLI_HEAVY
        rng.shuffle(commands)
        items = [cli_item(rng, c) for c in commands]
        for k, item in enumerate([warmup] + items):
            item["id"] = k
            for key, spec in item["files"].items():
                spec.insert(0, f"{k}-{key}.json")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "warmup": warmup, "items": items}
