"""gaussian_eigenvalues against sympy factoring over Q.

sympy is a test-only oracle: factoring the norm of the characteristic
polynomial over ``QQ`` decides exactly which roots are Gaussian
rationals.  Both sides must return the same (eigenvalue, multiplicity)
list, or raise EigenvalueError with the same message.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from meroconn import residues
from meroconn.field import CMat, GaussRat, gr
from meroconn.randomgen import rand_gauss, rand_invertible
from meroconn.residues import EigenvalueError, charpoly, gaussian_eigenvalues

sympy = pytest.importorskip("sympy")

OUTSIDE = "eigenvalues outside coefficient field"


def _fraction(x):
    return F(int(x.numerator), int(x.denominator))


def _rational_sqrt(x):
    """The nonnegative rational square root of the Fraction x, or None."""
    if x < 0:
        return None
    p, q = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return F(p, q) if (p * p, q * q) == (x.numerator, x.denominator) else None


def _divide_out(poly, z):
    """poly / (x - z) for poly = [c0, ..., cn] if z is a root, else None
    (synthetic division, exact)."""
    out, acc = [], GaussRat(0)
    for c in reversed(poly):
        acc = acc * z + c
        out.append(acc)
    if not out.pop().is_zero():
        return None
    return out[::-1]


def sympy_eigenvalues(m):
    """Eigenvalues in Q(i) with multiplicities, by sympy factoring over QQ.

    With f = R + iI the characteristic polynomial (R and I real), a root
    z of f in Q(i) is one of the norm N = R^2 + I^2 = f * conj(f), so a
    root of an irreducible factor of N over QQ of degree 1 (z rational)
    or 2 (z and its conjugate, when minus the discriminant is a rational
    square).  Each such candidate that is an exact root of f counts with
    its multiplicity, by repeated exact division; a shortfall means a
    root outside Q(i)."""
    poly = charpoly(m)
    lam = sympy.Symbol("lam")
    re, im = (sympy.Poly([sympy.QQ(x.numerator, x.denominator) for x in reversed(part)],
                         lam, domain=sympy.QQ)
              for part in ([c.re for c in poly], [c.im for c in poly]))
    _, factors = (re**2 + im**2).factor_list()
    candidates = []
    for fac, _ in factors:
        coeffs = [_fraction(c) for c in fac.all_coeffs()]
        if len(coeffs) == 2:
            candidates.append(GaussRat(-coeffs[1] / coeffs[0]))
        elif len(coeffs) == 3:
            a, b, c = coeffs
            root = _rational_sqrt(4 * a * c - b * b)
            if root is not None:
                candidates += [GaussRat(-b / (2 * a), sign * root / (2 * a)) for sign in (1, -1)]
    out = []
    for z in candidates:
        mult = 0
        while (quotient := _divide_out(poly, z)) is not None:
            poly, mult = quotient, mult + 1
        if mult:
            out.append((z, mult))
    if sum(mult for _, mult in out) != m.n:
        raise EigenvalueError(OUTSIDE)
    return sorted(out, key=lambda t: (t[0].re, t[0].im))


def outcome(fn, m):
    try:
        return fn(m)
    except EigenvalueError as exc:
        return ("EigenvalueError", str(exc))


def assert_same(m):
    got = outcome(gaussian_eigenvalues, m)
    assert got == outcome(sympy_eigenvalues, m)
    return got


def companion(coeffs):
    """Companion matrix of the monic polynomial sum c_k x^k + x^n,
    coefficients [c_0, ..., c_{n-1}]."""
    n = len(coeffs)
    rows = [[gr(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = gr(1)
    for i, c in enumerate(coeffs):
        rows[i][n - 1] = -GaussRat(c)
    return CMat(rows)


def conjugate(rng, m):
    p = rand_invertible(rng, m.n)
    return p * m * p.inv()


def poly_mul(a, b):
    out = [GaussRat(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_conjugated_triangular_with_repeated_eigenvalues():
    rng = random.Random(11)
    for n in range(1, 7):
        for _ in range(3):
            palette = [rand_gauss(rng, 4, 4) for _ in range(max(1, n // 2))]
            rows = [[gr(0)] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.choice(palette)
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        rows[i][j] = rand_gauss(rng, 3, 3)
            got = assert_same(conjugate(rng, CMat(rows)))
            assert sum(mult for _, mult in got) == n


def test_zero_matrix():
    for n in range(1, 5):
        assert assert_same(CMat.zero(n)) == [(gr(0), n)]


def test_dense_random_matrices():
    rng = random.Random(12)
    outcomes = []
    for k in range(10):
        n = 2 + k % 4
        m = CMat([[rand_gauss(rng, 5, 3) for _ in range(n)] for _ in range(n)])
        outcomes.append(assert_same(m))
    assert any(isinstance(o, tuple) for o in outcomes)


def test_mixed_split_and_non_split():
    rng = random.Random(13)
    minus_i = GaussRat(0, -1)
    for coeffs in (poly_mul([-1, 1], [-2, 0, 1]),  # (x - 1)(x^2 - 2)
                   poly_mul(poly_mul([minus_i, 1], [minus_i, 1]), [1, 1, 1]),
                   poly_mul([F(-1, 2), 1], [-3, 0, 0, 1])):
        m = conjugate(rng, companion(coeffs[:-1]))
        assert assert_same(m) == ("EigenvalueError", OUTSIDE)


def test_roots_one_lattice_step_apart():
    # roots 0 and 1/q: the denominator bound L is q, so they sit at
    # adjacent points of the lattice (1/L) Z[i]
    for q in (7, 2**40 + 15):
        m = companion([F(0), F(-1, q)])
        assert assert_same(m) == [(gr(0), 1), (gr(F(1, q)), 1)]
        # a non-split factor makes it a refusal
        m = companion(poly_mul([0, F(-1, q), 1], [-2, 0, 1])[:-1])
        assert assert_same(m) == ("EigenvalueError", OUTSIDE)


def test_near_lattice_quadratics_alone_and_with_lattice_and_non_split_factors():
    # x^2 - 10^30 x + 1 is irreducible; its roots lie within 1e-30 of
    # 10^30 and of 0, next to lattice points that are no roots.  Alone,
    # times the non-split (x^2 - 3) and times (x - 3), whose root 3 is
    # on the lattice, the outcome is decided exactly
    eps = F(2, 10**62)
    cases = (
        ([F(1), F(-10**30)], ("EigenvalueError", OUTSIDE)),
        # the same near miss with a large denominator bound
        ([1 - eps, F(-2)], ("EigenvalueError", OUTSIDE)),
        # and a split neighbour: roots 10^30 and 10^-30 exactly
        ([F(1), -(F(10**30) + F(1, 10**30))], [(gr(F(1, 10**30)), 1), (gr(10**30), 1)]),
    )
    for quadratic, want in cases:
        assert assert_same(companion(quadratic)) == want
        quartic = companion(poly_mul(quadratic + [F(1)], [F(-3), F(0), F(1)])[:-1])
        assert assert_same(quartic) == ("EigenvalueError", OUTSIDE)
        cubic = companion(poly_mul(quadratic + [F(1)], [F(-3), F(1)])[:-1])
        got = assert_same(cubic)
        assert got == want if isinstance(want, tuple) else got == [want[0], (gr(3), 1), want[1]]


def test_lattice_root_divided_out_of_a_near_lattice_cubic():
    # x(x^2 - 10^30 x + 1): the root near 1e-30 crowds the lattice root
    # 0.  (x + 1/3)(x^2 - 2x + 1 - 2e-62): two roots 1.4e-31 from 1.
    # Both are decided quickly, outside Q(i)
    eps = F(2, 10**62)
    for lattice_root, quadratic in ((F(0), [F(1), F(-10**30)]), (F(-1, 3), [1 - eps, F(-2)])):
        m = companion(poly_mul([-lattice_root, F(1)], quadratic + [F(1)])[:-1])
        start = time.perf_counter()
        got = outcome(gaussian_eigenvalues, m)
        assert time.perf_counter() - start < 1.0
        assert got == ("EigenvalueError", OUTSIDE) == outcome(sympy_eigenvalues, m)


def test_quadratic_discriminants_decided_without_numerics():
    # x^2 + bx + c with discriminant D = b^2 - 4c: split exactly when D
    # has a square root in Q(i), which needs |D| rational and both
    # (|D| +- Re D)/2 rational squares
    rng = random.Random(14)
    discriminants = [gr(4), gr(-9), gr(0, 2), gr(0, -2), gr(3, 4), gr(-7, 24), gr(F(9, 4)),
                     gr(F(-3, 4), -1), gr(2), gr(-3), gr(0, 1), gr(1, 1), gr(5, 12) * gr(2),
                     gr(F(1, 3)), gr(6, 8) * gr(F(1, 2))]
    discriminants += [rand_gauss(rng, 6, 3) ** 2 for _ in range(10)]
    discriminants += [rand_gauss(rng, 6, 3) for _ in range(10)]
    split = 0
    for d in discriminants:
        b = rand_gauss(rng, 5, 3)
        m = conjugate(rng, companion([(b * b - d) * GaussRat(F(1, 4)), b]))
        got = assert_same(m)
        split += isinstance(got, list)
        # and a repeated pair: the same quadratic squared
        p2 = poly_mul([(b * b - d) * GaussRat(F(1, 4)), b, gr(1)],
                      [(b * b - d) * GaussRat(F(1, 4)), b, gr(1)])
        assert assert_same(conjugate(rng, companion(p2[:-1]))) == (
            got if not isinstance(got, list) else [(z, 2 * k) for z, k in got])
    assert 15 <= split < len(discriminants)


def _roots_with_multiplicities(roots):
    return sorted(Counter(roots).items(), key=lambda t: (t[0].re, t[0].im))


# Gaussian rationals (a + bi)/q with |a|, |b| from 0 up to 10^40, so
# that one root often dominates the others and sits next to the Cauchy
# bound of the scaled squarefree part
_PARTS = st.builds(lambda s, e, k: s * (10**e - k), st.sampled_from([1, -1]),
                   st.sampled_from([0, 1, 12, 40]), st.integers(0, 9))
_ROOTS = st.builds(lambda a, b, q: GaussRat(F(a, q), F(b, q)),
                   _PARTS, _PARTS, st.sampled_from([1, 2, 3, 40, 2**31 - 1]))
# irreducible over Q(i): x^2 - 3, x^2 - i, x^3 + 2
_NON_SPLIT = [None, [-3, 0, 1], [GaussRat(0, -1), 0, 1], [2, 0, 0, 1]]


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(st.lists(_ROOTS, min_size=1, max_size=3),
       st.lists(st.integers(0, 2), min_size=3, max_size=3),
       st.sampled_from(_NON_SPLIT), st.integers(0, 2**16))
def test_products_of_linear_factors_match_sympy(roots, repeats, extra, seed):
    # companion matrices of prod (x - z)^k, conjugated, sometimes times
    # an irreducible quadratic or cubic
    roots = roots + [z for z, k in zip(roots, repeats) for _ in range(k)][:2]
    coeffs = [GaussRat(1)]
    for z in roots:
        coeffs = poly_mul(coeffs, [-z, GaussRat(1)])
    if extra is not None:
        coeffs = poly_mul(coeffs, [GaussRat(c) for c in extra])
    got = assert_same(conjugate(random.Random(seed), companion(coeffs[:-1])))
    assert got == (_roots_with_multiplicities(roots) if extra is None
                   else ("EigenvalueError", OUTSIDE))


def test_roots_at_the_cauchy_bound():
    # one root +-R or +-iR far above the others: a or b is within the
    # others' size of the bound B, and only a modulus above 2B tells +R
    # from -R.  With R alone the prime is 5, and R = 3/4 of a power
    # 5^(2^j) is past half of the first such power above B
    for big in (10**40, 2**64 + 1, 3 * 5**16 // 4, 3 * 5**32 // 4):
        for unit in (GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1)):
            for rest in ([], [GaussRat(1)], [GaussRat(-1, 1), GaussRat(F(1, 3), 2)]):
                roots = [unit * GaussRat(big)] + rest
                coeffs = [GaussRat(1)]
                for z in roots:
                    coeffs = poly_mul(coeffs, [-z, GaussRat(1)])
                got = gaussian_eigenvalues(companion(coeffs[:-1]))
                assert got == _roots_with_multiplicities(roots)


def test_bad_primes_are_skipped():
    # roots 0, P/den and 2P/den with P the product of the first 100
    # primes = 1 (mod 4): the discriminant 4 P^6 (scaled) vanishes mod
    # each of them, so both images are squarefree first at the 101st
    primes, p = [], 5
    while len(primes) < 101:
        if all(p % f for f in range(3, int(p**0.5) + 1, 2)):
            primes.append(p)
        p += 4
    big = math.prod(primes[:100])
    for den in (1, 3):
        m = companion([F(0), F(2 * big * big, den * den), F(-3 * big, den)])
        got = gaussian_eigenvalues(m)
        scaled = [(z * GaussRat(den), k) for z, k in got]
        assert scaled == [(gr(0), 1), (gr(big), 1), (gr(2 * big), 1)]
        # y = den^2 x scales the characteristic polynomial to g
        g = [(0, 0), (2 * (big * den) ** 2, 0), (-3 * big * den, 0), (1, 0)]
        assert residues._good_prime(g)[0] == primes[100]
