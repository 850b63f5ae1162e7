"""gaussian_eigenvalues against sympy factoring over Q(i).

sympy is a test-only oracle: ``factor_list(..., extension=I)`` decides
exactly which roots of the characteristic polynomial are Gaussian
rationals.  Both sides must return the same (eigenvalue, multiplicity)
list, or raise EigenvalueError with the same message.
"""

import random
import time
from fractions import Fraction as F

import pytest

from meroconn import residues
from meroconn.field import CMat, GaussRat, gr
from meroconn.randomgen import rand_gauss, rand_invertible
from meroconn.residues import EigenvalueError, charpoly, gaussian_eigenvalues

sympy = pytest.importorskip("sympy")

OUTSIDE = "eigenvalues outside coefficient field"


def sympy_eigenvalues(m):
    """Eigenvalues in Q(i) with multiplicities by sympy factoring."""
    lam = sympy.Symbol("lam")
    expr = sympy.Integer(0)
    for k, c in enumerate(charpoly(m)):
        a, b, d = c.t
        expr += (sympy.Rational(a, d) + sympy.Rational(b, d) * sympy.I) * lam**k
    _, factors = sympy.factor_list(sympy.expand(expr), lam, extension=sympy.I)
    out = []
    for fac, mult in factors:
        poly = sympy.Poly(fac, lam)
        if poly.degree() == 0:
            continue
        if poly.degree() != 1:
            raise EigenvalueError(OUTSIDE)
        c1, c0 = poly.all_coeffs()
        re, im = sympy.simplify(-c0 / c1).as_real_imag()
        if not (re.is_rational and im.is_rational):
            raise EigenvalueError(OUTSIDE)
        out.append((GaussRat(F(int(re.p), int(re.q)), F(int(im.p), int(im.q))), int(mult)))
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
        # with a non-split factor the certificate must separate them
        m = companion(poly_mul([0, F(-1, q), 1], [-2, 0, 1])[:-1])
        assert assert_same(m) == ("EigenvalueError", OUTSIDE)


def _recorded_passes(monkeypatch):
    """The precision of every numeric root-finding pass, in call order."""
    precs = []
    approx = residues._approx_roots

    def recording(p, prec):
        precs.append(prec)
        return approx(p, prec)

    monkeypatch.setattr(residues, "_approx_roots", recording)
    return precs


def test_near_lattice_quadratic_escalates_precision(monkeypatch):
    # x^2 - 10^30 x + 1 is irreducible; its roots lie within 1e-30 of
    # 10^30 and of 0.  As a quadratic it is decided exactly, with no
    # numeric pass.  Times (x^2 - 3), which has no root in Q(i), it goes
    # to the root finder, whose first pass cannot separate the roots
    # from those lattice points.  Times (x - 3) the passes end once one
    # finds the lattice root 3: the quadratic quotient is exact again
    precs = _recorded_passes(monkeypatch)
    eps = F(2, 10**62)
    cases = (
        ([F(1), F(-10**30)], ("EigenvalueError", OUTSIDE)),
        # the same near miss with a large denominator bound
        ([1 - eps, F(-2)], ("EigenvalueError", OUTSIDE)),
        # and a split neighbour: roots 10^30 and 10^-30 exactly
        ([F(1), -(F(10**30) + F(1, 10**30))], [(gr(F(1, 10**30)), 1), (gr(10**30), 1)]),
    )
    for quadratic, want in cases:
        precs.clear()
        assert assert_same(companion(quadratic)) == want
        assert precs == []
        quartic = companion(poly_mul(quadratic + [F(1)], [F(-3), F(0), F(1)])[:-1])
        assert assert_same(quartic) == ("EigenvalueError", OUTSIDE)
        assert len(precs) > 1 and precs == sorted(precs)
        if isinstance(want, tuple):
            assert precs[-1] > precs[0]
        precs.clear()
        cubic = companion(poly_mul(quadratic + [F(1)], [F(-3), F(1)])[:-1])
        got = assert_same(cubic)
        assert got == want if isinstance(want, tuple) else got == [want[0], (gr(3), 1), want[1]]
        assert precs and precs == sorted(precs)


def test_lattice_root_divided_out_of_a_near_lattice_cubic(monkeypatch):
    # x(x^2 - 10^30 x + 1): the root near 1e-30 crowds the lattice root
    # 0, and no inclusion disk separates them.  (x + 1/3)(x^2 - 2x + 1 -
    # 2e-62): two roots 1.4e-31 from 1.  Each pass divides the exact
    # roots it finds out, and the quadratic quotient is decided exactly,
    # so one pass settles both
    precs = _recorded_passes(monkeypatch)
    eps = F(2, 10**62)
    for lattice_root, quadratic in ((F(0), [F(1), F(-10**30)]), (F(-1, 3), [1 - eps, F(-2)])):
        m = companion(poly_mul([-lattice_root, F(1)], quadratic + [F(1)])[:-1])
        precs.clear()
        start = time.perf_counter()
        got = outcome(gaussian_eigenvalues, m)
        assert time.perf_counter() - start < 1.0
        assert got == ("EigenvalueError", OUTSIDE) == outcome(sympy_eigenvalues, m)
        assert len(precs) == 1


def test_quadratic_discriminants_decided_without_numerics(monkeypatch):
    # x^2 + bx + c with discriminant D = b^2 - 4c: split exactly when D
    # has a square root in Q(i), which needs |D| rational and both
    # (|D| +- Re D)/2 rational squares
    precs = _recorded_passes(monkeypatch)
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
    assert precs == [] and 15 <= split < len(discriminants)
