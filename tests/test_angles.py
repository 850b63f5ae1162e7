import functools
import math
import random
from fractions import Fraction as F

import pytest
import mpmath
from hypothesis import given, settings, strategies as st
from mpmath import iv
from mpmath.libmp import from_man_exp, fzero, mpf_gt, mpf_lt, mpi_cos

from meroconn.angles import (_PRECISIONS, AngleExpr, PrecisionError, _axis_diag_eighths,
                             _octant_index, _quarter_sign, arg_angle, cos_sign, cos_sin_pi,
                             exact_runs, exp_enclosure, nearest_double, opposite_arg_angle,
                             pi_enclosure)
from meroconn.field import gr
from meroconn.rootdata import Root
from meroconn.stokes import _decay_signs, _directions


# ---------------------------------------------------------------------
# principal arguments of Gaussian rationals
# ---------------------------------------------------------------------

def test_axis_and_diagonal_arguments_exact():
    cases = {
        gr(2): F(0), gr(-3): F(1), gr(0, 5): F(1, 2), gr(0, -1): F(3, 2),
        gr(1, 1): F(1, 4), gr(-2, 2): F(3, 4), gr(-1, -1): F(5, 4),
        gr(3, -3): F(7, 4),
    }
    for c, want in cases.items():
        assert arg_angle(c).pi_ratio() == want


def test_generic_argument_is_irrational_multiple():
    for c in (gr(1, 2), gr(-3, 1), gr(2, -5), gr(F(1, 2), F(1, 3))):
        assert arg_angle(c).pi_ratio() is None


def test_argument_addition_certificates():
    a = arg_angle(gr(1, 2))
    conj = arg_angle(gr(1, -2))
    # principal args of c and its conjugate sum to 2 pi
    assert (a + conj).pi_ratio() == 2
    # doubling matches the argument of the square
    sq = arg_angle(gr(1, 2) * gr(1, 2))
    assert (a.scale(2) - sq).is_zero()
    # and a genuinely different angle is recognized as different
    assert a.compare(arg_angle(gr(2, 1))) != 0


def test_compare_and_sort():
    angs = [
        arg_angle(gr(2, 1)),       # ~0.4636
        arg_angle(gr(1, 1)),       # pi/4
        arg_angle(gr(1, 2)),       # ~1.1071
        AngleExpr.of_pi(F(1, 2)),  # pi/2
    ]
    ordered = sorted(angs, key=functools.cmp_to_key(lambda x, y: x.compare(y)))
    assert [round(float(x), 4) for x in ordered] == [0.4636, 0.7854, 1.1071, 1.5708]


def test_principal_reduction():
    assert AngleExpr.of_pi(F(-1, 2)).principal().pi_ratio() == F(3, 2)
    a = arg_angle(gr(1, 2))
    shifted = (a + AngleExpr.of_pi(4)).principal()
    assert shifted.compare(a) == 0


def test_is_multiple_of_pi():
    assert AngleExpr.of_pi(3).pi_ratio() == 3
    assert AngleExpr.of_pi(F(3, 2)).pi_ratio().denominator == 2
    assert (AngleExpr.of_pi(4).pi_ratio() / 2).denominator == 1
    assert arg_angle(gr(1, 2)).pi_ratio() is None
    # arg(1+2i) + arg(1-2i) is a multiple of 2 pi
    total = arg_angle(gr(1, 2)) + arg_angle(gr(1, -2))
    assert total.terms and total.pi_ratio() == 2


def test_cos_sign_with_exactness_escape():
    assert cos_sign(AngleExpr.of_pi(0)) == 1
    assert cos_sign(AngleExpr.of_pi(1)) == -1
    assert cos_sign(AngleExpr.of_pi(F(1, 2))) == 0
    assert cos_sign(AngleExpr.of_pi(F(3, 2))) == 0
    assert cos_sign(arg_angle(gr(1, 2))) == 1       # angle < pi/2
    assert cos_sign(arg_angle(gr(-1, 2))) == -1     # angle in (pi/2, pi)
    # pi/2 shifted by an irrational-of-pi angle is never on the grid
    assert cos_sign(arg_angle(gr(1, 2)) + AngleExpr.of_pi(F(1, 2))) == -1


def _libmp(enc, prec):
    """The integer enclosure (lo, hi) at ``prec`` bits as the libmp
    interval [lo * 2**-prec, hi * 2**-prec], exactly."""
    return from_man_exp(enc[0], -prec), from_man_exp(enc[1], -prec)


def reference_cos_sign(expr):
    """cos_sign with the exact test first: 0 on pi/2 mod pi, otherwise
    the cosine's enclosure refined until its sign is certain."""
    r = (expr - AngleExpr.of_pi(F(1, 2))).pi_ratio()
    if r is not None and r.denominator == 1:
        return 0
    prec = 64
    while prec <= 2048:
        lo, hi = mpi_cos(_libmp(expr.interval(prec), prec), prec)
        if mpf_gt(lo, fzero):
            return 1
        if mpf_lt(hi, fzero):
            return -1
        prec *= 2
    raise AssertionError("reference cosine sign did not resolve")


def _cos_enclosure_straddles_zero(expr):
    lo, hi = mpi_cos(_libmp(expr.interval(64), 64), 64)
    return not mpf_gt(lo, fzero) and not mpf_lt(hi, fzero)


def _exact_cos_zeros(rng):
    """pi/2 + k*pi written with arg terms that cancel only exactly."""
    half = AngleExpr.of_pi(F(1, 2))
    zeros = [arg_angle(gr(2, 1)) + arg_angle(gr(3, 1)) + AngleExpr.of_pi(F(1, 4))]
    for _ in range(30):
        w1, w2 = rand_gauss(rng), rand_gauss(rng)
        k = rng.randint(-3, 3)
        zeros.append(arg_angle(w1) + arg_angle(w2) - arg_angle(w1 * w2) + half.shift_pi(k))
        zeros.append((arg_angle(w1).scale(2) - arg_angle(w1 * w1)).shift_pi(F(2 * k + 1, 2)))
    # keep those written with arg terms, not as a bare multiple of pi
    return [z for z in zeros if z.terms]


def test_cos_sign_matches_exact_first_reference():
    rng = random.Random(4109)
    zeros = _exact_cos_zeros(rng)
    assert zeros[0].pi_ratio() == F(1, 2) and len(zeros) > 40
    for z in zeros:
        assert _cos_enclosure_straddles_zero(z)  # so the exact test decides
        assert cos_sign(z) == 0 == reference_cos_sign(z)
    # within 1e-60 of pi/2 + k*pi: the 64-bit enclosure straddles 0, the
    # exact test says nonzero and refinement gives the sign
    tiny = arg_angle(gr(10**30, 1)) - arg_angle(gr(10**30 + 1, 1))
    for k in (-1, 0, 1, 2):
        for near in (AngleExpr.of_pi(F(2 * k + 1, 2)) + tiny,
                     AngleExpr.of_pi(F(2 * k + 1, 2)) - tiny):
            assert _cos_enclosure_straddles_zero(near)
            assert cos_sign(near) == reference_cos_sign(near) != 0
    for _ in range(400):
        a = rand_angle(rng)
        assert cos_sign(a) == reference_cos_sign(a)


def test_scale_and_arith():
    a = arg_angle(gr(1, 2))
    assert (a.scale(3) - a - a - a).is_zero()
    assert (a - a).is_zero()
    assert (-a + a).is_zero()
    assert a.scale(0).is_zero()


# ---------------------------------------------------------------------
# filtered comparison against the unfiltered procedure
# ---------------------------------------------------------------------

def reference_compare(a, b):
    """compare without the cached-enclosure filter: the exact zero test
    first, then the difference's enclosure with precision doubling."""
    diff = a - b
    if diff.is_zero():
        return 0
    prec = 64
    while prec <= 2048:
        lo, hi = diff.interval(prec)
        if hi < 0:
            return -1
        if lo > 0:
            return 1
        prec *= 2
    raise AssertionError("reference comparison did not resolve")


def rand_gauss(rng, bound=9):
    while True:
        c = gr(F(rng.randint(-bound, bound), rng.randint(1, 3)),
               F(rng.randint(-bound, bound), rng.randint(1, 3)))
        if not c.is_zero():
            return c


def rand_angle(rng):
    """A random expression: a rational multiple of pi plus up to three
    scaled principal arguments (some of them axis-aligned)."""
    expr = AngleExpr.of_pi(F(rng.randint(-8, 8), rng.randint(1, 4)))
    for _ in range(rng.randint(0, 3)):
        c = rand_gauss(rng) if rng.random() < 0.8 else gr(rng.choice([1, -1]), rng.choice([0, 1, -1]))
        expr = expr + arg_angle(c).scale(F(rng.randint(-3, 3), rng.randint(1, 3)))
    return expr


def test_filtered_compare_matches_unfiltered_reference():
    rng = random.Random(4107)
    for _ in range(300):
        a, b = rand_angle(rng), rand_angle(rng)
        # also equal angles written differently: shifted by a full turn,
        # and reduced to the principal value
        for x, y in ((a, b), (a, a.shift_pi(2).principal().shift_pi(-2)),
                     (a.principal(), a.shift_pi(-4).principal())):
            assert x.compare(y) == reference_compare(x, y)
            assert y.compare(x) == -x.compare(y)


def test_filtered_compare_equal_angles_written_differently():
    rng = random.Random(4108)
    for _ in range(40):
        w1, w2 = rand_gauss(rng), rand_gauss(rng)
        total = (arg_angle(w1) + arg_angle(w2)).principal()
        product = arg_angle(w1 * w2)
        assert total.compare(product) == 0
        assert reference_compare(total, product) == 0
        doubled = arg_angle(w1).scale(2).principal()
        square = arg_angle(w1 * w1)
        assert doubled.compare(square) == 0
        assert doubled == square


def test_filtered_compare_falls_back_below_enclosure_width():
    # arg(10^30 + i) - arg(10^30 + 1 + i) is about 1e-60, far below the
    # width of a 64-bit enclosure of pi/4 + arg(...)
    quarter = AngleExpr.of_pi(F(1, 4))
    a = quarter + arg_angle(gr(10**30, 1))
    b = quarter + arg_angle(gr(10**30 + 1, 1))
    (alo, ahi), (blo, bhi) = a.interval(64), b.interval(64)
    assert not (ahi < blo or bhi < alo)  # the filter cannot decide
    assert a.compare(b) == 1 == reference_compare(a, b)
    assert b.compare(a) == -1
    assert a.compare(a + AngleExpr.of_pi(0)) == 0


def test_principal_below_negative_multiples_of_two_pi():
    # x is about 1e-60 > 0, so -2k*pi - x lies just below a multiple of
    # 2*pi; its principal value is 2*pi - x, not a negative angle
    x = arg_angle(gr(10**30, 1)) - arg_angle(gr(10**30 + 1, 1))
    assert x.compare(AngleExpr.of_pi(0)) == 1
    for k in (-2, -4, -6, 0, 2):
        a = AngleExpr.of_pi(k) - x
        p = a.principal()
        assert p.compare(AngleExpr.of_pi(0)) == 1
        assert p.compare(AngleExpr.of_pi(2)) == -1
        assert (p - (AngleExpr.of_pi(2) - x)).is_zero()
        assert (a - p).pi_ratio() == k - 2


# ---------------------------------------------------------------------
# the mpmath.iv implementation of the enclosures, kept as an oracle
# ---------------------------------------------------------------------

def _iv_rational(q):
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def _iv_arg_octant(w):
    re, im = w.re, w.im
    y = _iv_rational(im)
    x = _iv_rational(re)
    return iv.atan2(y, x)


def _floor_interval(x):
    return math.floor(float(iv.mpf(x)))


def _ceil_interval(x):
    return math.ceil(float(iv.mpf(x)))


def iv_interval(expr, prec=64):
    old = iv.prec
    iv.prec = prec
    try:
        total = _iv_rational(expr.pi_part) * iv.pi
        for q, w in expr.terms:
            total += _iv_rational(q) * _iv_arg_octant(w)
        return total
    finally:
        iv.prec = old


def iv_branch(expr, den, eighth):
    prec = 64
    while prec <= 2048:
        old = iv.prec
        iv.prec = prec
        try:
            total = iv.mpf(0)
            for q, w in expr.terms:
                total += _iv_rational(q * den) * _iv_arg_octant(w)
            b = (total - _iv_rational(F(eighth, 4)) * iv.pi) / (2 * iv.pi)
            lo = _ceil_interval(b.a)
            hi = _floor_interval(b.b)
            if lo == hi:
                return lo
        finally:
            iv.prec = old
        prec *= 2
    raise PrecisionError("branch not pinned at maximum precision")


def iv_pi_ratio(expr):
    if not expr.terms:
        return expr.pi_part
    den = 1
    for q, _ in expr.terms:
        den = math.lcm(den, q.denominator)
    u = gr(1)
    for q, w in expr.terms:
        u = u * w ** int(q * den)
    eighth = _axis_diag_eighths(u)
    if eighth is None:
        return None
    branch = iv_branch(expr, den, eighth)
    return (expr.pi_part * den + F(eighth, 4) + 2 * branch) / den


def iv_compare(a, b):
    if not a.terms and not b.terms:
        d = a.pi_part - b.pi_part
        return (d > 0) - (d < 0)
    ea, eb = iv_interval(a, 64), iv_interval(b, 64)
    if ea.b < eb.a:
        return -1
    if eb.b < ea.a:
        return 1
    diff = a - b
    if iv_pi_ratio(diff) == 0:
        return 0
    prec = 64
    while prec <= 2048:
        ival = iv_interval(diff, prec)
        if ival.b < 0:
            return -1
        if ival.a > 0:
            return 1
        prec *= 2
    raise PrecisionError("comparison not resolved at maximum precision")


def iv_principal(expr):
    r = iv_pi_ratio(expr)
    if r is not None:
        return AngleExpr.of_pi(r - 2 * (r // 2))
    prec = 64
    while prec <= 2048:
        old = iv.prec
        iv.prec = prec
        try:
            b = iv_interval(expr, prec) / (2 * iv.pi)
            lo = _floor_interval(b.a)
            hi = _floor_interval(b.b)
            if lo == hi:
                return expr.shift_pi(F(-2 * lo))
        finally:
            iv.prec = old
        prec *= 2
    raise PrecisionError("principal value not resolved")


def iv_float(expr):
    return float(iv.mpf(iv_interval(expr, 64).mid))


def iv_cos_sign(expr):
    r = iv_pi_ratio(expr - AngleExpr.of_pi(F(1, 2)))
    if r is not None and r.denominator == 1:
        return 0
    prec = 64
    while prec <= 2048:
        old = iv.prec
        iv.prec = prec
        try:
            c = iv.cos(iv_interval(expr, prec))
            if c.a > 0:
                return 1
            if c.b < 0:
                return -1
        finally:
            iv.prec = old
        prec *= 2
    raise PrecisionError("cosine sign not resolved")


def _edge_cases():
    """A 1e-60 near-tie around multiples of pi/4 and of 2*pi, axis and
    diagonal arguments, and equal angles written differently: pairs
    among them need escalated enclosures or the exact test to compare."""
    cases = []
    tiny = arg_angle(gr(10**30, 1)) - arg_angle(gr(10**30 + 1, 1))
    for k in (F(-4), F(-2), F(-1, 4), F(0), F(1, 4), F(1, 2), F(2), F(7, 4)):
        cases += [AngleExpr.of_pi(k) + tiny, AngleExpr.of_pi(k) - tiny]
    for c in (gr(1), gr(-1), gr(0, 1), gr(0, -1), gr(1, 1), gr(-1, 1),
              gr(-1, -1), gr(1, -1), gr(10**30, 1), gr(1, 10**30)):
        cases.append(arg_angle(c))
        cases.append(arg_angle(c).scale(F(-3, 2)).shift_pi(F(5, 4)))
    w1, w2 = gr(2, 1), gr(3, 1)
    cases.append(arg_angle(w1) + arg_angle(w2))   # = pi/4, written with two args
    cases.append(arg_angle(w1 * w2))
    return cases


def _oracle_cases(rng, count):
    return [rand_angle(rng) for _ in range(count)] + _edge_cases()


# every enclosure at prec bits is at most 2**(WIDTH_BITS - prec) wide:
# its pieces' sum, at 20 guard bits, is under one unit of 2**-prec wide,
# and rounding it outward adds less than one more
WIDTH_BITS = 1


def mp_value(expr, prec):
    """The angle as mpmath evaluates it at ``prec`` bits."""
    with mpmath.workprec(prec):
        total = mpmath.mpf(expr.pi_part.numerator) / expr.pi_part.denominator * mpmath.pi
        for q, w in expr.terms:
            (x, y, _) = w.t
            total += mpmath.mpf(q.numerator) / q.denominator * mpmath.atan2(y, x)
        return total


def _contains(enc, prec, value):
    """lo * 2**-prec <= value <= hi * 2**-prec, decided exactly."""
    scaled = mpmath.ldexp(value, prec)
    return enc[0] <= scaled <= enc[1]


def test_enclosures_contain_the_angle_and_match_iv_oracle():
    rng = random.Random(5213)
    cases = _oracle_cases(rng, 120)
    straddling = 0
    for i, a in enumerate(cases):
        for prec in _PRECISIONS if i % 8 == 0 else _PRECISIONS[:2]:
            lo, hi = a.interval(prec)
            assert _contains((lo, hi), prec, mp_value(a, 4 * prec))
            assert 0 <= hi - lo <= 2**WIDTH_BITS
        # float is the double nearest to the angle; iv's is the midpoint
        # of its 64-bit enclosure, the same double unless that enclosure
        # holds 0 around an angle of about +-1e-60
        want = float(mp_value(a, 256))
        assert float(a) == want
        ival = iv_interval(a, 64)
        if want != 0 and ival.a <= 0 <= ival.b:
            assert iv_float(a) == 0.0
            straddling += 1
        else:
            assert want == iv_float(a)
        assert a.pi_ratio() == iv_pi_ratio(a)
        assert cos_sign(a) == iv_cos_sign(a)
        b = cases[(7 * i + 3) % len(cases)]
        assert a.compare(b) == iv_compare(a, b)
        assert b.compare(a) == iv_compare(b, a)
    edges = _edge_cases()
    for a in edges:
        for b in edges:
            assert a.compare(b) == iv_compare(a, b)
    assert iv.prec == 53 and straddling == 2


def test_pi_enclosure_at_every_ladder_precision():
    for prec in _PRECISIONS:
        for p in (F(1), F(1, 2), F(2), F(-1, 4), F(7, 3), F(-8)):
            lo, hi = pi_enclosure(p.numerator, p.denominator, prec)
            assert _contains((lo, hi), prec, mp_value(AngleExpr.of_pi(p), 4 * prec))
            assert 0 < hi - lo <= 2**WIDTH_BITS
            # keyed on integers: an unreduced residue over 4k gives the same
            assert pi_enclosure(12 * p.numerator, 12 * p.denominator, prec) == (lo, hi)
            assert AngleExpr.of_pi(p).interval(prec) == (lo, hi)
        assert pi_enclosure(0, 1, prec) == pi_enclosure(0, 8, prec) == (0, 0)
        # 4 * (pi/4 written as arg(2 + i) + arg(3 + i)) is pi
        quarter = arg_angle(gr(2, 1)) + arg_angle(gr(3, 1))
        lo, hi = quarter.scale(4).interval(prec)
        assert _contains((lo, hi), prec, mp_value(AngleExpr.of_pi(1), 4 * prec))


def test_cos_sin_pi_contain_the_values_at_every_ladder_precision():
    # r = p/q, unreduced, over two turns each way and one step beyond;
    # every rung for q <= 6, the first two beyond
    exact_pairs = 0
    for q in range(1, 13):
        precisions = _PRECISIONS if q <= 6 else _PRECISIONS[:2]
        for p in range(-2 * q - 1, 2 * q + 2):
            with mpmath.workprec(precisions[-1] + 400):
                r = mpmath.mpf(p) / q
                values = (mpmath.cospi(r), mpmath.sinpi(r))
                # by Niven's theorem the rational values are 0, +-1/2, +-1
                rational = [next((c for c in (0, F(1, 2), F(-1, 2), 1, -1)
                                  if abs(v - mpmath.mpf(c.numerator) / c.denominator) < 2.0**-300),
                                 None) for v in values]
                for prec in precisions:
                    for (lo, hi), v, c in zip(cos_sin_pi(p, q, prec), values, rational):
                        if c is not None:
                            assert lo == hi == c * 2**prec, (p, q, prec)
                            exact_pairs += 1
                        else:
                            assert _contains((lo, hi), prec, v) and 0 < hi - lo <= 2**WIDTH_BITS
    assert exact_pairs > 500


def test_exp_enclosure_contains_the_values_at_every_ladder_precision():
    for num in (0, 1, 2, 3, 5, 17, 40, 100, 1000):
        for den in (1, 3, 7, 64):
            for prec in _PRECISIONS:
                # x = num/den itself (a dyadic enclosure) and 2 pi x
                cut = (num << prec) // den, -(-(num << prec) // den)
                for lo, hi in (cut, (cut[0], cut[0])) + ((pi_enclosure(2 * num, den, prec),)):
                    elo, ehi, e = exp_enclosure(lo, hi, prec)
                    elo, ehi = elo << e, ehi << e
                    with mpmath.workprec(prec + 64 + 2 * (hi >> prec)):
                        assert elo <= mpmath.exp(mpmath.ldexp(lo, -prec)) * 2**prec
                        assert mpmath.exp(mpmath.ldexp(hi, -prec)) * 2**prec <= ehi
                    if lo == hi:
                        # the series and the squarings lose under a unit of
                        # 2**-prec relative to the value
                        assert (ehi - elo) << prec <= ehi


def test_exp_enclosure_keeps_short_mantissas_for_huge_arguments():
    """exp(x) for x = 2 pi 10^k comes as a mantissa of about prec + h +
    _GUARD bits and an exponent, never as the integer exp(x) * 2**prec."""
    prec = 64
    for k in (5, 6, 7):
        enc = pi_enclosure(2 * 10**k, 1, prec)
        for lo, hi in (enc, (enc[0], enc[0])):
            elo, ehi, e = exp_enclosure(lo, hi, prec)
            assert ehi.bit_length() <= 2 * prec and e > 10**k
            with mpmath.workprec(prec + 128):
                assert mpmath.ldexp(elo, e - prec) <= mpmath.exp(mpmath.ldexp(lo, -prec))
                assert mpmath.exp(mpmath.ldexp(hi, -prec)) <= mpmath.ldexp(ehi, e - prec)
            if lo == hi:
                assert (ehi - elo) << prec <= ehi


def test_nearest_double_rounds_decides_zero_and_overflows():
    third = lambda prec: ((1 << prec) // 3, -(-(1 << prec) // 3), 1 << prec)  # noqa: E731
    assert nearest_double(third, lambda: 1 / 0, "") == 1 / 3  # 0 not met: no test
    asked = []

    def zero(prec):
        asked.append(prec)
        return -1, 1, 1 << prec

    assert nearest_double(zero, lambda: True, "") == 0.0 and asked == [64]
    # an exact zero written with arg terms (the 2048-bit rung rounded it to -0.0)
    quarter = arg_angle(gr(2, 1)) + arg_angle(gr(3, 1)) - AngleExpr.of_pi(F(1, 4))
    assert repr(float(quarter)) == "0.0"
    # a nonzero value whose first enclosure meets 0 goes on up the ladder
    tiny = lambda prec: ((1 << prec) >> 100, -(-(1 << prec) >> 100) + 1, 1 << prec)  # noqa: E731
    assert nearest_double(tiny, lambda: False, "") == 2.0**-100
    big = 10**400
    assert nearest_double(lambda prec: (big, big + 1, 1), lambda: False, "") == math.inf
    assert nearest_double(lambda prec: (-big - 1, -big, 1), lambda: False, "") == -math.inf
    # a midpoint between two doubles is never enclosed narrowly enough
    mid = lambda prec: (((1 << 53) + 1 << prec - 53) - 1, ((1 << 53) + 1 << prec - 53) + 1,  # noqa: E731
                        1 << prec)  # 1 + 2**-53
    with pytest.raises(PrecisionError, match="not rounded"):
        nearest_double(mid, lambda: False, "not rounded")


def test_principal_matches_iv_oracle_off_the_repro_cases():
    rng = random.Random(5214)
    two_pi = AngleExpr.of_pi(2)
    zero = AngleExpr.of_pi(0)
    differ = 0
    for a in _oracle_cases(rng, 150):
        p, o = a.principal(), iv_principal(a)
        assert zero.compare(p) <= 0 and p.compare(two_pi) < 0
        if zero.compare(o) <= 0:
            assert (p.pi_part, p.terms) == (o.pi_part, o.terms)
        else:
            # the float floor put o just below 0: one full turn apart
            assert (p - o).pi_ratio() == 2
            differ += 1
    assert differ >= 2  # -2*pi - tiny and -4*pi - tiny among the cases


def _quarter_multiples():
    """(k, k*pi/2 as a rational, k*pi/2 with arg terms) for k = -4..7;
    arg(2+i) + arg(3+i) = pi/4 exactly, so k = 2 is the pi of
    arg(2+i) + arg(3+i) + 3*pi/4."""
    quarter = arg_angle(gr(2, 1)) + arg_angle(gr(3, 1))
    return [(k, AngleExpr.of_pi(F(k, 2)), quarter.shift_pi(F(2 * k - 1, 4)))
            for k in range(-4, 8)]


def _single_root_signs(target):
    """_decay_signs for one root whose arg(c) - k_r*delta is ``target``,
    over two leading orders and three test directions."""
    out = []
    for k_r in (1, 2):
        for delta in (AngleExpr.of_pi(F(1, 3)), arg_angle(gr(5, 2)),
                      arg_angle(gr(-4, 7)).scale(F(1, 3))):
            out.append(_decay_signs([(Root(0, 1), k_r, target + delta.scale(k_r))], delta))
    return out


def test_cos_sign_on_multiples_of_half_pi_and_near_misses():
    # an exact multiple of pi/2 written with arg terms stays on its
    # multiple at every precision: only pi_ratio decides it
    tiny = arg_angle(gr(10**30, 1)) - arg_angle(gr(10**30 + 1, 1))  # about 1e-60
    for k, rational, written in _quarter_multiples():
        assert written.terms and written.pi_ratio() == F(k, 2)
        want = 0 if k % 2 else (-1) ** (k // 2)
        for exact in (rational, written):
            assert cos_sign(exact) == want == reference_cos_sign(exact) == iv_cos_sign(exact)
            assert _single_root_signs(exact) == [None if want == 0 else [want]] * 6
            for near in (exact + tiny, exact - tiny):
                sign = reference_cos_sign(near)
                assert sign != 0 and cos_sign(near) == sign == iv_cos_sign(near)
                assert _single_root_signs(near) == [[sign]] * 6


def _enc(lo, hi):
    """The 64-bit enclosure of the floats [lo, hi]."""
    return math.floor(F(lo) * 2**64), math.ceil(F(hi) * 2**64)


def test_quarter_sign_needs_an_open_quarter_turn():
    # inside one quarter turn k*pi/2 < x < (k+1)*pi/2: +1 for k mod 4 in {0, 3}
    for (lo, hi), sign in (((0.1, 1.5), 1), ((1.6, 3.1), -1), ((3.2, 4.7), -1),
                           ((4.8, 6.2), 1), ((-1.5, -0.1), 1), ((-3.1, -1.6), -1),
                           ((6.4, 7.8), 1), ((-7.8, -6.3), 1)):
        assert _quarter_sign(_enc(lo, hi)) == sign
    # an enclosure that meets a multiple of pi/2, if only at an endpoint,
    # may hold that multiple itself
    half_pi_hi = pi_enclosure(1, 2)[1]  # divided by pi/2's enclosure: exactly 1
    for enc in ((0, 0), _enc(0, 0.5), _enc(-0.5, 0), (half_pi_hi, _enc(2, 2)[0]),
                _enc(1.5, 1.6), _enc(-0.1, 0.1)):
        assert _quarter_sign(enc) is None


# ---------------------------------------------------------------------
# properties: compare is a total order, principal values lie in [0, 2pi)
# ---------------------------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

_fractions = st.builds(F, st.integers(-9, 9), st.integers(1, 3))
_gauss = st.builds(gr, _fractions, _fractions).filter(lambda c: not c.is_zero())
_arg_terms = st.lists(st.tuples(_gauss, st.builds(F, st.integers(-3, 3), st.integers(1, 3))),
                      max_size=3)


def _build_angle(pi_part, terms):
    expr = AngleExpr.of_pi(pi_part)
    for c, q in terms:
        expr = expr + arg_angle(c).scale(q)
    return expr


angles = st.one_of(
    st.builds(_build_angle, st.builds(F, st.integers(-8, 8), st.integers(1, 4)), _arg_terms),
    st.sampled_from(_edge_cases()),
)


@PROPERTY
@given(angles, angles, angles)
def test_compare_is_a_total_order(a, b, c):
    assert a.compare(a) == 0
    ab, bc, ac = a.compare(b), b.compare(c), a.compare(c)
    assert b.compare(a) == -ab
    assert ab == reference_compare(a, b)
    if ab <= 0 and bc <= 0:
        assert ac == min(ab, bc)
    if ab == 0:
        assert ac == bc


@PROPERTY
@given(angles)
def test_principal_lies_in_one_turn(a):
    p = a.principal()
    assert AngleExpr.of_pi(0).compare(p) <= 0
    assert p.compare(AngleExpr.of_pi(2)) == -1
    r = (a - p).pi_ratio()
    assert r is not None and r.denominator == 1 and r % 2 == 0


# ---------------------------------------------------------------------
# exact_runs: one enclosure sweep against the stable comparison sort
# ---------------------------------------------------------------------

def reference_runs(angles):
    """A stable sort of the indices under compare, then a merge of equal
    neighbours."""
    order = sorted(range(len(angles)),
                   key=functools.cmp_to_key(lambda i, j: angles[i].compare(angles[j])))
    runs = []
    for i in order:
        if runs and angles[runs[-1][0]].compare(angles[i]) == 0:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


def test_exact_runs_wide_enclosure_around_two_narrow_ones():
    # a lies near 2.51 but its enclosure spans [0, 3]; b and c have
    # narrow disjoint enclosures near 0.46 and 2.09.  A cut at the gap
    # between b and c (a midpoint, or no overlap of neighbours) would put
    # a before c.
    a, b, c = AngleExpr.of_pi(F(4, 5)), arg_angle(gr(2, 1)), AngleExpr.of_pi(F(2, 3))
    angles = [a, b, c]
    runs = exact_runs(angles, [_enc(0, 3), _enc(0.4, 0.5), _enc(2.0, 2.2)])
    assert runs == [[1], [2], [0]] == reference_runs(angles)


def test_exact_runs_touching_endpoints_share_a_cluster():
    # two expressions of 0 whose enclosures meet only at 0
    zero = AngleExpr.of_pi(0)
    also_zero = (arg_angle(gr(2, 1)) + arg_angle(gr(2, -1))).shift_pi(-2)
    assert exact_runs([zero, also_zero], [_enc(-1, 0), _enc(0, 1)]) == [[0, 1]]
    # unequal angles touching at 0.8
    x, y = AngleExpr.of_pi(F(1, 4)), arg_angle(gr(3, 5))
    assert exact_runs([y, x], [_enc(0.8, 1.1), _enc(0.5, 0.8)]) == [[1], [0]]


def test_exact_runs_ties_keep_raw_order():
    quarter = arg_angle(gr(2, 1)) + arg_angle(gr(3, 1))  # pi/4 with two args
    angles = [AngleExpr.of_pi(F(1, 2)), quarter, AngleExpr.of_pi(F(1, 4)),
              AngleExpr(quarter.pi_part, quarter.terms)]
    # lower bounds sorted against the raw order of the three equal angles
    encs = [_enc(1.5, 1.6), _enc(0.78, 0.79), _enc(0.7, 0.9), _enc(0.6, 0.9)]
    assert exact_runs(angles, encs) == [[1, 2, 3], [0]] == reference_runs(angles)
    assert exact_runs(angles) == [[1, 2, 3], [0]]


def test_exact_runs_one_element_and_all_rational():
    assert exact_runs([]) == []
    assert exact_runs([arg_angle(gr(1, 2))]) == [[0]]
    assert exact_runs([AngleExpr.of_pi(3)], [_enc(9, 10)]) == [[0]]
    rational = [AngleExpr.of_pi(q) for q in (F(1), F(0), F(2, 2), F(3, 2), F(0), F(-1, 3))]
    assert exact_runs(rational) == [[5], [1, 4], [0, 2], [3]] == reference_runs(rational)


_sweep_angles = st.builds(
    _build_angle, st.builds(F, st.integers(-8, 8), st.integers(1, 4)),
    st.lists(st.tuples(_gauss, st.builds(F, st.integers(-3, 3), st.integers(1, 3))),
             max_size=2))


@st.composite
def _angle_lists(draw):
    """Rational, one-term and two-term angles plus forced coincidences:
    fresh copies, arg(w1) + arg(w2) beside arg(w1*w2), and the near-ties
    and rewritten angles of _edge_cases."""
    angles = draw(st.lists(_sweep_angles, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.sampled_from(angles))
        angles.append(AngleExpr(a.pi_part, a.terms))
    for w1, w2 in draw(st.lists(st.tuples(_gauss, _gauss), max_size=2)):
        angles += [(arg_angle(w1) + arg_angle(w2)).principal(), arg_angle(w1 * w2)]
    angles += draw(st.lists(st.sampled_from(_edge_cases()), max_size=3))
    return draw(st.permutations(angles))


@PROPERTY
@given(_angle_lists(), st.lists(st.sampled_from([0, 0.001, 0.5, 3.0]), min_size=2,
                                max_size=2))
def test_exact_runs_matches_stable_sort_and_merge(angles, widen):
    assert exact_runs(angles) == reference_runs(angles)
    # any enclosure containing each angle gives the same runs
    wide = []
    for i, a in enumerate(angles):
        (lo, hi), (dlo, dhi) = a.interval(64), _enc(-widen[i % 2], widen[(i + 1) % 2])
        wide.append((lo + dlo, hi + dhi))
    assert exact_runs(angles, wide) == reference_runs(angles)


# ---------------------------------------------------------------------
# octants and directions on integers against the Fraction versions
# ---------------------------------------------------------------------

def reference_axis_diag_eighths(c):
    """_axis_diag_eighths on the Fraction parts c.re and c.im."""
    if c.is_zero():
        raise ZeroDivisionError("argument of zero")
    re, im = c.re, c.im
    if im == 0:
        return 0 if re > 0 else 4
    if re == 0:
        return 2 if im > 0 else 6
    if re == im:
        return 1 if re > 0 else 5
    if re == -im:
        return 3 if im > 0 else 7
    return None


def reference_octant_index(c):
    re, im = c.re, c.im
    if im > 0:
        if re > 0:
            return 0 if re > im else 1
        return 2 if -re < im else 3
    if re < 0:
        return 4 if -re > -im else 5
    return 6 if re < -im else 7


def reference_arg_angle(c):
    """arg_angle through the Fraction helpers and shift_pi."""
    eighth = reference_axis_diag_eighths(c)
    if eighth is not None:
        return AngleExpr.of_pi(F(eighth, 4))
    o = reference_octant_index(c)
    w = c * gr(1, -1) ** o
    assert w.re > 0 and w.im > 0 and w.re > w.im
    return AngleExpr(F(0), ((F(1), w),)).shift_pi(F(o, 4))


def reference_directions(base, k_r):
    """_directions with p = (p0 + 2m - 1)/k_r and its floor in Fractions."""
    terms = tuple((q / k_r, w) for q, w in base.terms)
    out = []
    for m in range(k_r):
        p = (base.pi_part + 2 * m - 1) / k_r
        out.append(AngleExpr(p - 2 * (p // 2), terms))
    return out


def _expression(angle):
    """The stored expression with the exact types of its parts."""
    return (type(angle.pi_part), angle.pi_part,
            tuple((type(q), q, w.t) for q, w in angle.terms))


_ints = st.one_of(st.integers(-9, 9), st.integers(-10**41, 10**41))
_dens = st.one_of(st.integers(1, 9), st.just(10**40), st.integers(1, 10**41))


@st.composite
def _gaussians(draw):
    """Nonzero Gaussian rationals on and off the axes and diagonals, of
    magnitudes from about 1e-40 to 1e41."""
    a, b, d = draw(_ints), draw(_ints), draw(_dens)
    shape = draw(st.sampled_from(["free", "real", "imaginary", "diagonal", "antidiagonal"]))
    if shape == "real":
        b = 0
    elif shape == "imaginary":
        a = 0
    elif shape == "diagonal":
        b = a
    elif shape == "antidiagonal":
        b = -a
    if a == 0 and b == 0:
        a = 1
    return gr(F(a, d), F(b, d))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_gaussians())
def test_integer_octants_match_the_fraction_reference(c):
    assert _axis_diag_eighths(c) == reference_axis_diag_eighths(c)
    assert _octant_index(c) == reference_octant_index(c)
    assert _expression(arg_angle(c)) == _expression(reference_arg_angle(c))
    # -c from c, with no octant reduction of its own
    assert _expression(opposite_arg_angle(arg_angle(c))) == _expression(reference_arg_angle(-c))


def test_argument_of_zero_raises():
    for f in (_axis_diag_eighths, reference_axis_diag_eighths, arg_angle):
        with pytest.raises(ZeroDivisionError):
            f(gr(0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_gaussians(), st.integers(1, 6))
def test_integer_directions_match_the_fraction_reference(c, k_r):
    for base in (arg_angle(c), reference_arg_angle(-c)):
        assert [_expression(a) for a in _directions(base, k_r)] == \
            [_expression(a) for a in reference_directions(base, k_r)]
