import functools
import random
from fractions import Fraction as F

import pytest

from meroconn.angles import AngleExpr, arg_angle, cos_sign
from meroconn.field import gr


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
    assert AngleExpr.of_pi(3).is_multiple_of_pi(1)
    assert not AngleExpr.of_pi(F(3, 2)).is_multiple_of_pi(1)
    assert AngleExpr.of_pi(4).is_multiple_of_pi(2)
    assert not arg_angle(gr(1, 2)).is_multiple_of_pi(1)
    # arg(1+2i) + arg(1-2i) is a multiple of 2 pi
    total = arg_angle(gr(1, 2)) + arg_angle(gr(1, -2))
    assert total.is_multiple_of_pi(2)


def test_cos_sign_with_exactness_escape():
    assert cos_sign(AngleExpr.of_pi(0)) == 1
    assert cos_sign(AngleExpr.of_pi(1)) == -1
    assert cos_sign(AngleExpr.of_pi(F(1, 2))) == 0
    assert cos_sign(AngleExpr.of_pi(F(3, 2))) == 0
    assert cos_sign(arg_angle(gr(1, 2))) == 1       # angle < pi/2
    assert cos_sign(arg_angle(gr(-1, 2))) == -1     # angle in (pi/2, pi)
    # pi/2 shifted by an irrational-of-pi angle is never on the grid
    assert cos_sign(arg_angle(gr(1, 2)) + AngleExpr.of_pi(F(1, 2))) == -1


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
        ival = diff.interval(prec)
        if ival.b < 0:
            return -1
        if ival.a > 0:
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
    ia, ib = a.interval(64), b.interval(64)
    assert not (ia.b < ib.a or ib.b < ia.a)  # the filter cannot decide
    assert a.compare(b) == 1 == reference_compare(a, b)
    assert b.compare(a) == -1
    assert a.compare(a + AngleExpr.of_pi(0)) == 0
