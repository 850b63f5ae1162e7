import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from meroconn import _kernel as K
from meroconn.field import GaussRat, gr
from meroconn.series import INF, LaurentSeries as LS


# ---------------------------------------------------------------------
# valuation
# ---------------------------------------------------------------------

def test_series_val_examples():
    # z^-2 + 3z -> -2
    assert LS.from_dict({-2: 1, 1: 3}).val() == -2
    # zero series -> +inf
    assert LS.zero().val() == INF
    assert LS.zero(trunc=5).val() == INF
    # z^3 truncated at 5 -> 3 (truncation does not hide the leading term)
    assert LS.from_dict({3: 1}, trunc=5).val() == 3


def test_leading_zeros_stripped():
    s = LS(-2, [0, 0, gr(1), 0, gr(2), 0])
    assert s.order_min == 0
    assert s.coeff(0) == gr(1)
    assert s.coeff(2) == gr(2)
    assert len(s.coeffs) == 3


# ---------------------------------------------------------------------
# arithmetic and truncation bookkeeping
# ---------------------------------------------------------------------

def test_add_truncation_is_min():
    a = LS.from_dict({0: 1}, trunc=4)
    b = LS.from_dict({1: 2}, trunc=7)
    assert (a + b).trunc == 4


def test_mul_truncation_rule():
    # trunc = min(a.trunc + val(b), b.trunc + val(a))
    a = LS.from_dict({-1: 1, 0: 2}, trunc=5)
    b = LS.from_dict({2: 3}, trunc=6)
    assert (a * b).trunc == min(5 + 2, 6 - 1)


def test_mul_exact_product():
    a = LS.from_dict({0: 1, 1: 1})
    b = LS.from_dict({0: 1, 1: -1})
    p = a * b
    assert p.coeff(0) == gr(1) and p.coeff(1) == gr(0) and p.coeff(2) == gr(-1)
    assert p.trunc == INF


def test_scale_shift_derivative():
    s = LS.from_dict({-2: 1, 3: F(1, 2)})
    assert s.scale(2).coeff(-2) == gr(2)
    assert s.shift(2).coeff(0) == gr(1)
    d = s.zdz()
    assert d.coeff(-2) == gr(-2)
    assert d.coeff(3) == gr(F(3, 2))


def test_inverse_unit_series():
    rng = random.Random(7)
    for _ in range(30):
        terms = {0: gr(rng.randint(1, 5))}
        for m in range(1, 8):
            terms[m] = gr(F(rng.randint(-4, 4), rng.randint(1, 4)))
        s = LS.from_dict(terms, trunc=8)
        assert (s * s.inverse()).agrees(LS.const(1))


def test_inverse_with_valuation():
    s = LS.from_dict({2: 1, 3: 1}, trunc=9)
    inv = s.inverse()
    assert inv.val() == -2
    assert (s * inv).agrees(LS.const(1))


def test_inverse_exact_monomial():
    s = LS.monomial(gr(2), -3)
    assert s.inverse() == LS.monomial(gr(F(1, 2)), 3)


def test_inverse_exact_non_monomial_needs_trunc():
    with pytest.raises(ValueError):
        LS.from_dict({0: 1, 1: 1}).inverse()
    ok = LS.from_dict({0: 1, 1: 1}).inverse(trunc=6)
    assert (ok * LS.from_dict({0: 1, 1: 1})).agrees(LS.const(1))


def test_agrees_up_to_common_truncation():
    a = LS.from_dict({0: 1, 5: 9}, trunc=10)
    b = LS.from_dict({0: 1}, trunc=4)
    assert a.agrees(b)
    c = LS.from_dict({0: 1, 2: 1}, trunc=4)
    assert not a.agrees(c)


def test_cancelled_zero_equals_zero():
    # every zero series has order_min 0, however it was computed
    a = LS.from_dict({0: 1, 1: 2})
    diff = a - a
    assert diff.is_zero() and diff.order_min == 0 and (a.shift(3) - a.shift(3)).order_min == 0
    assert diff == LS.zero() and LS.zero() == diff
    assert hash(diff) == hash(LS.zero())
    assert len({diff, LS.zero(), LS(5, [0, 0])}) == 1
    assert diff != LS.zero(trunc=4)
    assert LS.from_dict({2: 1}) != LS.from_dict({3: 1})


# ---------------------------------------------------------------------
# properties: ring laws, with the truncation each operation propagates
# ---------------------------------------------------------------------

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)

_fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
_coeffs = st.one_of(st.just(gr(0)), st.builds(gr, _fractions, _fractions))


@st.composite
def series(draw, exact=True):
    """Windows of up to 7 coefficients from z^-3 on; trunc is INF (when
    ``exact``) or anywhere from the window's start to 4 past its end."""
    lo = draw(st.integers(-3, 3))
    coeffs = draw(st.lists(_coeffs, max_size=7))
    if exact and draw(st.booleans()):
        return LS(lo, coeffs)
    return LS(lo, coeffs, lo + draw(st.integers(0, len(coeffs) + 4)))


def _nonzero(s):
    return not s.is_zero()


@PROPERTY
@given(series(), series(), series())
def test_addition_is_a_commutative_group_with_min_truncation(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a + b).trunc == min(a.trunc, b.trunc)
    assert a + LS.zero() == a
    assert (a - a) == LS.zero(trunc=a.trunc)
    assert -(-a) == a


@PROPERTY
@given(series(), series(), series())
def test_multiplication_is_commutative_and_associative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * LS.const(1) == a


@PROPERTY
@given(series().filter(_nonzero), series().filter(_nonzero))
def test_product_truncation_and_valuation(a, b):
    # a nonzero factor is known past its valuation, so a product of two
    # nonzero series is nonzero, and exact while both factors are
    prod = a * b
    assert prod.val() == a.val() + b.val()
    assert prod.coeff(prod.val()) == a.coeff(a.val()) * b.coeff(b.val())
    assert prod.trunc == min(a.trunc + b.val(), b.trunc + a.val())


@PROPERTY
@given(series(), series(), series())
def test_distributivity_up_to_the_common_truncation(a, b, c):
    # cancellation in b + c can only raise its valuation, so the left
    # side is never known less far than the right
    lhs, rhs = a * (b + c), a * b + a * c
    assert lhs.agrees(rhs)
    assert lhs.trunc >= rhs.trunc


@PROPERTY
@given(series(exact=False).filter(_nonzero))
def test_inverse_is_exact_below_its_truncation(a):
    v = a.val()
    inv = a.inverse()
    assert inv.trunc == a.trunc - 2 * v
    assert inv.val() == -v
    assert a * inv == LS.const(1, trunc=a.trunc - v)


def _former_inverse(s, trunc=None):
    """The former ``LaurentSeries.inverse``, kept as the reference: each
    coefficient a running ``qadd`` of ``qmul`` products."""
    if s.is_zero():
        raise ZeroDivisionError("inverse of zero series")
    v = s.order_min
    u0 = s.coeffs[0]
    res_trunc = s.trunc - 2 * v if s.trunc != INF else INF
    if trunc is not None:
        res_trunc = min(res_trunc, trunc)
    if res_trunc == INF:
        if len(s.coeffs) > 1:
            raise ValueError(
                "inverse of an exact non-monomial series is infinite; pass trunc"
            )
        return LS.monomial(GaussRat.from_triple(K.qinv(u0)), -v)
    n = int(res_trunc) + v
    inv0 = K.qinv(u0)
    out = [K.ZERO] * max(n, 0)
    if n > 0:
        out[0] = inv0
    for k in range(1, n):
        acc = K.ZERO
        for j in range(1, min(k, len(s.coeffs) - 1) + 1):
            a = s.coeffs[j]
            if a[0] == 0 and a[1] == 0:
                continue
            acc = K.qadd(acc, K.qmul(a, out[k - j]))
        out[k] = K.qneg(K.qmul(acc, inv0))
    return LS._raw(-v, out, res_trunc)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(series().filter(_nonzero), st.one_of(st.none(), st.integers(-6, 12)))
def test_inverse_matches_the_former_coefficient_loop(a, trunc):
    # one qconvat per coefficient gives the same normalized triples
    try:
        want = _former_inverse(a, trunc)
    except ValueError:
        with pytest.raises(ValueError, match="pass trunc"):
            a.inverse(trunc)
        return
    got = a.inverse(trunc)
    assert got == want and got.order_min == want.order_min
