"""The coefficient kernel against a Fraction-pair oracle."""

from fractions import Fraction as F
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from meroconn._kernel import ZERO, qadd, qconv, qconvat, qconvsum

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _pair(t):
    a, b, d = t
    return F(a, d), F(b, d)


def _triple(re, im):
    d = lcm(re.denominator, im.denominator)
    return (re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)


def _oracle(terms, nout):
    """sum over (s, xs, ys) of sum_{s+i+j=k} xs[i]*ys[j], on Fraction pairs."""
    acc = [(F(0), F(0))] * nout
    for s, xs, ys in terms:
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                k = s + i + j
                if k < nout:
                    (xr, xi), (yr, yi) = _pair(x), _pair(y)
                    r, m = acc[k]
                    acc[k] = (r + xr * yr - xi * yi, m + xr * yi + xi * yr)
    return [_triple(r, m) for r, m in acc]


def _normalized(t):
    a, b, d = t
    return d > 0 and gcd(a, b, d) == 1 and (a or b or t == ZERO)


def _gauss(den, real):
    nums = st.integers(-7, 7)
    if real:
        return st.builds(lambda a, d: _triple(F(a, d), F(0)), nums, den)
    return st.builds(lambda a, b, d: _triple(F(a, d), F(b, d)), nums, nums, den)


@st.composite
def coeff_lists(draw, den=None, real=None):
    """Up to 6 coefficients, a third of them zero on average; mixed
    denominators 1-6 unless ``den`` fixes one, real or complex."""
    den = st.integers(1, 6) if den is None else st.just(den)
    real = draw(st.booleans()) if real is None else real
    coeff = st.one_of(st.just(ZERO), _gauss(den, real), _gauss(den, real))
    return draw(st.lists(coeff, max_size=6))


@st.composite
def conv_terms(draw):
    """1-4 shifted pairs sharing one denominator mode and one field."""
    den = draw(st.one_of(st.none(), st.integers(1, 6)))
    real = draw(st.booleans())
    terms = [(draw(st.integers(0, 4)), draw(coeff_lists(den, real)), draw(coeff_lists(den, real)))
             for _ in range(draw(st.integers(1, 4)))]
    full = max(s + len(xs) + len(ys) - 1 for s, xs, ys in terms)
    return terms, draw(st.integers(0, max(full, 0) + 2))


@PROPERTY
@given(coeff_lists(), coeff_lists(), st.integers(0, 13))
def test_qconv_matches_the_fraction_oracle(xs, ys, nout):
    out = qconv(xs, ys, nout)
    assert out == _oracle([(0, xs, ys)], nout)
    assert all(_normalized(t) for t in out)
    assert out == qconvsum([(0, xs, ys)], nout)


@PROPERTY
@given(conv_terms())
def test_qconvsum_matches_the_fraction_oracle_and_summed_qconvs(case):
    terms, nout = case
    out = qconvsum(terms, nout)
    assert len(out) == nout
    assert out == _oracle(terms, nout)
    assert all(_normalized(t) for t in out)
    # one coefficient at a time, accumulated the same way
    assert [qconvat(terms, k) for k in range(nout)] == out
    # the same sum from one qconv per pair, shifted and added
    summed = [ZERO] * nout
    for s, xs, ys in terms:
        for k, t in enumerate(qconv(xs, ys, max(nout - s, 0))):
            summed[s + k] = qadd(summed[s + k], t)
    assert out == summed


def test_qconvsum_edges():
    half, third, i_half = (1, 0, 2), (1, 0, 3), (0, 1, 2)
    assert qconvsum([], 3) == [ZERO] * 3
    assert qconvsum([(0, [], [half])], 2) == [ZERO, ZERO]
    assert qconvsum([(0, [half], [half])], 0) == []
    # a shift at or past nout contributes nothing
    assert qconvsum([(2, [half], [half]), (5, [half], [half])], 2) == [ZERO, ZERO]
    # mixed denominators: 1/2*1/2 + 1/3*1/3 = 13/36
    assert qconvsum([(0, [half], [half]), (0, [third], [third])], 1) == [(13, 0, 36)]
    # cancellation leaves the normalized zero, not 0/d
    assert qconvsum([(0, [half], [half]), (0, [i_half], [i_half])], 1) == [ZERO]
    # (i/2 + z/2)^2 = -1/4 + (i/2) z + z^2/4
    assert qconv([i_half, half], [i_half, half], 3) == [(-1, 0, 4), (0, 1, 2), (1, 0, 4)]
