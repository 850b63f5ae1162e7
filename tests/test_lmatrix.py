import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from meroconn import _kernel as K
from meroconn.connection import MeroConnection, gauge_orbit_equal
from meroconn.field import CMat, GaussRat, gr
from meroconn.jsonio import dec_lmatrix, enc_lmatrix
from meroconn.lmatrix import (LaurentMatrix as LM, _fused, _is_nilpotent_series,
                              laurent_det, mat_exp_nilpotent, mat_exp_pair, mat_inv,
                              mat_mul, mat_mul_trunc)
from meroconn.randomgen import rand_parahoric_gauge, rand_small_weight
from meroconn.rootdata import Weight
from meroconn.series import INF, LaurentSeries as LS


def rand_unit_matrix(rng, n, trunc):
    """Random invertible matrix of the form (unit constant) + tail."""
    const = CMat([[gr(F(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(n)]
                  for _ in range(n)])
    const = const + CMat.identity(n).scale(5)  # diagonally dominant, invertible
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {0: const[i, j]}
            for m in range(1, trunc):
                if rng.random() < 0.5:
                    terms[m] = gr(F(rng.randint(-3, 3), rng.randint(1, 3)))
            row.append(LS.from_dict(terms, trunc=trunc))
        rows.append(row)
    return LM(rows, trunc)


# ---------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------

def test_identity_times_m():
    m = LM([[LS.from_dict({-1: 1, 2: 3}), LS.const(2)],
            [LS.zero(), LS.monomial(1, 4)]], trunc=6)
    assert mat_mul(LM.identity(2), m).agrees(m)


def test_diagonal_inverse_pair():
    d1 = LM([[LS.monomial(1, 1), LS.zero()], [LS.zero(), LS.monomial(1, -1)]])
    d2 = LM([[LS.monomial(1, -1), LS.zero()], [LS.zero(), LS.monomial(1, 1)]])
    assert mat_mul(d1, d2).agrees(LM.identity(2))


def test_unipotent_pair_by_hand():
    e12 = CMat.unit(2, 0, 1)
    a = LM.identity(2) + LM.monomial(e12, 1)
    b = LM.identity(2) - LM.monomial(e12, 1)
    assert mat_mul(a, b).agrees(LM.identity(2))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(LM.identity(2), LM.identity(3))


def test_products_of_zeros_keep_their_truncation():
    """A zero series known below t may have a term at z^t, so products of
    zeros are known below the sum of the truncations, not exactly."""
    assert (LS.zero(3) * LS.zero(4)).trunc == 7
    assert (LS.zero(3) * LS.zero()).trunc == INF
    zero = LM.zero(2, 5)
    assert mat_mul(zero, zero).trunc == 10
    assert mat_mul_trunc(zero, zero) == 10
    assert mat_mul_trunc(zero, LM.monomial(CMat.identity(2), -1)) == 4


# ---------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------

def test_inverse_nilpotent_geometric():
    n = CMat.unit(2, 0, 1)
    m = LM.from_const(CMat.identity(2) + n)
    inv = mat_inv(m)
    assert inv.coeff(0) == CMat.identity(2) - n


def test_inverse_scalar_diag():
    m = LM.from_const(CMat.diag([2, 3]))
    assert mat_inv(m).coeff(0) == CMat.diag([F(1, 2), F(1, 3)])


def test_inverse_e12_half_z():
    m = LM.identity(2) + LM.monomial(CMat.unit(2, 0, 1, F(1, 2)), 1)
    inv = mat_inv(m)
    assert inv.coeff(1) == CMat.unit(2, 0, 1, F(-1, 2))
    assert mat_mul(m, inv).agrees(LM.identity(2))


def test_inverse_torus_monomials():
    m = LM([[LS.monomial(1, 1), LS.zero()], [LS.zero(), LS.monomial(1, -1)]])
    assert mat_mul(m, mat_inv(m)).agrees(LM.identity(2))


def test_inverse_not_a_unit():
    m = LM.from_const(CMat([[1, 1], [1, 1]]))
    with pytest.raises(ZeroDivisionError, match="not a unit"):
        mat_inv(m)


def test_inverse_random_units():
    rng = random.Random(55)
    for k in range(100):
        n = 2 + k % 2
        m = rand_unit_matrix(rng, n, trunc=7)
        assert mat_mul(mat_inv(m), m).agrees(LM.identity(n))


PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)

_small = st.builds(gr, st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
                   st.builds(F, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def units(draw):
    """n = 2-4, trunc 2-6: L*U (unit-diagonal U, nonzero diagonal L) plus
    a sparse tail z^1 .. z^(trunc-1), a unit of G(R)."""
    n = draw(st.integers(2, 4))
    trunc = draw(st.integers(2, 6))
    lower = CMat([[draw(_small.filter(lambda c: not c.is_zero())) if i == j
                   else draw(_small) if j < i else 0 for j in range(n)] for i in range(n)])
    upper = CMat([[1 if i == j else draw(_small) if j > i else 0 for j in range(n)]
                  for i in range(n)])
    terms = [(lower * upper, 0)]
    for e in range(1, trunc):
        terms.append((CMat([[draw(st.one_of(st.just(gr(0)), _small)) for _ in range(n)]
                            for _ in range(n)]), e))
    return sum((LM.monomial(c, e) for c, e in terms[1:]),
               LM.from_const(terms[0][0])).truncate(trunc)


def _torus(exps):
    return LM([[LS.monomial(1, e) if i == j else LS.zero() for j, _ in enumerate(exps)]
               for i, e in enumerate(exps)])


@PROPERTY
@given(units())
def test_inverse_of_a_unit_round_trips(m):
    inv = mat_inv(m)
    ident = LM.identity(m.n)
    assert inv.trunc == m.trunc
    assert mat_mul(m, inv).agrees(ident) and mat_mul(inv, m).agrees(ident)
    back = mat_inv(inv)
    assert back.trunc == m.trunc and back.agrees(m)


@PROPERTY
@given(units(), st.data())
def test_inverse_pulls_off_torus_factors(u, data):
    # z^r * u * z^c with exponents in [-2, 2]: the row and column
    # valuations are divided out before the unit is inverted.  Each entry
    # of the product keeps what the entry of u knows, however far r and c
    # spread.
    exps = st.lists(st.integers(-2, 2), min_size=u.n, max_size=u.n)
    r, c = data.draw(exps), data.draw(exps)
    m = mat_mul(mat_mul(_torus(r), u), _torus(c))
    inv = mat_inv(m)
    ident = LM.identity(m.n)
    assert mat_mul(m, inv).agrees(ident) and mat_mul(inv, m).agrees(ident)


def test_torus_factored_units_beyond_the_truncation_invert():
    # spread(r) + spread(c) at or beyond u's truncation: one common
    # truncation cut whole rows or columns of u off such products; each
    # entry of z^r * u * z^c knows u.trunc + r_i + c_j, and of its inverse
    # z^-c * u^-1 * z^-r, u.trunc - c_i - r_j
    rng = random.Random(33)
    cases = 0
    while cases < 150:
        n, trunc = rng.randint(2, 4), rng.randint(2, 6)
        r = [rng.randint(-2, 2) for _ in range(n)]
        c = [rng.randint(-2, 2) for _ in range(n)]
        if max(r) - min(r) + max(c) - min(c) < trunc:
            continue
        cases += 1
        u = rand_unit_matrix(rng, n, trunc)
        m = mat_mul(mat_mul(_torus(r), u), _torus(c))
        assert _truncs(m) == [[trunc + ri + cj for cj in c] for ri in r]
        inv = mat_inv(m)
        assert _truncs(inv) == [[trunc - ci - rj for rj in r] for ci in c]
        assert _round_trips(m, inv)
        assert mat_inv(inv).agrees(m)


# ---------------------------------------------------------------------
# Cramer's rule against the former inverse and determinant
# ---------------------------------------------------------------------

def _former_mat_inv(a, _depth=0):
    """The former ``mat_inv``, kept as the reference: torus factors
    peeled off the rows and columns by recursion, then a Neumann series
    behind an exact-nilpotency gate."""
    v = a.val()
    if v == INF:
        raise ZeroDivisionError("not a unit in G(K): zero matrix")
    if _depth < 2:
        row_vals = [
            int(min((s.val() for s in row if not s.is_zero()), default=0))
            for row in a.rows
        ]
        if any(rv != 0 for rv in row_vals):
            rfac = _diag_monomial([-rv for rv in row_vals])
            return mat_mul(_former_mat_inv(mat_mul(rfac, a), _depth + 1), rfac)
        col_vals = [
            int(min((a.rows[i][j].val() for i in range(a.n)
                     if not a.rows[i][j].is_zero()), default=0))
            for j in range(a.n)
        ]
        if any(cv != 0 for cv in col_vals):
            cfac = _diag_monomial([-cv for cv in col_vals])
            return mat_mul(cfac, _former_mat_inv(mat_mul(a, cfac), _depth + 1))
    base = a.shift(-int(v))
    c0 = base.coeff(0)
    try:
        c0_inv = c0.inv()
    except ZeroDivisionError:
        raise ZeroDivisionError(
            "not a unit in G(K): leading coefficient is singular"
        ) from None
    # base = c0 (I + N) with val(N) >= 1; (I + N)^-1 = sum (-N)^k
    ident = LM.identity(a.n)
    nmat = mat_mul(LM.from_const(c0_inv), base) - ident
    bound = base.trunc
    if bound == INF and not nmat.is_zero() and not _is_nilpotent_series(nmat):
        raise ValueError("inverse of an exact series matrix is infinite; truncate first")
    powers = _former_powers(-nmat, bound)
    acc = _former_power_sum(a.n, powers, [K.ONE] * len(powers), bound)
    inv_unit = mat_mul(acc, LM.from_const(c0_inv))
    return inv_unit.shift(-int(v))


def _former_powers(m, trunc):
    out = []
    term = LM.identity(m.n, trunc)
    while True:
        term = mat_mul(term, m).truncate(trunc)
        if term.is_zero():
            return out
        out.append(term)


def _former_power_sum(n, powers, scalars, start):
    trunc = min([start] + [p.trunc for p in powers])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entries = [p.rows[i][j] for p in powers]
            terms = [(x.order_min, x.coeffs, (c,)) for x, c in zip(entries, scalars)
                     if x.coeffs]
            if i == j:
                terms.append((0, (K.ONE,), (K.ONE,)))
            row.append(_fused(terms, trunc))
        rows.append(row)
    return LM._of(rows)


def _diag_monomial(exps):
    n = len(exps)
    return LM(
        [[LS.monomial(1, exps[i]) if i == j else LS.zero()
          for j in range(n)] for i in range(n)]
    )


def _former_laurent_det(a):
    """The former ``laurent_det``, kept as the reference: the n!-term
    permutation expansion."""
    import itertools

    n = a.n
    out = LS.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = LS.const(sign)
        for i in range(n):
            term = term * a.rows[i][perm[i]]
        out = out + term
    return out


def _inverse_or_none(m):
    try:
        return mat_inv(m)
    except (ZeroDivisionError, ValueError):
        return None


def _former_inverse_or_none(m):
    try:
        return _former_mat_inv(m)
    except (ZeroDivisionError, ValueError):
        return None


def _round_trips(m, inv):
    ident = LM.identity(m.n)
    return mat_mul(m, inv).agrees(ident) and mat_mul(inv, m).agrees(ident)


@st.composite
def inverse_inputs(draw):
    """A unit; a unit times torus factors z^r, z^c with exponents in
    [-2, 2], spreads at or beyond its truncation included; a parahoric
    gauge at a zero, small or boundary weight, drawn from a seeded
    ``rand_parahoric_gauge``; or a boundary-weight gauge of the kind the
    former inverse refused (see ``boundary_gauges``)."""
    kind = draw(st.sampled_from(["unit", "torus", "gauge", "boundary"]))
    if kind == "boundary":
        return draw(boundary_gauges())
    if kind == "unit":
        return draw(units())
    if kind == "torus":
        u = draw(units())
        exps = st.lists(st.integers(-2, 2), min_size=u.n, max_size=u.n)
        return mat_mul(mat_mul(_torus(draw(exps)), u), _torus(draw(exps)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(2, 4))
    theta = draw(st.sampled_from([
        Weight([0] * n), rand_small_weight(rng, n),
        Weight([1] + [rng.choice([0, 1]) for _ in range(n - 2)] + [0])]))
    return rand_parahoric_gauge(rng, theta, draw(st.integers(2, 10)))


@st.composite
def boundary_gauges(draw):
    """At theta = (1, 0, 1, ...): a constant lower-triangular L with
    nonzero diagonal and entries only where theta allows them at z^0,
    plus c z^-1 on one slot of theta-difference 1, exact or truncated.
    The shifted leading coefficient is singular, though the determinant
    is det L."""
    n = draw(st.integers(2, 4))
    theta = [1 - i % 2 for i in range(n)]
    nonzero = _small.filter(lambda c: not c.is_zero())
    lower = CMat([[draw(nonzero) if i == j
                   else draw(_small) if j < i and theta[i] >= theta[j] else 0
                   for j in range(n)] for i in range(n)])
    slots = [(i, j) for i in range(n) for j in range(n) if theta[i] - theta[j] == 1]
    i, j = draw(st.sampled_from(slots))
    g = LM.from_const(lower) + LM.monomial(CMat.unit(n, i, j, draw(nonzero)), -1)
    return g.truncate(draw(st.one_of(st.just(INF), st.integers(1, 8))))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(inverse_inputs())
def test_inverse_matches_the_former_inverse(m):
    # wherever the former inverse returns, the same printed bytes and
    # values on the window both know, each entry known at least as far;
    # wherever the new one returns, a round trip to I whose entries know
    # what their series products know; the determinant agrees below the
    # lower truncation and is never known less far
    want = _former_inverse_or_none(m)
    got = _inverse_or_none(m)
    if want is not None:
        _same_window(got, want)
        _knows_at_least(got, want)
    if got is not None:
        assert _round_trips(m, got)
        assert _truncs(mat_mul(m, got)) == _product_truncs(m, got)
    old, new = _former_laurent_det(m), laurent_det(m)
    assert new.trunc >= old.trunc and new.agrees(old)


def test_exact_inverse_beyond_the_former_nilpotency_gate():
    # det 1, but N = [[0, z], [z, z^2]] is not nilpotent: the former
    # Neumann series asked for a truncation; Cramer's rule is exact
    z = LS.monomial(1, 1)
    m = LM([[LS.const(1), z], [z, LS.from_dict({0: 1, 2: 1})]])
    with pytest.raises(ValueError, match="truncate first"):
        _former_mat_inv(m)
    want = LM([[LS.from_dict({0: 1, 2: 1}), -z], [-z, LS.const(1)]])
    _same(mat_inv(m), want)
    assert mat_inv(m).trunc == INF


def test_exact_inverse_with_an_infinite_determinant_inverse_is_refused():
    # det = 1 + z has no finite inverse: LaurentSeries.inverse refuses,
    # and a gauge check by such a g is False
    m = LM([[LS.from_dict({0: 1, 1: 1}), LS.zero()], [LS.zero(), LS.const(1)]])
    with pytest.raises(ValueError, match="infinite"):
        mat_inv(m)
    conn = MeroConnection(LM.monomial(CMat.diag([1, 2]), -1, 6))
    assert not gauge_orbit_equal(conn, conn, m)


# ---------------------------------------------------------------------
# exponential
# ---------------------------------------------------------------------

def test_exp_nilpotent_constant():
    e12 = CMat.unit(2, 0, 1)
    out = mat_exp_nilpotent(LM.from_const(e12))
    assert out.coeff(0) == CMat.identity(2) + e12


def test_exp_zero():
    assert mat_exp_nilpotent(LM.zero(3)).agrees(LM.identity(3))


def test_exp_monomial_truncated():
    e21 = CMat.unit(2, 1, 0)
    out = mat_exp_nilpotent(LM.monomial(e21, 2, trunc=4))
    assert out.coeff(0) == CMat.identity(2)
    assert out.coeff(2) == e21
    assert out.trunc == 4


def test_exp_rejects_bad_input():
    with pytest.raises(ValueError, match="not exactly computable"):
        mat_exp_nilpotent(LM.from_const(CMat.diag([1, 2])))


def test_exp_inverse_pairs_random_nilpotent():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 3)
        rows = [[gr(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = gr(F(rng.randint(-5, 5), rng.randint(1, 3)))
        nmat = LM.from_const(CMat(rows))
        prod = mat_mul(mat_exp_nilpotent(nmat), mat_exp_nilpotent(-nmat))
        assert prod.agrees(LM.identity(n))


def test_exp_positive_valuation_series():
    rng = random.Random(78)
    rows = [[LS.from_dict({m: F(rng.randint(-2, 2), rng.randint(1, 2))
                           for m in range(1, 6)}, trunc=6) for _ in range(2)]
            for _ in range(2)]
    m = LM(rows, 6)
    prod = mat_mul(mat_exp_nilpotent(m), mat_exp_nilpotent(-m))
    assert prod.agrees(LM.identity(2))


def _exp_sum(m):
    """The former one-sided exponential loop, kept as the reference."""
    out = LM.identity(m.n, m.trunc)
    term = out
    k = 1
    fact = 1
    while True:
        term = mat_mul(term, m).truncate(m.trunc)
        if term.is_zero():
            return out
        fact *= k
        out = out + term * GaussRat(F(1, fact))
        k += 1


def _graded(rng, n, mu, trunc):
    """Random u with entries c z^m at slot (a, b) only where
    theta_a - theta_b + m = mu for theta = (1/2, 0, 1/2, 0, ...)."""
    theta = [F(1, 2) if i % 2 == 0 else F(0) for i in range(n)]
    rows = [[LS.zero() for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            m = mu - theta[a] + theta[b]
            if m.denominator == 1 and -1 <= m < trunc and rng.random() < 0.7:
                rows[a][b] = LS.monomial(gr(F(rng.randint(-5, 5), rng.randint(1, 4)),
                                            F(rng.randint(-2, 2), 3)), int(m))
    return LM(rows, trunc)


def test_exp_pair_matches_two_one_sided_sums():
    rng = random.Random(79)
    cases = 0
    for k in range(30):
        n = 2 + k % 3
        mu = F(1 + k % 4, 2)
        u = _graded(rng, n, mu, 6 + k % 5)
        plus, minus = mat_exp_pair(u)
        for got, want in ((plus, _exp_sum(u)), (minus, _exp_sum(-u))):
            assert got == want and got.trunc == want.trunc
            # zero entries keep the same order_min, so printed bytes agree too
            assert enc_lmatrix(got) == enc_lmatrix(want)
        by_powers = _exp_pair_by_powers(u)
        _same(plus, by_powers[0])
        _same(minus, by_powers[1])
        assert mat_mul(plus, minus).agrees(LM.identity(n))
        cases += not u.is_zero()
    assert cases >= 25


def test_exp_pair_of_a_non_nilpotent_matrix_stops_at_the_truncation():
    # E12 z + E21 z is not nilpotent, but its powers climb in z, so the
    # sums end where u^8 leaves the window
    u = LM.monomial(CMat([[0, 1], [1, 0]]), 1, trunc=8)
    plus, minus = mat_exp_pair(u)
    assert plus == _exp_sum(u) and minus == _exp_sum(-u)
    _same(plus, _exp_pair_by_powers(u)[0])
    _same(minus, _exp_pair_by_powers(u)[1])
    assert plus.coeff(7) == CMat([[0, 1], [1, 0]]).scale(F(1, 5040))


def test_exp_pair_keeps_each_entrys_truncation():
    # entry (i, j) of u^2 is known below 6 + min(val of row i, val of
    # column j of u), so the z^-1 entry at (0, 1) costs row 0 and column 1
    # one off the window; each entry of the sums is known below the least
    # truncation of that entry over I and the powers, not of whole powers
    z = LS.monomial
    u = LM([[0, z(1, -1), z(F(1, 2), 1)], [0, 0, z(3, 1)], [0, 0, 0]], 6)
    plus, minus = mat_exp_pair(u)
    assert plus == _exp_sum(u) and minus == _exp_sum(-u)
    assert _truncs(plus) == _truncs(minus) == [[5, 5, 5], [6, 5, 6], [6, 5, 6]]
    # the former common truncation knew u^2 below 4 only
    for got, want in zip((plus, minus), _exp_pair_by_powers(u)):
        assert want.trunc == 4
        _knows_at_least(got, want)
    assert mat_mul(plus, minus).agrees(LM.identity(3))


# ---------------------------------------------------------------------
# the fused kernel against the series arithmetic it replaced
# ---------------------------------------------------------------------

def _mat_mul_terms(a, b):
    """The former product, kept as the reference: per entry, n series
    products and their running series sum."""
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = None
            for k in range(n):
                left, right = a.rows[i][k], b.rows[k][j]
                if left.coeffs and right.coeffs:
                    term = left * right
                    acc = term if acc is None else acc + term
            row.append(LS.zero() if acc is None else acc)
        rows.append(row)
    return LM(rows, mat_mul_trunc(a, b))


def _exp_pair_by_powers(m):
    """The former pair of exponential sums, kept as the reference: one
    matrix add or subtract per power."""
    plus = minus = LM.identity(m.n, m.trunc)
    term = plus
    k = 1
    fact = 1
    while True:
        term = _mat_mul_terms(term, m).truncate(m.trunc)
        if term.is_zero():
            return plus, minus
        fact *= k
        scaled = term * GaussRat(F(1, fact))
        plus = plus + scaled
        minus = minus - scaled if k % 2 else minus + scaled
        k += 1


def _inverse_by_powers(a):
    """The former ``mat_inv`` of a matrix of valuation 0 whose rows and
    columns all have valuation 0: the Neumann series summed one matrix
    add per power."""
    c0_inv = a.coeff(0).inv()
    ident = LM.identity(a.n)
    mneg = -(_mat_mul_terms(LM.from_const(c0_inv), a) - ident)
    acc = term = ident.truncate(a.trunc)
    while True:
        term = _mat_mul_terms(term, mneg).truncate(a.trunc)
        if term.is_zero():
            return _mat_mul_terms(acc, LM.from_const(c0_inv))
        acc = acc + term


def _same(got, want):
    # values, trunc, and every entry's order_min, which enc_lmatrix prints
    assert got == want and got.trunc == want.trunc
    assert enc_lmatrix(got) == enc_lmatrix(want)


_sparse = st.one_of(st.just(gr(0)), st.just(gr(0)), _small)


@st.composite
def lmatrices(draw, n, lo=-2, exact=None):
    """n x n, entries of up to 5 coefficients from z^lo .. z^(lo+4) on,
    a third of them zero on average; trunc INF or finite, anywhere from
    below the window to past it."""
    rows = [[LS(draw(st.integers(lo, lo + 4)), draw(st.lists(_sparse, max_size=5)))
             for _ in range(n)] for _ in range(n)]
    if exact is None:
        exact = draw(st.booleans())
    return LM(rows, INF if exact else draw(st.integers(lo, lo + 10)))


@st.composite
def factor_pairs(draw):
    n = draw(st.integers(1, 4))
    return draw(lmatrices(n)), draw(lmatrices(n))


def _product_truncs(a, b):
    """min_k of the truncation of the series product a_ik * b_kj, entry by
    entry: what each entry of a * b knows, zero factors included."""
    return [[min((x * y).trunc for x, y in zip(row, col)) for col in zip(*b.rows)]
            for row in a.rows]


def _truncs(m):
    return [[x.trunc for x in row] for row in m.rows]


def _knows_at_least(got, want):
    # equal below each entry's lower truncation, each entry of got known
    # at least as far as that of want
    assert got.agrees(want)
    assert all(x >= y for r, s in zip(_truncs(got), _truncs(want)) for x, y in zip(r, s))


def _same_window(got, want):
    # equal below each entry's lower truncation, with the same least
    # truncation, so the printed documents (cut to it) are the same bytes
    assert got.agrees(want) and got.trunc == want.trunc
    assert enc_lmatrix(got) == enc_lmatrix(want)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(factor_pairs())
def test_mat_mul_matches_the_term_by_term_oracle(ab):
    # the former common truncation on the window both know; beyond it each
    # entry keeps what its own series products know
    a, b = ab
    got = mat_mul(a, b)
    _same_window(got, _mat_mul_terms(a, b))
    assert _truncs(got) == _product_truncs(a, b)
    cols = list(zip(*b.rows))
    for arow, got_row in zip(a.rows, got.rows):
        for col, x in zip(cols, got_row):
            assert x == sum((p * q for p, q in zip(arow[1:], col[1:])), arow[0] * col[0])


def test_mat_mul_cancelled_entry_is_the_zero_series():
    # (1 + 2z) * 1 + 1 * -(1 + 2z) cancels to the zero series, order_min 0,
    # at INF and at a finite trunc
    p = LS.from_dict({0: 1, 1: 2})
    for trunc in (INF, 5):
        a = LM([[p, LS.const(1)], [LS.zero(), LS.const(1)]], trunc)
        b = LM([[LS.const(1), LS.zero()], [-p, LS.const(1)]], trunc)
        got = mat_mul(a, b)
        _same(got, _mat_mul_terms(a, b))
        assert got.rows[0][0] == LS.zero(trunc) and got.rows[0][0].order_min == 0
    # terms that lie wholly at or past the truncation are cut to zero
    a = LM([[LS.monomial(1, 3), LS.monomial(1, -1)], [LS.zero(), LS.const(1)]], 3)
    b = LM([[LS.const(1), LS.zero()], [LS.monomial(1, 5), LS.const(1)]], 8)
    got = mat_mul(a, b)
    _same(got, _mat_mul_terms(a, b))
    assert got.rows[0][0].is_zero()


# few values, so that entries of powers and of the sums cancel often
_halves = st.sampled_from([0, 0, 1, -1, F(1, 2), F(-1, 2)])


@st.composite
def exponents(draw):
    """m whose powers vanish: a nilpotent constant (strictly upper
    triangular, trunc INF or finite) or positive valuation at a finite
    trunc."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        c = CMat([[draw(_halves) if j > i else 0 for j in range(n)] for i in range(n)])
        trunc = draw(st.one_of(st.just(INF), st.integers(1, 6)))
        return LM.from_const(c, trunc)
    rows = [[LS(draw(st.integers(1, 3)), draw(st.lists(_halves, max_size=4)))
             for _ in range(n)] for _ in range(n)]
    return LM(rows, draw(st.integers(1, 8)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(exponents())
def test_exp_pair_matches_the_per_power_oracle(m):
    plus, minus = mat_exp_pair(m)
    want_plus, want_minus = _exp_pair_by_powers(m)
    _same(plus, want_plus)
    _same(minus, want_minus)


def test_exp_pair_cancelled_entry_is_the_zero_series():
    # exp(N)_02 = -1/2 + (N^2)_02 / 2 = 0 for this N
    nil = LM.from_const(CMat([[0, 1, F(-1, 2)], [0, 0, 1], [0, 0, 0]]), 6)
    plus, minus = mat_exp_pair(nil)
    want_plus, want_minus = _exp_pair_by_powers(nil)
    _same(plus, want_plus)
    _same(minus, want_minus)
    assert plus.rows[0][2] == LS.zero(6) and plus.rows[0][2].order_min == 0


@PROPERTY
@given(units())
def test_inverse_matches_the_per_power_oracle(m):
    _same(mat_inv(m), _inverse_by_powers(m))


# ---------------------------------------------------------------------
# constant matrices: one dot product per entry against term-by-term sums
# ---------------------------------------------------------------------

def _dot_terms(xs, ys):
    """The former entry of a product, kept as the reference: a running
    sum of GaussRat products, normalized at every step."""
    return sum((x * y for x, y in zip(xs, ys)), GaussRat(0))


def _cmat_mul_terms(a, b):
    cols = list(zip(*b.rows))
    return CMat([[_dot_terms(row, col) for col in cols] for row in a.rows])


def _cmat_pow_terms(a, k):
    out = CMat.identity(a.n)
    for _ in range(k):
        out = _cmat_mul_terms(out, a)
    return out


@st.composite
def cmat_entries(draw, n, count):
    """``count`` entries for n x n data: real or complex, over one shared
    denominator or mixed ones, with a zero row and column of an n x n
    matrix now and then."""
    real = draw(st.booleans())
    den = draw(st.one_of(st.none(), st.integers(1, 12)))
    part = st.builds(F, st.integers(-9, 9), st.just(den) if den else st.integers(1, 12))
    entry = st.builds(gr, part, st.just(0) if real else part)
    return [draw(st.one_of(st.just(gr(0)), entry)) for _ in range(count)]


@st.composite
def cmats(draw, n):
    flat = draw(cmat_entries(n, n * n))
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    if draw(st.booleans()):
        z = draw(st.integers(0, n - 1))
        rows = [[gr(0) if z in (i, j) else x for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    return CMat(rows)


@st.composite
def cmat_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(cmats(n)), draw(cmats(n)), draw(cmat_entries(n, n))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cmat_pairs(), st.integers(0, 4))
def test_cmat_products_match_the_term_by_term_oracle(abv, k):
    a, b, v = abv
    got = a * b
    assert got.rows == _cmat_mul_terms(a, b).rows
    assert all(type(x) is GaussRat for row in got.rows for x in row)
    assert a.apply(v) == [_dot_terms(row, v) for row in a.rows]
    assert (a ** k).rows == _cmat_pow_terms(a, k).rows
    ab, ba = _cmat_mul_terms(a, b), _cmat_mul_terms(b, a)
    assert a.bracket(b).rows == tuple(tuple(x - y for x, y in zip(r, s))
                                      for r, s in zip(ab.rows, ba.rows))


def test_cmat_apply_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError):
        CMat.identity(2).apply([gr(1)])
    with pytest.raises(ValueError):
        CMat.identity(2).apply([gr(1)] * 3)


# ---------------------------------------------------------------------
# the constructor never extends an entry's precision
# ---------------------------------------------------------------------

def test_explicit_trunc_above_an_entry_is_clamped():
    short = LS(0, [1, 1], 2)
    m = LM([[short]], 12)
    assert m.trunc == 2 and m.rows[0][0].trunc == 2
    # each entry keeps min(its own truncation, the explicit one); the
    # matrix's is the least of them
    entries = [[short, LS.const(1)], [LS.zero(), LS.monomial(1, 5)]]
    m = LM(entries, 12)
    assert m.trunc == 2
    assert _truncs(m) == [[min(x.trunc, 12) for x in row] for row in entries] == [[2, 12],
                                                                                   [12, 12]]
    assert m.rows[1][1] == LS(5, [1], 12)
    # the printed document cuts every entry to the least truncation
    doc = enc_lmatrix(m)
    assert doc["trunc"] == 2 and all(x["trunc"] == 2 for row in doc["entries"] for x in row)
    assert doc["entries"][1][1] == {"order_min": 0, "coeffs": [], "trunc": 2}
    # an explicit trunc below the entries still cuts them
    assert LM([[short]], 1).rows[0][0] == LS(0, [1], 1)
    doc = {"n": 1, "trunc": 12,
           "entries": [[{"order_min": 0, "coeffs": ["1", "1"], "trunc": 2}]]}
    m = dec_lmatrix(doc)
    assert m.trunc == 2 and m.rows[0][0] == short
    assert enc_lmatrix(m)["trunc"] == 2
