import operator
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from meroconn.field import CMat, GaussRat, entry_mask, gr, rref
from meroconn.lmatrix import LaurentMatrix
from meroconn.series import LaurentSeries


def rand_gauss(rng, nonzero=False):
    while True:
        g = gr(F(rng.randint(-20, 20), rng.randint(1, 12)),
               F(rng.randint(-20, 20), rng.randint(1, 12)))
        if not nonzero or not g.is_zero():
            return g


# ---------------------------------------------------------------------
# construction and parsing
# ---------------------------------------------------------------------

def test_construction_and_parts():
    a = gr(F(1, 2), F(-3, 4))
    assert a.re == F(1, 2) and a.im == F(-3, 4)
    assert gr(5).is_real()


def test_normalization_makes_equality_structural():
    assert gr(F(2, 4)) == gr(F(1, 2))
    assert gr(F(2, 4), F(-6, 8)).t == gr(F(1, 2), F(-3, 4)).t
    assert hash(gr(F(2, 4))) == hash(gr(F(1, 2)))
    # integer parts take a shortcut to the same triple as Fractions do
    for re, im in ((0, 0), (3, 0), (-7, 2), (0, -1), (12, 18)):
        assert gr(re, im).t == gr(F(re), F(im)).t == (re, im, 1)
    assert gr(True).t == (1, 0, 1)


def test_floats_rejected():
    # on either side of every arithmetic operator
    for x in (0.5, 1j):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for args in ((gr(1), x), (x, gr(1))):
                with pytest.raises(TypeError, match="floats are not exact"):
                    op(*args)


def test_gaussrat_leaves_a_matrix_or_series_operand_to_the_other_side():
    c = gr(F(1, 2), -3)
    m = CMat([[1, 2], [gr(0, 1), F(-1, 3)]])
    s = LaurentSeries(-1, [1, gr(2, 1)], 4)
    lm = LaurentMatrix([[s, 1], [0, s]], 3)
    assert (c * m).rows == (m * c).rows and c * s == s * c and c * lm == lm * c
    with pytest.raises(TypeError, match="unsupported operand"):
        c + "1"


def test_complex_operands_compare_unequal():
    assert not gr(1) == 1 + 0j
    assert not 1 + 0j == gr(1)
    assert gr(0, 1) != 1j


# ---------------------------------------------------------------------
# field axioms on randomized triples
# ---------------------------------------------------------------------

def test_field_axioms_random():
    rng = random.Random(101)
    for _ in range(200):
        a, b, c = (rand_gauss(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_inverses_random():
    rng = random.Random(102)
    one = gr(1)
    for _ in range(200):
        a = rand_gauss(rng, nonzero=True)
        assert a * a.inv() == one
        assert (one / a) * a == one
        assert a / a == one
        assert a + (-a) == gr(0)


# parts with shared factors, large denominators and zeros, so that sums
# and products cancel and reduce often
_part = st.one_of(st.just(F(0)), st.builds(F, st.integers(-40, 40), st.integers(1, 36)),
                  st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**9)))
_gauss = st.builds(gr, _part, _part)


def _normalized(x):
    a, b, d = x.t
    return d > 0 and gcd(a, b, d) == 1 and x.is_zero() == (x.t == (0, 0, 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_gauss, _gauss, _gauss)
def test_field_laws(a, b, c):
    zero, one = gr(0), gr(1)
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c and (a + b) * c == a * c + b * c
    assert a + b == b + a and a * b == b * a
    assert a + zero == a and a * one == a and a - a == zero and a * zero == zero
    assert a + (-a) == zero and -(-a) == a
    if not a.is_zero():
        assert a * a.inv() == one and (b / a) * a == b
    # every result is a normalized triple, so (0, 0, 1) is the only zero
    for x in (a, b, a + b, a - b, a * b, a * c - c * a, a - a, a * zero, -a):
        assert type(x) is GaussRat and _normalized(x)
    if not a.is_zero():
        assert _normalized(a.inv()) and _normalized(b / a)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)
    with pytest.raises(ZeroDivisionError):
        gr(0).inv()


def test_powers_and_conjugation():
    a = gr(1, 2)
    assert a ** 2 == a * a
    assert a ** 0 == gr(1)
    assert a ** -1 == a.inv()
    assert a.conjugate() == gr(1, -2)
    assert (a * a.conjugate()).is_real()


# ---------------------------------------------------------------------
# Gauss-Jordan elimination
# ---------------------------------------------------------------------

_small = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
_coeff = st.builds(gr, _small, _small)
_entry = st.one_of(st.just(gr(0)), _coeff)


@st.composite
def _low_rank_rows(draw):
    """Rectangular matrices whose rows are combinations of at most
    ``rank`` drawn rows, some columns a multiple of the one before (the
    first one zero), so rank deficiency, zero rows, columns without a
    pivot before columns with one, and cancellation are common."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rank = draw(st.integers(0, min(nrows, ncols)))
    base = [[draw(_entry) for _ in range(ncols)] for _ in range(rank)]
    for j in sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=2))):
        c = draw(_entry)
        for row in base:
            row[j] = row[j - 1] * c if j else gr(0)
    rows = []
    for _ in range(nrows):
        coeffs = [draw(_coeff) for _ in base]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), gr(0))
                     for j in range(ncols)])
    return rows


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_low_rank_rows())
def test_rref_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")

    def to_sympy(x):
        a, b, d = x.t
        return sympy.Rational(a, d) + sympy.Rational(b, d) * sympy.I

    def from_sympy(x):
        re, im = sympy.expand_complex(x).as_real_imag()
        return gr(F(int(re.p), int(re.q)), F(int(im.p), int(im.q)))

    want, want_pivots = sympy.Matrix([[to_sympy(x) for x in r] for r in rows]).rref()
    got, pivots = rref([[x.t for x in r] for r in rows])
    assert pivots == list(want_pivots)
    assert got == [[from_sympy(want[i, j]).t for j in range(want.cols)]
                   for i in range(want.rows)]


def test_cmat_inv_of_singular_and_empty_matrices():
    # a zero first column, a dependent last column, proportional rows
    for rows in ([[0, 1], [0, 1]], [[1, 0, 1], [0, 1, 1], [0, 0, 0]], [[1, 2], [2, 4]]):
        with pytest.raises(ZeroDivisionError, match="^matrix not invertible$"):
            CMat(rows).inv()
    assert CMat([]).inv() == CMat([])
    m = CMat([[gr(1, 1), 2], [gr(0, 3), gr(F(1, 2))]])
    assert m * m.inv() == CMat.identity(2) == m.inv() * m


def test_cmat_support_bits():
    assert CMat.zero(3).support() == 0 == CMat([]).support()
    assert CMat.identity(3).support() == 1 | 1 << 4 | 1 << 8
    # a purely imaginary entry is nonzero; an entry that cancels is not
    m = CMat([[gr(0, 1), 0], [gr(1) - gr(1), gr(F(-1, 3))]])
    assert m.support() == 0b1001


def test_cmat_powers_match_repeated_products():
    rng = random.Random(3)
    for n in (1, 2, 3):
        m = CMat([[rand_gauss(rng) for _ in range(n)] for _ in range(n)])
        want = CMat.identity(n)
        for k in range(7):
            assert m ** k == want
            want = want * m


# ---------------------------------------------------------------------
# old-vs-new equivalence: pattern tests by support mask
# ---------------------------------------------------------------------

def reference_is_block_diagonal(m, blocks):
    """Per-entry: entries between different blocks vanish."""
    block_of = {i: b for b, idxs in enumerate(blocks) for i in idxs}
    return all(m[i, j].is_zero() for i in range(m.n) for j in range(m.n)
               if block_of[i] != block_of[j])


def reference_is_diagonal(m):
    return all(m[i, j].is_zero() for i in range(m.n) for j in range(m.n) if i != j)


def test_entry_mask_layout():
    """Bit i*n + j stands for entry (i, j), as in ``CMat.support``."""
    assert entry_mask(3, lambda i, j: (i, j) == (0, 1)) == 1 << 1 == CMat.unit(3, 0, 1).support()
    assert entry_mask(3, lambda i, j: (i, j) == (1, 0)) == 1 << 3 == CMat.unit(3, 1, 0).support()
    assert entry_mask(3, lambda i, j: i < j) == 0b000100110
    for n in range(5):
        assert entry_mask(n, lambda i, j: True) == (1 << n * n) - 1
        assert entry_mask(n, lambda i, j: i == j) == CMat.identity(n).support()
        assert entry_mask(n, lambda i, j: False) == 0


_SPARSE_VALUES = [gr(1), gr(-2), gr(0, 1), gr(F(1, 3), -1)]


@st.composite
def sparse_mats_and_partitions(draw):
    """A matrix at n = 1-5, nonzero only inside the blocks of a drawn
    partition (listed in a drawn order) and at up to two stray entries,
    so that both verdicts occur."""
    n = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    label = [rng.randrange(n) for _ in range(n)]
    blocks = {}
    for i, lab in enumerate(label):
        blocks.setdefault(lab, []).append(i)
    blocks = list(blocks.values())
    rng.shuffle(blocks)
    strays = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2))]
    m = CMat([[rng.choice(_SPARSE_VALUES)
               if (label[i] == label[j] and rng.random() < 0.6) or (i, j) in strays else 0
               for j in range(n)] for i in range(n)])
    return m, blocks


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(sparse_mats_and_partitions())
def test_pattern_tests_match_per_entry_loops(case):
    m, blocks = case
    assert m.is_block_diagonal(blocks) == reference_is_block_diagonal(m, blocks)
    assert m.is_diagonal() == reference_is_diagonal(m)
    assert m.is_diagonal() == m.is_block_diagonal([[i] for i in range(m.n)])


# ---------------------------------------------------------------------
# old-vs-new equivalence: CMat on kernel triples
# ---------------------------------------------------------------------

def reference_triple(re, im=0):
    """The former GaussRat(re, im) for rationals: over lcm(den), then reduced."""
    re, im = F(re), F(im)
    d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
    a, b = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
    g = gcd(a, b, d)
    return a // g, b // g, d // g


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(_part, st.integers(-10**30, 10**30), st.booleans()))
def test_gaussrat_of_a_rational_is_the_former_triple(x):
    assert GaussRat(x).t == reference_triple(x) == GaussRat(x, 0).t == GaussRat(x, F(0)).t
    assert GaussRat(x, 1).t == reference_triple(x, 1)


def reference_rref(rows):
    """The former elimination, on ``GaussRat`` rows."""
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _as_triples(rows):
    return [[x.t for x in row] for row in rows]


def reference_inv(rows):
    n = len(rows)
    out, pivots = reference_rref([[*row, *(gr(int(i == j)) for j in range(n))]
                                  for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix not invertible")
    return tuple(tuple(row[n:]) for row in out)


def _dot(xs, ys):
    return sum((x * y for x, y in zip(xs, ys)), gr(0))


# entries with shared factors and cancellation; a third of them zero
_mat_entry = st.one_of(st.just(gr(0)), _coeff, _gauss, st.integers(-3, 3), _small)


@st.composite
def cmat_cases(draw):
    """Two n x n matrices at n = 1-5 (entries given as ints, Fractions and
    GaussRats, as CMat accepts), a scalar and a vector."""
    n = draw(st.integers(1, 5))
    a, b = (CMat([[draw(_mat_entry) for _ in range(n)] for _ in range(n)]) for _ in "ab")
    return a, b, draw(_mat_entry), [draw(_mat_entry) for _ in range(n)]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(cmat_cases())
def test_cmat_matches_entrywise_gaussrat_formulas(case):
    """Every operation against the former formulas on rows of GaussRats."""
    a, b, c, v = case
    ra, rb, gc = a.rows, b.rows, gr(c) if not isinstance(c, GaussRat) else c

    def rows_of(f):
        return tuple(tuple(f(i, j) for j in range(a.n)) for i in range(a.n))

    assert all(type(x) is GaussRat for row in ra for x in row)
    assert a.t == tuple(tuple(x.t for x in row) for row in ra)
    assert all(a[i, j] == ra[i][j] for i in range(a.n) for j in range(a.n))
    assert (a + b).rows == rows_of(lambda i, j: ra[i][j] + rb[i][j])
    assert (a - b).rows == rows_of(lambda i, j: ra[i][j] - rb[i][j])
    assert (-a).rows == rows_of(lambda i, j: -ra[i][j])
    assert a.scale(c).rows == (a * c).rows == (c * a).rows == rows_of(lambda i, j: ra[i][j] * gc)
    cols = list(zip(*rb))
    assert (a * b).rows == rows_of(lambda i, j: _dot(ra[i], cols[j]))
    assert a.conjugate().rows == rows_of(lambda i, j: ra[i][j].conjugate())
    assert a.trace() == _dot([gr(1)] * a.n, [ra[i][i] for i in range(a.n)])
    assert a.apply(v) == [_dot(row, [gr(x) for x in v]) for row in ra]
    assert a.is_zero() == all(x.is_zero() for row in ra for x in row)
    assert a.support() == sum(1 << (i * a.n + j) for i in range(a.n) for j in range(a.n)
                              if not ra[i][j].is_zero())
    assert (a == b) == (ra == rb) and a == CMat(ra) and hash(a) == hash(ra)
    try:
        want = reference_inv(ra)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="^matrix not invertible$"):
            a.inv()
    else:
        assert a.inv().rows == want


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_low_rank_rows())
def test_rref_matches_the_gaussrat_elimination(rows):
    got, pivots = rref(_as_triples(rows))
    want, want_pivots = reference_rref(rows)
    assert pivots == want_pivots and got == _as_triples(want)
