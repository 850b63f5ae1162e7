"""Laurent matrices: n x n matrices of Laurent series over the exact field.

LaurentMatrix models elements of the loop group/algebra, and is
immutable.  There is one truncation rule, the series one: each entry
keeps its own truncation, a sum is known below the least of its terms'
and a product x * y below min(x.trunc + val(y), y.trunc + val(x)), so
an entry of a matrix product or of a minor is known below the least of
that over its terms (per-entry, or "jagged", precision, as in X. Caruso,
D. Roe and T. Vaccon, "Tracking p-adic precision", LMS J. Comput. Math.
17A, 2014).  A matrix's ``trunc`` is the least of its entries'; the
printed document (``jsonio.enc_lmatrix``) cuts every entry to it.  Its
constant coefficients are ``field.CMat``s; ``CMat`` is imported here, so
``lmatrix.CMat`` names the same class.

There is one inverse, ``mat_inv``: Cramer's rule on the minors of one
memoized Laplace expansion, whose full minor is ``laurent_det``, with
``LaurentSeries.inverse`` inverting the determinant.  There is one
Laurent exponential loop, ``mat_exp_pair``: it returns exp(m) and
exp(-m) from one sequence of powers m^k, and ``mat_exp_nilpotent``
keeps the first.  No gauge is built from it: the reduction and the
shape recovery in ``connection`` solve for their gauges grade by grade.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from . import _kernel as K
from .field import CMat, GaussRat, _check_dim
from .series import INF, LaurentSeries


class LaurentMatrix:
    """n x n matrix of Laurent series, each entry with its own truncation.

    ``trunc`` is the least of the entries' truncations: the window on
    which every entry is known.  An entry is never read beyond what it
    knows (coefficients at or past its own truncation read as 0), and an
    explicit ``trunc`` cuts the entries that know more, never extending
    one.  So z^r * u * z^c keeps, for a unit u, what each entry of u
    knows, however far the exponents r and c spread."""

    __slots__ = ("n", "rows", "trunc")

    def __new__(cls, rows, trunc=None):
        rows = [[x if isinstance(x, LaurentSeries) else LaurentSeries.const(x) for x in row]
                for row in rows]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("LaurentMatrix must be square")
        if trunc is not None:
            rows = [[x if x.trunc <= trunc else LaurentSeries._raw(x.order_min, x.coeffs, trunc)
                     for x in row] for row in rows]
        return cls._of(rows)

    @classmethod
    def _of(cls, rows):
        """From lists of series, each keeping its own truncation."""
        self = object.__new__(cls)
        rows = tuple(map(tuple, rows))
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "trunc", min((x.trunc for row in rows for x in row),
                                              default=INF))
        return self

    def __setattr__(self, *a):
        raise AttributeError("LaurentMatrix is immutable")

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, n, trunc=INF):
        return cls.from_const(CMat.zero(n), trunc)

    @classmethod
    def identity(cls, n, trunc=INF):
        return cls.from_const(CMat.identity(n), trunc)

    @classmethod
    def from_const(cls, m: CMat, trunc=INF):
        return cls.monomial(m, 0, trunc)

    @classmethod
    def monomial(cls, m: CMat, e: int, trunc=INF):
        """m * z^e."""
        return cls._of([[LaurentSeries._raw(e, (t,), trunc) for t in row] for row in m.t])

    def coeff(self, e: int) -> CMat:
        return CMat._of([[x._coeff(e) for x in row] for row in self.rows])

    def val(self):
        return min((x.val() for row in self.rows for x in row), default=INF)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    # ------------------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        _check_dim(self, other)
        return LaurentMatrix._of([[x + y for x, y in zip(ra, rb)]
                                  for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        other = self._coerce(other)
        _check_dim(self, other)
        return LaurentMatrix._of([[x - y for x, y in zip(ra, rb)]
                                  for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return LaurentMatrix._of([[-x for x in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, (GaussRat, int, Fraction, LaurentSeries)):
            return LaurentMatrix._of([[x * other for x in row] for row in self.rows])
        other = self._coerce(other)
        return mat_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (GaussRat, int, Fraction, LaurentSeries)):
            return self * other
        return NotImplemented

    def shift(self, e: int):
        return LaurentMatrix._of([[x.shift(e) for x in row] for row in self.rows])

    def zdz(self):
        return LaurentMatrix._of([[x.zdz() for x in row] for row in self.rows])

    def _coerce(self, other):
        if isinstance(other, LaurentMatrix):
            return other
        if isinstance(other, CMat):
            return LaurentMatrix.from_const(other)
        raise TypeError(f"cannot combine LaurentMatrix with {type(other).__name__}")

    def agrees(self, other) -> bool:
        other = self._coerce(other)
        if self.n != other.n:
            return False
        return all(
            self.rows[i][j].agrees(other.rows[i][j])
            for i in range(self.n)
            for j in range(self.n)
        )

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def truncate(self, trunc):
        """Every entry cut to at most ``trunc``."""
        return LaurentMatrix(self.rows, trunc)

    def __repr__(self):
        return f"LaurentMatrix(n={self.n}, trunc={self.trunc})"


def mat_mul(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """Exact truncated product.

    Entry (i, j) is known below min_k of the truncation of the series
    product a_ik * b_kj, min(a_ik.trunc + val(b_kj), b_kj.trunc +
    val(a_ik)), the rule ``_minors`` uses: coefficients below that bound
    are fully determined by the known windows of the factors.  Each entry
    sum_k a_ik b_kj is one kernel call (``qconvsum``), which normalizes
    each output coefficient once.
    """
    _check_dim(a, b)
    cols = list(zip(*b.rows))
    return LaurentMatrix._of([
        [_fused([(x.order_min + y.order_min, x.coeffs, y.coeffs)
                 for x, y in zip(arow, bcol) if x.coeffs and y.coeffs],
                min(map(LaurentSeries._mul_trunc, arow, bcol)))
         for bcol in cols] for arow in a.rows])


def _fused(terms, trunc) -> LaurentSeries:
    """The sum of z^s * xs * ys over (s, xs, ys) in ``terms`` as a series
    known below ``trunc``."""
    if not terms:
        return LaurentSeries.zero(trunc)
    lo = min(s for s, _, _ in terms)
    hi = max(s + len(xs) + len(ys) - 1 for s, xs, ys in terms)
    if trunc != INF:
        hi = min(hi, int(trunc))
    if hi <= lo:
        return LaurentSeries.zero(trunc)
    return LaurentSeries._raw(lo, K.qconvsum([(s - lo, xs, ys) for s, xs, ys in terms],
                                             hi - lo), trunc)


def mat_mul_trunc(a: LaurentMatrix, b: LaurentMatrix):
    """A bound below which ``mat_mul(a, b)`` is known in every entry,
    from the least truncation and the valuation of each factor, however
    the entries' truncations differ.  A zero entry known below t counts
    as of valuation t, as in ``LaurentSeries._mul_trunc``."""
    return min(a.trunc + _known_val(b), b.trunc + _known_val(a))


def _known_val(m: LaurentMatrix):
    """The least of the entries' ``LaurentSeries._known_val``."""
    return min((x._known_val() for row in m.rows for x in row), default=INF)


def laurent_det(a: LaurentMatrix) -> LaurentSeries:
    """Exact determinant: the full minor of ``_minors(a)``."""
    full = (1 << a.n) - 1
    return _minors(a)(full, full)


def _minors(a: LaurentMatrix):
    """minor(rows, cols): the determinant of a's submatrix on the row and
    column bitmasks ``rows`` and ``cols`` of equal size, by Laplace
    expansion along its first row, one kernel call per minor.  Memoized,
    so a determinant and all its cofactors share their smaller minors.
    Zero entries stay in the expansion: a zero series known below trunc
    bounds the truncation of its product as a nonzero one does."""
    n = a.n
    neg = [[tuple(K.qneg(t) for t in x.coeffs) for x in row] for row in a.rows]

    @lru_cache(maxsize=None)
    def minor(rows, cols):
        if not rows:
            return LaurentSeries.const(1)
        i = (rows & -rows).bit_length() - 1
        terms, trunc, sign = [], INF, True
        for j in range(n):
            if cols >> j & 1:
                x, m = a.rows[i][j], minor(rows & (rows - 1), cols ^ 1 << j)
                trunc = min(trunc, x._mul_trunc(m))
                if x.coeffs and m.coeffs:
                    terms.append((x.order_min + m.order_min,
                                  x.coeffs if sign else neg[i][j], m.coeffs))
                sign = not sign
        return _fused(terms, trunc)

    return minor


def mat_inv(a: LaurentMatrix) -> LaurentMatrix:
    """Inverse of a in G(K) by Cramer's rule.

    The row valuations r of a, then the column valuations c of what is
    left, come off as shifts of whole rows and columns: a = z^r * b * z^c.
    Then b^-1 = adj(b) * det(b)^-1, the determinant and every cofactor
    from one ``_minors`` expansion and det(b)^-1 from
    ``LaurentSeries.inverse``, and a^-1 = z^-c * b^-1 * z^-r, each entry
    with the truncation that ``mat_mul`` by the torus factors would give.

    Raises ZeroDivisionError 'not a unit in G(K)' when det(b) vanishes
    below its truncation, and ValueError for an exact a (trunc INF) whose
    det(b) is not a monomial, as its inverse is an infinite series."""
    r = _vals(a.rows)
    b = LaurentMatrix._of([[x.shift(-e) for x in row] for row, e in zip(a.rows, r)])
    c = _vals(zip(*b.rows))
    b = LaurentMatrix._of([[x.shift(-e) for x, e in zip(row, c)] for row in b.rows])
    minor, full = _minors(b), (1 << a.n) - 1
    det = minor(full, full)
    if det.is_zero():
        raise ZeroDivisionError("not a unit in G(K): determinant vanishes below "
                                "the truncation")
    dinv = det.inverse()
    signed = (dinv, -dinv)
    return LaurentMatrix._of([[(minor(full ^ 1 << j, full ^ 1 << i) * signed[(i + j) % 2])
                               .shift(-c[i] - r[j]) for j in range(a.n)] for i in range(a.n)])


def _vals(lines) -> List[int]:
    """The valuation of each row (or column) in ``lines``, 0 for a zero one."""
    return [int(min((x.val() for x in line if x.coeffs), default=0)) for line in lines]


def mat_exp_nilpotent(m: LaurentMatrix) -> LaurentMatrix:
    """Exact exponential: requires m nilpotent (as a matrix of series)
    or val(m) >= 1 (z-adic convergence within the truncation window)."""
    if not _is_nilpotent_series(m):
        if m.val() < 1:
            raise ValueError(
                "exponential not exactly computable: matrix is neither "
                "nilpotent nor of positive valuation"
            )
        if m.trunc == INF:
            raise ValueError(
                "exponential of an exact non-nilpotent series is infinite; truncate first"
            )
    return mat_exp_pair(m)[0]


def mat_exp_pair(m: LaurentMatrix) -> Tuple[LaurentMatrix, LaurentMatrix]:
    """(exp(m), exp(-m)) as sum_k (+-m)^k / k! from one sequence of
    powers m^k, each clamped to m's truncation (the sums are not known
    beyond it), up to the first power that vanishes; odd terms enter
    exp(-m) with a minus sign.  The caller vouches that a power
    vanishes."""
    powers = _powers(m)
    plus, minus = [], []
    fact = 1
    for k in range(1, len(powers) + 1):
        fact *= k
        plus.append((1, 0, fact))
        minus.append((-1 if k % 2 else 1, 0, fact))
    return _power_sum(m, powers, plus), _power_sum(m, powers, minus)


def _powers(m: LaurentMatrix) -> List[LaurentMatrix]:
    """[m^1, m^2, ...], each power the product of the last with m clamped
    to m's truncation, up to the last that does not vanish."""
    out = []
    term = LaurentMatrix.identity(m.n, m.trunc)
    while True:
        term = mat_mul(term, m).truncate(m.trunc)
        if term.is_zero():
            return out
        out.append(term)


def _power_sum(m: LaurentMatrix, powers: List[LaurentMatrix], scalars) -> LaurentMatrix:
    """I + sum_k scalars[k] * powers[k] for kernel triples ``scalars``,
    with I truncated at m's truncation.  Each entry is one kernel call
    over all the powers, known below the least truncation of m's and of
    that entry of the powers."""
    rows = []
    for i in range(m.n):
        row = []
        for j in range(m.n):
            entries = [p.rows[i][j] for p in powers]
            terms = [(x.order_min, x.coeffs, (c,)) for x, c in zip(entries, scalars)
                     if x.coeffs]
            if i == j:
                terms.append((0, (K.ONE,), (K.ONE,)))
            row.append(_fused(terms, min([m.trunc] + [x.trunc for x in entries])))
        rows.append(row)
    return LaurentMatrix._of(rows)


def _is_nilpotent_series(m: LaurentMatrix) -> bool:
    p = m
    for _ in range(m.n):
        if p.is_zero():
            return True
        p = mat_mul(p, m)
    return p.is_zero()
