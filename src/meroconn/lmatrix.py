"""Laurent matrices: n x n matrices of Laurent series over the exact field.

LaurentMatrix models elements of the loop group/algebra with a shared
truncation order, and is immutable.  Its constant coefficients are
``field.CMat``s; ``CMat`` is imported here, so ``lmatrix.CMat`` names
the same class.

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
    """n x n matrix of Laurent series sharing a common truncation.

    The truncation is the minimum of ``trunc`` (if given) and the
    entries' own truncations, and every entry is cut to it: an entry is
    never read beyond what it knows.

    Known limit: one truncation for all entries loses what the entries
    of z^r * u * z^c, for a unit u, know at different depths.  Once
    spread(r) + spread(c) (max minus min exponent of each) reaches
    u.trunc, forming that product cuts whole rows or columns of u to
    nothing below the common truncation, and ``mat_inv`` of the product
    then mostly raises 'not a unit in G(K)'."""

    __slots__ = ("n", "rows", "trunc")

    def __init__(self, rows, trunc=None):
        rows = [list(row) for row in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("LaurentMatrix must be square")
        entries = []
        t = INF if trunc is None else trunc
        for row in rows:
            out_row = []
            for x in row:
                if not isinstance(x, LaurentSeries):
                    x = LaurentSeries.const(x)
                t = min(t, x.trunc)
                out_row.append(x)
            entries.append(out_row)
        norm = tuple(
            tuple(
                e if e.trunc == t else LaurentSeries._raw(e.order_min, list(e.coeffs), t)
                for e in row
            )
            for row in entries
        )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", norm)
        object.__setattr__(self, "trunc", t)

    @classmethod
    def _of(cls, rows, trunc):
        """From lists of series that are already cut to ``trunc``."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "trunc", trunc)
        return self

    def __setattr__(self, *a):
        raise AttributeError("LaurentMatrix is immutable")

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, n, trunc=INF):
        return cls([[LaurentSeries.zero()] * n for _ in range(n)], trunc)

    @classmethod
    def identity(cls, n, trunc=INF):
        one = LaurentSeries.const(1)
        zero = LaurentSeries.zero()
        return cls(
            [[one if i == j else zero for j in range(n)] for i in range(n)], trunc
        )

    @classmethod
    def from_const(cls, m: CMat, trunc=INF):
        return cls(
            [[LaurentSeries.const(x) for x in row] for row in m.rows], trunc
        )

    @classmethod
    def monomial(cls, m: CMat, e: int, trunc=INF):
        """m * z^e."""
        return cls(
            [[LaurentSeries.monomial(x, e) for x in row] for row in m.rows], trunc
        )

    def coeff(self, e: int) -> CMat:
        return CMat([[x.coeff(e) for x in row] for row in self.rows])

    def val(self):
        return min((x.val() for row in self.rows for x in row), default=INF)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    # ------------------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        _check_dim(self, other)
        return LaurentMatrix(
            [
                [self.rows[i][j] + other.rows[i][j] for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def __sub__(self, other):
        other = self._coerce(other)
        _check_dim(self, other)
        return LaurentMatrix._of(
            [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            min(self.trunc, other.trunc))

    def __neg__(self):
        return LaurentMatrix([[-x for x in row] for row in self.rows], self.trunc)

    def __mul__(self, other):
        if isinstance(other, (GaussRat, int, Fraction, LaurentSeries)):
            return LaurentMatrix(
                [[x * other for x in row] for row in self.rows]
            )
        other = self._coerce(other)
        return mat_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (GaussRat, int, Fraction, LaurentSeries)):
            return self * other
        return NotImplemented

    def shift(self, e: int):
        return LaurentMatrix([[x.shift(e) for x in row] for row in self.rows])

    def zdz(self):
        return LaurentMatrix([[x.zdz() for x in row] for row in self.rows], self.trunc)

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
        return self.n == other.n and self.trunc == other.trunc and self.rows == other.rows

    def __hash__(self):
        return hash((self.trunc, self.rows))

    def truncate(self, trunc):
        if trunc >= self.trunc:
            return self
        return LaurentMatrix(self.rows, trunc)

    def __repr__(self):
        return f"LaurentMatrix(n={self.n}, trunc={self.trunc})"


def mat_mul(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """Exact truncated product.

    The result's truncation is min(a.trunc + val(b), b.trunc + val(a)):
    coefficients below that bound are fully determined by the known
    windows of the factors.  Each entry sum_k a_ik b_kj is one kernel
    call (``qconvsum``), which normalizes each output coefficient once.
    """
    _check_dim(a, b)
    trunc = mat_mul_trunc(a, b)
    cols = list(zip(*b.rows))
    rows = []
    for arow in a.rows:
        rows.append([
            _fused([(x.order_min + y.order_min, x.coeffs, y.coeffs)
                    for x, y in zip(arow, bcol) if x.coeffs and y.coeffs], trunc)
            for bcol in cols])
    return LaurentMatrix._of(rows, trunc)


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
    """The truncation of ``mat_mul(a, b)``."""
    ta = a.trunc + b.val() if a.trunc != INF else INF
    tb = b.trunc + a.val() if b.trunc != INF else INF
    return min(ta, tb)


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
    ``LaurentSeries.inverse``, and a^-1 = z^-c * b^-1 * z^-r, with the
    truncation that ``mat_mul`` by the torus factors would give.

    Raises ZeroDivisionError 'not a unit in G(K)' when det(b) vanishes
    below its truncation, and ValueError for an exact a (trunc INF) whose
    det(b) is not a monomial, as its inverse is an infinite series."""
    r = _vals(a.rows)
    b = LaurentMatrix([[x.shift(-e) for x in row] for row, e in zip(a.rows, r)])
    c = _vals(zip(*b.rows))
    b = LaurentMatrix([[x.shift(-e) for x, e in zip(row, c)] for row in b.rows])
    minor, full = _minors(b), (1 << a.n) - 1
    det = minor(full, full)
    if det.is_zero():
        raise ZeroDivisionError("not a unit in G(K): determinant vanishes below "
                                "the truncation")
    dinv = det.inverse()
    signed = (dinv, -dinv)
    return LaurentMatrix([[(minor(full ^ 1 << j, full ^ 1 << i) * signed[(i + j) % 2])
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
    over all the powers; the truncation is the least of m's and the
    powers'."""
    trunc = min([m.trunc] + [p.trunc for p in powers])
    rows = []
    for i in range(m.n):
        row = []
        for j in range(m.n):
            entries = [p.rows[i][j] for p in powers]
            terms = [(x.order_min, x.coeffs, (c,)) for x, c in zip(entries, scalars)
                     if x.coeffs]
            if i == j:
                terms.append((0, (K.ONE,), (K.ONE,)))
            row.append(_fused(terms, trunc))
        rows.append(row)
    return LaurentMatrix._of(rows, trunc)


def _is_nilpotent_series(m: LaurentMatrix) -> bool:
    p = m
    for _ in range(m.n):
        if p.is_zero():
            return True
        p = mat_mul(p, m)
    return p.is_zero()
