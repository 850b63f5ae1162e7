"""Laurent matrices: n x n matrices of Laurent series over the exact field.

LaurentMatrix models elements of the loop group/algebra with a shared
truncation order, and is immutable.  Its constant coefficients are
``field.CMat``s; ``CMat`` is imported here, so ``lmatrix.CMat`` names
the same class.

There is one Laurent exponential loop, ``mat_exp_pair``: it returns
exp(m) and exp(-m) from one sequence of powers m^k, and
``mat_exp_nilpotent`` keeps the first.  No gauge is built from it: the
reduction and the shape recovery in ``connection`` solve for their
gauges grade by grade.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from . import _kernel as K
from .field import CMat, GaussRat, _check_dim
from .series import INF, LaurentSeries


class LaurentMatrix:
    """n x n matrix of Laurent series sharing a common truncation.

    The truncation is the minimum of ``trunc`` (if given) and the
    entries' own truncations, and every entry is cut to it: an entry is
    never read beyond what it knows."""

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
    """Exact determinant by permutation expansion (desk-scale n)."""
    import itertools

    n = a.n
    out = LaurentSeries.zero()
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
        term = LaurentSeries.const(sign)
        for i in range(n):
            term = term * a.rows[i][perm[i]]
        out = out + term
    return out


def mat_inv(a: LaurentMatrix, _depth: int = 0) -> LaurentMatrix:
    """Inverse of a = z^r * (unit) * z^c with diagonal cocharacter
    factors z^r, z^c pulled off the rows and columns: the remaining
    valuation-0 part must be invertible over the field.  Covers units
    of G(R) and torus monomials; raises 'not a unit in G(K)' otherwise.

    Known limit: z^r * u * z^c, for a unit u, cannot be inverted once
    spread(r) + spread(c) (max minus min exponent of each) reaches
    u.trunc.  A LaurentMatrix keeps one truncation for all its entries,
    so forming that product cuts some entry of u to nothing below it,
    and the inverse then raises 'zero matrix' or 'leading coefficient is
    singular'."""
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
            return mat_mul(mat_inv(mat_mul(rfac, a), _depth + 1), rfac)
        col_vals = [
            int(min((a.rows[i][j].val() for i in range(a.n)
                     if not a.rows[i][j].is_zero()), default=0))
            for j in range(a.n)
        ]
        if any(cv != 0 for cv in col_vals):
            cfac = _diag_monomial([-cv for cv in col_vals])
            return mat_mul(cfac, mat_inv(mat_mul(a, cfac), _depth + 1))
    base = a.shift(-int(v))
    c0 = base.coeff(0)
    try:
        c0_inv = c0.inv()
    except ZeroDivisionError:
        raise ZeroDivisionError(
            "not a unit in G(K): leading coefficient is singular"
        ) from None
    # base = c0 (I + N) with val(N) >= 1; (I + N)^-1 = sum (-N)^k
    ident = LaurentMatrix.identity(a.n)
    nmat = mat_mul(LaurentMatrix.from_const(c0_inv), base) - ident
    bound = base.trunc
    if bound == INF and not nmat.is_zero() and not _is_nilpotent_series(nmat):
        raise ValueError("inverse of an exact series matrix is infinite; truncate first")
    powers = _powers(-nmat, bound)
    acc = _power_sum(a.n, powers, [K.ONE] * len(powers), bound)
    inv_unit = mat_mul(acc, LaurentMatrix.from_const(c0_inv))
    return inv_unit.shift(-int(v))


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
    powers = _powers(m, m.trunc)
    plus, minus = [], []
    fact = 1
    for k in range(1, len(powers) + 1):
        fact *= k
        plus.append((1, 0, fact))
        minus.append((-1 if k % 2 else 1, 0, fact))
    return (_power_sum(m.n, powers, plus, m.trunc),
            _power_sum(m.n, powers, minus, m.trunc))


def _powers(m: LaurentMatrix, trunc) -> List[LaurentMatrix]:
    """[m^1, m^2, ...], each power the product of the last with m clamped
    to ``trunc``, up to the last that does not vanish."""
    out = []
    term = LaurentMatrix.identity(m.n, trunc)
    while True:
        term = mat_mul(term, m).truncate(trunc)
        if term.is_zero():
            return out
        out.append(term)


def _power_sum(n: int, powers: List[LaurentMatrix], scalars, start) -> LaurentMatrix:
    """I + sum_k scalars[k] * powers[k] for kernel triples ``scalars``,
    with I truncated at ``start``.  Each entry is one kernel call over all
    the powers; the truncation is the least of ``start`` and the powers'."""
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
    return LaurentMatrix._of(rows, trunc)


def _diag_monomial(exps):
    n = len(exps)
    return LaurentMatrix(
        [[LaurentSeries.monomial(1, exps[i]) if i == j else LaurentSeries.zero()
          for j in range(n)] for i in range(n)]
    )


def _is_nilpotent_series(m: LaurentMatrix) -> bool:
    p = m
    for _ in range(m.n):
        if p.is_zero():
            return True
        p = mat_mul(p, m)
    return p.is_zero()
