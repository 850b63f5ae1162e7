"""Truncated Laurent series over the Gaussian rationals.

A series stores its lowest exponent, a dense coefficient window and a
truncation order ``trunc``: exponents >= trunc are unknown.  Truncation
only ever shrinks (min of the inputs, shifted by valuations); nothing
silently extends precision.  ``trunc`` may be ``INF`` for exactly known
series (constants, finite gauge polynomials).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _kernel as K
from .field import GaussRat

INF = math.inf


def _as_triple(c):
    if isinstance(c, GaussRat):
        return c.t
    if isinstance(c, (int, Fraction)):
        return GaussRat(c).t
    raise TypeError(f"bad coefficient type {type(c).__name__}")


class LaurentSeries:
    """Finite window of a Laurent series in z."""

    __slots__ = ("order_min", "coeffs", "trunc")

    def __new__(cls, order_min, coeffs, trunc=INF):
        return cls._raw(order_min, [_as_triple(c) for c in coeffs], trunc)

    def __setattr__(self, *a):
        raise AttributeError("LaurentSeries is immutable")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, trunc=INF):
        return cls._raw(0, [], trunc)

    @classmethod
    def const(cls, c, trunc=INF):
        return cls(0, [c], trunc)

    @classmethod
    def monomial(cls, c, e, trunc=INF):
        return cls(e, [c], trunc)

    @classmethod
    def from_dict(cls, d, trunc=INF):
        """Build from {exponent: coefficient}."""
        if not d:
            return cls.zero(trunc)
        lo = min(d)
        hi = max(d)
        coeffs = [d.get(e, 0) for e in range(lo, hi + 1)]
        return cls(lo, coeffs, trunc)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def val(self):
        """Smallest exponent with nonzero coefficient; INF for the zero series."""
        return self.order_min if self.coeffs else INF

    def coeff(self, e: int) -> GaussRat:
        return GaussRat.from_triple(self._coeff(e))

    def _coeff(self, e: int):
        """The coefficient at z^e as a kernel triple (0 outside the window)."""
        i = e - self.order_min
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else K.ZERO

    def items(self):
        for i, t in enumerate(self.coeffs):
            if t[0] or t[1]:
                yield self.order_min + i, GaussRat.from_triple(t)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = _coerce_series(other)
        trunc = min(self.trunc, other.trunc)
        if self.is_zero():
            return LaurentSeries._raw(other.order_min, list(other.coeffs), trunc)
        if other.is_zero():
            return LaurentSeries._raw(self.order_min, list(self.coeffs), trunc)
        lo = min(self.order_min, other.order_min)
        a = [K.ZERO] * (self.order_min - lo) + list(self.coeffs)
        b = [K.ZERO] * (other.order_min - lo) + list(other.coeffs)
        return LaurentSeries._raw(lo, K.qvadd(a, b), trunc)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries._raw(
            self.order_min, [K.qneg(t) for t in self.coeffs], self.trunc
        )

    def __sub__(self, other):
        return self + -_coerce_series(other)

    def __rsub__(self, other):
        return _coerce_series(other) - self

    def __mul__(self, other):
        if isinstance(other, (GaussRat, int, Fraction)):
            return self.scale(other)
        other = _coerce_series(other)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(self._mul_trunc(other))
        trunc = self._mul_trunc(other)
        lo = self.order_min + other.order_min
        nout = len(self.coeffs) + len(other.coeffs) - 1
        if trunc != INF:
            nout = min(nout, int(trunc) - lo)
        if nout <= 0:
            return LaurentSeries.zero(trunc)
        coeffs = K.qconv(list(self.coeffs), list(other.coeffs), nout)
        return LaurentSeries._raw(lo, coeffs, trunc)

    __rmul__ = __mul__

    def _mul_trunc(self, other):
        # exponents >= min(a.trunc + val(b), b.trunc + val(a)) are unknown
        return min(self.trunc + other._known_val(), other.trunc + self._known_val())

    def _known_val(self):
        """A lower bound of the valuation: a zero series known below t
        may still have a term at z^t."""
        return self.order_min if self.coeffs else self.trunc

    def scale(self, c):
        t = _as_triple(c)
        if t[0] == 0 and t[1] == 0:
            return LaurentSeries.zero(self.trunc)
        return LaurentSeries._raw(
            self.order_min, K.qvscale(list(self.coeffs), t), self.trunc
        )

    def shift(self, e: int):
        """Multiply by z^e."""
        trunc = self.trunc if self.trunc == INF else self.trunc + e
        return LaurentSeries._raw(self.order_min + e, list(self.coeffs), trunc)

    def zdz(self):
        """Apply z*d/dz (multiplies each coefficient by its exponent)."""
        out = [
            K.qmul(t, (self.order_min + i, 0, 1))
            for i, t in enumerate(self.coeffs)
        ]
        return LaurentSeries._raw(self.order_min, out, self.trunc)

    def inverse(self, trunc=None):
        """Inverse of a unit series z^v * (u0 + u1 z + ...), u0 != 0.

        ``trunc`` bounds the result's truncation exponent; it defaults to
        the best the input's precision supports (self.trunc - 2*val).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero series")
        v = self.order_min
        u0 = self.coeffs[0]
        res_trunc = self.trunc - 2 * v if self.trunc != INF else INF
        if trunc is not None:
            res_trunc = min(res_trunc, trunc)
        if res_trunc == INF:
            if len(self.coeffs) > 1:
                raise ValueError(
                    "inverse of an exact non-monomial series is infinite; pass trunc"
                )
            return LaurentSeries.monomial(GaussRat.from_triple(K.qinv(u0)), -v)
        n = int(res_trunc) + v  # coefficients of (unit part)^{-1} below z^n
        inv0 = K.qinv(u0)
        out = [K.ZERO] * max(n, 0)
        if n > 0:
            out[0] = inv0
        # out[k] = -inv0 * sum_{j >= 1} u_j out[k - j]; out[k:] is still zero
        tail = ((1, self.coeffs[1:], out),)
        for k in range(1, n):
            out[k] = K.qneg(K.qmul(K.qconvat(tail, k), inv0))
        return LaurentSeries._raw(-v, out, res_trunc)

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, (LaurentSeries, GaussRat, int, Fraction)):
            return NotImplemented
        other = _coerce_series(other)
        return (
            self.order_min == other.order_min
            and self.coeffs == other.coeffs
            and self.trunc == other.trunc
        )

    def __hash__(self):
        return hash((self.order_min, self.coeffs, self.trunc))

    def agrees(self, other) -> bool:
        """Equal on all exponents below the common truncation."""
        other = _coerce_series(other)
        bound = min(self.trunc, other.trunc)
        diff = self - other
        return diff.is_zero() or diff.val() >= bound

    @classmethod
    def _raw(cls, order_min, coeffs, trunc):
        """From kernel triples: drop exponents >= trunc, strip zero margins.
        A zero series has order_min 0, however it was computed."""
        self = object.__new__(cls)
        if trunc != INF:
            keep = int(trunc) - order_min
            coeffs = coeffs[:max(keep, 0)]
        lo = 0
        while lo < len(coeffs) and coeffs[lo][0] == 0 and coeffs[lo][1] == 0:
            lo += 1
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1][0] == 0 and coeffs[hi - 1][1] == 0:
            hi -= 1
        object.__setattr__(self, "order_min", order_min + lo if hi > lo else 0)
        object.__setattr__(self, "coeffs", tuple(coeffs[lo:hi]))
        object.__setattr__(self, "trunc", trunc)
        return self

    def __repr__(self):
        if self.is_zero():
            return f"LaurentSeries(0; trunc={self.trunc})"
        parts = []
        for e, c in self.items():
            parts.append(f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i)z^{e}")
        return f"LaurentSeries({' + '.join(parts)}; trunc={self.trunc})"


def _coerce_series(x) -> LaurentSeries:
    if isinstance(x, LaurentSeries):
        return x
    if isinstance(x, (GaussRat, int, Fraction)):
        return LaurentSeries.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to LaurentSeries")
