"""Gaussian rationals: the exact coefficient field.

Every algebraic identity in the library is tested with ``==`` rather
than a tolerance, so the scalar type must be an exact field.  A value
is stored as a normalized integer triple ``(a, b, d)`` for
``(a + b*i)/d``; arithmetic is delegated to the kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _kernel as K


def _triple_from(re, im=0):
    re = Fraction(re)
    im = Fraction(im)
    d = math.lcm(re.denominator, im.denominator)
    a = re.numerator * (d // re.denominator)
    b = im.numerator * (d // im.denominator)
    return K.qnormalize(a, b, d)


class GaussRat:
    """An element of Q(i), immutable and hashable."""

    __slots__ = ("t",)

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            # (re + im i) / 1 is already normalized
            object.__setattr__(self, "t", (re, im, 1))
            return
        if isinstance(re, GaussRat):
            if im == 0:
                object.__setattr__(self, "t", re.t)
                return
            re = re.re
        object.__setattr__(self, "t", _triple_from(re, im))

    @classmethod
    def from_triple(cls, t):
        self = object.__new__(cls)
        object.__setattr__(self, "t", t)
        return self

    @property
    def re(self) -> Fraction:
        a, _, d = self.t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self.t
        return Fraction(b, d)

    def __setattr__(self, *a):
        raise AttributeError("GaussRat is immutable")

    def is_zero(self) -> bool:
        return self.t[0] == 0 and self.t[1] == 0

    def is_real(self) -> bool:
        return self.t[1] == 0

    def conjugate(self) -> "GaussRat":
        a, b, d = self.t
        return GaussRat.from_triple((a, -b, d))

    def __add__(self, other):
        return GaussRat.from_triple(K.qadd(self.t, _coerce(other).t))

    __radd__ = __add__

    def __sub__(self, other):
        return GaussRat.from_triple(K.qsub(self.t, _coerce(other).t))

    def __rsub__(self, other):
        return GaussRat.from_triple(K.qsub(_coerce(other).t, self.t))

    def __mul__(self, other):
        return GaussRat.from_triple(K.qmul(self.t, _coerce(other).t))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return GaussRat.from_triple(K.qdiv(self.t, _coerce(other).t))

    def __rtruediv__(self, other):
        return GaussRat.from_triple(K.qdiv(_coerce(other).t, self.t))

    def __neg__(self):
        return GaussRat.from_triple(K.qneg(self.t))

    def inv(self) -> "GaussRat":
        return GaussRat.from_triple(K.qinv(self.t))

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (GaussRat, int, Fraction)):
            return self.t == _coerce(other).t
        return NotImplemented

    def __hash__(self):
        return hash(self.t)

    def __complex__(self):
        a, b, d = self.t
        return complex(a / d, b / d)

    def __repr__(self):
        a, b, d = self.t
        if b == 0:
            return f"GaussRat({Fraction(a, d)})"
        return f"GaussRat({Fraction(a, d)}, {Fraction(b, d)})"


def _coerce(x) -> GaussRat:
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    if isinstance(x, complex):
        raise TypeError("floats are not exact; build GaussRat from Fractions")
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussRat")


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)


def gr(re, im=0) -> GaussRat:
    """Shorthand constructor used heavily in tests and fixtures."""
    return GaussRat(re, im)
