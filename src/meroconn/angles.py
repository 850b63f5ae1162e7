"""Exact angle arithmetic for anti-Stokes directions.

An angle is stored as q*pi + sum_k q_k * arg(w_k) with rational q, q_k
and Gaussian rationals w_k lying in the open first octant
(re > im > 0, so arg(w_k) is in (0, pi/4)).  By Niven's theorem such an
arg(w) is an *irrational* multiple of pi, which makes equality of two
angle expressions decidable:

* multiply the w_k out (integer exponents) to a single Gaussian
  rational u; the expression is a rational multiple of pi only if u
  lies on an axis or a diagonal;
* the remaining integer branch is pinned by interval arithmetic
  (mpmath.iv), refined until the enclosure is narrow enough.

Comparison is filtered.  Two rational multiples of pi compare by their
coefficients.  Every other expression keeps one outward-rounded 64-bit
enclosure, computed on first use, and two angles whose enclosures are
disjoint are ordered from those alone.  Only where the enclosures
overlap does ``compare`` run the exact Niven test on the difference
and, off zero, refine the difference's enclosure until its sign is
certain.  Coincidence and ordering of directions therefore never depend
on floating noise; intervals decide only where the answer is already
known to be off the degenerate set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from mpmath import iv

from .errors import InternalError
from .field import GaussRat

_MAX_PREC = 2048


class PrecisionError(RuntimeError):
    pass


@dataclass(frozen=True)
class AngleExpr:
    """q*pi + sum q_k arg(w_k); immutable, exact."""

    pi_part: Fraction
    terms: Tuple[Tuple[Fraction, GaussRat], ...] = ()

    # ------------------------------------------------------------------
    # construction and arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def of_pi(q) -> "AngleExpr":
        return AngleExpr(Fraction(q), ())

    def __add__(self, other: "AngleExpr") -> "AngleExpr":
        return AngleExpr(
            self.pi_part + other.pi_part, _merge(self.terms + other.terms)
        )

    def __sub__(self, other: "AngleExpr") -> "AngleExpr":
        return self + (-other)

    def __neg__(self) -> "AngleExpr":
        return AngleExpr(-self.pi_part, tuple((-q, w) for q, w in self.terms))

    def scale(self, c) -> "AngleExpr":
        c = Fraction(c)
        if c == 0:
            return AngleExpr(Fraction(0), ())
        return AngleExpr(self.pi_part * c, _merge(tuple((q * c, w) for q, w in self.terms)))

    def shift_pi(self, q) -> "AngleExpr":
        return AngleExpr(self.pi_part + Fraction(q), self.terms)

    # ------------------------------------------------------------------
    # exact decision procedures
    # ------------------------------------------------------------------
    def pi_ratio(self) -> Optional[Fraction]:
        """The rational q with self = q*pi, or None if self/pi is
        irrational (decided exactly)."""
        if not self.terms:
            return self.pi_part
        # clear denominators of the arg coefficients
        den = 1
        for q, _ in self.terms:
            den = math.lcm(den, q.denominator)
        u = GaussRat(1)
        for q, w in self.terms:
            u = u * w ** int(q * den)
        eighth = _axis_diag_eighths(u)
        if eighth is None:
            return None
        branch = self._branch(den, eighth)
        # den*self = den*pi_part*pi + (eighth/4)*pi + 2*pi*branch
        return (self.pi_part * den + Fraction(eighth, 4) + 2 * branch) / den

    def _branch(self, den: int, eighth: int) -> int:
        """Integer B with sum den*q_k*arg(w_k) = (eighth/4)*pi + 2*pi*B."""
        prec = 64
        while prec <= _MAX_PREC:
            old = iv.prec
            iv.prec = prec
            try:
                total = iv.mpf(0)
                for q, w in self.terms:
                    total += _iv_rational(q * den) * _iv_arg_octant(w)
                b = (total - _iv_rational(Fraction(eighth, 4)) * iv.pi) / (2 * iv.pi)
                lo = _ceil_interval(b.a)
                hi = _floor_interval(b.b)
                if lo == hi:
                    return lo
            finally:
                iv.prec = old
            prec *= 2
        raise PrecisionError("branch not pinned at maximum precision")

    def is_zero(self) -> bool:
        r = self.pi_ratio()
        return r is not None and r == 0

    def is_multiple_of_pi(self, modulus=1) -> bool:
        """True iff self is an integer multiple of modulus*pi."""
        r = self.pi_ratio()
        return r is not None and (r / Fraction(modulus)).denominator == 1

    def compare(self, other: "AngleExpr") -> int:
        """Sign of self - other.  Two rational multiples of pi compare by
        their coefficients.  Otherwise disjoint enclosures decide it at
        once; where they overlap, the difference is tested for zero
        exactly and its own enclosure is refined until the sign is
        certain."""
        if not self.terms and not other.terms:
            d = self.pi_part - other.pi_part
            return (d > 0) - (d < 0)
        a, b = self._enclosure(), other._enclosure()
        if a.b < b.a:
            return -1
        if b.b < a.a:
            return 1
        diff = self - other
        if diff.is_zero():
            return 0
        prec = 64
        while prec <= _MAX_PREC:
            ival = diff.interval(prec)
            if ival.b < 0:
                return -1
            if ival.a > 0:
                return 1
            prec *= 2
        raise PrecisionError("comparison not resolved at maximum precision")

    def _enclosure(self):
        """interval(64), computed once per instance and kept on it (the
        fields are frozen)."""
        cached = self.__dict__.get("_iv64")
        if cached is None:
            cached = self.interval(64)
            object.__setattr__(self, "_iv64", cached)
        return cached

    def interval(self, prec: int = 64):
        old = iv.prec
        iv.prec = prec
        try:
            total = _iv_rational(self.pi_part) * iv.pi
            for q, w in self.terms:
                total += _iv_rational(q) * _iv_arg_octant(w)
            return total
        finally:
            iv.prec = old

    def principal(self) -> "AngleExpr":
        """The representative in [0, 2*pi) modulo 2*pi."""
        r = self.pi_ratio()
        if r is not None:
            return AngleExpr.of_pi(r - 2 * (r // 2))
        prec = 64
        while prec <= _MAX_PREC:
            old = iv.prec
            iv.prec = prec
            try:
                b = self.interval(prec) / (2 * iv.pi)
                lo = _floor_interval(b.a)
                hi = _floor_interval(b.b)
                if lo == hi:
                    return self.shift_pi(Fraction(-2 * lo))
            finally:
                iv.prec = old
            prec *= 2
        raise PrecisionError("principal value not resolved")  # pragma: no cover

    def __float__(self):
        return float(iv.mpf(self.interval(64).mid))

    def __repr__(self):
        if not self.terms:
            return f"AngleExpr({self.pi_part}*pi)"
        return f"AngleExpr({self.pi_part}*pi + {len(self.terms)} arg terms ~ {float(self):.6f})"

    def __eq__(self, other):
        if not isinstance(other, AngleExpr):
            return NotImplemented
        return self.compare(other) == 0

    def __hash__(self):
        # Deliberately constant: equality is semantic (compare == 0), and
        # equal angles can carry different term lists, so no hash of the
        # terms is consistent with it.  Nothing in the package hashes
        # angles; a set or dict of them degrades to linear lookups.
        return hash(())


def _merge(terms):
    acc: Dict[Tuple[int, int, int], Tuple[Fraction, GaussRat]] = {}
    for q, w in terms:
        key = w.t
        if key in acc:
            acc[key] = (acc[key][0] + q, w)
        else:
            acc[key] = (Fraction(q), w)
    return tuple(
        (q, w) for q, w in sorted(acc.values(), key=lambda t: t[1].t) if q != 0
    )


# ----------------------------------------------------------------------
# principal argument of a Gaussian rational
# ----------------------------------------------------------------------

def _axis_diag_eighths(c: GaussRat) -> Optional[int]:
    """If arg(c) is a multiple of pi/4, return it as eighths (0..7),
    else None.  Exact (Niven: no other Gaussian rational has rational
    arg/pi)."""
    if c.is_zero():
        raise ZeroDivisionError("argument of zero")
    re, im = c.re, c.im
    if im == 0:
        return 0 if re > 0 else 4
    if re == 0:
        return 2 if im > 0 else 6
    if re == im:
        return 1 if re > 0 else 5
    if re == -im:
        return 3 if im > 0 else 7
    return None


_OCTANT_ROT = None


def _octant_rotations():
    """Powers of (1 - i): multiplying by (1-i)^o rotates arg by -o*pi/4."""
    global _OCTANT_ROT
    if _OCTANT_ROT is None:
        base = GaussRat(1, -1)
        out = [GaussRat(1)]
        for _ in range(7):
            out.append(out[-1] * base)
        _OCTANT_ROT = out
    return _OCTANT_ROT


def arg_angle(c: GaussRat) -> AngleExpr:
    """Principal argument in [0, 2*pi) as an exact AngleExpr."""
    eighth = _axis_diag_eighths(c)
    if eighth is not None:
        return AngleExpr.of_pi(Fraction(eighth, 4))
    o = _octant_index(c)
    w = c * _octant_rotations()[o]
    # w now has arg in (0, pi/4): normalize sign conventions
    if not (w.re > 0 and w.im > 0 and w.re > w.im):
        raise InternalError("internal error: octant reduction failed")
    return AngleExpr(Fraction(0), ((Fraction(1), w),)).shift_pi(Fraction(o, 4))


def _octant_index(c: GaussRat) -> int:
    re, im = c.re, c.im
    if im > 0:
        if re > 0:
            return 0 if re > im else 1
        return 2 if -re < im else 3
    if re < 0:
        return 4 if -re > -im else 5
    return 6 if re < -im else 7


# ----------------------------------------------------------------------
# interval helpers
# ----------------------------------------------------------------------

def _iv_rational(q: Fraction):
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def _iv_arg_octant(w: GaussRat):
    re, im = w.re, w.im
    y = _iv_rational(im)
    x = _iv_rational(re)
    return iv.atan2(y, x)


def _floor_interval(x) -> int:
    return math.floor(float(iv.mpf(x)))


def _ceil_interval(x) -> int:
    return math.ceil(float(iv.mpf(x)))


# ----------------------------------------------------------------------
# trigonometric sign with exactness escape
# ----------------------------------------------------------------------

def cos_sign(expr: AngleExpr) -> int:
    """Sign of cos(expr); returns 0 exactly when expr is congruent to
    pi/2 mod pi (decided exactly, not numerically)."""
    if (expr - AngleExpr.of_pi(Fraction(1, 2))).is_multiple_of_pi(1):
        return 0
    prec = 64
    while prec <= _MAX_PREC:
        old = iv.prec
        iv.prec = prec
        try:
            c = iv.cos(expr.interval(prec))
            if c.a > 0:
                return 1
            if c.b < 0:
                return -1
        finally:
            iv.prec = old
        prec *= 2
    raise PrecisionError("cosine sign not resolved")  # pragma: no cover
