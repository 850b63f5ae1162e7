"""Exact angle arithmetic for anti-Stokes directions, and the integer
enclosures behind every float the package prints.

An angle is stored as q*pi + sum_k q_k * arg(w_k) with rational q, q_k
and Gaussian rationals w_k lying in the open first octant
(re > im > 0, so arg(w_k) is in (0, pi/4)).  By Niven's theorem such an
arg(w) is an *irrational* multiple of pi, which makes equality of two
angle expressions decidable:

* multiply the w_k out (integer exponents) to a single Gaussian
  rational u; the expression is a rational multiple of pi only if u
  lies on an axis or a diagonal;
* the remaining integer branch is pinned by interval arithmetic,
  refined until the enclosure is narrow enough.

An enclosure at ``prec`` bits is a pair of integers ``(lo, hi)`` with
lo * 2**-prec <= x <= hi * 2**-prec; ``AngleExpr.interval`` returns
it.  Sums add the bounds, and a rational scale a/b multiplies them by a
and takes the floor (lower) and ceiling (upper) of the quotient by b,
swapping them for a < 0: plain ``int`` arithmetic, no float and no
multiple-precision library.  The pieces are computed with 20 guard bits
and their sum is rounded outward once.

arg(w) for w = x + iy in the open first octant (x > y > 0) comes from
Euler's series

    atan(y/x) = sum_k 2^(2k) (k!)^2 / (2k + 1)! * y^(2k+1) x / (x^2 + y^2)^(k+1).

Its terms are positive and each is below half the one before (the ratio
is (2k + 2)/(2k + 3) * y^2/(x^2 + y^2) < 1/2).  In units of the last
bit, each term is the floor of the previous computed one times that
ratio, so the sum is a lower bound; every computed term falls short of
the exact one by less than half the previous shortfall plus 1, so by
less than 2.  Summed until a term floors to 0 after m terms, the exact
value lies below the sum plus 2m (the flooring) plus 4 (the tail, at
most twice an exact term below 2).  Past pi/8 the series runs on
pi/4 - arg(w) = arg((x + y) + i(x - y)) instead, so its ratio stays
below sin(pi/8)^2 < 1/6.  pi comes from the same kernel:
pi/4 = arg(2 + i) + arg(3 + i).  The enclosure of each arg(w) is
memoized per (w, precision), that of each rational multiple of pi per
(numerator, denominator, precision).

The numbers of the Betti side come from the same enclosures, by
floored Taylor series with proved bounds (R. P. Brent, "Fast
multiple-precision evaluation of elementary functions", J. ACM 23
(1976)): ``cos_sin_pi`` after an exact reduction to [0, pi/4], and
``exp_enclosure`` by halving and squaring a mantissa with an exponent.

Every integer part of an angle x is read one way, never through a
float: x lies in the open turn k*u*pi < x < (k + 1)*u*pi once the exact
floor and ceiling of its enclosure over u*pi show it, and one precision
ladder (64, 128, ..., 2048 bits) refines the enclosure until they do
(u = 2 for principal values and, shifted by pi, the branch of
``pi_ratio``; u = 1/2 for ``cos_sign``).  Every float of the package
follows the same ladder, in ``nearest_double``: it is the double
nearest to the exact value, the first rounding of an enclosure whose
two ends round to one double, and an exact 0, which no enclosure pins
that way, is decided exactly first.

Comparison is filtered.  Two rational multiples of pi compare by their
coefficients.  Every other expression keeps one outward-rounded 64-bit
enclosure, computed on first use, and two angles whose enclosures are
disjoint are ordered from those alone.  Only where the enclosures
overlap does ``compare`` run the exact Niven test on the difference
and, off zero, refine the difference's enclosure until its sign is
certain.  A list of angles is sorted and merged the same way:
``exact_runs`` sweeps their enclosures once in order of lower bound,
cuts the list into clusters wherever a lower bound exceeds every upper
bound before it, and calls ``compare`` only inside a cluster of
overlapping enclosures.  ``cos_sign`` is filtered likewise: a 64-bit
enclosure inside one open quarter turn decides the sign (positive for
k mod 4 in {0, 3}), and only one that meets a multiple of pi/2 computes
the exact ratio to pi, which decides every rational multiple of pi.
Coincidence, ordering and decay signs therefore never depend on
floating noise; intervals decide only where the answer is already known
to be off the degenerate set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from . import _kernel as K
from .errors import InternalError, PrecisionError
from .field import GaussRat

# the precision ladder: 64, 128, ..., 2048 bits
_PRECISIONS = tuple(64 << i for i in range(6))


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
        """Integer B with sum den*q_k*arg(w_k) = (eighth/4)*pi + 2*pi*B.
        Shifted by pi that sum is (2B + 1)*pi, strictly inside the turn
        (2*pi*B, 2*pi*(B + 1)), so its floor in turns is B."""
        shifted = AngleExpr(1 - Fraction(eighth, 4), tuple((q * den, w) for q, w in self.terms))
        return shifted._floor(_TURN, "branch not pinned at maximum precision")

    def is_zero(self) -> bool:
        r = self.pi_ratio()
        return r is not None and r == 0

    def compare(self, other: "AngleExpr") -> int:
        """Sign of self - other.  Two rational multiples of pi compare by
        their coefficients.  Otherwise disjoint enclosures decide it at
        once; where they overlap, the difference is tested for zero
        exactly and, off zero, lies strictly inside the turn below 0
        (sign -1) or the one above it (sign 1)."""
        if not self.terms and not other.terms:
            a, b = self.pi_part, other.pi_part
            d = a.numerator * b.denominator - b.numerator * a.denominator
            return (d > 0) - (d < 0)
        (alo, ahi), (blo, bhi) = self._enclosure(), other._enclosure()
        if ahi < blo:
            return -1
        if bhi < alo:
            return 1
        diff = self - other
        if diff.is_zero():
            return 0
        return 1 if diff._floor(_TURN, "comparison not resolved at maximum precision") >= 0 else -1

    def _enclosure(self):
        """interval(64), computed once per instance and kept on it (the
        fields are frozen)."""
        cached = self.__dict__.get("_enc64")
        if cached is None:
            cached = self.interval(64)
            object.__setattr__(self, "_enc64", cached)
        return cached

    def interval(self, prec: int = 64) -> Tuple[int, int]:
        """Outward-rounded enclosure at ``prec`` bits: integers (lo, hi)
        with lo * 2**-prec <= self <= hi * 2**-prec."""
        return terms_enclosure(self.terms, prec, self.pi_part)

    def _floor(self, turn: Tuple[int, int], message: str) -> int:
        """The k with k*u*pi < self < (k + 1)*u*pi, u = turn[0]/turn[1],
        from enclosures up the precision ladder; PrecisionError(message)
        if none shows it."""
        for prec in _PRECISIONS:
            k = _open_floor(self._enclosure() if prec == 64 else self.interval(prec), turn, prec)
            if k is not None:
                return k
        raise PrecisionError(message)

    def principal(self) -> "AngleExpr":
        """The representative in [0, 2*pi) modulo 2*pi."""
        r = self.pi_ratio()
        if r is not None:
            return AngleExpr.of_pi(r - 2 * (r // 2))
        # self/pi is irrational, so self lies strictly inside a turn
        return self.shift_pi(-2 * self._floor(_TURN, "principal value not resolved"))

    def __float__(self):
        """The double nearest to the angle, by ``nearest_double``.  By
        Lindemann's theorem the only dyadic rational angle is 0, which
        the exact test gives as 0.0."""

        def enclose(prec):
            lo, hi = self._enclosure() if prec == 64 else self.interval(prec)
            return lo, hi, 1 << prec
        return nearest_double(enclose, self.is_zero, "angle not rounded at maximum precision")

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


def exact_runs(angles: Sequence[AngleExpr], enclosures=None) -> List[List[int]]:
    """The indices of ``angles`` in runs of equal angles, the runs in
    ascending order and each run in ascending index order: what a stable
    sort under ``compare`` followed by a merge of equal neighbours gives.

    ``enclosures`` holds a 64-bit enclosure of each angle (by default
    its cached ``interval(64)``); any enclosure that contains the angle
    will do.  Swept once in order of lower bound, the list is cut
    wherever a lower
    bound exceeds every upper bound before it: each angle after the cut
    is then provably larger than each before it, and equal angles always
    share a cluster.  Inside a cluster the members are stable-sorted in
    index order with ``compare``, which a stable sort under a total
    preorder makes unique."""
    if enclosures is None:
        enclosures = [a._enclosure() for a in angles]
    bounds = sorted((lo, hi, i) for i, (lo, hi) in enumerate(enclosures))
    runs: List[List[int]] = []
    cluster: List[int] = []
    top = -math.inf
    for lo, hi, i in bounds:
        if lo > top and cluster:
            runs += _cluster_runs(angles, cluster)
            cluster = []
        cluster.append(i)
        top = max(top, hi)
    if cluster:
        runs += _cluster_runs(angles, cluster)
    return runs


def _cluster_runs(angles, members: List[int]) -> List[List[int]]:
    if len(members) == 1:
        return [members]
    members = sorted(sorted(members), key=cmp_to_key(lambda i, j: angles[i].compare(angles[j])))
    runs = [[members[0]]]
    for i in members[1:]:
        if angles[runs[-1][0]].compare(angles[i]) == 0:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


# ----------------------------------------------------------------------
# principal argument of a Gaussian rational
# ----------------------------------------------------------------------

def _axis_diag_eighths(c: GaussRat) -> Optional[int]:
    """If arg(c) is a multiple of pi/4, return it as eighths (0..7),
    else None.  Exact (Niven: no other Gaussian rational has rational
    arg/pi).  c = (a + bi)/d with d > 0, so the signs and the order of
    its real and imaginary parts are those of the integers a and b."""
    a, b, _ = c.t
    if b == 0:
        if a == 0:
            raise ZeroDivisionError("argument of zero")
        return 0 if a > 0 else 4
    if a == 0:
        return 2 if b > 0 else 6
    if a == b:
        return 1 if a > 0 else 5
    if a == -b:
        return 3 if b > 0 else 7
    return None


_OCTANT_ROT = None
# o/4 for o = 0..7: the pi parts of octants and of axes and diagonals
_EIGHTHS = tuple(Fraction(o, 4) for o in range(8))
_ONE = Fraction(1)


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
    """Principal argument in [0, 2*pi) as an exact AngleExpr: a multiple
    of pi/4, or (o/4)*pi + arg(w) with w = c*(1 - i)^o in the open first
    octant, o the octant of c."""
    eighth = _axis_diag_eighths(c)
    if eighth is not None:
        return AngleExpr(_EIGHTHS[eighth])
    o = _octant_index(c)
    w = c * _octant_rotations()[o]
    x, y, _ = w.t
    if not x > y > 0:
        raise InternalError("internal error: octant reduction failed")
    return AngleExpr(_EIGHTHS[o], ((_ONE, w),))


def opposite_arg_angle(arg: AngleExpr) -> AngleExpr:
    """arg_angle(-c) from arg = arg_angle(c), the same expression without
    a second octant reduction: -c lies in the octant o + 4 mod 8, and as
    (1 - i)^4 = -4, its w is 4w for o < 4 and w/4 otherwise."""
    p = arg.pi_part
    o = 4 * p.numerator // p.denominator
    if not arg.terms:
        return AngleExpr(_EIGHTHS[(o + 4) % 8])
    (_, w), = arg.terms
    a, b, d = w.t
    if o < 4:
        o, t = o + 4, K.qnormalize(4 * a, 4 * b, d)
    else:
        o, t = o - 4, K.qnormalize(a, b, 4 * d)
    return AngleExpr(_EIGHTHS[o], ((_ONE, GaussRat.from_triple(t)),))


def _octant_index(c: GaussRat) -> int:
    """The open octant o of c off the axes and diagonals, o*pi/4 <
    arg(c) < (o + 1)*pi/4, from the signs and order of the integers a
    and b of c = (a + bi)/d."""
    a, b, _ = c.t
    if b > 0:
        if a > 0:
            return 0 if a > b else 1
        return 2 if -a < b else 3
    if a < 0:
        return 4 if -a > -b else 5
    return 6 if a < -b else 7


# ----------------------------------------------------------------------
# integer enclosures: (lo, hi) at scale 2**-prec
# ----------------------------------------------------------------------

# guard bits of the pieces of an enclosure, dropped once from their sum
_GUARD = 20


def _scaled(a: int, b: int, enc: Tuple[int, int]) -> Tuple[int, int]:
    """a/b (b > 0) times the enclosure ``enc``, rounded outward at its
    scale."""
    lo, hi = (enc[1], enc[0]) if a < 0 else enc
    return a * lo // b, -(-a * hi // b)


def _euler_atan(x: int, y: int, bits: int) -> Tuple[int, int]:
    """Integers (lo, hi) with lo <= atan(y/x) * 2**bits <= hi, for
    integers x > y > 0, from Euler's series (see the module docstring):
    m floored terms give lo, and hi adds 2m for the flooring and 4 for
    the tail."""
    n2 = x * x + y * y
    y2 = y * y
    term = (x * y << bits) // n2
    total = m = 0
    while term:
        total += term
        m += 1
        term = term * (2 * m) * y2 // ((2 * m + 1) * n2)
    return total, total + 2 * m + 4


@lru_cache(maxsize=8)
def _quarter_pi(bits: int) -> Tuple[int, int]:
    """pi/4 = arg(2 + i) + arg(3 + i) at scale 2**-bits."""
    a, b = _euler_atan(2, 1, bits)
    c, d = _euler_atan(3, 1, bits)
    return a + c, b + d


def _alternating(x: int, first: int, bits: int) -> Tuple[int, int]:
    """Integers (lo, hi) around sum_k (-1)^k x^(2k+first)/(2k+first)! at
    scale 2**-bits, the series of cos (first 0) and sin (first 1), for
    0 <= x * 2**-bits <= 1.  Each term is the floor of the previous
    computed one times x^2/((2k+first+1)(2k+first+2)) < 1/2, so it falls
    short of the exact one by less than 2; summed until a term floors to
    0 after m terms, the alternating tail lies below that term's exact
    value, below 2, so the exact sum is within 2m + 2 of the computed
    one."""
    x2 = x * x
    term = x if first else 1 << bits
    total = m = 0
    while term:
        total += -term if m & 1 else term
        m += 1
        k = 2 * m + first
        term = (term * x2 >> 2 * bits) // ((k - 1) * k)
    return total - 2 * m - 2, total + 2 * m + 2


def _neg(enc: Tuple[int, int]) -> Tuple[int, int]:
    return -enc[1], -enc[0]


@lru_cache(maxsize=1024)
def cos_sin_pi(num: int, den: int, prec: int = 64):
    """Enclosures (cos, sin) of cos(r*pi) and sin(r*pi), r = num/den with
    den > 0, each a pair (lo, hi) at scale 2**-prec.

    r is reduced exactly: r = j/2 + a/(2*den) with j = floor(2r), so j
    mod 4 quarter turns swap and negate the pair, and t = a/(2*den) lies
    in [0, 1/2); past 1/4 the complement u = 1/2 - t swaps cos and sin.
    At u*pi in [0, pi/4] the pair comes from the series of
    ``_alternating`` at ``_GUARD`` extra bits on the ends of the
    enclosure of u*pi (cos decreases and sin increases there), except
    for the rational values, which by Niven's theorem are those of u = 0
    and sin(pi/6) = 1/2 and are given exactly.  So each of the values 0,
    +-1/2 and +-1 is its exact pair (lo = hi), and no other value, being
    irrational, is ever one."""
    j, a = divmod(2 * num, den)
    bits = prec + _GUARD
    swap = 2 * a > den
    if swap:
        a = den - a
    if a == 0:
        cos, sin = (1 << prec,) * 2, (0, 0)
    else:
        qlo, qhi = _quarter_pi(bits)
        xlo, xhi = _scaled(a, den, (2 * qlo, 2 * qhi))
        cos = _alternating(xhi, 0, bits)[0], _alternating(xlo, 0, bits)[1]
        sin = _alternating(xlo, 1, bits)[0], _alternating(xhi, 1, bits)[1]
        cos, sin = ((lo >> _GUARD, -(-hi >> _GUARD)) for lo, hi in (cos, sin))
        if 3 * a == den:
            sin = (1 << (prec - 1),) * 2
    if swap:
        cos, sin = sin, cos
    # j quarter turns: (cos, sin) -> (-sin, cos) each
    j %= 4
    if j & 2:
        cos, sin = _neg(cos), _neg(sin)
    if j & 1:
        cos, sin = _neg(sin), cos
    return cos, sin


def exp_enclosure(lo: int, hi: int, prec: int = 64) -> Tuple[int, int, int]:
    """Integers (elo, ehi, e), e >= 0, with elo * 2**e <= exp(x) * 2**prec
    <= ehi * 2**e for every x with lo <= x * 2**prec <= hi, for
    0 <= lo <= hi.

    exp increases, so elo comes from lo and ehi from hi.  Each end is
    halved h times to below 1/2 and its Taylor series summed at
    g = h + ``_GUARD`` extra bits: the terms are positive and each is the
    floor of the previous computed one times y/(k + 1) <= 1/2, so the
    sum is a lower bound, short of the exact value by less than 2 per
    term plus a tail below 4 (at most twice an exact term below 2).
    Squared h times as a mantissa of prec + g + 2 bits and an exponent,
    flooring the lower end and rounding up the upper, the enclosure
    loses under h bits of the g, and its cost does not grow with exp(x)."""
    h = max(0, hi.bit_length() - prec + 1)
    g = h + _GUARD
    w = prec + g
    ends = []
    for x in (lo, hi):
        y = x << (g - h)
        term, total, m = 1 << w, 0, 0
        while term:
            total += term
            m += 1
            term = (term * y >> w) // m
        ends.append((total, total + 2 * m + 4))
    # the value of a mantissa m with exponent f is m * 2**(f - w)
    elo, ehi, f = ends[0][0], ends[1][1], 0
    for _ in range(h):
        lo2, hi2 = elo * elo, ehi * ehi
        k = hi2.bit_length() - w - 2
        elo, ehi, f = lo2 >> k, -(-hi2 >> k), 2 * f - w + k
    if f >= g:
        return elo, ehi, f - g
    return elo >> g - f, -(-ehi >> g - f), 0


def nearest_double(enclose, is_zero, message: str) -> float:
    """The double nearest to a real x, the one float rule of the package.

    ``enclose(prec)`` gives integers (lo, hi, den), den > 0, with
    lo/den <= x <= hi/den, finer as prec climbs the ladder; the first
    enclosure whose two ends round to one double gives it (int true
    division rounds correctly, and a quotient past the largest double
    rounds to +-inf).  x = 0 is decided apart, by the exact test
    ``is_zero()``, asked only when the first enclosure meets 0: an
    enclosure of 0 either never rounds its ends alike or rounds them to
    -0.0 and 0.0, which compare equal.  PrecisionError(message) if the
    ladder runs out."""
    for prec in _PRECISIONS:
        lo, hi, den = enclose(prec)
        if prec == _PRECISIONS[0] and lo <= 0 <= hi and is_zero():
            return 0.0
        x = _quotient(lo, den)
        if x == _quotient(hi, den):
            return x
    raise PrecisionError(message)


def _quotient(a: int, b: int) -> float:
    """a/b rounded to the nearest double, +-inf past the largest one."""
    try:
        return a / b
    except OverflowError:
        return math.inf if a > 0 else -math.inf


@lru_cache(maxsize=4096)
def _arg_enclosure(t, prec: int) -> Tuple[int, int]:
    """arg(w) for w = GaussRat.from_triple(t) in the open first octant,
    at scale 2**-(prec + _GUARD).  Past pi/8 (x + y > sqrt(2) x) it is
    pi/4 - arg((x + y) + i(x - y))."""
    x, y, _ = t
    g = math.gcd(x, y)
    x, y = x // g, y // g
    bits = prec + _GUARD
    if (x + y) ** 2 > 2 * x * x:
        lo, hi = _euler_atan(x + y, x - y, bits)
        qlo, qhi = _quarter_pi(bits)
        return qlo - hi, qhi - lo
    return _euler_atan(x, y, bits)


@lru_cache(maxsize=256)
def pi_enclosure(num: int, den: int, prec: int = 64) -> Tuple[int, int]:
    """The ``prec``-bit enclosure of (num/den)*pi, den > 0: that of
    ``AngleExpr.of_pi(Fraction(num, den)).interval(prec)``, reduced or
    not.  It serves the residues over 4k of directions, the turns of
    ``_open_floor`` and 2*pi and exp(2*pi*t) on the Betti side; keyed on
    integers, a lookup hashes no ``Fraction``."""
    qlo, qhi = _quarter_pi(prec + _GUARD)
    lo, hi = _scaled(num, den, (4 * qlo, 4 * qhi))
    return lo >> _GUARD, -(-hi >> _GUARD)


def terms_enclosure(terms, prec: int = 64, pi_part=0) -> Tuple[int, int]:
    """The enclosure of pi_part*pi + sum q*arg(w) (``interval``): every
    piece at ``_GUARD`` extra bits, the sum rounded outward once.  Added
    to a ``pi_enclosure``, the bare terms' enclosure encloses the angle
    too."""
    lo = hi = 0
    if pi_part:
        p = Fraction(pi_part)
        qlo, qhi = _quarter_pi(prec + _GUARD)
        lo, hi = _scaled(p.numerator, p.denominator, (4 * qlo, 4 * qhi))
    for q, w in terms:
        a, b = _scaled(q.numerator, q.denominator, _arg_enclosure(w.t, prec))
        lo, hi = lo + a, hi + b
    return lo >> _GUARD, -(-hi >> _GUARD)


# the turns of _open_floor, as (num, den): 2*pi and pi/2
_TURN = (2, 1)
_QUARTER = (1, 2)


def _open_floor(enc, turn: Tuple[int, int], prec: int) -> Optional[int]:
    """The integer k with k*u*pi < x < (k + 1)*u*pi, u = turn[0]/turn[1],
    for every x in the enclosure ``enc`` at ``prec`` bits, from the
    floor and ceiling of enc/(u*pi); None if enc meets a multiple of
    u*pi."""
    lo, hi = enc
    plo, phi = pi_enclosure(*turn, prec)
    # the quotient's ends: each bound over the end of u*pi that
    # takes it furthest out
    k = hi // (plo if hi >= 0 else phi)
    return k if lo > k * (phi if lo >= 0 else plo) else None


# ----------------------------------------------------------------------
# the sign of a cosine, by quarter turns
# ----------------------------------------------------------------------

# cos is positive on the open quarter turns k*pi/2 < x < (k + 1)*pi/2
# with k mod 4 in {0, 3} and negative on those with k mod 4 in {1, 2}
_QUARTER_SIGNS = (1, -1, -1, 1)


def _quarter_sign(enc) -> Optional[int]:
    """The sign of cos(x) for every x in the 64-bit enclosure ``enc``,
    from the open quarter turn that holds it; None if enc meets a
    multiple of pi/2, where x itself may lie."""
    k = _open_floor(enc, _QUARTER, 64)
    return None if k is None else _QUARTER_SIGNS[k % 4]


def cos_sign(expr: AngleExpr) -> int:
    """Sign of cos(expr); 0 exactly when expr is congruent to pi/2 mod pi.

    The open quarter turn holding the 64-bit enclosure gives the sign.
    One that meets a multiple of pi/2 asks for r = expr/pi: a rational r
    has the sign of the quarter turn floor(2r), or 0 for 2r odd, since a
    multiple of pi written with arg terms (arg(2+i) + arg(3+i) + 3*pi/4
    = pi) stays on it at every precision; an irrational r is refined."""
    sign = _quarter_sign(expr._enclosure())
    if sign is not None:
        return sign
    r = expr.pi_ratio()
    if r is None:
        return _QUARTER_SIGNS[expr._floor(_QUARTER, "cosine sign not resolved") % 4]
    k = math.floor(2 * r)
    return 0 if k == 2 * r and k % 2 else _QUARTER_SIGNS[k % 4]
