"""Local data dictionaries between the de Rham, Dolbeault and Betti sides.

Given de Rham data (weight beta, residue s + Y in Levi normal form,
irregular type Q), the translations are

    Dolbeault:  alpha = Re(s),   residue (1/2)(s - beta) + (Y - H + X),
                irregular type Q/2;
    Betti:      gamma = beta - Re(s),
                monodromy exp(-2 pi i s) * exp(-2 pi i Y),
                irregular type Q;

with (X, H, Y) the sl2 triple completing the nilpotent part.  Weights
stay exact (Re(s) is exact for Gaussian-rational s); transcendentals
enter only through the monodromy, which is kept exact: the nilpotent
factor as a polynomial in pi, each semisimple entry as its exponent s
(a ``RootOfUnity`` for real s, an ``Exponential`` otherwise).

Numbers appear only when printed, each the double nearest to the exact
value, from ``angles``' integer enclosures (``_Rounder``), so no result
depends on a working precision.  Only the functions that evaluate
numbers import ``angles``; the exact translations (``dR_to_Dol``,
``dR_to_Betti`` itself) load none of it.

The loop orientation of the rank-1 monodromy oracle is counterclockwise
(z = exp(i phi), phi from 0 to 2 pi); with that orientation the measured
multiplier of f' = (q' + b/z) f is exp(+2 pi i b).  This sign is the
library-wide convention (ORIENTATION = +1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .field import CMat, GaussRat, entry_mask
from .rootdata import IrregularType, Weight

if TYPE_CHECKING:
    from .residues import Sl2Data

ORIENTATION = +1


class CorrespondenceError(ValueError):
    pass


# ----------------------------------------------------------------------
# local data containers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeRhamLocal:
    """Connection-side local data: weight, residue in Levi normal form
    (semisimple part diagonal), irregular type.

    Invariants enforced here: the residue lies in the Levi factor of the
    weight parabolic (entries across different beta-levels vanish) and
    commutes with the irregular type (entries across Q-levels vanish).
    A residue breaking both gets the message of its first bad entry in
    row-major order: the lowest set bit of the two masks' union."""

    beta: Weight
    residue: CMat
    q: IrregularType

    def __post_init__(self):
        n = self.residue.n
        if self.beta.n != n or self.q.n != n:
            raise CorrespondenceError("dimension mismatch in de Rham data")
        beta = self.beta.entries
        q = [self.q.entry(i) for i in range(n)]
        off_beta = entry_mask(n, lambda i, j: beta[i] != beta[j])
        bad = self.residue.support() & (off_beta | entry_mask(n, lambda i, j: q[i] != q[j]))
        if bad & -bad & off_beta:
            raise CorrespondenceError("residue leaves the Levi factor of its weight")
        if bad:
            raise CorrespondenceError("residue does not commute with the irregular type")

    def structure(self) -> Sl2Data:
        """Jordan decomposition plus blockwise sl2 completion; blocks are
        the joint level sets of (s, beta, Q), so H and X commute with s,
        with beta, and with the irregular type.  Computed once per
        instance and kept on it (the fields are frozen)."""
        cached = self.__dict__.get("_structure")
        if cached is not None:
            return cached
        # Only the structure needs residues; oracle-monodromy never loads it.
        from .residues import Sl2Data, jordan_decompose, sl2_complete_blockwise

        s, y = jordan_decompose(self.residue)
        if not s.is_diagonal():
            raise CorrespondenceError(
                "residue semisimple part is not diagonal (not in Levi normal form)"
            )
        eigenvalues = [s[i, i] for i in range(s.n)]
        data = sl2_complete_blockwise(y, self.q.levi_blocks(eigenvalues, self.beta.entries))
        st = Sl2Data(s, data.X, data.H, data.Y, data.basis)
        object.__setattr__(self, "_structure", st)
        return st


@dataclass(frozen=True)
class DolbeaultLocal:
    alpha: Weight
    residue: CMat
    q: IrregularType


@dataclass(frozen=True)
class RootOfUnity:
    """exp(-2 pi i * p / q), stored exactly."""

    p: int
    q: int

    @property
    def exponent(self) -> GaussRat:
        return GaussRat(Fraction(self.p, self.q))


@dataclass(frozen=True)
class Exponential:
    """exp(-2 pi i s) for a non-real Gaussian rational s = re + i*im,
    stored exactly.  It has no ``p``: printers show p/q for a
    ``RootOfUnity`` alone."""

    re: Fraction
    im: Fraction

    @property
    def exponent(self) -> GaussRat:
        return GaussRat(self.re, self.im)

    def numeric(self) -> complex:
        return _factor_numeric(self.exponent)


class PiMatrixPoly:
    """sum_k M_k pi^k with exact Gaussian-rational matrices M_k.

    Used for exp(-2 pi i Y) = sum (-2i)^k/k! Y^k pi^k, which is a finite
    polynomial for nilpotent Y."""

    def __init__(self, coeffs: Dict[int, CMat]):
        self.coeffs = {k: m for k, m in sorted(coeffs.items()) if not m.is_zero()}

    @classmethod
    def exp_neg_two_pi_i(cls, y: CMat) -> "PiMatrixPoly":
        minus_2i = GaussRat(0, -2)
        return cls({k: t.scale(minus_2i ** k)
                    for k, t in enumerate(y.exp_nilpotent_terms())})

    def __eq__(self, other):
        if not isinstance(other, PiMatrixPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"PiMatrixPoly(degrees={sorted(self.coeffs)})"


@dataclass(frozen=True)
class BettiLocal:
    """Betti-side local data; the monodromy is kept factored as
    (semisimple diagonal, unipotent pi-polynomial)."""

    gamma: Weight
    semisimple_factor: Tuple[object, ...]  # RootOfUnity or Exponential per entry
    nilpotent_factor: PiMatrixPoly
    q: IrregularType

    def monodromy_numeric(self, prec: int = 53) -> List[List[complex]]:
        """The monodromy (semisimple diagonal times the unipotent
        pi-polynomial), each part the double nearest to its exact value.
        ``prec`` is accepted for compatibility and changes nothing."""
        n = len(self.semisimple_factor)
        coeffs = self.nilpotent_factor.coeffs.items()
        out = []
        for i, f in enumerate(self.semisimple_factor):
            row_factor = _Rounder(f.exponent)
            row = []
            for j in range(n):
                cs = [(k, m.t[i][j]) for k, m in coeffs]
                # e^{i theta} (a + b i)/d has real part (a cos - b sin)/d
                # and imaginary part (b cos + a sin)/d
                row.append(complex(
                    row_factor.nearest([(k, a, -b, d) for k, (a, b, d) in cs]),
                    row_factor.nearest([(k, b, a, d) for k, (a, b, d) in cs])))
            out.append(row)
        return out


class _Rounder:
    """Nearest doubles of exp(-2 pi i s) times a polynomial in pi, for one
    exponent s, by ``angles.nearest_double``.

    Write theta = -2 pi Re s.  A part of such a product is
    exp(2 pi Im s) * sum_k (a_k cos(theta) + b_k sin(theta)) * pi^k with
    rational a_k, b_k.  The sum is 0 exactly when every coefficient
    a_k cos(theta) + b_k sin(theta) = |a_k - i b_k| cos(theta +
    arg(a_k - i b_k)) is, as pi is transcendental over the algebraic
    coefficients; ``cos_sign`` decides each, asked only when the first
    enclosure meets 0.  exp(2 pi Im s) is 1, ``exp_enclosure`` of
    2 pi Im s, or for Im s < 0 the reciprocal of that of -2 pi Im s; its
    mantissa and exponent are kept per precision, shared by the parts of
    a row.  Past the double range the exponent is capped before the
    mantissa is shifted, so time and memory do not grow with |Im s|."""

    def __init__(self, s: GaussRat):
        a, b, d = s.t
        self.theta = (-2 * a, d)  # theta/pi
        self.im = (b, d)
        self._exp: Dict[int, Tuple[int, int, int]] = {}

    def _exp_enclosure(self, prec: int) -> Tuple[int, int, int]:
        """(elo, ehi, e) with exp(2 pi |Im s|) in [elo, ehi] * 2^(e - prec)."""
        enc = self._exp.get(prec)
        if enc is None:
            from .angles import exp_enclosure, pi_enclosure

            b, d = self.im
            enc = (exp_enclosure(*pi_enclosure(2 * abs(b), d, prec), prec) if b
                   else (1 << prec, 1 << prec, 0))
            self._exp[prec] = enc
        return enc

    def nearest(self, coeffs) -> float:
        """The double nearest to the part with a_k = a/d and b_k = b/d
        over the rows (k, a, b, d) of ``coeffs`` (integers, d > 0)."""
        coeffs = [c for c in coeffs if c[1] or c[2]]
        if not coeffs:
            return 0.0
        from .angles import (AngleExpr, _scaled, arg_angle, cos_sign, cos_sin_pi,
                             nearest_double, pi_enclosure)

        theta = self.theta

        def is_zero():
            base = AngleExpr.of_pi(Fraction(*theta))
            return all(cos_sign(base + arg_angle(GaussRat(a, -b))) == 0
                       for _, a, b, _ in coeffs)

        def enclose(prec):
            cos, sin = cos_sin_pi(*theta, prec)
            plo, phi = pi_enclosure(1, 1, prec)
            lo = hi = 0
            for k, a, b, d in coeffs:
                alo, ahi = _scaled(a, d, cos)
                blo, bhi = _scaled(b, d, sin)
                clo, chi = alo + blo, ahi + bhi
                # times pi^k > 0, floored and rounded up at scale 2**-prec
                klo, khi = plo ** k, phi ** k
                shift = k * prec
                lo += clo * (klo if clo >= 0 else khi) >> shift
                hi -= -chi * (khi if chi >= 0 else klo) >> shift
            # times exp(2 pi Im s), or over exp(-2 pi Im s) when Im s < 0,
            # from [elo, ehi] * 2^(e - prec); the shift by e is capped where
            # every nonzero end already rounds to +-inf (2^(e - 2 prec) >=
            # 2^1024) or to +-0.0 (below 2^-1075), which the bit lengths decide
            elo, ehi, e = self._exp_enclosure(prec)
            lo, hi = lo * (elo if lo >= 0 else ehi), hi * (ehi if hi >= 0 else elo)
            if self.im[0] >= 0:
                e = min(e, 2 * prec + 1024)
                return lo << e, hi << e, 1 << 2 * prec
            e = min(e, max(lo.bit_length(), hi.bit_length()) + 1076)
            return lo, hi, elo * ehi << e

        return nearest_double(enclose, is_zero, "monodromy entry not rounded at maximum precision")


def _factor_numeric(s: GaussRat) -> complex:
    """exp(-2 pi i s) as nearest doubles."""
    r = _Rounder(s)
    return complex(r.nearest([(0, 1, 0, 1)]), r.nearest([(0, 0, 1, 1)]))


# ----------------------------------------------------------------------
# translations
# ----------------------------------------------------------------------

def dR_to_Dol(d: DeRhamLocal) -> DolbeaultLocal:
    """Dolbeault data: alpha = Re(s) entrywise, residue
    (1/2)(s - beta) + (Y - H + X), irregular type halved."""
    st = d.structure()
    alpha = Weight([st.s[i, i].re for i in range(st.s.n)], validate=False)
    half = GaussRat(Fraction(1, 2))
    beta_mat = CMat.diag([GaussRat(b) for b in d.beta.entries])
    residue = (st.s - beta_mat).scale(half) + st.Y - st.H + st.X
    return DolbeaultLocal(alpha=alpha, residue=residue, q=d.q.half())


def dR_to_Betti(d: DeRhamLocal, prec: int = 128) -> BettiLocal:
    """Betti data: gamma = beta - Re(s), monodromy
    exp(-2 pi i s) exp(-2 pi i Y), all exact: the semisimple factor as
    the exponents s, the nilpotent factor as a pi-polynomial.  ``prec``
    is accepted for compatibility and changes nothing."""
    st = d.structure()
    n = st.s.n
    gamma = Weight(
        [b - st.s[i, i].re for i, b in enumerate(d.beta.entries)], validate=False
    )
    factors: List[object] = []
    for i in range(n):
        si = st.s[i, i]
        if si.is_real():
            factors.append(RootOfUnity(si.re.numerator, si.re.denominator))
        else:
            factors.append(Exponential(si.re, si.im))
    nil = PiMatrixPoly.exp_neg_two_pi_i(st.Y)
    return BettiLocal(
        gamma=gamma, semisimple_factor=tuple(factors), nilpotent_factor=nil, q=d.q
    )


def roundtrip_weight_check(d: DeRhamLocal) -> bool:
    """gamma + alpha = beta exactly (both sides go through Re(s))."""
    alpha = dR_to_Dol(d).alpha
    gamma = dR_to_Betti(d).gamma
    return all(
        g + a == b
        for g, a, b in zip(gamma.entries, alpha.entries, d.beta.entries)
    )


# ----------------------------------------------------------------------
# rank-1 monodromy oracle
# ----------------------------------------------------------------------

def _rk4_factor(a0, a_mid, a1, steps: int, fbits: int):
    """RK4's factor for one step of df/dphi = a f (a at phi, phi + h/2 and
    phi + h), as (x, y, -fbits); (x, y) is (x + i y) 2**-fbits, all floored."""
    (x0, y0), (xm, ym), (x1, y1) = a0, a_mid, a1
    one, half, six = 1 << fbits, 2 * steps, 6 * steps
    # u2 = a_mid (1 + h u1 / 2), u3 = a_mid (1 + h u2 / 2), u4 = a1 (1 + h u3)
    wx, wy = one + x0 // half, y0 // half
    x2, y2 = (xm * wx - ym * wy) >> fbits, (xm * wy + ym * wx) >> fbits
    wx, wy = one + x2 // half, y2 // half
    x3, y3 = (xm * wx - ym * wy) >> fbits, (xm * wy + ym * wx) >> fbits
    wx, wy = one + x3 // steps, y3 // steps
    x4, y4 = (x1 * wx - y1 * wy) >> fbits, (x1 * wy + y1 * wx) >> fbits
    return one + (x0 + 2 * (x2 + x3) + x4) // six, (y0 + 2 * (y2 + y3) + y4) // six, -fbits


def _times(f, g, fbits: int):
    """f * g on (x, y, e) = (x + i y) * 2**e, mantissas floored (or shifted
    up) to fbits bits."""
    (fx, fy, fe), (gx, gy, ge) = f, g
    x, y = fx * gx - fy * gy, fx * gy + fy * gx
    k = max(abs(x), abs(y)).bit_length() - fbits
    return (x >> k, y >> k, fe + ge + k) if k >= 0 else (x << -k, y << -k, fe + ge + k)


def rank1_monodromy_oracle(b, q: Optional[IrregularType] = None,
                           steps: int = 8192, prec: int = 128) -> complex:
    """Numerically continue a solution of f' = (q'(z) + b/z) f around the
    unit circle (counterclockwise) and return the multiplier.

    exp(q) is single-valued on the circle, so the multiplier equals
    exp(ORIENTATION * 2 pi i b).  Fixed-step RK4, deterministic for fixed
    (steps, prec); nothing is kept between calls but the bounded caches
    of ``angles``' enclosures of the constants.

    In the angle phi (in turns) the equation reads df/dphi = a(phi) f with
    a(phi) = 2 pi i b + sum_e t_e(phi), t_e = 2 pi i c_e z^e for the terms
    c_e z^e of z q'(z), at z = exp(2 pi i phi).  A step multiplies f by
    ``_rk4_factor`` G.  For q None, a is constant and the result is
    G ** steps, by squaring; otherwise each half step turns t_e by the
    fixed rotation exp(pi i e h), so no angle is evaluated in the loop.

    Gaussian integers carry the numbers at the binary point F = prec +
    steps.bit_length() + 4: 2 pi and the rotations (exact floors, from
    integer enclosures whose two ends floor alike), 2 pi b, 2 pi c_e and
    every product and quotient are floored to 2**-F.  f is a mantissa
    pair and an exponent, floored to F bits per product, so a large or
    small exp(Re q) keeps its relative precision.  The result is within
    2**-(prec - 4) * max(1, |f|) of the exact RK4 value before its
    round-to-nearest to a complex double (infinities on overflow).
    """
    from .angles import _quotient, cos_sin_pi, pi_enclosure

    if steps < 1:
        raise CorrespondenceError(f"oracle needs at least one step, got {steps}")
    if prec < 1:
        raise CorrespondenceError(f"oracle needs at least one bit of precision, got {prec}")
    b = b if isinstance(b, GaussRat) else GaussRat(Fraction(b))
    if q is not None and q.n != 1:
        raise CorrespondenceError("rank-1 oracle needs scalar irregular data")
    zq = {} if q is None else {-j: c * GaussRat(-j) for j, (c,) in q.coeffs.items()}
    fbits = prec + steps.bit_length() + 4
    two_pi = _floored(lambda bits: pi_enclosure(2, 1, bits), fbits)
    # exp(pi i e / steps), each part floored
    rhos = [tuple(_floored(lambda bits, e=e, k=k: cos_sin_pi(e, steps, bits)[k], fbits)
                  for k in (0, 1)) for e in zq]
    # 2 pi i b and the t_e at phi = 0
    a_b, *ts = [(two_pi * -c.im.numerator // c.im.denominator,
                 two_pi * c.re.numerator // c.re.denominator) for c in (b, *zq.values())]
    if not ts:
        f = g = _rk4_factor(a_b, a_b, a_b, steps, fbits)
        for bit in bin(steps)[3:]:
            f = _times(f, f, fbits)
            if bit == "1":
                f = _times(f, g, fbits)
    else:
        f, a0 = (1 << fbits, 0, -fbits), tuple(map(sum, zip(a_b, *ts)))
        for _ in range(steps):
            # every t_e half a step on, twice: z^e turns by exp(pi i e h)
            (mx, my), (ex, ey), turned = a_b, a_b, []
            for (tx, ty), (rx, ry) in zip(ts, rhos):
                tx, ty = (tx * rx - ty * ry) >> fbits, (tx * ry + ty * rx) >> fbits
                mx, my = mx + tx, my + ty
                tx, ty = (tx * rx - ty * ry) >> fbits, (tx * ry + ty * rx) >> fbits
                ex, ey = ex + tx, ey + ty
                turned.append((tx, ty))
            ts, a1 = turned, (ex, ey)
            f = _times(f, _rk4_factor(a0, (mx, my), a1, steps, fbits), fbits)
            a0 = a1
    # (x + i y) 2**e to the nearest doubles (int division rounds correctly)
    x, y, e = f
    num, den = (1 << e, 1) if e >= 0 else (1, 1 << -e)
    return complex(_quotient(x * num, den), _quotient(y * num, den))


def _floored(enclose, fbits: int) -> int:
    """floor(v * 2**fbits) for the value v that ``enclose(bits)`` encloses
    at scale 2**-bits: the first enclosure at fbits + 32, 64, 128, ...
    bits whose two ends floor alike."""
    extra = 32
    while True:
        lo, hi = enclose(fbits + extra)
        if lo >> extra == hi >> extra:
            return lo >> extra
        extra *= 2


def expected_multiplier(b) -> complex:
    """exp(ORIENTATION * 2 pi i b), the table value the oracle measures,
    as nearest doubles."""
    b = Fraction(b)
    return _factor_numeric(GaussRat(-ORIENTATION * b))
