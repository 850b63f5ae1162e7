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
enter only through the monodromy, where the nilpotent factor is carried
symbolically as a polynomial in pi and the semisimple factor is kept as
exact root-of-unity data when possible, with numerics on demand.

The loop orientation of the rank-1 monodromy oracle is counterclockwise
(z = exp(i phi), phi from 0 to 2 pi); with that orientation the measured
multiplier of f' = (q' + b/z) f is exp(+2 pi i b).  This sign is the
library-wide convention (ORIENTATION = +1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import mpmath
from mpmath.libmp import (fzero, from_int, mpc_add, mpc_div_mpf, mpc_expjpi,
                          mpc_mul, mpc_mul_int, mpc_mul_mpf, mpc_pow_int,
                          mpc_to_complex, mpf_mul_int, round_nearest)

from .connection import IrregularType
from .field import GaussRat
from .lmatrix import CMat
from .residues import Sl2Data, jordan_decompose, sl2_complete_blockwise
from .rootdata import Weight

ORIENTATION = +1


class CorrespondenceError(ValueError):
    pass


def to_mpc(c: GaussRat):
    """c as an mpmath complex, each part num/den rounded at the working
    precision."""
    return mpmath.mpc(mpmath.mpf(c.re.numerator) / c.re.denominator,
                      mpmath.mpf(c.im.numerator) / c.im.denominator)


# ----------------------------------------------------------------------
# local data containers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeRhamLocal:
    """Connection-side local data: weight, residue in Levi normal form
    (semisimple part diagonal), irregular type.

    Invariants enforced here: the residue lies in the Levi factor of the
    weight parabolic (entries across different beta-levels vanish) and
    commutes with the irregular type's diagonal coefficients."""

    beta: Weight
    residue: CMat
    q: IrregularType

    def __post_init__(self):
        n = self.residue.n
        if self.beta.n != n or self.q.n != n:
            raise CorrespondenceError("dimension mismatch in de Rham data")
        for i in range(n):
            for j in range(n):
                if self.residue[i, j].is_zero():
                    continue
                if self.beta.entries[i] != self.beta.entries[j]:
                    raise CorrespondenceError(
                        "residue leaves the Levi factor of its weight"
                    )
                if self.q.entry(i) != self.q.entry(j):
                    raise CorrespondenceError(
                        "residue does not commute with the irregular type"
                    )

    def structure(self) -> Sl2Data:
        """Jordan decomposition plus blockwise sl2 completion; blocks are
        the joint level sets of (s, beta, Q), so H and X commute with s,
        with beta, and with the irregular type.  Computed once per
        instance and kept on it (the fields are frozen)."""
        cached = self.__dict__.get("_structure")
        if cached is not None:
            return cached
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

    def mp(self, prec: int = 53):
        with mpmath.workprec(prec):
            return mpmath.expjpi(mpmath.mpf(-2 * self.p) / self.q)

    def numeric(self, prec: int = 53) -> complex:
        return complex(self.mp(prec))


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

    def mp(self, prec: int = 53) -> List[List[object]]:
        """Evaluate at pi as mpmath complex numbers at the given precision."""
        n = next(iter(self.coeffs.values())).n if self.coeffs else 0
        with mpmath.workprec(prec):
            pi = mpmath.pi
            out = [[mpmath.mpc(0) for _ in range(n)] for _ in range(n)]
            for k, m in self.coeffs.items():
                w = pi**k
                for i in range(n):
                    for j in range(n):
                        c = m[i, j]
                        if not c.is_zero():
                            out[i][j] += to_mpc(c) * w
            return out

    def numeric(self, prec: int = 53) -> List[List[complex]]:
        return [[complex(x) for x in row] for row in self.mp(prec)]

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
    semisimple_factor: Tuple[object, ...]  # RootOfUnity or complex per entry
    nilpotent_factor: PiMatrixPoly
    q: IrregularType

    def monodromy_mp(self, prec: int = 53):
        """Full monodromy as mpmath complex numbers (semisimple diagonal
        times the unipotent pi-polynomial)."""
        with mpmath.workprec(prec):
            diag = [
                f.mp(prec) if isinstance(f, RootOfUnity) else mpmath.mpc(f)
                for f in self.semisimple_factor
            ]
            nil = self.nilpotent_factor.mp(prec)
            n = len(diag)
            return [[diag[i] * nil[i][j] for j in range(n)] for i in range(n)]

    def monodromy_numeric(self, prec: int = 53) -> List[List[complex]]:
        return [[complex(x) for x in row] for row in self.monodromy_mp(prec)]


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
    exp(-2 pi i s) exp(-2 pi i Y) with the nilpotent factor symbolic."""
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
            # kept as an mpmath complex at the working precision; callers
            # downcast to float complex at the API edge
            with mpmath.workprec(prec):
                factors.append(mpmath.exp(-2j * mpmath.pi * to_mpc(si)))
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

def rank1_monodromy_oracle(b, q: Optional[IrregularType] = None,
                           steps: int = 8192, prec: int = 128) -> complex:
    """Numerically continue a solution of f' = (q'(z) + b/z) f around the
    unit circle (counterclockwise) and return the multiplier.

    exp(q) is single-valued on the circle, so the essential factor drops
    out of the multiplier, which equals exp(ORIENTATION * 2 pi i b).
    Fixed-step RK4 in mpmath; deterministic for fixed (steps, prec), and
    nothing is kept between calls.

    In the angle phi (in turns) the equation reads df/dphi = a(phi) f with
    a(phi) = 2 pi i b + sum_e t_e(phi), t_e = 2 pi i c_e z^e for the terms
    c_e z^e of z q'(z), at z = exp(2 pi i phi).  Both paths share one RK4
    step, which reads a at phi, phi + h/2 and phi + h:

    - q None: a is constant, so a step multiplies f by the same P (RK4's
      stability polynomial at h a) and the result is P ** steps, with P
      the step taken from f = 1: O(log steps) products.
    - q present: each half step multiplies t_e by the fixed rotation
      exp(pi i e h); no angle is evaluated inside the loop.  The rounding
      of the repeated rotation drifts t_e by about steps * 2**-prec.

    The stages run on ``mpmath.libmp`` tuples: each makes the libmp call
    that mpf/mpc operators make for ``f + h * k / 2``,
    ``f + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6``, ``t * rho`` and
    ``P ** steps``, on the same operands at the working precision, so the
    result is the operator form's to the bit.
    """
    if steps < 1:
        raise CorrespondenceError(f"oracle needs at least one step, got {steps}")
    if prec < 1:
        raise CorrespondenceError(f"oracle needs at least one bit of precision, got {prec}")
    b = b if isinstance(b, GaussRat) else GaussRat(Fraction(b))
    if q is not None and q.n != 1:
        raise CorrespondenceError("rank-1 oracle needs scalar irregular data")
    zq_terms = [] if q is None else [(-j, c * GaussRat(-j)) for j, (c,) in q.coeffs.items()]
    with mpmath.workprec(prec):
        wp, rnd = mpmath.mp.prec, round_nearest
        two_pi_i = (2j * mpmath.pi)._mpc_
        h = (mpmath.mpf(1) / steps)._mpf_
        two, six = from_int(2), from_int(6)

        def shifted(f, k, halve):
            # f + h * k / 2 when halve, else f + h * k
            dk = mpc_mul_mpf(k, h, wp, rnd)
            if halve:
                dk = mpc_div_mpf(dk, two, wp, rnd)
            return mpc_add(f, dk, wp, rnd)

        def step(f, a0, a_mid, a1):
            # one RK4 step from f, with a at phi, phi + h/2 and phi + h
            k1 = mpc_mul(a0, f, wp, rnd)
            k2 = mpc_mul(a_mid, shifted(f, k1, True), wp, rnd)
            k3 = mpc_mul(a_mid, shifted(f, k2, True), wp, rnd)
            k4 = mpc_mul(a1, shifted(f, k3, False), wp, rnd)
            total = mpc_add(mpc_add(mpc_add(k1, mpc_mul_int(k2, 2, wp, rnd), wp, rnd),
                                    mpc_mul_int(k3, 2, wp, rnd), wp, rnd), k4, wp, rnd)
            return mpc_add(f, mpc_div_mpf(mpc_mul_mpf(total, h, wp, rnd), six, wp, rnd),
                           wp, rnd)

        one = (from_int(1), fzero)
        a_b = mpc_mul(two_pi_i, to_mpc(b)._mpc_, wp, rnd)
        if not zq_terms:
            return mpc_to_complex(mpc_pow_int(step(one, a_b, a_b, a_b), steps, wp, rnd),
                                  False, rnd)
        ts = [mpc_mul(two_pi_i, to_mpc(c)._mpc_, wp, rnd) for _, c in zq_terms]
        rhos = [mpc_expjpi((mpf_mul_int(h, e, wp, rnd), fzero), wp, rnd)
                for e, _ in zq_terms]

        def coeff(ts):
            a = a_b
            for t in ts:
                a = mpc_add(a, t, wp, rnd)
            return a

        f, a0 = one, coeff(ts)
        for _ in range(steps):
            # every t_e half a step on, twice: z^e turns by exp(pi i e h)
            ts = [mpc_mul(t, r, wp, rnd) for t, r in zip(ts, rhos)]
            a_mid = coeff(ts)
            ts = [mpc_mul(t, r, wp, rnd) for t, r in zip(ts, rhos)]
            a1 = coeff(ts)
            f = step(f, a0, a_mid, a1)
            a0 = a1
        return mpc_to_complex(f, False, rnd)


def expected_multiplier(b, prec: int = 128) -> complex:
    """exp(ORIENTATION * 2 pi i b), the table value the oracle measures."""
    b = Fraction(b)
    with mpmath.workprec(prec):
        return complex(mpmath.expjpi(ORIENTATION * 2 * mpmath.mpf(b.numerator) / b.denominator))
