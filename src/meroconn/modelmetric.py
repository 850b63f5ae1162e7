"""Symbolic verification of the local model-metric computations.

All |z|- and log-dependence is reduced to the single formal variable
t = 1/ln|z|^2 with the derivation rule  z-bar d/dz-bar : t -> -t^2,
plus (-ln|z|^2) = -1/t for the log-power conjugations.  The curvature
and pseudo-curvature lemmas then become finite exact algebra over the
Gaussian rationals.  The weight-jump diagnostic is exact too: the
metric's diagonal entries are finite sums of powers of L = -ln|z|^2, and
their exponents are compared with the Jordan type of Y using ==.

Conjugate quantities (s-bar, the dz-bar side operators) are formed
entrywise from the exact data; the conjugate-transpose pairing between
the raising and lowering elements of the triple is structural
(X <-> Y), matching how the operators are displayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Dict, List, Optional, Tuple

from . import _kernel as K
from .field import CMat, GaussRat, entry_mask
from .lmatrix import LaurentMatrix
from .residues import Sl2Data
from .rootdata import IrregularType, Weight


class MetricError(ValueError):
    pass


class TPoly:
    """Polynomial in t with constant-matrix coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, CMat]):
        clean = {}
        for k, m in coeffs.items():
            if k < 0:
                raise MetricError("negative t-powers are outside the model")
            if not m.is_zero():
                clean[int(k)] = m
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    def __setattr__(self, *a):
        raise AttributeError("TPoly is immutable")

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def of(cls, *terms: Tuple[int, CMat]):
        acc: Dict[int, CMat] = {}
        for k, m in terms:
            acc[k] = acc[k] + m if k in acc else m
        return cls(acc)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "TPoly") -> "TPoly":
        acc = dict(self.coeffs)
        for k, m in other.coeffs.items():
            acc[k] = acc[k] + m if k in acc else m
        return TPoly(acc)

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + (-other)

    def __neg__(self) -> "TPoly":
        return TPoly({k: -m for k, m in self.coeffs.items()})

    def scale(self, c) -> "TPoly":
        return TPoly({k: m.scale(c) for k, m in self.coeffs.items()})

    def bracket(self, other: "TPoly") -> "TPoly":
        acc: Dict[int, CMat] = {}
        for k1, m1 in self.coeffs.items():
            for k2, m2 in other.coeffs.items():
                b = m1.bracket(m2)
                if not b.is_zero():
                    k = k1 + k2
                    acc[k] = acc[k] + b if k in acc else b
        return TPoly(acc)

    def t_derivative(self) -> "TPoly":
        """z-bar d/dz-bar via the chain rule t -> -t^2:
        M t^k maps to -k M t^(k+1)."""
        return TPoly({k + 1: m.scale(-k) for k, m in self.coeffs.items() if k != 0})

    def __eq__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        if self.is_zero():
            return "TPoly(0)"
        return f"TPoly(t-powers={sorted(self.coeffs)})"


@dataclass(frozen=True)
class MetricData:
    """Input of the local model: weight beta, residue structure
    (s, X, H, Y) and irregular type Q with [s, Y] = 0.

    Validation checks the brackets of the triple and with s, then that
    s, X, H and Y vanish across beta-levels (``_off_levi``).

    ``validate=False`` skips the consistency checks; the corrupted-triple
    negative tests rely on it."""

    beta: Weight
    triple: Sl2Data
    q: IrregularType
    validate: bool = True

    def __post_init__(self):
        if not self.validate:
            return
        t = self.triple
        if t.s is None:
            raise MetricError("metric data requires the semisimple part s")
        if not t.check_brackets():
            raise MetricError("sl2 bracket relations fail")
        for other in (t.X, t.H):
            if not t.s.bracket(other).is_zero():
                raise MetricError("triple does not commute with s")
        off_levi = self._off_levi()
        for m in (t.s, t.X, t.H, t.Y):
            if m.support() & off_levi:
                raise MetricError("data leaves the Levi factor of beta")

    def _beta_mat(self) -> CMat:
        return CMat.diag([GaussRat(b) for b in self.beta.entries])

    def _off_levi(self) -> int:
        """The entries across different beta-levels: [diag(beta), m] = 0
        iff m vanishes there."""
        beta = self.beta.entries
        n = self.triple.H.n
        if len(beta) != n:
            raise ValueError(f"dimension mismatch: {len(beta)} vs {n}")
        return entry_mask(n, lambda i, j: beta[i] != beta[j])

    @classmethod
    def from_de_rham(cls, d) -> "MetricData":
        return cls(beta=d.beta, triple=d.structure(), q=d.q)


# ----------------------------------------------------------------------
# the identity lemma
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    results: Tuple[Tuple[str, bool], ...]

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.results)

    def failed(self) -> List[str]:
        return [name for name, ok in self.results if not ok]


def _h_frame(triple: Sl2Data):
    """(p, p^-1, eigenvalues of H) for the triple's basis p, in which H
    must be diagonal."""
    p = triple.basis
    p_inv = p.inv()
    d = p_inv * triple.H * p
    if not d.is_diagonal():
        raise MetricError("triple basis does not diagonalize H")
    return p, p_inv, [d[i, i] for i in range(d.n)]


def sl2_identity_suite(triple: Sl2Data) -> IdentityReport:
    """Exact verification of the log-power and exponential conjugation
    identities used throughout the local computations."""
    X, H, Y = triple.X, triple.H, triple.Y
    p, p_inv, d_entries = _h_frame(triple)

    def ad_weight_is(m: CMat, w: int) -> bool:
        """m lies in the ad(H)-eigenspace of weight w (checked in the
        diagonalizing basis), which is exactly what makes the log-power
        conjugation scale it by (-ln|z|^2)^(w/2)."""
        shifted = [d + w for d in d_entries]
        off_weight = entry_mask(m.n, lambda i, j: d_entries[i] != shifted[j])
        return not ((p_inv * m * p).support() & off_weight)

    def dlog_rule(sign: int) -> bool:
        """z-bar d/dz-bar (-ln|z|^2)^(sign*h/2)
        = sign*(h/2) t (-ln|z|^2)^(sign*h/2) per eigenvalue h of H.

        Route A applies the chain rule with z-bar d/dz-bar(-ln|z|^2) = -1
        and rewrites 1/(-ln|z|^2) = -t; route B is the displayed right
        hand side.  Both are (coefficient, L-power, t-power) triples."""
        for h in {e.re for e in d_entries}:
            c = Fraction(sign) * h / 2
            coeff, lpow, tpow = -c, c - 1, 0  # c L^(c-1) * (-1)
            coeff, lpow, tpow = -coeff, lpow + 1, tpow + 1  # L^-1 = -t
            if (coeff, lpow, tpow) != (Fraction(sign) * h / 2, c, 1):
                return False
        return True

    exp_x = X.exp_nilpotent()
    exp_mx = (-X).exp_nilpotent()
    exp_y = Y.exp_nilpotent()
    exp_my = (-Y).exp_nilpotent()

    results = (
        ("d_z log-power rule", dlog_rule(+1) and dlog_rule(-1)),
        ("d_zbar log-power rule", dlog_rule(+1) and dlog_rule(-1)),
        ("log-power conjugation scales X", ad_weight_is(X, 2)),
        ("log-power conjugation scales Y", ad_weight_is(Y, -2)),
        ("e^X H e^-X = H - 2X", exp_x * H * exp_mx == H - X.scale(2)),
        ("e^Y H e^-Y = H + 2Y", exp_y * H * exp_my == H + Y.scale(2)),
        ("e^X Y e^-X = Y + H - X", exp_x * Y * exp_mx == Y + H - X),
        ("e^-X H e^X = H + 2X", exp_mx * H * exp_x == H + X.scale(2)),
        ("e^-Y H e^Y = H - 2Y", exp_my * H * exp_y == H - Y.scale(2)),
        ("e^-X Y e^X = Y - H - X", exp_mx * Y * exp_x == Y - H - X),
    )
    return IdentityReport(results)


# ----------------------------------------------------------------------
# curvature computations
# ----------------------------------------------------------------------

def _regular_parts(data: MetricData) -> Tuple[TPoly, TPoly]:
    """K_reg = -(1/2) s-bar - (1/2) H t and M_reg = (1/2)(s - beta) - Y t."""
    t = data.triple
    half = Fraction(1, 2)
    k_reg = TPoly.of((0, t.s.conjugate().scale(-half)), (1, t.H.scale(-half)))
    m_reg = TPoly.of((0, (t.s - data._beta_mat()).scale(half)), (1, -t.Y))
    return k_reg, m_reg


def pseudo_curvature(data: MetricData) -> TPoly:
    """-(z-bar d/dz-bar M_reg + [K_reg, M_reg]) with K_reg and M_reg from
    ``_regular_parts``; identically zero for valid data (the Higgs-pair
    certificate)."""
    k_reg, m_reg = _regular_parts(data)
    return -(m_reg.t_derivative() + k_reg.bracket(m_reg))


def curvature_e0(data: MetricData) -> TPoly:
    """Curvature in the orthonormal frame: conjugate the e-frame value
    2H t^2 + 4X t^3 by g0 = |z|^-beta (-ln)^-H/2 e^X; the identities
    collapse it to 2H t^2."""
    t = data.triple
    off_levi = data._off_levi()
    for m in (t.H, t.X):
        if m.support() & off_levi:
            raise MetricError("|z|^beta conjugation is nontrivial: data leaves the Levi")
    f_e = TPoly.of((2, t.H.scale(2)), (3, t.X.scale(4)))
    conj = _conj_log_power(f_e, t, +1)  # (-ln)^{H/2} . (-ln)^{-H/2}
    out = _conj_exp(conj, -t.X)  # e^{-X} . e^{X}
    return out


def chern_coefficient(data: MetricData) -> TPoly:
    """dz/z coefficient of the Chern connection in the e-frame:
    beta - Y + 2H t + 2X t^2."""
    t = data.triple
    return TPoly.of(
        (0, data._beta_mat() - t.Y), (1, t.H.scale(2)), (2, t.X.scale(2))
    )


def chern_curvature_from_coefficient(data: MetricData) -> TPoly:
    """-(z-bar d/dz-bar) of the Chern coefficient: the e-frame curvature
    2H t^2 + 4X t^3 (cross-check for curvature_e0's starting point)."""
    return -chern_coefficient(data).t_derivative()


@dataclass(frozen=True)
class HiggsOperators:
    """dz/z (resp. dz-bar/z-bar) coefficients of the extracted operators.

    The irregular parts (the (1/2) z Q'(z) term of phi and its conjugate
    in the del-bar operator) are carried as exact Laurent tags next to
    the regular TPoly parts."""

    del_bar: TPoly
    phi: TPoly
    phi_star: TPoly
    residue: CMat
    phi_q_tag: LaurentMatrix
    del_bar_q_tag: LaurentMatrix


def higgs_extraction(data: MetricData) -> HiggsOperators:
    """The operators of the induced Higgs pair in the orthonormal frame
    (the del-bar part is K_reg and phi is M_reg, from
    ``_regular_parts``), plus the final holomorphic-frame residue
    (1/2)(s - beta) + (Y - H + X)."""
    t = data.triple
    half = Fraction(1, 2)
    del_bar, phi = _regular_parts(data)
    phi_star = TPoly.of(
        (0, (t.s.conjugate() - data._beta_mat()).scale(half)), (1, -t.X)
    )
    residue = (t.s - data._beta_mat()).scale(half) + t.Y - t.H + t.X
    q_half = data.q.half()
    phi_tag = q_half.polar_connection_part()
    del_tag = -LaurentMatrix(
        [
            [_series_conj(phi_tag.rows[i][j]) for j in range(phi_tag.n)]
            for i in range(phi_tag.n)
        ]
    )
    return HiggsOperators(
        del_bar=del_bar,
        phi=phi,
        phi_star=phi_star,
        residue=residue,
        phi_q_tag=phi_tag,
        del_bar_q_tag=del_tag,
    )


def _series_conj(s):
    from .series import LaurentSeries

    return LaurentSeries(
        s.order_min,
        [GaussRat.from_triple((a, -b, d)) for (a, b, d) in s.coeffs],
        s.trunc,
    )


# ----------------------------------------------------------------------
# symbolic conjugation helpers
# ----------------------------------------------------------------------

def _conj_log_power(poly: TPoly, triple: Sl2Data, sign: int) -> TPoly:
    """Ad((-ln|z|^2)^(sign*H/2)) on each coefficient: the ad(H)-weight-w
    component picks (-ln)^(sign*w/2) = (-1/t)^(sign*w/2).

    The signed pieces are collected in the H-frame, one matrix per output
    power, and each is conjugated back once.  Entry (i, j) of a power
    comes from one input power at most, as its shift depends on (i, j)
    only."""
    p, p_inv, d_entries = _h_frame(triple)
    frame: Dict[int, list] = {}
    n = triple.H.n
    for k, m in poly.coeffs.items():
        mm = (p_inv * m * p).t
        for i in range(n):
            for j in range(n):
                c = mm[i][j]
                if not (c[0] or c[1]):
                    continue
                w = d_entries[i] - d_entries[j]
                if w.im != 0 or (sign * w.re) % 2 != 0:
                    raise MetricError(
                        "log-power conjugation needs even integer ad(H)-weights"
                    )
                shift = int(sign * w.re) // 2
                newk = k - shift
                if newk < 0:
                    raise MetricError("conjugation left the polynomial model")
                if newk not in frame:
                    frame[newk] = [[K.ZERO] * n for _ in range(n)]
                frame[newk][i][j] = K.qneg(c) if shift % 2 else c
    return TPoly({k: p * CMat._of(rows) * p_inv for k, rows in frame.items()})


def _conj_exp(poly: TPoly, nilp: CMat) -> TPoly:
    """Ad(exp(nilp)) applied to every coefficient."""
    e = nilp.exp_nilpotent()
    e_inv = (-nilp).exp_nilpotent()
    return TPoly({k: e * m * e_inv for k, m in poly.coeffs.items()})


# ----------------------------------------------------------------------
# exact weight-jump diagnostic
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WeightJumpReport:
    """Per vector of the triple's basis: the |z|-exponents 2*beta
    (connection frame) and 2*Re s (Higgs frame), the connection-frame
    diagonal entry as an exact {L-exponent: coefficient} map and the
    leading L-exponent of the Higgs-frame entry."""

    de_rham_exponents: Tuple[Fraction, ...]
    dolbeault_exponents: Tuple[Fraction, ...]
    de_rham_l_powers: Tuple[Dict[Fraction, GaussRat], ...]
    dolbeault_leading: Tuple[Optional[Fraction], ...]
    de_rham_pass: bool
    dolbeault_pass: bool
    tolerance: ClassVar[float] = 0.0  # read by perfbench; the exponents are exact

    @property
    def all_pass(self) -> bool:
        return self.de_rham_pass and self.dolbeault_pass


def weight_jump_check(data: MetricData) -> WeightJumpReport:
    """The weight jump beta -> Re s, exactly, in the triple's basis p.

    With L = -ln|z|^2 the metric is |z|^2beta L^(H/2) e^-Y e^-X L^(H/2) in
    the connection frame and |z|^2s e^Y L^H e^X in the Higgs frame, where
    L^(cH) = p L^(cD) p^-1 with D = diag(h).  The blocks are the connected
    components of the nonzero pattern of p^-1 Y p; in a block of size m,
    the connection-frame entries are single L-powers with exponents
    exactly m-1, m-3, ..., 1-m, and every Higgs-frame entry has leading
    L-exponent m-1; all coefficients involved are positive rationals."""
    t = data.triple
    n = t.H.n
    p, p_inv, h = _h_frame(t)
    h = [e.re for e in h]
    y, x = p_inv * t.Y * p, p_inv * t.X * p
    # the diagonal of L^(D/2) M L^(D/2) equals that of M L^D
    diag_dr = _diagonal_l_powers((-y).exp_nilpotent() * (-x).exp_nilpotent(),
                                 CMat.identity(n), h)
    diag_dol = _diagonal_l_powers(y.exp_nilpotent(), x.exp_nilpotent(), h)
    leading = tuple(max(m, default=None) for m in diag_dol)
    de_rham_pass = dolbeault_pass = True
    for idxs in _components(y):
        top = len(idxs) - 1
        dr = [diag_dr[i] for i in idxs]
        de_rham_pass &= (all(len(m) == 1 and _positive(*m.values()) for m in dr)
                         and sorted(e for m in dr for e in m) == list(range(-top, top + 1, 2)))
        dolbeault_pass &= all(leading[i] == top and _positive(diag_dol[i][top]) for i in idxs)
    return WeightJumpReport(
        de_rham_exponents=tuple(2 * b for b in data.beta.entries),
        dolbeault_exponents=tuple(2 * t.s[i, i].re for i in range(n)),
        de_rham_l_powers=tuple(diag_dr),
        dolbeault_leading=leading,
        de_rham_pass=de_rham_pass,
        dolbeault_pass=dolbeault_pass,
    )


def _components(m: CMat) -> List[List[int]]:
    """Connected components of the nonzero pattern of m."""
    label, bits = list(range(m.n)), m.support()
    for i in range(m.n):
        for j in range(m.n):
            if bits >> (i * m.n + j) & 1 and label[i] != label[j]:
                old = label[j]
                label = [label[i] if b == old else b for b in label]
    return [[i for i in range(m.n) if label[i] == b] for b in sorted(set(label))]


def _positive(c: GaussRat) -> bool:
    return c.im == 0 and c.re > 0


def _diagonal_l_powers(a: CMat, c: CMat, h) -> List[Dict[Fraction, GaussRat]]:
    """Diagonal of a L^D c with D = diag(h), entry by entry as exact
    {exponent of L: coefficient} maps."""
    out = []
    for i in range(a.n):
        acc: Dict[Fraction, GaussRat] = {}
        for j in range(a.n):
            coef = a[i, j] * c[j, i]
            if not coef.is_zero():
                acc[h[j]] = acc[h[j]] + coef if h[j] in acc else coef
        out.append(acc)
    return out
