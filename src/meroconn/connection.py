"""Formal meromorphic connections d + B(z) dz/z and canonical-form reduction.

Matrix units E_ab z^m are graded by (theta_a - theta_b) + m.  One graded
solve, ``_solve_graded``, finds g = I + (positive grade) and
C = (diagonal polar part) + R with g B - z g' = C g, grade by grade from
-(pole order) up: each equation fixes one unknown, either C's polar
entry, a division by a difference of polar eigenvalues, or, on the
common centralizer of the polar part, an (m + ad(R0)) solve against the
Levi residue R0.  A singular system (resonance) is reported, never
approximated; it cannot occur when the polar part is regular
semisimple.  Its callers differ only in the depth they pass and where
they stop:

* ``canonical_reduce`` solves every grade, with the depth at which the
  input's diagonal polar part separates each pair (``_split_depth``);
* ``recover_irregular_shape`` and ``extract_irregular_type`` solve below
  grade zero only (``_solve_shape``), after a constant diagonalization
  of a leading coefficient that is not diagonal (extraction skips it on
  an input already in shape), with the depth of that coefficient alone.
  This is the splitting lemma: it brings a connection whose polar part
  is merely *conjugate* to a diagonal one (e.g. after an arbitrary
  parahoric gauge) back to irregular-type shape, and the irregular type
  is read off C's polar part, which reduction never changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import _kernel as K
from .errors import InternalError
from .field import CMat, GaussRat, nullspace, rref
from .lmatrix import LaurentMatrix, mat_inv, mat_mul, mat_mul_trunc
from .rootdata import IrregularType, Weight, parabolic_from_weight
from .series import INF, LaurentSeries

DEFAULT_TRUNC = 12


class MeroConnection:
    """The connection d + B(z) dz/z.

    ``pole_order`` is max(0, -val(B)); the 1-form B(z) dz/z has a pole
    of order pole_order + 1 at z = 0 (logarithmic when pole_order = 0).
    """

    __slots__ = ("B",)

    def __init__(self, B: LaurentMatrix):
        object.__setattr__(self, "B", B)

    def __setattr__(self, *a):
        raise AttributeError("MeroConnection is immutable")

    @property
    def n(self) -> int:
        return self.B.n

    @property
    def pole_order(self) -> int:
        v = self.B.val()
        if v == INF:
            return 0
        return max(0, -int(v))

    def polar_coeff(self, j: int) -> CMat:
        return self.B.coeff(-j)

    def agrees(self, other: "MeroConnection") -> bool:
        return self.B.agrees(other.B)

    def __repr__(self):
        return f"MeroConnection(n={self.n}, pole_order={self.pole_order}, trunc={self.B.trunc})"


@dataclass(frozen=True)
class CanonicalForm:
    """Polar coefficients (diagonal) plus a commuting constant residue."""

    polar: Dict[int, CMat]  # j -> B_{-j}
    residue: CMat

    @property
    def n(self) -> int:
        return self.residue.n

    @property
    def pole_order(self) -> int:
        return max(self.polar, default=0)

    def as_connection(self, trunc=INF) -> MeroConnection:
        return connection_from_irregular_type(self.irregular_type(), self.residue, trunc=trunc)

    def irregular_type(self) -> IrregularType:
        return IrregularType.from_polar(self.n, self.polar)

    def check_invariants(self, theta: Optional[Weight] = None) -> bool:
        """Polar coefficients diagonal (hence commuting), the residue
        block-diagonal on their joint level sets (the Levi blocks of Q,
        so it commutes with them) and in the parabolic of theta."""
        if any(not m.is_diagonal() for m in self.polar.values()):
            return False
        if not self.residue.is_block_diagonal(self.irregular_type().levi_blocks()):
            return False
        return theta is None or parabolic_from_weight(theta).contains_matrix(self.residue)


class ReductionError(ValueError):
    pass


# ----------------------------------------------------------------------
# gauge action
# ----------------------------------------------------------------------

def gauge_act(g: LaurentMatrix, conn: MeroConnection,
              g_inv: Optional[LaurentMatrix] = None) -> MeroConnection:
    """g . (d + B dz/z) = d + (g B - z g') g^-1 dz/z.

    One product by g^-1, each entry known as far as ``mat_mul`` knows
    it, then cut to the bound ``mat_mul_trunc`` gives g B g^-1 and
    z g' g^-1 taken apart, so the result does not depend on cancellation
    in g B - z g'.  ``_centralize_grade_zero`` needs that bound: without
    it the window it reads never runs out."""
    if g_inv is None:
        g_inv = mat_inv(g)
    gB = mat_mul(g, conn.B)
    dz = g.zdz()
    bound = min(mat_mul_trunc(gB, g_inv), mat_mul_trunc(dz, g_inv))
    return MeroConnection(mat_mul(gB - dz, g_inv).truncate(bound))


def gauge_orbit_equal(c1: MeroConnection, c2: MeroConnection, g: LaurentMatrix) -> bool:
    """True iff g . c1 equals c2 entrywise up to the common truncation.

    For an integral unit g (finite ``trunc``, no negative exponent,
    invertible constant term) g and g^-1 are both integral, so
    g . c1 = c2 mod z^b iff g B1 - z g' = B2 g mod z^b.  That is checked
    without inverting g, at the b that ``gauge_act(g, c1).agrees(c2)``
    would use (``mat_inv(g)`` has g's truncation and valuation 0).  Any
    other g (poles, boundary-weight parahoric gauges among them, a
    singular constant term, exact), or a B2 g known only below b, takes
    that path itself.  A g that ``mat_inv`` refuses is False: one whose
    determinant vanishes below the truncation, or an exact g whose
    determinant is not a monomial, so that g^-1 is an infinite series."""
    try:
        if _integral_unit(g):
            gB = mat_mul(g, c1.B)
            # z g' has g's truncation and valuation >= 1
            b = min(gB.trunc, g.trunc + min(gB.val(), 0), c2.B.trunc)
            b2g = mat_mul(c2.B, g)
            if b2g.trunc >= b:
                resid = gB - g.zdz() - b2g
                return all(s.is_zero() or s.val() >= b for row in resid.rows for s in row)
        return gauge_act(g, c1).agrees(c2)
    except (ZeroDivisionError, ValueError):
        return False


def _integral_unit(g: LaurentMatrix) -> bool:
    """Finite truncation, no negative exponent, invertible constant term."""
    if g.trunc == INF or g.val() < 0:
        return False
    try:
        g.coeff(0).inv()
    except ZeroDivisionError:
        return False
    return True


# ----------------------------------------------------------------------
# graded bookkeeping helpers
# ----------------------------------------------------------------------

def _resolve_weight(theta: Optional[Weight], n: int) -> Weight:
    """theta, or the zero weight when it is None; its length must be n."""
    if theta is None:
        return Weight([0] * n)
    if theta.n != n:
        raise ValueError("weight dimension mismatch")
    return theta


def _diag_entries(m: CMat):
    return [m[i, i] for i in range(m.n)]


# ----------------------------------------------------------------------
# canonical reduction
# ----------------------------------------------------------------------

def canonical_reduce(conn: MeroConnection, theta: Optional[Weight] = None,
                     trunc: Optional[int] = None) -> Tuple[CanonicalForm, LaurentMatrix]:
    """Reduce a connection in irregular-type shape to canonical form.

    Returns (canonical form C, gauge g) with g B - z g' = C g mod z^T, so
    g . conn = C up to the truncation T.  Preconditions: polar
    coefficients diagonal, an admissible weight, and the nonnegative part
    inside the theta-parahoric Lie algebra.

    g = I + (positive grade), the polar part and the residue are solved
    for in one pass over every grade (``_solve_graded``, with the depth of
    the input's diagonal polar part, whose entries the solve reproduces).
    g is returned on the window W = T + pole order.  With J_ab the depth
    at which the polar part first separates a from b (0 on its common
    centralizer), the input mod z^T determines g's coefficient at
    (a, b, z^m) only if m - J_ab < T; every other coefficient is 0.  At a
    boundary weight, a z^-1 entry also meets a free coefficient at z^T in
    the equation at z^(T-1), so the coefficients at m - J_ab = T - 1 are
    computed with that free one at 0; and T is the window left after the
    grade-zero steps of ``_centralize_grade_zero``.
    """
    n = conn.n
    theta = _resolve_weight(theta, n)
    npole = conn.pole_order
    if npole < 1:
        raise ReductionError(
            "trivial irregular type: input has no polar part "
            "(logarithmic reduction is out of scope)"
        )
    if not theta.is_admissible():
        raise ReductionError("precondition violation: weight violates r(theta) <= 1 for some root")
    T = _resolve_trunc(conn, trunc)
    if not _off_diagonal_in_nonneg_grades(conn.B, theta):
        if any(not conn.polar_coeff(j).is_diagonal() for j in range(1, npole + 1)):
            raise ReductionError(
                "input not in irregular-type shape: off-diagonal polar content "
                "below grade zero; run recover_irregular_shape first "
                "(ramified case out of scope)"
            )
        raise ReductionError(
            "precondition violation: nonnegative part lies outside the "
            "parahoric Lie algebra of the given weight"
        )

    W = T + npole
    cur = conn.B.truncate(T)  # exact inputs are windowed to T
    polar = {j: _diag_entries(conn.polar_coeff(j)) for j in range(1, npole + 1)}
    depth = _split_depth(polar, n)
    _require_residue_window(cur)
    cur, g0 = _centralize_grade_zero(cur, theta, polar, W)
    _require_residue_window(cur)
    g, form_polar, residue = _solve_graded(cur, theta, depth, W)
    if g0 is not None:
        g = _drop_undetermined(mat_mul(g, g0), depth, int(cur.trunc))
    canonical = CanonicalForm(
        polar={j: m for j, m in form_polar.items() if not m.is_zero()},
        residue=residue,
    )
    return canonical, g


def _require_residue_window(cur: LaurentMatrix):
    """Each z^-1 gauge step shortens the known window of ``cur``; once it
    no longer reaches z^0 the residue is unknown, so stop rather than read
    the zeros beyond the window."""
    if cur.trunc <= 0:
        raise ReductionError(
            f"truncation window lost: the connection is known only below z^{cur.trunc}, "
            "so the residue (the z^0 coefficient) is undetermined"
        )


def _split_depth(polar, n: int) -> List[List[int]]:
    """J[a][b]: the largest j with d^j_a != d^j_b (d^j the diagonal of the
    polar coefficient at z^-j), or 0 when (a, b) lies in the common
    centralizer of the polar part."""
    return [[max((j for j, d in polar.items() if d[a] != d[b]), default=0)
             for b in range(n)] for a in range(n)]


_NOT_RECOVERABLE = ("polar part not recoverable: residual content below grade zero "
                    "(nested splitting out of scope)")


def _solve_graded(B: LaurentMatrix, theta: Weight, depth, W: int, stop: Optional[int] = None
                  ) -> Tuple[LaurentMatrix, Dict[int, CMat], CMat]:
    """Solve g B - z g' = C g mod z^T, T = B.trunc, for g = I + (positive
    grade) known below z^W and C = (diagonal polar part) + R, at every
    grade from -(pole order) up to ``stop`` (exclusive; None runs to the
    window's end).  Returns (g, C's polar part {j: C_-j}, R).

    This is the recursion of formal reduction theory (D. G. Babbitt and
    V. S. Varadarajan, Pacific J. Math. 109, 1983; W. Balser, Formal
    Power Series and Linear Systems of Meromorphic ODEs, Springer 2000);
    below grade zero it is the splitting lemma.  The equation at slot
    (a, b) and z-degree e, of grade mu = theta_a - theta_b + e, fixes one
    unknown, with J = depth[a][b] the depth at which C's polar part
    separates a from b:

    * J > 0: g[a,b,e+J], by a division by d^J_a - d^J_b, read off C's
      diagonal, which the lower grades have solved; a right-hand side
      that needs g at grade mu + J <= 0 is refused;
    * J = 0, e < 0 or mu < 0: C's polar entry when a = b; nothing when
      a != b, so a nonzero right-hand side is refused;
    * J = 0, e = 0, mu >= 0: the residue entry R[a,b];
    * J = 0, e > 0: g[a,b,e], by the (e + ad R0) solve on all slots of
      that grade and level, R0 the Levi part of the residue; a singular
      system (resonance) is reported, never approximated, and cannot
      occur when the polar part is regular semisimple.

    Grades run in ascending order; inside a grade the centralizer levels
    come first, since their unknowns reach the other slots of the grade
    through B's grade-zero part.  Each right-hand side is the residual's
    coefficient at its slot with that slot's unknown still 0, one
    ``_kernel.qconvat`` of g B (B from its pole), -C g (C's diagonal and
    its nonzero residue entries) and -z g'.  The polar terms of g B and
    -C g on a pair that C does not separate cancel exactly.  The whole
    solve costs about one residual.
    """
    n = B.n
    T = int(B.trunc)
    # 0 when B has no pole, e.g. when ``_centralize_grade_zero`` has removed
    # an input's only polar entries (B.val() is INF when B = 0)
    npole = max(0, -B.val())
    den, th = _integer_grades(theta)
    # B from its pole: win[c][b][i] is the coefficient at z^(i-npole)
    win = [[_window(B.rows[c][b], -npole, T) for b in range(n)] for c in range(n)]
    y = [[[K.ONE if a == b else K.ZERO] + [K.ZERO] * (W - 1) for b in range(n)]
         for a in range(n)]
    # -C[a][a] from z^-npole to z^0, and by row the nonzero -R[a][c], c != a
    neg_diag = [[K.ZERO] * (npole + 1) for _ in range(n)]
    neg_off: List[list] = [[] for _ in range(n)]
    res = [[K.ZERO] * n for _ in range(n)]
    grades: Dict[int, list] = {}
    for a in range(n):
        for b in range(n):
            for e in range(-npole, T):
                mu = th[a] - th[b] + e * den
                if mu >= -npole * den and (stop is None or mu < stop):
                    grades.setdefault(mu, []).append((a, b, e))

    def residual(a, b, e):
        row = y[a]
        terms = [(0, row[c], win[c][b]) for c in range(n)]
        terms.append((0, neg_diag[a], row[b]))
        terms += [(npole, (r,), y[c][b]) for c, r in neg_off[a]]
        if e > 0:
            terms.append((e + npole, ((-e, 0, 1),), (row[b][e],)))
        return K.qconvat(terms, e + npole)

    for mu in sorted(grades):
        levels: Dict[int, list] = {}
        split = []
        for a, b, e in grades[mu]:
            if depth[a][b]:
                split.append((a, b, e))
            else:
                levels.setdefault(e, []).append((a, b))
        for e in sorted(levels):
            slots = levels[e]
            rhs = [residual(a, b, e) for a, b in slots]
            if e < 0 or mu < 0:
                for (a, b), r in zip(slots, rhs):
                    if a == b:
                        neg_diag[a][e + npole] = K.qneg(r)
                    elif r[0] or r[1]:
                        raise ReductionError(_NOT_RECOVERABLE)
            elif e == 0:
                for (a, b), r in zip(slots, rhs):
                    res[a][b] = r
                    if a == b:
                        neg_diag[a][npole] = K.qneg(r)
                    elif r[0] or r[1]:
                        neg_off[a].append((b, K.qneg(r)))
            elif any(r[0] or r[1] for r in rhs):
                for (a, b), x in zip(slots, _solve_level(e, res, slots, rhs)):
                    y[a][b][e] = x
        for a, b, e in split:
            r = residual(a, b, e)
            if r[0] or r[1]:
                J = depth[a][b]
                if mu + J * den <= 0:
                    raise ReductionError(_NOT_RECOVERABLE)
                pivot = K.qsub(neg_diag[b][npole - J], neg_diag[a][npole - J])
                y[a][b][e + J] = K.qdiv(r, pivot)
    g = LaurentMatrix._of([[LaurentSeries._raw(0, y[a][b], W) for b in range(n)]
                           for a in range(n)])
    polar = {j: CMat.diag([GaussRat.from_triple(K.qneg(d[npole - j])) for d in neg_diag])
             for j in range(1, npole + 1)}
    return g, polar, CMat._of(res)


def _integer_grades(theta: Weight) -> Tuple[int, List[int]]:
    """(den, th): the least common denominator of theta's entries and
    theta * den, so that grades in units of 1/den are integers."""
    den = math.lcm(*(e.denominator for e in theta.entries))
    return den, [int(e * den) for e in theta.entries]


def _window(s: LaurentSeries, lo: int, hi: int) -> list:
    """The coefficients of s at z^lo .. z^(hi-1) as kernel triples."""
    out = [K.ZERO] * (hi - lo)
    for i, t in enumerate(s.coeffs):
        e = s.order_min + i
        if lo <= e < hi:
            out[e - lo] = t
    return out


def _solve_level(e: int, res, slots, rhs) -> list:
    """Solve (e + ad(R0)) X = rhs on ``slots``: all (a, b) of one
    theta-difference in the common centralizer of the polar part.  Only
    the Levi part R0 of the residue ``res`` (kernel triples) meets these
    slots.  Returns X on the slots as kernel triples."""
    idx = {s: i for i, s in enumerate(slots)}
    k = len(slots)
    n = len(res)
    op = [[K.ZERO] * k for _ in range(k)]
    for i in range(k):
        op[i][i] = (e, 0, 1)
    # ad(R0) E_ab = sum_c R0_ca E_cb - sum_c R0_bc E_ac
    coupled = False
    for (a, b), col in idx.items():
        for c in range(n):
            up = res[c][a]
            if (up[0] or up[1]) and (c, b) in idx:
                op[idx[c, b]][col] = K.qadd(op[idx[c, b]][col], up)
                coupled = coupled or c != a
            down = res[b][c]
            if (down[0] or down[1]) and (a, c) in idx:
                op[idx[a, c]][col] = K.qsub(op[idx[a, c]][col], down)
                coupled = coupled or c != b
    if coupled:
        rows, pivots = rref([row + [r] for row, r in zip(op, rhs)])
        if pivots == list(range(k)):
            return [row[k] for row in rows]
    elif all(op[i][i][0] or op[i][i][1] for i in range(k)):
        return [K.qdiv(r, op[i][i]) for i, r in enumerate(rhs)]
    raise ReductionError(
        "resonant residue: (m + ad(B0)) is singular on the centralizer; "
        "canonical reduction needs a shearing transformation (out of scope)"
    )


def _centralize_grade_zero(cur: LaurentMatrix, theta: Weight, polar, W: int
                           ) -> Tuple[LaurentMatrix, Optional[LaurentMatrix]]:
    """For a boundary weight, the common centralizer of the polar part
    can hold grade-zero entries at z^-1 (theta-difference 1) and z^1
    (theta-difference -1).  They are gauged away first, lowest z-degree
    first, each by I + u, u = w z^m with (m + ad(R0)) w = (the entries at
    z^m), until none is left inside the window.  All of u's entries have
    the theta-difference -m, and an admissible weight has none of +-2, so
    u^2 = 0: I + u = exp(u), with inverse I - u.  Returns the gauged
    connection and the product of the steps, or None when there are no
    such slots.

    The steps interact (a z^1 step brings z^-1 terms back), and each z^-1
    step takes two off the connection's window and one off the gauge's,
    so the window can run out (``_require_residue_window``).  With these
    entries gone, B's grade-zero part on the centralizer is R0 alone, and
    ``_solve_graded`` needs no further step of this kind."""
    n = cur.n
    th = theta.entries
    slots = [(a, b, int(th[b] - th[a])) for a in range(n) for b in range(n)
             if abs(th[a] - th[b]) == 1 and all(d[a] == d[b] for d in polar.values())]
    if not slots:
        return cur, None
    T = int(cur.trunc)
    ident = LaurentMatrix.identity(n, W)
    g0 = ident
    for _ in range(T + 3):
        piece = {(a, b, m): cur.rows[a][b]._coeff(m) for a, b, m in slots}
        live = [m for (_, _, m), t in piece.items() if t[0] or t[1]]
        if not live:
            return cur, g0
        m0 = min(live)
        level = [(a, b) for a, b, m in slots if m == m0]
        r0 = cur.coeff(0).t
        w = _solve_level(m0, r0, level, [piece[a, b, m0] for a, b in level])
        rows = [[K.ZERO] * n for _ in range(n)]
        for (a, b), x in zip(level, w):
            rows[a][b] = x
        u = LaurentMatrix.monomial(CMat._of(rows), m0, W)
        g = ident + u
        cur = gauge_act(g, MeroConnection(cur), ident - u).B
        g0 = mat_mul(g, g0)
    raise InternalError("internal error: centralizer kill did not terminate")


def _drop_undetermined(g: LaurentMatrix, depth, T: int) -> LaurentMatrix:
    """g with every coefficient at (a, b, z^m), m - J_ab >= T, set to 0;
    each entry keeps its own truncation."""
    return LaurentMatrix._of([
        [LaurentSeries._raw(s.order_min, s.coeffs[:max(T + J - s.order_min, 0)], s.trunc)
         for s, J in zip(row, depths)] for row, depths in zip(g.rows, depth)])


def _resolve_trunc(conn: MeroConnection, trunc: Optional[int]) -> int:
    known = conn.B.trunc
    if trunc is not None:
        return int(min(trunc, known)) if known != INF else int(trunc)
    if known != INF:
        return int(known)
    return DEFAULT_TRUNC


def _off_diagonal_in_nonneg_grades(B: LaurentMatrix, theta: Weight) -> bool:
    """True iff every off-diagonal entry sits at grade >= 0.  Diagonal
    content below grade zero is the (legal) polar part; off-diagonal
    content below grade zero is neither polar data nor parahoric tail.
    E_ab z^m has grade theta_a - theta_b + m, so an entry's lowest grade
    sits at its valuation."""
    th = theta.entries
    return all(B.rows[a][b].val() + th[a] - th[b] >= 0
               for a in range(B.n) for b in range(B.n) if a != b)


# ----------------------------------------------------------------------
# irregular-type shape recovery and extraction
# ----------------------------------------------------------------------

def recover_irregular_shape(conn: MeroConnection, theta: Optional[Weight] = None,
                            trunc: Optional[int] = None
                            ) -> Tuple[MeroConnection, LaurentMatrix]:
    """Bring a connection whose polar part is conjugate to a diagonal one
    back to irregular-type shape (``in_irregular_shape``: every
    off-diagonal entry at grade >= 0, so at a boundary weight a z^-1
    entry on a slot of theta-difference one may stay off the diagonal).
    Returns (g . conn, g), g the constant diagonalizer followed by the
    I + X of ``_solve_shape``, the graded solve below grade zero.

    A leading polar coefficient that is not diagonal must be regular
    semisimple with Gaussian-rational eigenvalues (the unramified case at
    desk scale); eigenvalues are ordered canonically by (re, im).
    """
    cur, s_inv, x, _ = _solve_shape(conn, theta, trunc)
    g = x if s_inv is None else mat_mul(x, LaurentMatrix.from_const(s_inv, x.trunc))
    return gauge_act(x, MeroConnection(cur)), g


def _polar_window(conn: MeroConnection, trunc: Optional[int]):
    """(B cut to the resolved truncation T, T).  Coefficients at z^T and
    above are unknown and read as 0; refuses once the leading polar
    coefficient lies among them."""
    T = _resolve_trunc(conn, trunc)
    npole = conn.pole_order
    if T + npole <= 0:
        raise ReductionError(
            f"truncation window lost: the connection is known only below z^{T}, "
            f"so the leading polar coefficient (at z^-{npole}) is undetermined"
        )
    return conn.B.truncate(T), T


def _solve_shape(conn: MeroConnection, theta: Optional[Weight], trunc: Optional[int],
                 keep_shape: bool = False):
    """Conjugate B by the diagonalizer S of its leading coefficient L if
    L is not diagonal (unless ``keep_shape`` and the input is already in
    irregular-type shape), then run ``_solve_graded`` below grade zero
    (``stop=0``) with the depth of L's diagonal alone:
    (I + X) B - z X' = C (I + X) mod z^T, for X of grade in
    (0, pole order) known below z^W, W = T + pole order, and C diagonal
    below grade zero.  A pair with L_a = L_b has depth 0, so content
    between them below grade zero is refused as not recoverable (nested
    splitting).  An input in irregular-type shape that is not conjugated
    comes back with X = 0 and C its own diagonal polar part.  Returns
    (S^-1 B S mod z^T, S^-1 or None, I + X, C's polar part {j: C_-j}).
    """
    n = conn.n
    theta = _resolve_weight(theta, n)
    npole = conn.pole_order
    if npole < 1:
        raise ReductionError("trivial irregular type: nothing to recover")
    B, T = _polar_window(conn, trunc)
    W = T + npole
    s_inv = None
    lead = B.coeff(-npole)
    if not lead.is_diagonal() and not (keep_shape and in_irregular_shape(conn, theta)):
        s = _diagonalizer(lead)
        s_inv = s.inv()
        B = mat_mul(mat_mul(LaurentMatrix.from_const(s_inv, W), B),
                    LaurentMatrix.from_const(s, W))
        lead = B.coeff(-npole)
    depth = _split_depth({npole: _diag_entries(lead)}, n)
    x, polar, _ = _solve_graded(B, theta, depth, W, stop=0)
    return B, s_inv, x, polar


def in_irregular_shape(conn: MeroConnection, theta: Optional[Weight] = None) -> bool:
    """All off-diagonal content at grade >= 0: diagonal polar data plus
    a parahoric tail.  This is the input shape canonical_reduce accepts
    (for boundary weights the tail may dip to z^-1 on slots with
    theta-difference one)."""
    return _off_diagonal_in_nonneg_grades(conn.B, _resolve_weight(theta, conn.n))


def _diagonalizer(m: CMat) -> CMat:
    """Columns are eigenvectors of m, eigenvalues sorted by (re, im);
    requires distinct Gaussian-rational eigenvalues."""
    # Only shape recovery needs eigenvalues; reduction loads no residues.
    from .residues import gaussian_eigenvalues

    eigs = gaussian_eigenvalues(m)
    if any(mult != 1 for _, mult in eigs):
        raise ReductionError(
            "polar leading coefficient is not regular semisimple; "
            "shape recovery needs distinct eigenvalues"
        )
    cols = [nullspace(m - CMat.identity(m.n).scale(lam))[0] for lam, _ in eigs]
    return CMat(zip(*cols))


def extract_irregular_type(conn: MeroConnection, theta: Optional[Weight] = None,
                           trunc: Optional[int] = None) -> IrregularType:
    """The diagonal polar data Q with dQ = (polar part) dz/z, i.e.
    Q = sum_j diag(B_-j) z^-j / (-j) in irregular-type shape; a
    G_theta(K)-gauge invariant, read off the polar part of the shape
    solve (``_solve_shape`` with ``keep_shape``, so that an in-shape
    input is not conjugated and the solve reproduces its own).
    Only coefficients below z^trunc are known (``_polar_window``).  No
    gauge is applied and no reduction runs: Q ignores residue and tail,
    so only shape and window errors raise."""
    theta = _resolve_weight(theta, conn.n)
    polar = _solve_shape(conn, theta, trunc, keep_shape=True)[3] if conn.pole_order >= 1 else {}
    return IrregularType.from_polar(conn.n, polar)


def connection_from_irregular_type(q: IrregularType, residue: CMat,
                                   tail: Optional[LaurentMatrix] = None,
                                   trunc=INF) -> MeroConnection:
    """Assemble d + (dQ + residue + tail) dz/z."""
    B = q.polar_connection_part() + LaurentMatrix.from_const(residue)
    if tail is not None:
        B = B + tail
    return MeroConnection(B.truncate(trunc))
