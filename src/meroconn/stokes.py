"""Anti-Stokes directions, Stokes groups, half-periods, dimension counts.

Convention: q_r(z) = r(Q(z)) literally (differences of the diagonal
entries of the irregular type), not r(dQ); the connection-side dQ
convention lives in the connection module and the CLI translates.

A root r with most singular term c/z^k supports the directions
phi = (arg(c) - pi + 2*pi*m)/k, m = 0..k-1 (where c/z^k is real and
negative, i.e. exp(q_r) has maximal decay).  Their principal values
come from the octant form of arg(c), a multiple of pi/4 or (o/4)*pi +
arg(w) with arg(w) in (0, pi/4): phi lies at a multiple of pi/(4k) or
strictly before the next one, so its branch mod 2*pi is read off the
rational part exactly, without an interval: in units of pi/(4k) the
rational part is an integer, reduced mod 8k.  Directions arising from
different roots are sorted and merged by one sweep over 64-bit
enclosures (``angles.exact_runs``): exact comparison runs only among
directions whose enclosures overlap.

Opposite roots pair up: q_{-r} = -q_r, so c_{-r} = -c_r, whose argument
differs from arg(c_r) by pi and is written with the same arg(w) up to a
factor 4 in w.  The leading data are evaluated for one root of each
pair, the irrational part of the direction enclosures is computed once
per pair, and the decay sign of -r along a direction is minus that of r.

The leading data are computed once per diagram: ``anti_stokes`` keeps
each upper root's (r, k_r, arg(c_r)) on the ``StokesDiagram``, where
``half_periods`` reads them along with the 64-bit enclosure cached on
each arg(c_r).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from . import _kernel as K
from .angles import (AngleExpr, _quarter_sign, arg_angle, cos_sign, exact_runs,
                     opposite_arg_angle, pi_enclosure, terms_enclosure)
from .field import CMat, GaussRat
from .rootdata import IrregularType, ParabolicSpec, Root


class StokesError(ValueError):
    pass


@dataclass(frozen=True)
class AntiStokesDirection:
    """A merged anti-Stokes direction with its supporting roots.

    ``support`` maps each supporting root to (k_r, c_r): the order and
    coefficient of the most singular term of q_r."""

    angle: AngleExpr
    support: Tuple[Tuple[Root, int, GaussRat], ...]

    def roots(self) -> List[Root]:
        return [r for r, _, _ in self.support]


@dataclass(frozen=True)
class HalfPeriodData:
    p_plus: ParabolicSpec
    p_minus: ParabolicSpec
    u_plus: frozenset
    u_minus: frozenset
    delta: AngleExpr


class StokesDiagram:
    """Cyclically ordered anti-Stokes directions of an irregular type."""

    def __init__(self, q: IrregularType, directions: List[AntiStokesDirection],
                 k: int, uniform_k: bool):
        self.q = q
        self.directions = list(directions)
        self.k = k
        self.uniform_k = uniform_k
        self._leading = None

    def leading_data(self) -> List[Tuple[Root, int, AngleExpr]]:
        """(r, k_r, arg(c_r)) for the roots e_i - e_j with i < j and
        q_r != 0: kept by ``anti_stokes``, which computed them, and
        computed from q on first use for a diagram built directly."""
        if self._leading is None:
            self._leading = [(r, k_r, arg_angle(c_r))
                             for r, k_r, c_r in _upper_leading_data(self.q)]
        return self._leading

    @property
    def num_directions(self) -> int:
        return len(self.directions)

    @property
    def l(self) -> Optional[int]:
        """#A / 2k when the symmetry applies (uniform leading order and
        integral quotient); None otherwise."""
        if not self.uniform_k or self.k == 0:
            return None
        num = len(self.directions)
        if num % (2 * self.k) != 0:
            return None
        return num // (2 * self.k)

    def angles(self) -> List[AngleExpr]:
        return [d.angle for d in self.directions]

    def __repr__(self):
        return (f"StokesDiagram(n={self.q.n}, #A={self.num_directions}, "
                f"k={self.k}, l={self.l})")


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def anti_stokes(q: IrregularType) -> StokesDiagram:
    """Enumerate the anti-Stokes directions of q with exact angles."""
    # Every q_r vanishes exactly when Q is scalar; that takes O(n) to
    # see, where the root scan below takes O(n^2).
    if all(len(set(ent)) == 1 for ent in q.coeffs.values()):
        raise StokesError(
            "trivial irregular type for the adjoint action "
            "(all q_r vanish; no anti-Stokes directions)"
        )
    upper = [(r, k_r, c_r, arg_angle(c_r)) for r, k_r, c_r in _upper_leading_data(q)]
    raw: List[AngleExpr] = []
    enclosures = []
    sources: List[Tuple[Root, int, GaussRat]] = []
    pair_terms = {}
    for r, k_r, c_r, arg in _root_leading_data(upper):
        phis = _directions(arg, k_r)
        # e_i - e_j with i < j comes first; -r reuses its arg-term enclosure
        if r.i < r.j:
            pair_terms[r.i, r.j] = terms_enclosure(phis[0].terms)
        tlo, thi = pair_terms[min(r.i, r.j), max(r.i, r.j)]
        for phi in phis:
            raw.append(phi)
            p = phi.pi_part
            lo, hi = pi_enclosure(p.numerator, p.denominator)
            enclosures.append((lo + tlo, hi + thi))
            sources.append((r, k_r, c_r))
    # Each run of equal angles starts with its first raw representative,
    # whose expression the merged direction keeps.
    directions = [
        AntiStokesDirection(raw[run[0]], tuple(sorted(
            (sources[i] for i in run), key=lambda t: (t[0].i, t[0].j))))
        for run in exact_runs(raw, enclosures)
    ]
    orders = {k_r for _, k_r, _, _ in upper}
    diagram = StokesDiagram(q, directions, max(orders), len(orders) == 1)
    diagram._leading = [(r, k_r, arg) for r, k_r, _, arg in upper]
    return diagram


def _directions(base: AngleExpr, k_r: int) -> List[AngleExpr]:
    """(base + (2m - 1)*pi)/k_r in [0, 2*pi) for m = 0..k_r-1, for
    base = arg_angle(c).

    base is p0*pi with p0 a multiple of 1/4, or (o/4)*pi + arg(w) with
    arg(w) in (0, pi/4).  With p = (p0 + 2m - 1)/k_r the angle lies in
    [p*pi, p*pi + pi/(4k_r)), whose ends are consecutive multiples of
    pi/(4k_r); no multiple of 2*pi lies strictly inside, so the branch
    is floor(p/2) exactly.  In units of 1/(4k_r), p is the integer
    4*p0 + 8m - 4, and p mod 2 is that integer mod 8k_r."""
    terms = tuple((q / k_r, w) for q, w in base.terms)
    p0 = base.pi_part
    first = 4 * p0.numerator // p0.denominator - 4
    turn = 8 * k_r
    return [AngleExpr(Fraction((first + 8 * m) % turn, 4 * k_r), terms) for m in range(k_r)]


def stokes_group_basis(diag: StokesDiagram, d: int) -> List[Root]:
    """The set R(d) of roots supporting direction d; the Stokes group
    Sto_d consists of the unipotent matrices supported exactly there."""
    return diag.directions[d].roots()


def rotate_angle_set_invariant(diag: StokesDiagram) -> bool:
    """Exact check that the direction set is invariant under rotation by
    pi/k (valid for a uniform leading order)."""
    if not diag.uniform_k:
        return False
    step = Fraction(1, diag.k)
    angles = diag.angles()
    shifted = [a.shift_pi(step).principal() for a in angles]
    # both lists hold distinct angles in [0, 2*pi): equal as sets iff
    # equal term by term once sorted
    order = [i for run in exact_runs(shifted) for i in run]
    return all(shifted[i].compare(b) == 0 for i, b in zip(order, angles))


# ----------------------------------------------------------------------
# half-periods
# ----------------------------------------------------------------------

def half_periods(diag: StokesDiagram, d1: int = 0) -> HalfPeriodData:
    """Parabolic pair (P_+, P_-) attached to the half-period starting at
    direction index d1.

    A generic test direction delta is taken inside the gap after the
    half-period; R_+ collects the roots whose exp(q_r) decays along
    delta (certified nonzero real part), and P_+ is generated by R_+
    together with the Levi roots of the stabilizer of Q.
    """
    l = diag.l
    if l is None:
        raise StokesError(
            "half-period structure undefined for mixed leading orders"
        )
    num = diag.num_directions
    last = diag.directions[(d1 + l - 1) % num].angle
    nxt = diag.directions[(d1 + l) % num].angle
    gap = (nxt - last).principal()
    if gap.is_zero():
        gap = AngleExpr.of_pi(2)

    # one root of each opposite pair: -r decays exactly where r grows
    roots = diag.leading_data()
    for attempt in range(16):
        delta = (last + gap.scale(Fraction(1, 2 + attempt))).principal()
        signs = _decay_signs(roots, delta)
        if signs is not None:
            break
    else:
        raise StokesError("could not certify a generic test direction")

    r_plus = {r if sign < 0 else -r for (r, _, _), sign in zip(roots, signs)}
    r_minus = {-r for r in r_plus}
    order = _order_blocks(diag.q.levi_blocks(), r_plus)
    p_plus = ParabolicSpec(order)
    p_minus = ParabolicSpec(list(reversed(order)))
    return HalfPeriodData(
        p_plus=p_plus,
        p_minus=p_minus,
        u_plus=frozenset(r_plus),
        u_minus=frozenset(r_minus),
        delta=delta,
    )


def _decay_signs(roots, delta: AngleExpr) -> Optional[List[int]]:
    """The sign of cos(arg(c_r) - k_r delta), i.e. of Re(q_r) along
    delta, for each (r, k_r, arg(c_r)); None as soon as one is 0 (delta
    is not generic).  A 64-bit enclosure of arg(c_r) - k_r delta,
    composed from the enclosures kept on arg(c_r) and delta, is read by
    the quarter-turn rule of ``cos_sign``; only one that meets a
    multiple of pi/2 builds the exact expression for ``cos_sign``."""
    dlo, dhi = delta._enclosure()
    signs = []
    for _, k_r, arg in roots:
        alo, ahi = arg._enclosure()
        sign = _quarter_sign((alo - k_r * dhi, ahi - k_r * dlo))
        if sign is None:
            sign = cos_sign(arg - delta.scale(k_r))
            if sign == 0:
                return None
        signs.append(sign)
    return signs


def _root_leading_data(upper) -> List[Tuple[Root, int, GaussRat, AngleExpr]]:
    """(r, k_r, c_r, arg(c_r)) for every root with q_r != 0, for e_i - e_j
    in the order of i, then j, from ``upper``, the same for the roots
    with i < j.  -r has (k_r, -c_r), since q_{-r} = -q_r, and the
    argument of -c_r follows from that of c_r without an octant
    reduction (``opposite_arg_angle``)."""
    rows = {}
    for r, k_r, c_r, arg in upper:
        rows[r.i, r.j] = (r, k_r, c_r, arg)
        rows[r.j, r.i] = (-r, k_r, -c_r, opposite_arg_angle(arg))
    return [rows[key] for key in sorted(rows)]


def _upper_leading_data(q: IrregularType) -> List[Tuple[Root, int, GaussRat]]:
    """(r, k_r, c_r) for the roots e_i - e_j with i < j and q_r != 0."""
    out = []
    for i in range(q.n):
        for j in range(i + 1, q.n):
            series = q.root_series(i, j)
            if series:
                lead = min(series)
                out.append((Root(i, j), -lead, series[lead]))
    return out


def _order_blocks(blocks: List[List[int]], r_plus) -> List[List[int]]:
    """Sort Levi blocks so that roots from earlier to later blocks lie
    in R_+ (well defined: q_r is constant across a block pair and the
    decay relation is a total order by closure under addition)."""
    plus_pairs = {(r.i, r.j) for r in r_plus}

    def cmp(a: List[int], b: List[int]) -> int:
        if (a[0], b[0]) in plus_pairs:
            return -1
        if (b[0], a[0]) in plus_pairs:
            return 1
        raise StokesError("block ordering undefined: missing decay relation")

    return sorted(blocks, key=functools.cmp_to_key(cmp))


# ----------------------------------------------------------------------
# dimension bookkeeping and groupoid presentation
# ----------------------------------------------------------------------

def stokes_dim_check(diag: StokesDiagram, half: Optional[HalfPeriodData] = None
                     ) -> Tuple[int, int]:
    """lhs = dim prod_d Sto_d = sum #R(d);
    rhs = k * (#U_+ + #U_-) from the (U_+ x U_-)^k product structure."""
    if half is None:
        half = half_periods(diag)
    lhs = sum(len(d.support) for d in diag.directions)
    rhs = diag.k * (len(half.u_plus) + len(half.u_minus))
    return lhs, rhs


@dataclass(frozen=True)
class GroupoidPresentation:
    """Generator bookkeeping for the fundamental groupoid of the
    irregular curve: handles, one boundary loop and one Stokes loop per
    anti-Stokes direction at each puncture, plus connecting paths."""

    genus: int
    handle_generators: Tuple[str, ...]
    puncture_loops: Tuple[str, ...]
    stokes_loops: Tuple[Tuple[str, ...], ...]
    connecting_paths: Tuple[str, ...]
    relation_word: Tuple[str, ...]

    @property
    def relation_length(self) -> int:
        return len(self.relation_word)


def groupoid_presentation(genus: int, diagrams: List[StokesDiagram]
                          ) -> GroupoidPresentation:
    """Presentation data used by the Betti side to size representation
    tuples.  The defining relation word counts, per puncture, the
    boundary loop and the formal monodromy plus its Stokes loops."""
    handles = tuple(
        name for i in range(1, genus + 1) for name in (f"a{i}", f"b{i}")
    )
    loops = tuple(f"gamma_{x}" for x in range(1, len(diagrams) + 1))
    stokes = tuple(
        tuple(f"s_{x+1},{j+1}" for j in range(d.num_directions))
        for x, d in enumerate(diagrams)
    )
    connectors = tuple(f"c_{x}" for x in range(2, len(diagrams) + 1))
    word: List[str] = []
    for i in range(1, genus + 1):
        word += [f"a{i}", f"b{i}", f"a{i}^-1", f"b{i}^-1"]
    for x, d in enumerate(diagrams, start=1):
        word.append(f"gamma_{x}^-1")
        word.append(f"h_{x}")
        word += [f"s_{x},{j}" for j in range(d.num_directions, 0, -1)]
    return GroupoidPresentation(
        genus=genus,
        handle_generators=handles,
        puncture_loops=loops,
        stokes_loops=stokes,
        connecting_paths=connectors,
        relation_word=tuple(word),
    )


# ----------------------------------------------------------------------
# Stokes factors
# ----------------------------------------------------------------------

def stokes_factor_defect(diag: StokesDiagram, d: int, m: CMat) -> Optional[str]:
    """None when m lies in Sto_d (unipotent and supported on the roots
    R(d)); otherwise what is wrong with it, at the first bad entry."""
    allowed = {(r.i, r.j) for r in stokes_group_basis(diag, d)}
    for i, row in enumerate(m.t):
        for j, x in enumerate(row):
            if i == j:
                if x != K.ONE:
                    return "not unipotent"
            elif (i, j) not in allowed and (x[0] or x[1]):
                return "supported outside its root set"
    return None


def stokes_factor_matrix(diag: StokesDiagram, d: int, entries) -> CMat:
    """Build a Stokes factor from {root: coefficient} for direction d."""
    n = diag.q.n
    rows = [[GaussRat(1) if i == j else GaussRat(0) for j in range(n)] for i in range(n)]
    allowed = {(r.i, r.j) for r in stokes_group_basis(diag, d)}
    for root, c in entries.items():
        if (root.i, root.j) not in allowed:
            raise StokesError(f"root {root} does not support direction {d}")
        rows[root.i][root.j] = c if isinstance(c, GaussRat) else GaussRat(c)
    return CMat(rows)
