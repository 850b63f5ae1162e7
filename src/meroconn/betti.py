"""Stokes representations: the defining relation, the group action,
filtered structure, degree and R-stability.

A representation is the tuple (A_i, B_i; C_x, h_x, S_{x,j}) subject to

    prod_i [A_i, B_i] * prod_x (C_x^-1 h_x S_{x,#A} ... S_{x,1} C_x) = Id.

Membership of h_x in the stabilizer of Q_x is enforced structurally
(block-diagonal for the level sets of Q_x); Stokes factors must be
supported on the roots of their direction.

Stability quantifies over the maximal invariant (torus-containing)
proper parabolics compatible with the tuple, each with its one
fundamental-cut character, trivial on the center.  For GL_n a maximal
parabolic is the stabilizer of one coordinate subspace: the ordered
two-block partitions (A, rest), the first 2^n - 2 entries of the per-n
table ``rootdata.proper_parabolics``.  They decide the same status as
every parabolic with every anti-dominant character (A. Ramanathan,
"Stable principal bundles on a compact Riemann surface", Math. Ann. 213,
1975): a flag's fundamental cut characters are those of its two-block
coarsenings, a coarsening admits whatever the flag admits, and degree is
linear in the character, so positivity on the generators decides the
cone.  For GL_n this is subobject (slope) stability, as in Biquard and
Boalch, "Wild non-abelian Hodge theory on curves", Compositio Math. 140
(2004).

Compatibility is decided on the generators' joint support: a parabolic
contains every generator iff it forbids no entry where some generator is
nonzero.  That is one integer test per maximal parabolic:
``ParabolicSpec.admits`` on the OR of the generators' nonzero patterns,
``StokesRep.support``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .field import CMat
from .rootdata import (Character, ParabolicSpec, Weight, pairing,
                       parabolic_from_weight, parahoric_degree,
                       proper_parabolics)
from .stokes import StokesDiagram, stokes_factor_defect


class BettiError(ValueError):
    pass


@dataclass(frozen=True)
class PunctureData:
    """Local tuple at one puncture: conjugator, formal monodromy, Stokes
    factors aligned with the diagram's direction order."""

    diagram: StokesDiagram
    C: CMat
    h: CMat
    S: Tuple[CMat, ...]

    def __post_init__(self):
        self.validate()

    def validate(self):
        n = self.diagram.q.n
        for m in (self.C, self.h, *self.S):
            if m.n != n:
                raise BettiError("dimension mismatch among factors")
        if len(self.S) != self.diagram.num_directions:
            raise BettiError("one Stokes factor required per anti-Stokes direction")
        if not self.h.is_block_diagonal(self.diagram.q.levi_blocks()):
            raise BettiError(
                "formal monodromy leaves the stabilizer of the irregular type"
            )
        for d, s in enumerate(self.S):
            defect = stokes_factor_defect(self.diagram, d, s)
            if defect:
                raise BettiError(f"Stokes factor {d} {defect}")

    def local_word(self) -> CMat:
        """C^-1 h S_#A ... S_1 C."""
        acc = self.h
        for s in reversed(self.S):
            acc = acc * s
        return self.C.inv() * acc * self.C


@dataclass(frozen=True)
class StokesRep:
    """A point of the representation variety for a genus-g surface with
    punctures carrying irregular types."""

    genus: int
    handles: Tuple[Tuple[CMat, CMat], ...]
    punctures: Tuple[PunctureData, ...]

    def __post_init__(self):
        if len(self.handles) != self.genus:
            raise BettiError("need one (A, B) pair per handle")

    @property
    def n(self) -> int:
        if self.punctures:
            return self.punctures[0].diagram.q.n
        return self.handles[0][0].n

    def generators(self) -> List[CMat]:
        gens: List[CMat] = []
        for a, b in self.handles:
            gens += [a, b]
        for p in self.punctures:
            gens.append(p.C)
            gens.append(p.h)
            gens.extend(p.S)
        return gens

    def support(self) -> int:
        """The generators' joint nonzero pattern, in ``CMat.support``'s
        layout: a parabolic contains every generator iff it admits this."""
        bits = 0
        for m in self.generators():
            bits |= m.support()
        return bits


def check_relation(rep: StokesRep) -> bool:
    """Evaluate the defining product exactly and compare with Id."""
    n = rep.n
    acc = CMat.identity(n)
    for a, b in rep.handles:
        acc = acc * (a * b * a.inv() * b.inv())
    for p in rep.punctures:
        acc = acc * p.local_word()
    return acc == CMat.identity(n)


def group_act(g: CMat, ks: Sequence[CMat], rep: StokesRep) -> StokesRep:
    """(g, k_x) action: handles by conjugation, and per puncture
    (C, h, S_j) -> (k C g^-1, k h k^-1, k S_j k^-1).  Each k_x must lie
    in the stabilizer of its irregular type."""
    if len(ks) != len(rep.punctures):
        raise BettiError("need one stabilizer element per puncture")
    g_inv = g.inv()
    new_handles = tuple((g * a * g_inv, g * b * g_inv) for a, b in rep.handles)
    new_punctures = []
    for p, k in zip(rep.punctures, ks):
        if not k.is_block_diagonal(p.diagram.q.levi_blocks()):
            raise BettiError("k_x outside the stabilizer H_x")
        k_inv = k.inv()
        new_punctures.append(
            PunctureData(
                diagram=p.diagram,
                C=k * p.C * g_inv,
                h=k * p.h * k_inv,
                S=tuple(k * s * k_inv for s in p.S),
            )
        )
    return StokesRep(rep.genus, new_handles, tuple(new_punctures))


# ----------------------------------------------------------------------
# filtered structure, degree, stability
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FilteredStokesRep:
    """A Stokes representation with one Betti weight per puncture; the
    formal monodromies must respect the weight parabolics."""

    rep: StokesRep
    weights: Tuple[Weight, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.rep.punctures):
            raise BettiError("need one weight per puncture")
        for p, w in zip(self.rep.punctures, self.weights):
            if w.n != self.rep.n:
                raise BettiError(
                    f"weight of length {w.n} for a rank-{self.rep.n} representation"
                )
            if not parabolic_from_weight(w).contains_matrix(p.h):
                raise BettiError(
                    "formal monodromy leaves the parabolic of its weight"
                )


@dataclass(frozen=True)
class StabilityVerdict:
    status: str  # "stable" | "semistable" | "unstable"
    witnesses: Tuple[Tuple[ParabolicSpec, Character, Fraction], ...]


def is_compatible(f: FilteredStokesRep, p: ParabolicSpec) -> bool:
    """All generator matrices lie in P (then every path image does),
    decided on their joint support."""
    return p.admits(f.rep.support())


def degree_loc(f: FilteredStokesRep, p: ParabolicSpec, chi: Character) -> Fraction:
    """sum_x <gamma_x, chi> for a compatible parabolic and a character
    constant on its blocks."""
    if not is_compatible(f, p):
        raise BettiError("parabolic is not compatible with the representation")
    for b in p.blocks:
        if len({chi.entries[i] for i in b}) != 1:
            raise BettiError("character is not constant on the Levi blocks")
    return parahoric_degree(0, f.weights, chi)


def degree_zero(f: FilteredStokesRep) -> bool:
    """Degree against every character of the full group vanishes; the
    determinant generates them, so this is total weight sum zero."""
    return sum(
        (e for w in f.weights for e in w.entries), Fraction(0)
    ) == 0


def _maximal_compatible(support: int, n: int) -> List[ParabolicSpec]:
    """The maximal parabolics (A, rest) that admit ``support``, in table
    order.  ``proper_parabolics`` sorts by the number of blocks, so they
    are its first 2^n - 2 entries, one per proper nonempty subset A."""
    return [p for p in proper_parabolics(n)[:2 ** n - 2] if p.admits(support)]


def check_stability(f: FilteredStokesRep) -> StabilityVerdict:
    """R-stability over the invariant compatible maximal parabolics: the
    sign of the degree at the one fundamental cut character of each.
    That decides the same status as every compatible parabolic with each
    of its cut characters (Ramanathan; see the module docstring), and the
    witnesses are the pairs of the maximal ones, one per coordinate
    subspace, where a flag would repeat a (character, degree) pair once
    per refinement.  The cut character is constant on the blocks, so the
    degree is taken without ``degree_loc``'s checks, as its pairing with
    the weight sum over the punctures."""
    n = f.rep.n
    if n > 5:
        raise BettiError("stability guard: dimension > 5")
    theta = sum(f.weights, Weight([0] * n))
    neg = []
    zero = []
    for p in _maximal_compatible(f.rep.support(), n):
        (chi,) = p.fundamental_cut_characters()
        d = pairing(theta, chi)
        if d < 0:
            neg.append((p, chi, d))
        elif d == 0:
            zero.append((p, chi, d))
    if neg:
        return StabilityVerdict("unstable", tuple(neg))
    if zero:
        return StabilityVerdict("semistable", tuple(zero))
    return StabilityVerdict("stable", ())


def irreducible(rep: StokesRep) -> bool:
    """No invariant maximal parabolic is compatible, decided on the
    generators' joint support: no coordinate subspace is invariant, which
    holds iff no proper parabolic is compatible, as each lies in a
    maximal one.  Used as the oracle for the trivial-weight stability
    statement."""
    return not _maximal_compatible(rep.support(), rep.n)
