"""Root data for GL_n with the diagonal maximal torus.

Weights are rational cocharacter vectors; roots are e_i - e_j; a
parabolic containing the torus is an ordered partition of the index set
into blocks (entry (i, j) allowed iff block(i) <= block(j)).  Characters
are integer vectors constant on the blocks.

The group is modeled concretely as GL_n: SL_n is handled by restricting
characters to sum zero, which is also the "trivial on scalars" condition
used by the stability checkers.

An irregular type Q in t(K)/t(R) is torus data too: ``IrregularType``
stores its diagonal polar coefficients, ``root_series`` gives r(Q) and
``levi_blocks`` the blocks of its stabilizer.  The module loads no
Laurent series or matrices at import, so the Stokes and Betti sides
read irregular types without them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .field import GaussRat, entry_mask

# Laurent series and matrices are imported inside the functions that
# build or test them.
if TYPE_CHECKING:
    from .field import CMat
    from .lmatrix import LaurentMatrix


@dataclass(frozen=True)
class Root:
    """The root e_i - e_j (0-based indices, i != j)."""

    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("a root needs distinct indices")

    def __neg__(self):
        return Root(self.j, self.i)

    def pairing(self, theta: "Weight") -> Fraction:
        """r(theta) = theta_i - theta_j."""
        return theta.entries[self.i] - theta.entries[self.j]


def all_roots(n: int):
    return [Root(i, j) for i in range(n) for j in range(n) if i != j]


class Weight:
    """Rational cocharacter vector (theta_1, ..., theta_n).

    Admissible weights satisfy r(theta) <= 1 for every root; Betti-side
    arithmetic can produce vectors outside that window, so validation is
    opt-out rather than a hard invariant.
    """

    __slots__ = ("entries",)

    def __init__(self, entries, validate: bool = True):
        entries = tuple(Fraction(e) for e in entries)
        object.__setattr__(self, "entries", entries)
        if validate and not self.is_admissible():
            raise ValueError("weight violates r(theta) <= 1 for some root")

    def __setattr__(self, *a):
        raise AttributeError("Weight is immutable")

    @property
    def n(self) -> int:
        return len(self.entries)

    def is_admissible(self) -> bool:
        es = self.entries
        return all(a - b <= 1 for a in es for b in es)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def scale(self, c) -> "Weight":
        return Weight([e * Fraction(c) for e in self.entries], validate=False)

    def __add__(self, other):
        return Weight(
            [a + b for a, b in zip(self.entries, other.entries)], validate=False
        )

    def __sub__(self, other):
        return Weight(
            [a - b for a, b in zip(self.entries, other.entries)], validate=False
        )

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Weight({list(map(str, self.entries))})"


@dataclass(frozen=True)
class Character:
    """Integer vector (chi_1, ..., chi_n), constant on Levi blocks when
    attached to a parabolic."""

    entries: Tuple[int, ...]

    def __init__(self, entries):
        object.__setattr__(self, "entries", tuple(int(e) for e in entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    def is_trivial_on_scalars(self) -> bool:
        return sum(self.entries) == 0

    def __add__(self, other):
        return Character([a + b for a, b in zip(self.entries, other.entries)])


class ParabolicSpec:
    """Block-upper parabolic given by an ordered partition of {0..n-1}.

    ``below`` is the set of entries the parabolic forbids,
    ``field.entry_mask(n, block(i) > block(j))``.  A matrix, or a set of
    matrices with joint nonzero pattern ``support``, lies in the
    parabolic iff ``not (below & support)``: the field module's one
    pattern rule.
    """

    __slots__ = ("n", "blocks", "_block_of", "below")

    def __init__(self, blocks: Sequence[Sequence[int]]):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        idx = [i for b in blocks for i in b]
        n = len(idx)
        if sorted(idx) != list(range(n)):
            raise ValueError("blocks must partition {0..n-1}")
        block_of = [0] * n
        for k, b in enumerate(blocks):
            for i in b:
                block_of[i] = k
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_block_of", tuple(block_of))
        object.__setattr__(self, "below",
                           entry_mask(n, lambda i, j: block_of[i] > block_of[j]))

    def __setattr__(self, *a):
        raise AttributeError("ParabolicSpec is immutable")

    def root_subset(self):
        """All roots r with U_r inside the parabolic."""
        return {
            Root(i, j)
            for i in range(self.n)
            for j in range(self.n)
            if i != j and self._block_of[i] <= self._block_of[j]
        }

    def admits(self, support: int) -> bool:
        """True iff every matrix whose nonzero pattern lies inside
        ``support`` lies in the parabolic."""
        return not (self.below & support)

    def contains_matrix(self, m: CMat) -> bool:
        """Entry (i, j) must vanish whenever block(i) > block(j)."""
        return self.admits(m.support())

    def character_from_block_values(self, values) -> Character:
        ent = [0] * self.n
        for k, b in enumerate(self.blocks):
            for i in b:
                ent[i] = int(values[k])
        return Character(ent)

    def is_anti_dominant(self, chi: Character) -> bool:
        """chi_i <= chi_j whenever e_i - e_j is a root of the parabolic
        outside the Levi (block(i) < block(j)); requires block constancy."""
        vals = []
        for b in self.blocks:
            v = {chi.entries[i] for i in b}
            if len(v) != 1:
                return False
            vals.append(v.pop())
        return all(vals[k] <= vals[k + 1] for k in range(len(vals) - 1))

    def fundamental_cut_characters(self):
        """Generators of the anti-dominant cone trivial on scalars.

        For each block boundary p, the character that is -(size of the
        tail) on the first p blocks and +(size of the head) on the rest.
        Every anti-dominant character trivial on scalars is a nonnegative
        rational combination of these.
        """
        sizes = [len(b) for b in self.blocks]
        total = sum(sizes)
        out = []
        for p in range(1, len(self.blocks)):
            head = sum(sizes[:p])
            tail = total - head
            values = [-tail] * p + [head] * (len(self.blocks) - p)
            out.append(self.character_from_block_values(values))
        return out

    def conjugate_by_permutation(self, perm) -> "ParabolicSpec":
        """Relabel indices by i -> perm[i]."""
        return ParabolicSpec([[perm[i] for i in b] for b in self.blocks])

    def __eq__(self, other):
        if not isinstance(other, ParabolicSpec):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"ParabolicSpec({[list(b) for b in self.blocks]})"


class IrregularType:
    """Diagonal polar data Q = sum_j diag(c_j) z^-j (class of t(K)/t(R)).

    ``degree`` is the pole order of Q as a function; a trivial Q (no
    negative part) is allowed, matching the logarithmic case.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Dict[int, Tuple[GaussRat, ...]]):
        clean = {}
        for j, ent in coeffs.items():
            j = int(j)
            if j < 1:
                raise ValueError("irregular type stores exponents z^-j with j >= 1")
            ent = tuple(e if isinstance(e, GaussRat) else GaussRat(e) for e in ent)
            if len(ent) != n:
                raise ValueError("coefficient length mismatch")
            if any(not e.is_zero() for e in ent):
                clean[j] = ent
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    def __setattr__(self, *a):
        raise AttributeError("IrregularType is immutable")

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def entry(self, i: int) -> Dict[int, GaussRat]:
        """The scalar q_i as {exponent: coefficient} with negative exponents."""
        return {-j: ent[i] for j, ent in self.coeffs.items()}

    def levi_blocks(self, *finer) -> List[List[int]]:
        """Index blocks on which Q's diagonal entries, and each sequence
        in ``finer``, are constant, in order of their first index: the
        stabilizer H = Z_G(Q) is block-diagonal for the blocks of Q."""
        blocks: Dict[tuple, List[int]] = {}
        for i in range(self.n):
            key = (tuple(ent[i] for ent in self.coeffs.values()),) + tuple(f[i] for f in finer)
            blocks.setdefault(key, []).append(i)
        return list(blocks.values())

    def root_series(self, i: int, k: int) -> Dict[int, GaussRat]:
        """q_r = r(Q) for the root e_i - e_k."""
        out = {}
        for j, ent in self.coeffs.items():
            c = ent[i] - ent[k]
            if not c.is_zero():
                out[-j] = c
        return out

    def half(self) -> "IrregularType":
        half = GaussRat(Fraction(1, 2))
        return IrregularType(
            self.n, {j: tuple(e * half for e in ent) for j, ent in self.coeffs.items()}
        )

    def scale(self, c) -> "IrregularType":
        c = c if isinstance(c, GaussRat) else GaussRat(c)
        return IrregularType(
            self.n, {j: tuple(e * c for e in ent) for j, ent in self.coeffs.items()}
        )

    def polar_connection_part(self) -> LaurentMatrix:
        """The polar matrix P with dQ = P dz/z, i.e. P = sum (-j c_j) z^-j."""
        from .lmatrix import LaurentMatrix
        from .series import LaurentSeries

        rows = [
            [LaurentSeries.zero() for _ in range(self.n)] for _ in range(self.n)
        ]
        for j, ent in self.coeffs.items():
            for i in range(self.n):
                rows[i][i] = rows[i][i] + LaurentSeries.monomial(ent[i] * GaussRat(-j), -j)
        return LaurentMatrix(rows)

    @classmethod
    def from_polar(cls, n: int, polar: Dict[int, CMat]) -> "IrregularType":
        """The Q with dQ = sum_j B_-j z^-j dz/z on the diagonal, i.e.
        Q_j = diag(B_-j) / -j; the inverse of ``polar_connection_part``."""
        return cls(n, {j: tuple(m[i, i] / GaussRat(-j) for i in range(n))
                       for j, m in polar.items()})

    def __eq__(self, other):
        if not isinstance(other, IrregularType):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        return f"IrregularType(n={self.n}, degree={self.degree})"


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def m_r(theta: Weight, r: Root) -> int:
    """ceil(-r(theta)): valuation bound for the root group U_r inside
    the parahoric subgroup."""
    return math.ceil(-r.pairing(theta))


def pairing(theta: Weight, chi: Character) -> Fraction:
    return sum(
        (t * c for t, c in zip(theta.entries, chi.entries)), Fraction(0)
    )


def parahoric_degree(deg_l: int, thetas: Sequence[Weight], chi: Character) -> Fraction:
    """deg L + sum over punctures of <theta_x, chi>."""
    return Fraction(deg_l) + sum((pairing(t, chi) for t in thetas), Fraction(0))


def lie_parahoric_member(a: LaurentMatrix, theta: Weight) -> bool:
    """Entrywise: val(a_ij) + theta_i - theta_j >= 0."""
    from .series import INF

    for i in range(a.n):
        for j in range(a.n):
            v = a.rows[i][j].val()
            if v == INF:
                continue
            if v + theta.entries[i] - theta.entries[j] < 0:
                return False
    return True


def parahoric_member(g: LaurentMatrix, theta: Weight) -> bool:
    """Group version: g must be invertible in G(K), z^theta g z^-theta
    bounded as z -> 0 (same entrywise valuation test), and det g a unit
    of R, i.e. of valuation 0 with a nonzero constant term known at the
    series' truncation."""
    from .lmatrix import laurent_det
    from .series import INF

    det = laurent_det(g)
    if det.is_zero():
        if g.trunc == INF:
            raise ZeroDivisionError("g is not invertible in G(K)")
        raise ZeroDivisionError(
            "cannot certify invertibility of g at this truncation"
        )
    return det.val() == 0 and lie_parahoric_member(g, theta)


def parabolic_from_weight(theta: Weight) -> ParabolicSpec:
    """Blocks are the level sets of theta, ordered by descending value,
    so the root subset is exactly { r : r(theta) >= 0 }."""
    levels = sorted(set(theta.entries), reverse=True)
    blocks = [
        [i for i, e in enumerate(theta.entries) if e == lv] for lv in levels
    ]
    return ParabolicSpec(blocks)


# n -> every proper parabolic containing the torus, built on first use
_PARABOLICS: Dict[int, Tuple[ParabolicSpec, ...]] = {}


def proper_parabolics(n: int) -> Tuple[ParabolicSpec, ...]:
    """All proper parabolics containing the diagonal torus: one per
    ordered partition of {0..n-1} into at least two blocks, sorted by
    (number of blocks, blocks), so its first 2^n - 2 entries are the
    maximal parabolics (A, rest), which ``betti`` reads.  The ordered
    partitions into k blocks are the surjections onto the block labels
    0..k-1.  The table is built once per n and shared, hence a tuple;
    the flags beyond the maximal ones serve the lemma tests and the
    reference enumeration of the stability tests."""
    if n > 5:
        raise ValueError("n > 5: parabolic enumeration guard")
    table = _PARABOLICS.get(n)
    if table is None:
        specs = []
        for labels in itertools.product(range(n), repeat=n):
            k = len(set(labels))
            if k >= 2 and max(labels) < k:
                specs.append(ParabolicSpec([[i for i in range(n) if labels[i] == b]
                                            for b in range(k)]))
        specs.sort(key=lambda p: (len(p.blocks), p.blocks))
        table = _PARABOLICS[n] = tuple(specs)
    return table


def enumerate_parabolics_containing_T(n: int) -> List[ParabolicSpec]:
    """``proper_parabolics(n)`` as a fresh list."""
    return list(proper_parabolics(n))
