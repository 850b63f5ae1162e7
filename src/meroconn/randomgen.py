"""Seeded generators for randomized property checks.

Used by both the pytest suite and the CLI selftest so the two exercise
identical distributions.  Everything is driven by random.Random(seed);
no global state.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional

from .betti import PunctureData, StokesRep
from .connection import MeroConnection
from .correspondence import DeRhamLocal
from .field import CMat, GaussRat
from .lmatrix import LaurentMatrix, mat_mul
from .rootdata import IrregularType, Weight, m_r, Root
from .series import LaurentSeries
from .stokes import StokesDiagram, anti_stokes, stokes_factor_matrix


def rand_fraction(rng: random.Random, num_max: int = 10, den_max: int = 10,
                  nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))
        if not nonzero or f != 0:
            return f


def rand_gauss(rng: random.Random, num_max: int = 10, den_max: int = 10,
               complex_ok: bool = True, nonzero: bool = False) -> GaussRat:
    while True:
        re = rand_fraction(rng, num_max, den_max)
        im = rand_fraction(rng, num_max, den_max) if complex_ok and rng.random() < 0.4 else Fraction(0)
        g = GaussRat(re, im)
        if not nonzero or not g.is_zero():
            return g


def rand_small_weight(rng: random.Random, n: int) -> Weight:
    """Entries in [0, 3/4] with denominator <= 4, so all root pairings
    stay strictly below 1."""
    choices = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]
    return Weight([rng.choice(choices) for _ in range(n)])


def rand_regular_polar(rng: random.Random, n: int, complex_ok: bool = False
                       ) -> List[GaussRat]:
    """Distinct diagonal entries in the canonical (re, im) ascending
    order, as the shape-recovery preprocessor would produce them."""
    while True:
        entries = [rand_gauss(rng, 10, 10, complex_ok) for _ in range(n)]
        if len({e.t for e in entries}) == n:
            return sorted(entries, key=lambda e: (e.re, e.im))


def rand_connection(rng: random.Random, n: int, pole_order: int, trunc: int,
                    theta: Optional[Weight] = None, complex_ok: bool = False
                    ) -> MeroConnection:
    """Random connection in irregular-type shape: diagonal polar part with
    regular semisimple leading coefficient (canonically ordered), plus a
    dense tail inside the parahoric Lie algebra of theta."""
    if theta is None:
        theta = Weight([0] * n)
    rows = [[LaurentSeries.zero() for _ in range(n)] for _ in range(n)]
    lead = rand_regular_polar(rng, n, complex_ok)
    for i in range(n):
        rows[i][i] = rows[i][i] + LaurentSeries.monomial(lead[i], -pole_order)
    for j in range(1, pole_order):
        for i in range(n):
            c = rand_gauss(rng, 10, 10, complex_ok)
            if not c.is_zero():
                rows[i][i] = rows[i][i] + LaurentSeries.monomial(c, -j)
    _add_parahoric_tail(rng, rows, theta, trunc, complex_ok)
    return MeroConnection(LaurentMatrix(rows, trunc))


def _add_parahoric_tail(rng: random.Random, rows, theta: Weight, trunc: int,
                        complex_ok: bool):
    """Add to each entry random coefficients, each present with
    probability 0.6, from its lowest exponent in the parahoric Lie
    algebra of theta (at least z^0) up to z^(trunc-1)."""
    n = len(rows)
    for i in range(n):
        for j in range(n):
            lo = max(0, m_r(theta, Root(i, j)) if i != j else 0)
            terms = {}
            for m in range(lo, trunc):
                if rng.random() < 0.6:
                    terms[m] = rand_gauss(rng, 10, 10, complex_ok)
            if terms:
                rows[i][j] = rows[i][j] + LaurentSeries.from_dict(terms)


def rand_connection_levi(rng: random.Random, n: int, pole_order: int, trunc: int,
                         theta: Optional[Weight] = None, complex_ok: bool = False
                         ) -> MeroConnection:
    """Random connection in irregular-type shape whose polar part is not
    regular: the leading coefficient repeats its entries on blocks of
    indices (one block of size 2-3, the others of size 1-3, in random
    positions), a lower polar coefficient may split some blocks, and the
    tail is dense in the parahoric Lie algebra of theta, as in
    ``rand_connection``.  The common centralizer of the polar part is
    then a Levi subgroup larger than the torus."""
    if theta is None:
        theta = Weight([0] * n)
    order = list(range(n))
    rng.shuffle(order)
    blocks = []
    while order:
        size = rng.randint(2, 3) if not blocks else rng.randint(1, 3)
        blocks.append(order[:size])
        order = order[size:]
    rows = [[LaurentSeries.zero() for _ in range(n)] for _ in range(n)]
    while True:
        lead = [rand_gauss(rng, 10, 10, complex_ok, nonzero=True) for _ in blocks]
        if len({e.t for e in lead}) == len(blocks):
            break
    polar = {pole_order: [lead[k] for k in range(len(blocks)) for _ in blocks[k]]}
    index = [i for block in blocks for i in block]
    for j in range(1, pole_order):
        mode = rng.random()
        if mode < 0.4:
            continue
        vals = [rand_gauss(rng, 10, 10, complex_ok) for _ in blocks]
        if mode < 0.7:
            # constant on each block
            polar[j] = [vals[k] for k in range(len(blocks)) for _ in blocks[k]]
        else:
            # each entry takes one of two values of its block: some blocks split
            alt = [rand_gauss(rng, 10, 10, complex_ok) for _ in blocks]
            polar[j] = [rng.choice((vals[k], alt[k]))
                        for k in range(len(blocks)) for _ in blocks[k]]
    for j, ent in polar.items():
        for i, c in zip(index, ent):
            if not c.is_zero():
                rows[i][i] = rows[i][i] + LaurentSeries.monomial(c, -j)
    _add_parahoric_tail(rng, rows, theta, trunc, complex_ok)
    return MeroConnection(LaurentMatrix(rows, trunc))


def rand_parahoric_gauge(rng: random.Random, theta: Weight, trunc: int,
                         factors: int = 4) -> LaurentMatrix:
    """Product of torus unit series and root elements U_r(z^{m_r} R):
    a parahoric group element by construction."""
    n = theta.n
    g = LaurentMatrix.identity(n, trunc)
    diag_rows = [[LaurentSeries.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        terms = {0: rand_gauss(rng, 5, 5, nonzero=True)}
        for m in range(1, trunc):
            if rng.random() < 0.3:
                terms[m] = rand_gauss(rng, 5, 5)
        diag_rows[i][i] = LaurentSeries.from_dict(terms)
    g = mat_mul(g, LaurentMatrix(diag_rows, trunc))
    for _ in range(factors):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        base = m_r(theta, Root(i, j))
        m = base + rng.randint(0, 2)
        c = rand_gauss(rng, 5, 5)
        g = mat_mul(g, LaurentMatrix.identity(n, trunc)
                    + LaurentMatrix.monomial(CMat.unit(n, i, j, c), m, trunc))
    return g


def rand_invertible(rng: random.Random, n: int) -> CMat:
    """Unit lower * diagonal * unit upper with small rational entries."""
    lower = [[GaussRat(1) if i == j else GaussRat(0) for j in range(n)] for i in range(n)]
    upper = [[GaussRat(1) if i == j else GaussRat(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i > j:
                lower[i][j] = rand_gauss(rng, 3, 3)
            elif i < j:
                upper[i][j] = rand_gauss(rng, 3, 3)
    diag = CMat.diag([rand_gauss(rng, 4, 4, nonzero=True) for _ in range(n)])
    return CMat(lower) * diag * CMat(upper)


# ----------------------------------------------------------------------
# Betti-side fixtures
# ----------------------------------------------------------------------

def gl2_four_direction_diagram() -> StokesDiagram:
    """diag(1,-1) z^-2: four directions supported alternately by
    e2-e1, e1-e2, e2-e1, e1-e2 starting at angle 0."""
    q = IrregularType(2, {2: (GaussRat(1), GaussRat(-1))})
    return anti_stokes(q)


def solvable_gl2_puncture(rng: random.Random, diagram: Optional[StokesDiagram] = None
                          ) -> PunctureData:
    """The constructive one-puncture solution: S1 = I + u E21,
    S2 = I + a E12, then b, c, h are forced by the relation:
    b = -u/(1+au), c = -a(1+au), h = diag(1/(1+au), 1+au)."""
    if diagram is None:
        diagram = gl2_four_direction_diagram()
    while True:
        a = rand_gauss(rng, 5, 5, nonzero=True)
        u = rand_gauss(rng, 5, 5, nonzero=True)
        if not (GaussRat(1) + a * u).is_zero():
            break
    one = GaussRat(1)
    b = -u / (one + a * u)
    c = -a * (one + a * u)
    h = CMat.diag([(one + a * u).inv(), one + a * u])
    r21, r12 = Root(1, 0), Root(0, 1)
    s = (
        stokes_factor_matrix(diagram, 0, {r21: u}),
        stokes_factor_matrix(diagram, 1, {r12: a}),
        stokes_factor_matrix(diagram, 2, {r21: b}),
        stokes_factor_matrix(diagram, 3, {r12: c}),
    )
    return PunctureData(diagram, CMat.identity(2), h, s)


def rand_relation_rep(rng: random.Random, genus: int = 0, punctures: int = 1
                      ) -> StokesRep:
    """Relation-satisfying representation: commuting handle pairs and
    solvable punctures whose local words are individually trivial."""
    handles = []
    for _ in range(genus):
        while True:
            a = rand_invertible(rng, 2)
            b = a * a + a.scale(rand_gauss(rng, 3, 3)) + CMat.identity(2)
            try:
                b.inv()
                break
            except ZeroDivisionError:
                continue
        handles.append((a, b))
    diagram = gl2_four_direction_diagram()
    ps = tuple(solvable_gl2_puncture(rng, diagram) for _ in range(punctures))
    return StokesRep(genus, tuple(handles), ps)


def rand_de_rham_local(rng: random.Random, n: int) -> DeRhamLocal:
    """Random local de Rham data satisfying the type invariants: pick a
    block partition; beta, s and Q are constant on blocks; Y is a random
    strictly lower-triangular nilpotent inside the blocks."""
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
    bounds = [0] + cuts + [n]
    blocks = [list(range(bounds[k], bounds[k + 1])) for k in range(len(bounds) - 1)]
    beta_choices = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(-1, 4)]
    beta_entries = [Fraction(0)] * n
    s_entries = [GaussRat(0)] * n
    q_entries = {}
    for bi, idxs in enumerate(blocks):
        bval = rng.choice(beta_choices)
        sval = rand_gauss(rng, 6, 6)
        for i in idxs:
            beta_entries[i] = bval
            s_entries[i] = sval
    if rng.random() < 0.8:
        for j in (1, 2):
            if rng.random() < 0.7:
                vals = [GaussRat(0)] * n
                for idxs in blocks:
                    v = rand_gauss(rng, 6, 6)
                    for i in idxs:
                        vals[i] = v
                q_entries[j] = tuple(vals)
    y_rows = [[GaussRat(0)] * n for _ in range(n)]
    for idxs in blocks:
        for a in range(1, len(idxs)):
            for b in range(a):
                if rng.random() < 0.6:
                    y_rows[idxs[a]][idxs[b]] = rand_gauss(rng, 4, 4)
    residue = CMat.diag(s_entries) + CMat(y_rows)
    return DeRhamLocal(
        beta=Weight(beta_entries),
        residue=residue,
        q=IrregularType(n, q_entries),
    )


def rand_nilpotent(rng: random.Random, n: int) -> CMat:
    """Random nilpotent: a Jordan-type nilpotent conjugated by a random
    invertible matrix."""
    sizes = []
    left = n
    while left > 0:
        k = rng.randint(1, left)
        sizes.append(k)
        left -= k
    rows = [[GaussRat(0)] * n for _ in range(n)]
    off = 0
    for k in sizes:
        for i in range(1, k):
            rows[off + i][off + i - 1] = rand_gauss(rng, 3, 3, nonzero=True)
        off += k
    p = rand_invertible(rng, n)
    return p * CMat(rows) * p.inv()
