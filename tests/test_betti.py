import random
from fractions import Fraction as F

import pytest

from meroconn.betti import (BettiError, FilteredStokesRep, PunctureData,
                            StokesRep, check_relation, check_stability,
                            degree_loc, degree_zero, group_act, irreducible,
                            is_compatible)
from meroconn.field import CMat, gr
from meroconn.randomgen import (gl2_four_direction_diagram, rand_invertible,
                                rand_relation_rep, solvable_gl2_puncture)
from meroconn.rootdata import Character, IrregularType, ParabolicSpec, Root, Weight
from meroconn.stokes import anti_stokes, stokes_factor_matrix


def diag_rep(h_entries, conj=None, q=None):
    """Two-puncture representation with cancelling formal monodromies."""
    n = len(h_entries)
    if q is None:
        q = IrregularType(n, {1: tuple(gr(i + 1) for i in range(n))})
    diagram = anti_stokes(q)
    idents = tuple(CMat.identity(n) for _ in range(diagram.num_directions))
    conj = conj if conj is not None else CMat.identity(n)
    h = CMat.diag(h_entries)
    return StokesRep(0, (), (
        PunctureData(diagram, conj, h, idents),
        PunctureData(diagram, conj, h.inv(), idents),
    ))


# ---------------------------------------------------------------------
# the defining relation
# ---------------------------------------------------------------------

def test_relation_trivial_case():
    rep = diag_rep([1, 1])
    assert check_relation(rep)


def test_relation_commutator_counterexample():
    a = CMat.diag([2, 3])
    b = CMat([[0, 1], [1, 0]])
    rep = StokesRep(1, ((a, b),), ())
    assert not check_relation(rep)


def test_relation_constructive_fixture():
    """Alternating unipotents solved against a diagonal formal monodromy:
    the exact inverse of the relation for one puncture with 4 directions."""
    diagram = gl2_four_direction_diagram()
    r21, r12 = Root(1, 0), Root(0, 1)
    s = (
        stokes_factor_matrix(diagram, 0, {r21: gr(1)}),
        stokes_factor_matrix(diagram, 1, {r12: gr(1)}),
        stokes_factor_matrix(diagram, 2, {r21: gr(F(-1, 2))}),
        stokes_factor_matrix(diagram, 3, {r12: gr(-2)}),
    )
    h = CMat.diag([F(1, 2), 2])
    rep = StokesRep(0, (), (PunctureData(diagram, CMat.identity(2), h, s),))
    assert check_relation(rep)
    # perturbing h breaks it
    bad = StokesRep(0, (), (PunctureData(diagram, CMat.identity(2),
                                         CMat.diag([1, 1]), s),))
    assert not check_relation(bad)


def test_puncture_validation():
    diagram = gl2_four_direction_diagram()
    idents = tuple(CMat.identity(2) for _ in range(4))
    with pytest.raises(BettiError, match="stabilizer"):
        PunctureData(diagram, CMat.identity(2), CMat([[1, 1], [0, 1]]), idents)
    with pytest.raises(BettiError, match="one Stokes factor"):
        PunctureData(diagram, CMat.identity(2), CMat.identity(2), idents[:2])
    bad_factor = CMat([[1, 0], [5, 1]])  # supported on (1,0), direction 1 wants (0,1)
    with pytest.raises(BettiError, match="supported outside"):
        PunctureData(diagram, CMat.identity(2), CMat.identity(2),
                     (idents[0], bad_factor, idents[2], idents[3]))


# ---------------------------------------------------------------------
# the (G x H)-action
# ---------------------------------------------------------------------

def test_action_identity_fixes():
    rep = rand_relation_rep(random.Random(1), 0, 1)
    moved = group_act(CMat.identity(2), [CMat.identity(2)], rep)
    assert moved.punctures[0].C == rep.punctures[0].C
    assert moved.punctures[0].h == rep.punctures[0].h


def test_action_central_scalar_fixes():
    rep = rand_relation_rep(random.Random(2), 0, 1)
    lam = CMat.diag([F(7, 3), F(7, 3)])
    moved = group_act(lam, [lam], rep)
    assert moved.punctures[0].C == rep.punctures[0].C
    assert moved.punctures[0].h == rep.punctures[0].h
    assert moved.punctures[0].S == rep.punctures[0].S


def test_action_preserves_relation_randomized():
    rng = random.Random(3)
    for k in range(30):
        rep = rand_relation_rep(rng, genus=k % 2, punctures=1 + k % 2)
        assert check_relation(rep)
        g = rand_invertible(rng, 2)
        ks = [CMat.diag([gr(F(rng.randint(1, 5))), gr(F(rng.randint(1, 5)))])
              for _ in rep.punctures]
        assert check_relation(group_act(g, ks, rep))


def test_action_rejects_k_outside_stabilizer():
    rep = rand_relation_rep(random.Random(4), 0, 1)
    with pytest.raises(BettiError, match="stabilizer"):
        group_act(CMat.identity(2), [CMat([[1, 1], [0, 1]])], rep)


# ---------------------------------------------------------------------
# compatibility and degree
# ---------------------------------------------------------------------

def test_compatibility_examples():
    upper = ParabolicSpec([[0], [1]])
    lower = ParabolicSpec([[1], [0]])
    rep = diag_rep([2, 3])
    f = FilteredStokesRep(rep, (Weight([0, 0]), Weight([0, 0])))
    assert is_compatible(f, upper) and is_compatible(f, lower)
    # a lower-triangular Stokes factor breaks the upper pattern
    diagram = gl2_four_direction_diagram()
    s1 = stokes_factor_matrix(diagram, 0, {Root(1, 0): gr(1)})
    idents = tuple(CMat.identity(2) for _ in range(4))
    rep2 = StokesRep(0, (), (PunctureData(diagram, CMat.identity(2),
                                          CMat.identity(2),
                                          (s1, idents[1], idents[2], idents[3])),))
    f2 = FilteredStokesRep(rep2, (Weight([0, 0]),))
    assert not is_compatible(f2, upper)
    assert is_compatible(f2, lower)


def test_compatibility_conjugation_equivariance():
    """Conjugating every generator by a permutation matrix and the
    parabolic by the same permutation leaves compatibility unchanged."""
    rep = diag_rep([2, 3], conj=CMat([[1, 1], [0, 1]]))
    f = FilteredStokesRep(rep, (Weight([0, 0]), Weight([0, 0])))
    upper = ParabolicSpec([[0], [1]])
    g = CMat([[0, 1], [1, 0]])
    conjugated = StokesRep(0, (), tuple(
        PunctureData(p.diagram, g * p.C * g, g * p.h * g,
                     tuple(g * s * g for s in p.S))
        for p in rep.punctures
    ))
    f_conj = FilteredStokesRep(conjugated, f.weights)
    moved_p = upper.conjugate_by_permutation([1, 0])
    assert is_compatible(f, upper) == is_compatible(f_conj, moved_p)
    assert is_compatible(f, moved_p) == is_compatible(f_conj, upper)
    assert is_compatible(f, upper) != is_compatible(f, moved_p)


def test_degree_examples():
    a, c = F(1, 3), 2
    rep = diag_rep([2, 3])
    upper = ParabolicSpec([[0], [1]])
    f = FilteredStokesRep(rep, (Weight([a, -a]), Weight([0, 0])))
    assert degree_loc(f, upper, Character([-c, c])) == -2 * a * c
    zero = FilteredStokesRep(rep, (Weight([0, 0]), Weight([0, 0])))
    for chi in (Character([-1, 1]), Character([-3, 3])):
        assert degree_loc(zero, upper, chi) == 0
    two = FilteredStokesRep(rep, (Weight([F(1, 3), 0]), Weight([0, F(-1, 3)])))
    assert degree_loc(two, upper, Character([-1, 1])) == F(-2, 3)


def test_degree_linearity_in_character():
    rng = random.Random(5)
    rep = diag_rep([2, 3])
    upper = ParabolicSpec([[0], [1]])
    for _ in range(20):
        w = Weight([F(rng.randint(-3, 3), 4), F(rng.randint(-3, 3), 4)],
                   validate=False)
        f = FilteredStokesRep(rep, (w, Weight([0, 0])))
        c1 = Character([rng.randint(-3, 3)] * 1 + [rng.randint(-3, 3)])
        c2 = Character([rng.randint(-3, 3), rng.randint(-3, 3)])
        assert degree_loc(f, upper, c1 + c2) == \
            degree_loc(f, upper, c1) + degree_loc(f, upper, c2)


def test_degree_zero_examples():
    rep = diag_rep([2, 3])
    assert degree_zero(FilteredStokesRep(rep, (Weight([F(1, 2), F(-1, 2)]),
                                               Weight([0, 0]))))
    assert not degree_zero(FilteredStokesRep(rep, (Weight([F(1, 2), 0]),
                                                   Weight([0, 0]))))
    assert degree_zero(FilteredStokesRep(rep, (Weight([F(1, 3), 0]),
                                               Weight([F(-1, 3), 0]))))


def test_filtered_weight_parabolic_constraint():
    # Q = diag(1, 1, 0)/z: the stabilizer is GL2 x GL1, so h may be
    # lower triangular inside the first block; the Betti weight
    # (1/2, 0, 0) then rejects it as a formal monodromy.
    q = IrregularType(3, {1: (gr(1), gr(1), gr(0))})
    diagram = anti_stokes(q)
    idents = tuple(CMat.identity(3) for _ in range(diagram.num_directions))
    h = CMat([[2, 0, 0], [1, 3, 0], [0, 0, 5]])
    rep = StokesRep(0, (), (
        PunctureData(diagram, CMat.identity(3), h, idents),
        PunctureData(diagram, CMat.identity(3), h.inv(), idents),
    ))
    zero = Weight([0, 0, 0])
    FilteredStokesRep(rep, (zero, zero))  # trivial weights always fine
    with pytest.raises(BettiError, match="parabolic"):
        FilteredStokesRep(rep, (Weight([F(1, 2), 0, 0]), zero))


def test_filtered_weight_length_must_match_rank():
    rep = diag_rep([2, 3])
    zero = Weight([0, 0])
    FilteredStokesRep(rep, (zero, zero))
    for short_or_long in (Weight([F(1, 2)]), Weight([0, 0, 0])):
        with pytest.raises(BettiError, match="rank-2"):
            FilteredStokesRep(rep, (short_or_long, zero))


# ---------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------

def test_stability_diagonal_unstable_with_weights():
    rep = diag_rep([2, 3])
    a = F(1, 3)
    f = FilteredStokesRep(rep, (Weight([a, -a]), Weight([0, 0])))
    verdict = check_stability(f)
    assert verdict.status == "unstable"
    assert any(d < 0 for _, _, d in verdict.witnesses)
    blocks = {p.blocks for p, _, _ in verdict.witnesses}
    assert ((0,), (1,)) in blocks  # the upper Borel witnesses -2ac < 0


def test_stability_irreducible_stable():
    rep = diag_rep([2, 3], conj=CMat([[0, 1], [1, 0]]))
    f = FilteredStokesRep(rep, (Weight([0, 0]), Weight([0, 0])))
    assert check_stability(f).status == "stable"
    assert irreducible(rep)


def test_stability_diagonal_zero_weights_semistable():
    rep = diag_rep([2, 3])
    f = FilteredStokesRep(rep, (Weight([0, 0]), Weight([0, 0])))
    verdict = check_stability(f)
    assert verdict.status == "semistable"
    assert verdict.witnesses  # saturating pairs recorded
    assert not irreducible(rep)

