import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from meroconn import rootdata
from meroconn.betti import (BettiError, FilteredStokesRep, PunctureData,
                            StokesRep, check_relation, check_stability,
                            degree_loc, degree_zero, group_act, irreducible,
                            is_compatible)
from meroconn.field import CMat, gr
from meroconn.randomgen import (gl2_four_direction_diagram, rand_invertible,
                                rand_relation_rep, solvable_gl2_puncture)
from meroconn.rootdata import (Character, IrregularType, ParabolicSpec, Root, Weight,
                               enumerate_parabolics_containing_T, parahoric_degree)
from meroconn.selftest import stability_fixtures
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



def test_stability_guard_above_rank_five():
    big = CMat.identity(6)
    f = FilteredStokesRep(StokesRep(1, ((big, big),), ()), ())
    with pytest.raises(BettiError, match="dimension > 5"):
        check_stability(f)


def test_repeated_stability_builds_no_parabolic(monkeypatch):
    """The n = 5 table is built once; later verdicts only read it."""
    a = CMat.diag([1, 2, 3, 4, 5])
    f = FilteredStokesRep(StokesRep(1, ((a, a),), ()), ())
    first = check_stability(f)
    built = []
    init = ParabolicSpec.__init__

    def counting_init(self, blocks):
        built.append(blocks)
        init(self, blocks)

    monkeypatch.setattr(ParabolicSpec, "__init__", counting_init)
    again = check_stability(f)
    assert irreducible(f.rep) is False
    assert built == []
    assert again == first and len(first.witnesses) == 30  # 2^5 - 2 subspace cuts


# ---------------------------------------------------------------------
# old-vs-new equivalence: support masks against the per-entry loops
# ---------------------------------------------------------------------

def reference_contains(p, m):
    """Per-entry membership: entry (i, j) vanishes whenever
    block(i) > block(j)."""
    block_of = {i: k for k, b in enumerate(p.blocks) for i in b}
    return all(m[i, j].is_zero() for i in range(p.n) for j in range(p.n)
               if block_of[i] > block_of[j])


def reference_check_stability(f):
    """The flag enumeration: every parabolic re-read against every
    generator entry by entry, with each of its cut characters,
    the degree summed puncture by puncture."""
    neg, zero = [], []
    for p in enumerate_parabolics_containing_T(f.rep.n):
        if not all(reference_contains(p, m) for m in f.rep.generators()):
            continue
        for chi in p.fundamental_cut_characters():
            d = parahoric_degree(0, f.weights, chi)
            if d < 0:
                neg.append((p, chi, d))
            elif d == 0:
                zero.append((p, chi, d))
    if neg:
        return "unstable", tuple(neg)
    if zero:
        return "semistable", tuple(zero)
    return "stable", ()


def reference_irreducible(rep):
    gens = rep.generators()
    return not any(all(reference_contains(p, m) for m in gens)
                   for p in enumerate_parabolics_containing_T(rep.n))


def assert_matches_reference(f):
    """The verdict is the flag enumeration's status with its witnesses on
    two-block parabolics, in its order; a witness on a finer flag only
    repeats a (character, degree) pair of a kept one."""
    verdict = check_stability(f)
    status, flags = reference_check_stability(f)
    kept = tuple(w for w in flags if len(w[0].blocks) == 2)
    assert (verdict.status, verdict.witnesses) == (status, kept)
    pairs = {(chi, d) for _, chi, d in kept}
    assert all((chi, d) in pairs for _, chi, d in flags)
    assert irreducible(f.rep) == reference_irreducible(f.rep)


VALUES = [gr(1), gr(-2), gr(0, 1), gr(F(1, 3), -1)]


@st.composite
def sparse_mats(draw, n, count):
    """``count`` matrices that are nonzero only where a drawn level map
    allows (level(i) <= level(j)) and at one optional stray entry, so
    that some parabolics contain them all and some do not."""
    level = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    stray = draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    mats = []
    for _ in range(count):
        keep = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        vals = draw(st.lists(st.sampled_from(VALUES), min_size=n * n, max_size=n * n))
        mats.append(CMat([[vals[i * n + j] if keep[i * n + j]
                           and (level[i] <= level[j] or (i, j) == stray) else 0
                           for j in range(n)] for i in range(n)]))
    return mats


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(
    lambda n: sparse_mats(n, 3) if n > 1 else st.just([CMat([[2]]), CMat.zero(1)])))
def test_support_mask_matches_per_entry_test(mats):
    n = mats[0].n
    joint = 0
    for m in mats:
        joint |= m.support()
    for p in enumerate_parabolics_containing_T(n):
        for m in mats:
            assert p.contains_matrix(m) == reference_contains(p, m)
        assert p.admits(joint) == all(reference_contains(p, m) for m in mats)


_DIAGRAMS = {}


def alternating_diagram(n):
    """Q = diag(0, 1, 0, 1, ...)/z: Levi blocks of the even and the odd
    indices, two anti-Stokes directions."""
    if n not in _DIAGRAMS:
        _DIAGRAMS[n] = anti_stokes(IrregularType(n, {1: tuple(gr(i % 2) for i in range(n))}))
    return _DIAGRAMS[n]


@st.composite
def sparse_filtered_reps(draw):
    """A genus 0-1 representation of rank 2-5 with one or two punctures
    on the alternating diagram.  Handles and conjugators are sparse, h is
    block-diagonal for the Levi blocks and inside its weight's
    parabolic, Stokes factors are drawn on their direction's roots; the
    defining relation is not imposed (stability does not read it)."""
    n = draw(st.integers(2, 5))
    genus = draw(st.integers(0, 1))
    punctures = draw(st.integers(1, 2))
    diagram = alternating_diagram(n)
    mats = iter(draw(sparse_mats(n, 2 * genus + 2 * punctures)))
    handles = tuple((next(mats), next(mats)) for _ in range(genus))
    data, weights = [], []
    for _ in range(punctures):
        w = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        w = Weight([F(e, 4) for e in w], validate=False)
        raw = next(mats)
        h = CMat([[raw[i, j] if i % 2 == j % 2 and w.entries[i] >= w.entries[j]
                   else 0 for j in range(n)] for i in range(n)])
        S = []
        for d, direction in enumerate(diagram.directions):
            roots = draw(st.lists(st.sampled_from(direction.roots()), max_size=2))
            S.append(stokes_factor_matrix(diagram, d, {r: draw(st.sampled_from(VALUES))
                                                       for r in roots}))
        data.append(PunctureData(diagram, next(mats), h, tuple(S)))
        weights.append(w)
    return FilteredStokesRep(StokesRep(genus, handles, tuple(data)), tuple(weights))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sparse_filtered_reps())
def test_stability_matches_per_entry_reference_on_sparse_reps(f):
    assert_matches_reference(f)


def test_stability_matches_per_entry_reference_on_fixtures_and_images():
    rng = random.Random(28)
    statuses = set()
    for rep in stability_fixtures():
        n = rep.n
        perm = list(range(n))
        rng.shuffle(perm)
        sparse_g = CMat([[gr(i + 1) if perm[i] == j else 0 for j in range(n)]
                         for i in range(n)])
        ks = [CMat.diag([rng.randint(1, 4) for _ in range(n)]) for _ in rep.punctures]
        for image in (rep, group_act(sparse_g, ks, rep),
                      group_act(rand_invertible(rng, n), ks, rep)):
            weights = [tuple(Weight([0] * n) for _ in image.punctures)]
            if all(p.h.is_diagonal() for p in image.punctures):
                weights.append(tuple(Weight([F(rng.randint(-3, 3), 2) for _ in range(n)],
                                            validate=False) for _ in image.punctures))
            for ws in weights:
                f = FilteredStokesRep(image, ws)
                assert_matches_reference(f)
                statuses.add(check_stability(f).status)
    assert statuses == {"stable", "semistable", "unstable"}
