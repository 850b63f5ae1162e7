import itertools
import random
from fractions import Fraction as F

import pytest

from meroconn.field import CMat, gr
from meroconn.lmatrix import LaurentMatrix as LM, mat_mul
from meroconn.rootdata import (Character, ParabolicSpec, Root, Weight,
                               all_roots, enumerate_parabolics_containing_T,
                               lie_parahoric_member, m_r, pairing,
                               parabolic_from_weight, parahoric_degree,
                               parahoric_member)
from meroconn.series import LaurentSeries as LS


# ---------------------------------------------------------------------
# weights and m_r
# ---------------------------------------------------------------------

def test_weight_admissibility():
    Weight([F(1, 2), 0])
    Weight([1, 0])  # boundary r(theta) = 1 allowed
    with pytest.raises(ValueError):
        Weight([2, 0])
    w = Weight([2, 0], validate=False)
    assert not w.is_admissible()


def test_m_r_examples():
    r12, r21 = Root(0, 1), Root(1, 0)
    assert m_r(Weight([0, 0]), r12) == 0
    assert m_r(Weight([F(1, 2), 0]), r12) == 0
    assert m_r(Weight([F(1, 2), 0]), r21) == 1
    assert m_r(Weight([1, 0]), r21) == 1  # boundary: ceil(1) = 1


def test_m_r_plus_minus_property():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(2, 4)
        w = Weight([F(rng.randint(0, 3), 4) for _ in range(n)], validate=False)
        for r in all_roots(n):
            total = m_r(w, r) + m_r(w, -r)
            assert total in (0, 1)
            assert (total == 0) == (r.pairing(w).denominator == 1)


# ---------------------------------------------------------------------
# parahoric membership
# ---------------------------------------------------------------------

def test_parahoric_member_examples():
    assert parahoric_member(LM.identity(2), Weight([F(1, 2), 0]))
    # pole with zero weight
    g = LM.identity(2) + LM.monomial(CMat.unit(2, 0, 1), -1)
    assert not parahoric_member(g, Weight([0, 0]))
    # I + E21 with theta = (1/2, 0): val 0 + 0 - 1/2 < 0
    g2 = LM.from_const(CMat.identity(2) + CMat.unit(2, 1, 0))
    assert not parahoric_member(g2, Weight([F(1, 2), 0]))
    assert parahoric_member(g2, Weight([0, F(1, 2)]))
    # diag(z, 1): entrywise bounded, but det = z is not a unit of R
    g3 = LM([[LS.monomial(1, 1), LS.zero()], [LS.zero(), LS.const(1)]])
    assert not parahoric_member(g3, Weight([0, 0]))
    assert parahoric_member(LM([[LS.const(1) + LS.monomial(1, 1), LS.zero()],
                                [LS.zero(), LS.const(1)]]), Weight([0, 0]))


def test_lie_parahoric_member_examples():
    theta = Weight([F(1, 2), 0])
    a = LM([[LS.monomial(1, -1), LS.zero()], [LS.zero(), LS.monomial(1, -1)]])
    assert not lie_parahoric_member(a, Weight([0, 0]))
    assert lie_parahoric_member(LM.from_const(CMat.unit(2, 0, 1)), theta)
    assert lie_parahoric_member(LM.zero(2), theta)


def test_parahoric_subgroup_closed_under_product():
    from meroconn.randomgen import rand_parahoric_gauge

    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(2, 3)
        theta = Weight([F(rng.randint(0, 2), 4) for _ in range(n)])
        g = rand_parahoric_gauge(rng, theta, trunc=6)
        h = rand_parahoric_gauge(rng, theta, trunc=6)
        assert parahoric_member(g, theta)
        assert parahoric_member(h, theta)
        assert parahoric_member(mat_mul(g, h), theta)


# ---------------------------------------------------------------------
# parabolics from weights
# ---------------------------------------------------------------------

def test_parabolic_from_weight_examples():
    # zero weight: the full group (single block)
    p0 = parabolic_from_weight(Weight([0, 0, 0]))
    assert len(p0.blocks) == 1
    assert p0.root_subset() == set(all_roots(3))
    # (1/2, 0): upper Borel after descending order
    p1 = parabolic_from_weight(Weight([F(1, 2), 0]))
    assert p1.blocks == ((0,), (1,))
    assert Root(0, 1) in p1.root_subset() and Root(1, 0) not in p1.root_subset()
    # constant weight: the full group
    p2 = parabolic_from_weight(Weight([F(1, 3), F(1, 3)]))
    assert len(p2.blocks) == 1


def test_parabolic_depends_on_level_sets_only():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 4)
        w = Weight([F(rng.randint(0, 3), 4) for _ in range(n)], validate=False)
        scaled = w.scale(F(rng.randint(1, 5)))
        assert parabolic_from_weight(w) == parabolic_from_weight(scaled)


# ---------------------------------------------------------------------
# pairing and parahoric degree
# ---------------------------------------------------------------------

def test_pairing_examples():
    a, c = F(2, 3), 5
    assert pairing(Weight([a, -a], validate=False), Character([-c, c])) == -2 * a * c
    assert pairing(Weight([F(1, 2), 0]), Character([0, 0])) == 0
    assert pairing(Weight([F(1, 2), 0]), Character([1, 1])) == F(1, 2)


def test_parahoric_degree_examples():
    det = Character([1, 1])
    assert parahoric_degree(1, [Weight([F(-1, 2), F(-1, 2)])], det) == 0
    assert parahoric_degree(0, [], Character([0, 0])) == 0
    w = Weight([F(1, 4), F(1, 4)])
    assert parahoric_degree(2, [w, w], det) == 3


# ---------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------

def test_enumerate_counts():
    assert enumerate_parabolics_containing_T(1) == []
    assert [len(enumerate_parabolics_containing_T(n)) for n in range(1, 6)] == \
        [0, 2, 12, 74, 540]
    with pytest.raises(ValueError):
        enumerate_parabolics_containing_T(6)


def brute_force_parabolics(n):
    """One parabolic per surjection of {0..n-1} onto 2..n ordered block
    positions, sorted by (number of blocks, blocks)."""
    out = []
    for k in range(2, n + 1):
        for pos in itertools.product(range(k), repeat=n):
            if len(set(pos)) == k:
                out.append(ParabolicSpec([[i for i in range(n) if pos[i] == b]
                                          for b in range(k)]))
    return sorted(out, key=lambda p: (len(p.blocks), p.blocks))


def former_parabolics(n):
    """The former generator, kept as the reference: every set partition
    of {0..n-1} (built recursively) in every block order, at least two
    blocks, sorted by (number of blocks, blocks)."""
    def set_partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for partition in set_partitions(rest):
            for k in range(len(partition)):
                yield partition[:k] + [[first] + partition[k]] + partition[k + 1:]
            yield [[first]] + partition

    out = [ParabolicSpec(order) for partition in set_partitions(list(range(n)))
           for order in itertools.permutations(partition) if len(order) >= 2]
    return sorted(out, key=lambda p: (len(p.blocks), p.blocks))


def test_parabolic_table_is_the_sorted_set_of_ordered_partitions():
    for n in range(1, 6):
        table = enumerate_parabolics_containing_T(n)
        assert [p.blocks for p in table] == [p.blocks for p in brute_force_parabolics(n)]
        assert [p.blocks for p in table] == [p.blocks for p in former_parabolics(n)]
        assert table == sorted(table, key=lambda p: (len(p.blocks), p.blocks))


def test_enumeration_returns_a_fresh_list():
    first = enumerate_parabolics_containing_T(3)
    assert type(first) is list
    first.pop()
    first.append(ParabolicSpec([[0, 1, 2]]))
    again = enumerate_parabolics_containing_T(3)
    assert len(again) == 12 and ParabolicSpec([[0, 1, 2]]) not in again
    assert again is not enumerate_parabolics_containing_T(3)


def test_below_mask_layout():
    """Bit i*n + j of ``below`` is set iff block(i) > block(j), the
    layout of ``CMat.support``."""
    for n in range(1, 5):
        for p in enumerate_parabolics_containing_T(n) + [ParabolicSpec([range(n)])]:
            block_of = {i: k for k, b in enumerate(p.blocks) for i in b}
            for i in range(n):
                for j in range(n):
                    unit = CMat.unit(n, i, j, gr(2, -1))
                    assert unit.support() == 1 << (i * n + j)
                    assert bool(p.below >> (i * n + j) & 1) == (block_of[i] > block_of[j])
                    assert p.contains_matrix(unit) == (block_of[i] <= block_of[j])


def test_enumerated_parabolics_root_subsets():
    for n in (2, 3):
        roots = set(all_roots(n))
        seen = set()
        for p in enumerate_parabolics_containing_T(n):
            assert len(p.blocks) >= 2
            assert p not in seen
            seen.add(p)
            rp = p.root_subset()
            assert rp | {-r for r in rp} == roots
            for r1 in rp:
                for r2 in rp:
                    if r1.j == r2.i and r1.i != r2.j:
                        assert Root(r1.i, r2.j) in rp


def test_anti_dominant_and_cuts():
    p = ParabolicSpec([[0], [1, 2]])
    cuts = p.fundamental_cut_characters()
    assert len(cuts) == 1
    chi = cuts[0]
    assert chi.entries == (-2, 1, 1)
    assert chi.is_trivial_on_scalars()
    assert p.is_anti_dominant(chi)
    assert not p.is_anti_dominant(Character([2, -1, -1]))


def test_contains_matrix_pattern():
    p = ParabolicSpec([[0], [1]])
    assert p.contains_matrix(CMat([[1, 5], [0, 2]]))
    assert not p.contains_matrix(CMat([[1, 0], [3, 2]]))
