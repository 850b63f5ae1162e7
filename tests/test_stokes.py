import functools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from meroconn.angles import AngleExpr, arg_angle, cos_sign
from meroconn.field import gr
from meroconn.rootdata import IrregularType, ParabolicSpec, Root
from meroconn.stokes import (StokesDiagram, StokesError, _decay_signs, _directions,
                             _order_blocks, _root_leading_data, _upper_leading_data,
                             anti_stokes, groupoid_presentation, half_periods,
                             rotate_angle_set_invariant, stokes_dim_check,
                             stokes_factor_defect, stokes_factor_matrix,
                             stokes_group_basis)

Q_GL2_POLE2 = IrregularType(2, {2: (gr(1), gr(-1))})
Q_GL2_POLE1 = IrregularType(2, {1: (gr(1), gr(0))})
Q_GL3_POLE1 = IrregularType(3, {1: (gr(1), gr(2), gr(3))})


def angle_ratios(diagram):
    return [d.angle.pi_ratio() for d in diagram.directions]


# ---------------------------------------------------------------------
# anti-Stokes enumeration
# ---------------------------------------------------------------------

def test_anti_stokes_pole2_example():
    d = anti_stokes(Q_GL2_POLE2)
    assert angle_ratios(d) == [F(0), F(1, 2), F(1), F(3, 2)]
    assert d.k == 2 and d.l == 1
    # q_r = r(Q) convention: direction pi/2 is supported by e1 - e2 (c = 2)
    assert stokes_group_basis(d, 1) == [Root(0, 1)]
    assert stokes_group_basis(d, 0) == [Root(1, 0)]
    assert d.directions[1].support == ((Root(0, 1), 2, gr(2)),)


@pytest.mark.parametrize("q", [IrregularType(2, {1: (gr(5), gr(5))}),
                               IrregularType(10**6, {}),
                               IrregularType(10**4, {2: (gr(F(1, 3), 2),) * 10**4})],
                         ids=["gl2", "no-coeffs", "scalar"])
def test_anti_stokes_central_rejected(q):
    # refused before the O(n^2) root scan, which would take hours at the large n
    t0 = time.perf_counter()
    with pytest.raises(StokesError, match="trivial irregular type"):
        anti_stokes(q)
    assert time.perf_counter() - t0 < 1.0


def test_anti_stokes_pole1_example():
    d = anti_stokes(Q_GL2_POLE1)
    assert angle_ratios(d) == [F(0), F(1)]
    assert d.k == 1 and d.l == 1
    assert stokes_group_basis(d, 1) == [Root(0, 1)]  # c = 1, phi = pi
    assert stokes_group_basis(d, 0) == [Root(1, 0)]


def test_anti_stokes_gl3_supports_by_argument():
    # distinct complex leading coefficients: brute-force over the 6 roots
    q = IrregularType(3, {1: (gr(1), gr(0, 1), gr(0))})
    d = anti_stokes(q)
    for direction in d.directions:
        for root, k_r, c_r in direction.support:
            series = q.root_series(root.i, root.j)
            assert series[-k_r] == c_r
    total = sum(len(x.support) for x in d.directions)
    assert total == 6  # every root supports exactly k_r = 1 direction


def test_rotation_symmetry_property():
    rng = random.Random(71)
    for _ in range(10):
        n = rng.choice([2, 3])
        pole = rng.choice([2, 3])
        while True:
            lead = [gr(F(rng.randint(-8, 8), rng.randint(1, 4)),
                       F(rng.randint(-8, 8), rng.randint(1, 4))) for _ in range(n)]
            if len({(a - b).t for a in lead for b in lead if a is not b}) == n * (n - 1):
                break
        d = anti_stokes(IrregularType(n, {pole: tuple(lead)}))
        assert rotate_angle_set_invariant(d)
        assert d.l is not None


def test_root_direction_duality():
    """r supports d iff -r supports d + pi/k_r."""
    d = anti_stokes(Q_GL2_POLE2)
    for idx, direction in enumerate(d.directions):
        for root, k_r, _c in direction.support:
            partner = direction.angle.shift_pi(F(1, k_r)).principal()
            hit = [x for x in d.directions if x.angle.compare(partner) == 0]
            assert len(hit) == 1
            assert -root in hit[0].roots()


def test_mixed_leading_orders_flagged():
    # entries z^-2 and z^-1 with all pairwise differences of mixed order
    q = IrregularType(3, {2: (gr(1), gr(0), gr(0)), 1: (gr(0), gr(1), gr(0))})
    d = anti_stokes(q)
    assert not d.uniform_k
    assert d.l is None
    with pytest.raises(StokesError, match="mixed leading orders"):
        half_periods(d)


# ---------------------------------------------------------------------
# half-periods
# ---------------------------------------------------------------------

def test_half_periods_pole2():
    d = anti_stokes(Q_GL2_POLE2)
    half = half_periods(d)
    assert half.u_plus == {-r for r in half.u_minus}
    assert half.u_plus.isdisjoint(half.u_minus)
    assert half.p_plus.blocks == tuple(reversed(half.p_minus.blocks))
    # the generic direction certified: no purely imaginary values
    assert len(half.u_plus) == 1 and len(half.u_minus) == 1


def test_half_periods_regular_gives_borel():
    d = anti_stokes(Q_GL3_POLE1)
    half = half_periods(d)
    assert len(half.p_plus.blocks) == 3  # a Borel containing T
    assert len(half.u_plus) + len(half.u_minus) == 6


def test_half_periods_block_case_excludes_levi_roots():
    # two equal entries: the block roots support no direction
    q = IrregularType(3, {1: (gr(1), gr(1), gr(0))})
    d = anti_stokes(q)
    half = half_periods(d)
    levi = {Root(0, 1), Root(1, 0)}
    assert levi.isdisjoint(half.u_plus | half.u_minus)
    assert half.p_plus.blocks in (((0, 1), (2,)), ((2,), (0, 1)))


def test_u_plus_closed_under_addition():
    rng = random.Random(72)
    for _ in range(8):
        lead = [gr(F(rng.randint(-6, 6), rng.randint(1, 3))) for _ in range(3)]
        if len({e.t for e in lead}) != 3:
            continue
        d = anti_stokes(IrregularType(3, {2: tuple(lead)}))
        half = half_periods(d)
        for r1 in half.u_plus:
            for r2 in half.u_plus:
                if r1.j == r2.i and r1.i != r2.j:
                    assert Root(r1.i, r2.j) in half.u_plus


# ---------------------------------------------------------------------
# dimension bookkeeping
# ---------------------------------------------------------------------

def test_dim_check_examples():
    d = anti_stokes(Q_GL2_POLE2)
    assert stokes_dim_check(d) == (4, 4)
    d3 = anti_stokes(Q_GL3_POLE1)
    assert stokes_dim_check(d3) == (6, 6)
    # degenerate: Levi block roots counted on neither side
    q = IrregularType(3, {1: (gr(1), gr(1), gr(0))})
    db = anti_stokes(q)
    lhs, rhs = stokes_dim_check(db)
    assert lhs == rhs == 4


# ---------------------------------------------------------------------
# groupoid presentation
# ---------------------------------------------------------------------

def test_groupoid_presentation_counts():
    d = anti_stokes(Q_GL2_POLE2)
    pres = groupoid_presentation(0, [d])
    assert pres.puncture_loops == ("gamma_1",)
    assert len(pres.stokes_loops[0]) == 4
    assert pres.relation_length == 6
    torus = groupoid_presentation(1, [])
    assert torus.relation_word == ("a1", "b1", "a1^-1", "b1^-1")
    two = groupoid_presentation(0, [d, anti_stokes(Q_GL2_POLE1)])
    assert two.connecting_paths == ("c_2",)
    assert two.relation_length == (2 + 4) + (2 + 2)


# ---------------------------------------------------------------------
# Stokes factors
# ---------------------------------------------------------------------

def test_stokes_factor_support_validation():
    d = anti_stokes(Q_GL2_POLE2)
    s = stokes_factor_matrix(d, 0, {Root(1, 0): gr(3)})
    assert stokes_factor_defect(d, 0, s) is None
    # wrong direction support
    assert stokes_factor_defect(d, 1, s) == "supported outside its root set"
    with pytest.raises(StokesError):
        stokes_factor_matrix(d, 0, {Root(0, 1): gr(1)})


# ---------------------------------------------------------------------
# one-sort merge against the merge-then-sort reference
# ---------------------------------------------------------------------

def _principal_chain(base, k_r, m):
    """A raw direction as (base + (2m - 1)pi)/k_r reduced by principal()."""
    return (base + AngleExpr.of_pi(2 * m - 1)).scale(F(1, k_r)).principal()


def reference_directions(q):
    """The quadratic merge: scan every merged angle for each raw
    direction, then sort the merged angles."""
    raw = []
    for i in range(q.n):
        for j in range(q.n):
            series = q.root_series(i, j) if i != j else None
            if not series:
                continue
            k_r = -min(series)
            c_r = series[-k_r]
            base = arg_angle(c_r)
            for m in range(k_r):
                raw.append((_principal_chain(base, k_r, m), Root(i, j), k_r, c_r))
    merged = []
    for phi, r, k_r, c_r in raw:
        for angle, sup in merged:
            if angle.compare(phi) == 0:
                sup.append((r, k_r, c_r))
                break
        else:
            merged.append((phi, [(r, k_r, c_r)]))
    merged.sort(key=functools.cmp_to_key(lambda a, b: a[0].compare(b[0])))
    return [(angle.pi_ratio(), float(angle), _expression(angle),
             sorted((r.i, r.j, k_r, c_r.t) for r, k_r, c_r in sup))
            for angle, sup in merged]


def _expression(angle):
    """The stored expression, which tells apart equal angles written
    differently (the merge keeps the first raw one)."""
    return angle.pi_part, tuple((q, w.t) for q, w in angle.terms)


def direction_digest(diagram):
    return [(d.angle.pi_ratio(), float(d.angle), _expression(d.angle),
             [(r.i, r.j, k_r, c_r.t) for r, k_r, c_r in d.support])
            for d in diagram.directions]


def _rand_lead(rng, n, kind):
    if kind == "axis":  # every direction a rational multiple of pi
        return [gr(rng.randint(-6, 6)) for _ in range(n)]
    if kind == "collinear":  # a + m*d: distinct roots share directions
        a = gr(rng.randint(-4, 4), rng.randint(-4, 4))
        d = gr(rng.randint(1, 4), rng.randint(-4, 4))
        steps = range(n) if rng.random() < 0.5 else rng.sample(range(-6, 7), n)
        return [a + d * gr(m) for m in steps]
    return [gr(F(rng.randint(-8, 8), rng.randint(1, 3)),
               F(rng.randint(-8, 8), rng.randint(1, 3))) for _ in range(n)]


def _merge_cases():
    """36 irregular types, n = 2..5 and pole orders 1..4, with generic,
    axis and collinear leading coefficients and random lower terms."""
    rng = random.Random(5309)
    for case in range(36):
        n = 2 + case % 4
        pole = 1 + (case // 4) % 4
        kind = ("generic", "axis", "collinear")[case % 3]
        coeffs = {pole: tuple(_rand_lead(rng, n, kind))}
        for j in range(1, pole):
            if rng.random() < 0.5:
                coeffs[j] = tuple(_rand_lead(rng, n, "generic"))
        yield IrregularType(n, coeffs)


def test_one_sort_merge_matches_reference():
    shared = rational = 0
    for q in _merge_cases():
        want = reference_directions(q)
        if not want:
            with pytest.raises(StokesError):
                anti_stokes(q)
            continue
        assert direction_digest(anti_stokes(q)) == want
        shared += sum(len(sup) > 1 for _, _, _, sup in want)
        rational += sum(ratio is not None for ratio, _, _, _ in want)
    assert shared > 0 and rational > 0


_gauss = st.builds(gr, st.builds(F, st.integers(-8, 8), st.integers(1, 4)),
                   st.builds(F, st.integers(-8, 8), st.integers(1, 4)))


@st.composite
def _uniform_irregular_types(draw):
    """One polar coefficient with distinct entries: every root has the
    same leading order, the pole order."""
    n = draw(st.integers(2, 3))
    pole = draw(st.integers(1, 3))
    lead = draw(st.lists(_gauss, min_size=n, max_size=n, unique_by=lambda c: c.t))
    return IrregularType(n, {pole: tuple(lead)})


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_uniform_irregular_types())
def test_anti_stokes_directions_invariant_under_rotation(q):
    d = anti_stokes(q)
    assert d.uniform_k
    step = F(1, d.k)
    rotated = sorted((a.shift_pi(step).principal() for a in d.angles()),
                     key=functools.cmp_to_key(lambda x, y: x.compare(y)))
    assert len(rotated) == len(d.angles())
    assert all(x.compare(y) == 0 for x, y in zip(rotated, d.angles()))
    assert rotate_angle_set_invariant(d)


# ---------------------------------------------------------------------
# raw directions from the octant form against the principal() chain
# ---------------------------------------------------------------------

_small = st.integers(-6, 6)


@st.composite
def _leading_row(draw, n):
    """n entries whose differences are generic, on one axis or diagonal
    (x*u for a shared unit u), or collinear (a + m*d); or two values
    repeated, so that some differences vanish."""
    kind = draw(st.sampled_from(["generic", "axis", "collinear", "repeated"]))
    if kind == "generic":
        return [draw(_gauss) for _ in range(n)]
    if kind == "repeated":
        pair = draw(st.lists(_gauss, min_size=2, max_size=2, unique_by=lambda c: c.t))
        return pair + [pair[draw(st.integers(0, 1))] for _ in range(n - 2)]
    if kind == "axis":
        u = draw(st.sampled_from([gr(1), gr(0, 1), gr(1, 1), gr(1, -1)]))
        return [u * gr(draw(_small)) for _ in range(n)]
    a, d = gr(draw(_small), draw(_small)), gr(draw(st.integers(1, 4)), draw(_small))
    steps = draw(st.lists(_small, min_size=n, max_size=n, unique=True))
    return [a + d * gr(m) for m in steps]


@st.composite
def _mixed_irregular_types(draw):
    """Pole orders 1..4, the order below the pole always present and the
    others at random: roots whose leading entries coincide fall to a
    lower k_r, so orders mix."""
    n = draw(st.integers(2, 4))
    pole = draw(st.integers(1, 4))
    coeffs = {pole: tuple(draw(_leading_row(n)))}
    for k in range(1, pole):
        if k == pole - 1 or draw(st.booleans()):
            coeffs[k] = tuple(draw(_leading_row(n)))
    return IrregularType(n, coeffs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_mixed_irregular_types())
def test_direction_from_octant_form_matches_principal_chain(q):
    for _r, k_r, c_r in reference_root_leading_data(q):
        base = arg_angle(c_r)
        for m, got in enumerate(_directions(base, k_r)):
            want = _principal_chain(base, k_r, m)
            assert got.pi_part == want.pi_part
            assert [(c, w.t) for c, w in got.terms] == [(c, w.t) for c, w in want.terms]


# ---------------------------------------------------------------------
# half-periods: one sign per opposite pair against every root
# ---------------------------------------------------------------------

def reference_half_periods(diag, d1=0):
    """half_periods with a cosine sign taken for every root, -r included."""
    l = diag.l
    if l is None:
        raise StokesError("half-period structure undefined for mixed leading orders")
    num = diag.num_directions
    last = diag.directions[(d1 + l - 1) % num].angle
    nxt = diag.directions[(d1 + l) % num].angle
    gap = (nxt - last).principal()
    if gap.is_zero():
        gap = AngleExpr.of_pi(2)
    roots = [(r, k_r, arg_angle(c_r)) for r, k_r, c_r in reference_root_leading_data(diag.q)]
    for attempt in range(16):
        delta = (last + gap.scale(F(1, 2 + attempt))).principal()
        signs = [cos_sign(arg - delta.scale(k_r)) for _, k_r, arg in roots]
        if 0 not in signs:
            break
    else:
        raise StokesError("could not certify a generic test direction")
    r_plus = {r for (r, _, _), sign in zip(roots, signs) if sign < 0}
    r_minus = {r for (r, _, _), sign in zip(roots, signs) if sign > 0}
    order = _order_blocks(diag.q.levi_blocks(), r_plus)
    return r_plus, r_minus, ParabolicSpec(order), ParabolicSpec(list(reversed(order))), delta


def test_half_periods_match_all_roots_reference():
    compared = 0
    for q in _merge_cases():
        try:
            diag = anti_stokes(q)
        except StokesError:
            continue
        if diag.l is None:
            with pytest.raises(StokesError):
                half_periods(diag)
            continue
        for d1 in (0, diag.num_directions - 1):
            half = half_periods(diag, d1)
            r_plus, r_minus, p_plus, p_minus, delta = reference_half_periods(diag, d1)
            assert half.u_plus == r_plus and half.u_minus == r_minus
            assert half.p_plus.blocks == p_plus.blocks
            assert half.p_minus.blocks == p_minus.blocks
            assert half.delta.pi_part == delta.pi_part
            assert [(c, w.t) for c, w in half.delta.terms] == \
                [(c, w.t) for c, w in delta.terms]
            compared += 1
    assert compared >= 20


def test_half_periods_of_a_directly_built_diagram_match_anti_stokes():
    # anti_stokes keeps the leading data it computed; a diagram built
    # from its four arguments computes them from q on first use
    compared = 0
    for q in _merge_cases():
        try:
            diag = anti_stokes(q)
        except StokesError:
            continue
        direct = StokesDiagram(q, diag.directions, diag.k, diag.uniform_k)
        assert [(r, k_r, _expression(arg)) for r, k_r, arg in direct.leading_data()] == \
            [(r, k_r, _expression(arg)) for r, k_r, arg in diag.leading_data()]
        if diag.l is None:
            continue
        for d1 in range(diag.num_directions):
            got, want = half_periods(direct, d1), half_periods(diag, d1)
            assert (got.u_plus, got.u_minus) == (want.u_plus, want.u_minus)
            assert (got.p_plus.blocks, got.p_minus.blocks) == (want.p_plus.blocks,
                                                               want.p_minus.blocks)
            assert _expression(got.delta) == _expression(want.delta)
            compared += 1
    assert compared >= 50


# ---------------------------------------------------------------------
# leading data from one root per opposite pair
# ---------------------------------------------------------------------

def reference_root_leading_data(q):
    """root_series evaluated for every ordered pair i != j."""
    out = []
    for i in range(q.n):
        for j in range(q.n):
            if i == j:
                continue
            series = q.root_series(i, j)
            if not series:
                continue
            lead = min(series)
            out.append((Root(i, j), -lead, series[lead]))
    return out


def test_paired_root_leading_data_matches_all_pairs_loop():
    for q in _merge_cases():
        want = [(r, k_r, c_r.t) for r, k_r, c_r in reference_root_leading_data(q)]
        upper = [(r, k_r, c_r, arg_angle(c_r)) for r, k_r, c_r in _upper_leading_data(q)]
        got = _root_leading_data(upper)
        assert [(r, k_r, c_r.t) for r, k_r, c_r, _ in got] == want
        assert [(r, k_r, c_r.t) for r, k_r, c_r, _ in upper] == \
            [t for t in want if t[0].i < t[0].j]
        # -r's argument, derived from r's, is arg_angle's own expression
        assert [_expression(arg) for _, _, _, arg in got] == \
            [_expression(arg_angle(c_r)) for _, _, c_r, _ in got]


# ---------------------------------------------------------------------
# decay signs: cosine enclosure first against cos_sign for every root
# ---------------------------------------------------------------------

def reference_decay_signs(roots, delta):
    signs = [cos_sign(arg - delta.scale(k_r)) for _, k_r, arg in roots]
    return None if 0 in signs else signs


def test_decay_signs_match_cos_sign_reference():
    tiny = arg_angle(gr(10**30, 1)) - arg_angle(gr(10**30 + 1, 1))  # about 1e-60
    rng = random.Random(5310)
    nongeneric = 0
    for q in _merge_cases():
        roots = [(r, k_r, arg_angle(c_r)) for r, k_r, c_r in _upper_leading_data(q)]
        if not roots:
            continue
        deltas = [AngleExpr.of_pi(F(rng.randint(0, 47), 24)) +
                  arg_angle(gr(rng.randint(1, 9), rng.randint(1, 9))).scale(F(1, 3))
                  for _ in range(3)]
        # cos(arg(c_r) - k_r delta) = 0 exactly for the root picked, and
        # 1e-60 away from 0 once delta is moved by tiny
        _r, k_r, arg = rng.choice(roots)
        zero = (arg - AngleExpr.of_pi(F(1, 2))).scale(F(1, k_r)).principal()
        deltas += [zero, zero + tiny, zero - tiny]
        for delta in deltas:
            assert _decay_signs(roots, delta) == reference_decay_signs(roots, delta)
        assert _decay_signs(roots, zero) is None
        assert _decay_signs(roots, zero + tiny) is not None
        nongeneric += 1
    assert nongeneric >= 30


# ---------------------------------------------------------------------
# rotation invariance through the sweep against the quadratic scan
# ---------------------------------------------------------------------

def reference_rotate_invariant(diag):
    """Each rotated direction looked up among all directions."""
    if not diag.uniform_k:
        return False
    step = F(1, diag.k)
    angles = diag.angles()
    for a in angles:
        shifted = a.shift_pi(step).principal()
        if not any(shifted.compare(b) == 0 for b in angles):
            return False
    return True


def test_rotate_invariant_matches_quadratic_scan():
    seen = {True: 0, False: 0}
    mixed = 0
    for q in _merge_cases():
        try:
            diag = anti_stokes(q)
        except StokesError:
            continue
        mixed += not diag.uniform_k
        variants = [
            diag,
            # mixed orders checked as if uniform
            StokesDiagram(q, diag.directions, diag.k, True),
            # one direction dropped, and rotation by pi/(2k): not invariant
            StokesDiagram(q, diag.directions[1:], diag.k, True),
            StokesDiagram(q, diag.directions, 2 * diag.k, True),
        ]
        for v in variants:
            got = rotate_angle_set_invariant(v)
            assert got == reference_rotate_invariant(v)
            seen[got] += 1
    assert seen[True] >= 10 and seen[False] >= 10 and mixed > 0
