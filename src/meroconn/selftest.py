"""Seeded invariant suite behind the `selftest` CLI command.

One entry per acceptance-style criterion; each returns a deterministic
result dict (no wall-clock values, so reports are byte-identical for a
fixed seed).  The pytest acceptance module reuses these functions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, List

from .betti import (FilteredStokesRep, PunctureData, StokesRep, check_relation,
                    check_stability, group_act, irreducible)
from .connection import (MeroConnection, canonical_reduce, extract_irregular_type,
                         gauge_act, gauge_orbit_equal)
from .correspondence import (DeRhamLocal, dR_to_Betti, dR_to_Dol,
                             expected_multiplier, rank1_monodromy_oracle,
                             roundtrip_weight_check)
from .field import CMat, GaussRat
from .lmatrix import LaurentMatrix
from .modelmetric import (MetricData, TPoly, curvature_e0, higgs_extraction,
                          pseudo_curvature, sl2_identity_suite)
from .randomgen import (gl2_four_direction_diagram, rand_connection,
                        rand_de_rham_local, rand_gauss, rand_invertible,
                        rand_nilpotent, rand_parahoric_gauge, rand_relation_rep,
                        rand_small_weight)
from .residues import Sl2Data, sl2_complete
from .rootdata import IrregularType, Root, Weight
from .stokes import (anti_stokes, rotate_angle_set_invariant,
                     stokes_dim_check, stokes_factor_matrix)


def criterion_canonical_suite(seed: int, trunc: int = 12, count: int = 50) -> Dict:
    """Random GL2/GL3 reductions: invariants, gauge verification,
    idempotence.  The 10 s time budget is enforced by the acceptance test
    around this call, not in the report, which must not depend on the
    wall clock."""
    rng = random.Random(seed)
    failures = []
    for k in range(count):
        n = 2 if k % 2 == 0 else 3
        pole = 1 + (k % 3)
        theta = Weight([0] * n) if k % 3 != 1 else rand_small_weight(rng, n)
        conn = rand_connection(rng, n, pole, trunc, theta)
        canonical, g = canonical_reduce(conn, theta, trunc)
        if not canonical.check_invariants(theta):
            failures.append(f"case {k}: canonical-form invariants")
        if not gauge_orbit_equal(conn, canonical.as_connection(trunc), g):
            failures.append(f"case {k}: gauge does not reproduce the form")
        re_form, re_gauge = canonical_reduce(canonical.as_connection(trunc), theta, trunc)
        if not re_gauge.agrees(LaurentMatrix.identity(n)):
            failures.append(f"case {k}: reduction is not idempotent")
        if re_form.residue != canonical.residue:
            failures.append(f"case {k}: re-reduction changed the residue")
    return {
        "name": "canonical-form suite",
        "cases": count,
        "failures": failures,
        "passed": not failures,
    }


def criterion_irregular_invariance(seed: int, trunc: int = 12, count: int = 20) -> Dict:
    """Pre-composing with a random parahoric gauge fixes the extracted
    irregular type exactly."""
    rng = random.Random(seed + 1)
    failures = []
    for k in range(count):
        n = 2 if k % 2 == 0 else 3
        pole = 1 + (k % 3)
        theta = Weight([0] * n) if k % 2 == 0 else rand_small_weight(rng, n)
        conn = rand_connection(rng, n, pole, trunc, theta)
        g = rand_parahoric_gauge(rng, theta, trunc + pole)
        gauged = gauge_act(g, conn)
        q0 = extract_irregular_type(conn, theta, trunc)
        q1 = extract_irregular_type(gauged, theta, trunc)
        if q0 != q1:
            failures.append(f"case {k}: irregular type changed under parahoric gauge")
    return {
        "name": "irregular-type gauge invariance",
        "cases": count,
        "failures": failures,
        "passed": not failures,
    }


def criterion_antistokes(seed: int, count: int = 20) -> Dict:
    """Rotation symmetry, integral half-period count, dimension match."""
    rng = random.Random(seed + 2)
    failures = []
    for k in range(count):
        n = 2 if k % 2 == 0 else 3
        pole = 2 + (k % 2)
        lead = _distinct_gauss(rng, n)
        coeffs = {pole: tuple(lead)}
        for j in range(1, pole):
            if rng.random() < 0.5:
                coeffs[j] = tuple(rand_gauss(rng, 6, 6) for _ in range(n))
        q = IrregularType(n, coeffs)
        diag = anti_stokes(q)
        if not rotate_angle_set_invariant(diag):
            failures.append(f"case {k}: direction set not pi/k-rotation invariant")
        if diag.l is None:
            failures.append(f"case {k}: l = #A/2k not integral")
            continue
        lhs, rhs = stokes_dim_check(diag)
        if lhs != rhs:
            failures.append(f"case {k}: dimension mismatch {lhs} != {rhs}")
    return {
        "name": "anti-Stokes combinatorics",
        "cases": count,
        "failures": failures,
        "passed": not failures,
    }


def _distinct_gauss(rng, n):
    while True:
        vals = [rand_gauss(rng, 8, 4, complex_ok=True) for _ in range(n)]
        if len({(a - b).t for a in vals for b in vals if a is not b}) == n * (n - 1):
            return vals


def criterion_betti_action(seed: int, count: int = 100) -> Dict:
    """The (g, k)-action preserves the defining relation, exactly."""
    rng = random.Random(seed + 3)
    failures = []
    fixture = rand_relation_rep(random.Random(12345), genus=0, punctures=1)
    if not check_relation(fixture):
        failures.append("constructive fixture violates the relation")
    for k in range(count):
        genus = k % 2
        rep = rand_relation_rep(rng, genus=genus, punctures=1 + (k % 2))
        if not check_relation(rep):
            failures.append(f"case {k}: generated representation violates the relation")
            continue
        g = rand_invertible(rng, 2)
        ks = [
            CMat.diag([rand_gauss(rng, 4, 4, nonzero=True) for _ in range(2)])
            for _ in rep.punctures
        ]
        moved = group_act(g, ks, rep)
        if not check_relation(moved):
            failures.append(f"case {k}: relation broken by the action")
    return {
        "name": "Betti relation and action",
        "cases": count,
        "failures": failures,
        "passed": not failures,
    }


def stability_fixtures() -> List[StokesRep]:
    """Ten relation-satisfying representations (n <= 3) used to
    cross-check trivial-weight stability verdicts against direct
    irreducibility.

    Punctured fixtures come in cancelling pairs (h at one puncture,
    h^-1 at the other, same conjugator) so the defining relation holds
    exactly without constraining the generators we care about."""
    one = GaussRat(1)
    q2 = IrregularType(2, {1: (GaussRat(1), GaussRat(0))})
    d2 = anti_stokes(q2)
    q3 = IrregularType(3, {1: (GaussRat(1), GaussRat(2), GaussRat(3))})
    d3 = anti_stokes(q3)
    swap = CMat([[0, 1], [1, 0]])
    cycle3 = CMat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    e12 = Root(0, 1)
    d4 = gl2_four_direction_diagram()

    def paired(diagram, conj, h):
        idents = tuple(CMat.identity(h.n) for _ in range(diagram.num_directions))
        return (
            PunctureData(diagram, conj, h, idents),
            PunctureData(diagram, conj, h.inv(), idents),
        )

    unip_pair = (
        stokes_factor_matrix(d4, 0, {}),
        stokes_factor_matrix(d4, 1, {e12: one}),
        stokes_factor_matrix(d4, 2, {}),
        stokes_factor_matrix(d4, 3, {e12: -one}),
    )
    fixtures = [
        # diagonal generators: reducible
        StokesRep(0, (), paired(d2, CMat.identity(2), CMat.diag([2, 3]))),
        # permutation conjugator: irreducible
        StokesRep(0, (), paired(d2, swap, CMat.diag([2, 3]))),
        # solvable family with both triangles present: irreducible
        rand_relation_rep(random.Random(777), 0, 1),
        # upper-triangular Stokes factors only: reducible
        StokesRep(0, (), (PunctureData(d4, CMat.identity(2), CMat.identity(2), unip_pair),)),
        # genus-1 commuting diagonal pair: reducible
        StokesRep(1, ((CMat.diag([2, 3]), CMat.diag([5, 7])),), ()),
        # genus-1 scalar with swap: irreducible
        StokesRep(1, ((CMat.diag([2, 2]), swap),), ()),
        # GL3 diagonal: reducible
        StokesRep(0, (), paired(d3, CMat.identity(3), CMat.diag([2, 3, 5]))),
        # GL3 cycle conjugator: irreducible
        StokesRep(0, (), paired(d3, cycle3, CMat.diag([2, 3, 5]))),
        # GL3 block swap: reducible (the 2+1 block pattern survives)
        StokesRep(0, (), paired(d3, CMat([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                                CMat.diag([2, 3, 5]))),
        # diagonal conjugator with the unipotent pair: reducible
        StokesRep(0, (), (PunctureData(d4, CMat.diag([2, 5]), CMat.identity(2), unip_pair),)),
    ]
    return fixtures


def criterion_stability(seed: int) -> Dict:
    """Zero-weight stability verdict == direct irreducibility enumeration."""
    failures = []
    fixtures = stability_fixtures()
    for k, rep in enumerate(fixtures):
        if not check_relation(rep):
            failures.append(f"fixture {k}: defining relation violated")
        zero = tuple(Weight([0] * rep.n) for _ in rep.punctures)
        filtered = FilteredStokesRep(rep, zero)
        verdict = check_stability(filtered)
        irr = irreducible(rep)
        want = "stable" if irr else "semistable"
        if verdict.status != want:
            failures.append(
                f"fixture {k}: verdict {verdict.status}, irreducibility says {want}"
            )
    return {
        "name": "stability vs irreducibility",
        "cases": len(fixtures),
        "failures": failures,
        "passed": not failures,
    }


def criterion_dictionary(seed: int, count: int = 100, oracle_cases: int = 20) -> Dict:
    """Weight identities exact; the monodromy factorization
    exp(-2 pi i (s + Y)) = exp(-2 pi i s) exp(-2 pi i Y) by its exact
    condition, s and Y commuting (tier-1 compares it with a numeric
    matrix exponential on the same draws); rank-1 oracle against
    exp(2 pi i b) at 1e-8."""
    rng = random.Random(seed + 4)
    failures = []
    for k in range(count):
        n = rng.randint(2, 4)
        d = rand_de_rham_local(rng, n)
        dol = dR_to_Dol(d)
        st = d.structure()
        if any(
            dol.alpha.entries[i] != st.s[i, i].re for i in range(n)
        ):
            failures.append(f"case {k}: alpha != Re(s)")
        if dol.q != d.q.half():
            failures.append(f"case {k}: Dolbeault irregular type is not Q/2")
        if not roundtrip_weight_check(d):
            failures.append(f"case {k}: gamma + alpha != beta")
    for k in range(20):
        n = rng.randint(2, 3)
        st = rand_de_rham_local(rng, n).structure()
        if st.s * st.Y != st.Y * st.s:
            failures.append(f"monodromy case {k}: s and Y do not commute")
    max_err = 0.0
    for k in range(oracle_cases):
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        q = None
        if k % 3 == 0:
            q = IrregularType(1, {1: (rand_gauss(rng, 3, 3),)})
        got = rank1_monodromy_oracle(b, q, steps=2048, prec=64)
        err = abs(got - expected_multiplier(b))
        max_err = max(max_err, err)
        if err > 1e-8:
            failures.append(f"oracle case {k}: b={b}, error {err:.2e}")
    return {
        "name": "dictionary identities",
        "cases": count,
        "oracle_cases": oracle_cases,
        "oracle_max_error": repr(max_err),
        "failures": failures,
        "passed": not failures,
    }


def criterion_metric(seed: int) -> Dict:
    """Model-metric lemmas for every nilpotent Jordan type of size <= 4
    plus random conjugates; corrupted triple must be detected."""
    rng = random.Random(seed + 5)
    failures = []
    shapes = []
    for n in range(1, 5):
        shapes += [(n, k) for k in range(8)]
    cases = 0
    for n, k in shapes:
        y = rand_nilpotent(rng, n)
        triple = sl2_complete(y)
        data = MetricData(
            beta=Weight([0] * n),
            triple=Sl2Data(CMat.zero(n), triple.X, triple.H, triple.Y, triple.basis),
            q=IrregularType(n, {}),
        )
        cases += 1
        if not pseudo_curvature(data).is_zero():
            failures.append(f"n={n} case {k}: pseudo-curvature nonzero")
        if curvature_e0(data) != TPoly.of((2, data.triple.H.scale(2))):
            failures.append(f"n={n} case {k}: orthonormal curvature != 2H t^2")
        report = sl2_identity_suite(data.triple)
        if not report.all_pass:
            failures.append(f"n={n} case {k}: identities failed {report.failed()}")
    # corrupted triple: H shifted by a unit matrix must be detected
    y = CMat.unit(2, 1, 0)
    triple = sl2_complete(y)
    bad = Sl2Data(CMat.zero(2), triple.X, triple.H + CMat.unit(2, 0, 0), triple.Y,
                  triple.basis)
    data = MetricData(Weight([0, 0]), bad, IrregularType(2, {}), validate=False)
    if pseudo_curvature(data).is_zero():
        failures.append("corrupted triple was not detected")
    return {
        "name": "model-metric lemmas",
        "cases": cases,
        "failures": failures,
        "passed": not failures,
    }


def criterion_cross_module(seed: int, count: int = 20) -> Dict:
    """higgs_extraction residue equals the dictionary residue, including
    the semisimple (Y = 0) specialization."""
    rng = random.Random(seed + 6)
    failures = []
    for k in range(count):
        n = rng.randint(2, 4)
        d = rand_de_rham_local(rng, n)
        if k % 4 == 0:
            d = DeRhamLocal(d.beta, d.structure().s, d.q)  # the Y = 0 row
        ops = higgs_extraction(MetricData.from_de_rham(d))
        if ops.residue != dR_to_Dol(d).residue:
            failures.append(f"case {k}: residues differ")
        if k % 4 == 0:
            st = d.structure()
            half = Fraction(1, 2)
            beta_mat = CMat.diag([GaussRat(b) for b in d.beta.entries])
            if ops.residue != (st.s - beta_mat).scale(half):
                failures.append(f"case {k}: semisimple row is not (s - beta)/2")
    return {
        "name": "cross-module residue consistency",
        "cases": count,
        "failures": failures,
        "passed": not failures,
    }


def criterion_golden_examples(seed: int) -> Dict:
    """Worked examples from every module, frozen as golden fixtures."""
    from .lmatrix import mat_exp_nilpotent, mat_inv, mat_mul
    from .modelmetric import (chern_coefficient,
                              chern_curvature_from_coefficient, curvature_e0,
                              higgs_extraction)
    from .rootdata import (Character, Root, enumerate_parabolics_containing_T,
                           m_r, pairing, parabolic_from_weight,
                           parahoric_degree, parahoric_member)
    from .residues import jordan_decompose, sl2_complete
    from .series import INF, LaurentSeries as LS
    from .stokes import groupoid_presentation, stokes_group_basis

    failures = []
    cases = 0

    def check(name, ok):
        nonlocal cases
        cases += 1
        if not ok:
            failures.append(name)

    # exact field and series layer
    check("series val z^-2+3z", LS.from_dict({-2: 1, 1: 3}).val() == -2)
    check("series val zero", LS.zero().val() == INF)
    check("series val truncated monomial", LS.from_dict({3: 1}, trunc=5).val() == 3)
    e12 = CMat.unit(2, 0, 1)
    e21 = CMat.unit(2, 1, 0)
    a = LaurentMatrix.identity(2) + LaurentMatrix.monomial(e12, 1)
    b = LaurentMatrix.identity(2) - LaurentMatrix.monomial(e12, 1)
    check("unipotent product pair", mat_mul(a, b).agrees(LaurentMatrix.identity(2)))
    d1 = LaurentMatrix([[LS.monomial(1, 1), LS.zero()], [LS.zero(), LS.monomial(1, -1)]])
    d2 = LaurentMatrix([[LS.monomial(1, -1), LS.zero()], [LS.zero(), LS.monomial(1, 1)]])
    check("torus monomial pair", mat_mul(d1, d2).agrees(LaurentMatrix.identity(2)))
    half = Fraction(1, 2)
    g_half = LaurentMatrix.identity(2) + LaurentMatrix.monomial(e12.scale(half), 1)
    check("inverse of I + E12 z/2",
          mat_inv(g_half).coeff(1) == e12.scale(-half))
    exp_mono = mat_exp_nilpotent(LaurentMatrix.monomial(e21, 2, trunc=4))
    check("exp of E21 z^2", exp_mono.coeff(2) == e21
          and exp_mono.coeff(0) == CMat.identity(2))

    # root data
    w_half = Weight([half, 0])
    check("m_r ceiling values",
          m_r(Weight([0, 0]), Root(0, 1)) == 0
          and m_r(w_half, Root(0, 1)) == 0
          and m_r(w_half, Root(1, 0)) == 1
          and m_r(Weight([1, 0]), Root(1, 0)) == 1)
    check("parahoric membership", parahoric_member(LaurentMatrix.identity(2), w_half)
          and not parahoric_member(
              LaurentMatrix.from_const(CMat.identity(2) + e21), w_half))
    check("parabolic from weight",
          parabolic_from_weight(w_half).blocks == ((0,), (1,))
          and len(parabolic_from_weight(Weight([0, 0, 0])).blocks) == 1)
    check("character pairing", pairing(w_half, Character([1, 1])) == half)
    check("parahoric degree",
          parahoric_degree(1, [Weight([-half, -half])], Character([1, 1])) == 0
          and parahoric_degree(2, [Weight([Fraction(1, 4)] * 2)] * 2,
                               Character([1, 1])) == 3)
    check("parabolic counts",
          len(enumerate_parabolics_containing_T(2)) == 2
          and len(enumerate_parabolics_containing_T(3)) == 12)

    # canonical reduction
    d11 = CMat.diag([1, -1])
    gl2 = MeroConnection(
        (LaurentMatrix.monomial(d11, -1) + LaurentMatrix.from_const(e12)).truncate(12))
    canonical, gauge = canonical_reduce(gl2, trunc=12)
    check("canonical worked example",
          canonical.polar == {1: d11}
          and canonical.residue.is_zero()
          and gauge.coeff(1) == e12.scale(half)
          and gauge_orbit_equal(gl2, canonical.as_connection(12), gauge))
    fixed = MeroConnection(
        (LaurentMatrix.monomial(d11, -1)
         + LaurentMatrix.from_const(CMat.diag([1, 2]))).truncate(12))
    _, g_fixed = canonical_reduce(fixed)
    check("canonical fixed point", g_fixed.agrees(LaurentMatrix.identity(2)))
    check("extract worked example",
          extract_irregular_type(gl2) == IrregularType(2, {1: (GaussRat(-1), GaussRat(1))}))
    check("extract integrates dQ",
          extract_irregular_type(MeroConnection(
              LaurentMatrix.monomial(CMat.diag([2, 0]), -2).truncate(8)))
          == IrregularType(2, {2: (GaussRat(-1), GaussRat(0))}))
    s_j, y_j = jordan_decompose(CMat([[1, 1], [0, 1]]))
    check("jordan of a Jordan block", s_j == CMat.identity(2) and y_j == e12)
    triple2 = sl2_complete(e21)
    check("sl2 of E21", triple2.X == e12 and triple2.H == CMat.diag([1, -1]))
    triple3 = sl2_complete(CMat([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
    check("sl2 of the 3x3 block", triple3.H == CMat.diag([2, 0, -2]))

    # Stokes diagrams
    diag4 = anti_stokes(IrregularType(2, {2: (GaussRat(1), GaussRat(-1))}))
    check("anti-Stokes quarter angles",
          [d.angle.pi_ratio() for d in diag4.directions]
          == [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)]
          and diag4.k == 2 and diag4.l == 1)
    check("support of the pi/2 direction",
          stokes_group_basis(diag4, 1) == [Root(0, 1)]
          and stokes_group_basis(diag4, 0) == [Root(1, 0)])
    diag2 = anti_stokes(IrregularType(2, {1: (GaussRat(1), GaussRat(0))}))
    check("anti-Stokes half angles",
          [d.angle.pi_ratio() for d in diag2.directions] == [Fraction(0), Fraction(1)])
    check("dimension counts",
          stokes_dim_check(diag4) == (4, 4)
          and stokes_dim_check(anti_stokes(
              IrregularType(3, {1: (GaussRat(1), GaussRat(2), GaussRat(3))}))) == (6, 6))
    try:
        anti_stokes(IrregularType(2, {1: (GaussRat(5), GaussRat(5))}))
        check("central irregular type rejected", False)
    except Exception:
        pass
    pres = groupoid_presentation(0, [diag4])
    check("relation length", pres.relation_length == 6)
    check("torus relation",
          groupoid_presentation(1, []).relation_word == ("a1", "b1", "a1^-1", "b1^-1"))

    # Betti side
    r21, r12 = Root(1, 0), Root(0, 1)
    s_fix = (
        stokes_factor_matrix(diag4, 0, {r21: GaussRat(1)}),
        stokes_factor_matrix(diag4, 1, {r12: GaussRat(1)}),
        stokes_factor_matrix(diag4, 2, {r21: GaussRat(Fraction(-1, 2))}),
        stokes_factor_matrix(diag4, 3, {r12: GaussRat(-2)}),
    )
    fix = StokesRep(0, (), (PunctureData(diag4, CMat.identity(2),
                                         CMat.diag([half, 2]), s_fix),))
    check("constructive relation fixture", check_relation(fix))
    comm = StokesRep(1, ((CMat.diag([2, 3]), CMat([[0, 1], [1, 0]])),), ())
    check("broken commutator detected", not check_relation(comm))
    fixtures = stability_fixtures()
    diag_fix = FilteredStokesRep(fixtures[0],
                                 (Weight([Fraction(1, 3), Fraction(-1, 3)]),
                                  Weight([0, 0])))
    verdict = check_stability(diag_fix)
    check("diagonal with weights unstable",
          verdict.status == "unstable"
          and any(d == Fraction(-2, 3) for _, _, d in verdict.witnesses))
    zero2 = (Weight([0, 0]), Weight([0, 0]))
    check("diagonal semistable at zero weights",
          check_stability(FilteredStokesRep(fixtures[0], zero2)).status == "semistable")
    check("permutation stable",
          check_stability(FilteredStokesRep(fixtures[1], zero2)).status == "stable")

    # local dictionaries
    q_pole2 = IrregularType(2, {2: (GaussRat(1), GaussRat(-1))})
    d_semi = DeRhamLocal(Weight([0, 0]), CMat.diag([GaussRat(half), GaussRat(0)]),
                         q_pole2)
    dol = dR_to_Dol(d_semi)
    check("Dolbeault semisimple row",
          dol.alpha.entries == (half, Fraction(0))
          and dol.residue == CMat.diag([Fraction(1, 4), 0])
          and dol.q == q_pole2.half())
    bet = dR_to_Betti(d_semi)
    num = bet.monodromy_numeric()
    check("Betti semisimple row",
          bet.gamma.entries == (-half, Fraction(0))
          and abs(num[0][0] + 1) < 1e-12 and abs(num[1][1] - 1) < 1e-12)
    q_triv = IrregularType(2, {})
    d_nil = DeRhamLocal(Weight([0, 0]), e21, q_triv)
    check("Dolbeault nilpotent row",
          dR_to_Dol(d_nil).residue == e21 - CMat.diag([1, -1]) + e12)
    check("Betti nilpotent pi coefficient",
          dR_to_Betti(d_nil).nilpotent_factor.coeffs[1] == e21.scale(GaussRat(0, -2)))
    check("weight roundtrip", roundtrip_weight_check(d_semi)
          and roundtrip_weight_check(d_nil))
    check("oracle at zero",
          abs(rank1_monodromy_oracle(Fraction(0), steps=256, prec=64) - 1) < 1e-10)
    check("oracle at one half",
          abs(rank1_monodromy_oracle(half, steps=1024, prec=64) - (-1)) < 1e-8)

    # model metric
    m_std = MetricData.from_de_rham(d_nil)
    t = m_std.triple
    check("t-derivative rule",
          TPoly.of((1, t.H)).t_derivative() == TPoly.of((2, -t.H))
          and TPoly.of((0, t.H)).t_derivative().is_zero())
    check("identity suite standard", sl2_identity_suite(t).all_pass)
    check("pseudo-curvature vanishes", pseudo_curvature(m_std).is_zero())
    check("curvature 2H t^2",
          curvature_e0(m_std) == TPoly.of((2, t.H.scale(2))))
    check("Chern coefficient",
          chern_coefficient(m_std) == TPoly.of((0, -t.Y), (1, t.H.scale(2)),
                                               (2, t.X.scale(2))))
    check("d-bar reproduces the curvature",
          chern_curvature_from_coefficient(m_std)
          == TPoly.of((2, t.H.scale(2)), (3, t.X.scale(4))))
    ops = higgs_extraction(m_std)
    check("Higgs operators", ops.phi == TPoly.of((1, -t.Y))
          and ops.residue == t.Y - t.H + t.X)
    return {
        "name": "golden spec examples",
        "cases": cases,
        "failures": failures,
        "passed": not failures,
    }


CRITERIA: List[Callable[..., Dict]] = [
    criterion_canonical_suite,
    criterion_irregular_invariance,
    criterion_antistokes,
    criterion_betti_action,
    criterion_stability,
    criterion_dictionary,
    criterion_metric,
    criterion_cross_module,
    criterion_golden_examples,
]


def run_selftest(seed: int = 42, trunc: int = 12, quick: bool = False) -> Dict:
    """Run every criterion; the report contains no timestamps or wall
    clock values so identical (seed, trunc, version) give identical
    bytes."""
    results = []
    for fn in CRITERIA:
        kwargs = {}
        if fn is criterion_canonical_suite:
            kwargs = {"trunc": trunc, "count": 10 if quick else 50}
        elif fn is criterion_irregular_invariance:
            kwargs = {"trunc": trunc, "count": 5 if quick else 20}
        elif fn is criterion_betti_action:
            kwargs = {"count": 20 if quick else 100}
        elif fn is criterion_dictionary:
            kwargs = {"count": 20 if quick else 100,
                      "oracle_cases": 5 if quick else 20}
        results.append(fn(seed, **kwargs))
    return {
        "format": "meroconn/1",
        "command": "selftest",
        "seed": seed,
        "trunc": trunc,
        "quick": quick,
        "passed": all(r["passed"] for r in results),
        "criteria": results,
    }
