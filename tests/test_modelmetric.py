import json
import random
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest

from meroconn import jsonio

from meroconn.correspondence import DeRhamLocal, dR_to_Dol
from meroconn.field import CMat, gr
from meroconn.modelmetric import (HiggsOperators, MetricData, MetricError,
                                  TPoly, chern_coefficient,
                                  chern_curvature_from_coefficient,
                                  curvature_e0, higgs_extraction,
                                  pseudo_curvature, sl2_identity_suite,
                                  weight_jump_check)
from meroconn.randomgen import rand_de_rham_local, rand_nilpotent
from meroconn.residues import Sl2Data, sl2_complete
from meroconn.rootdata import IrregularType, Weight


def standard_data(n=2):
    y = CMat.unit(2, 1, 0) if n == 2 else CMat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    d = DeRhamLocal(Weight([0] * n), y, IrregularType(n, {}))
    return MetricData.from_de_rham(d)


# ---------------------------------------------------------------------
# TPoly calculus
# ---------------------------------------------------------------------

def test_t_derivative_examples():
    m = CMat.diag([1, 2])
    assert TPoly.of((1, m)).t_derivative() == TPoly.of((2, -m))
    assert TPoly.of((0, m)).t_derivative().is_zero()
    assert TPoly.of((2, m)).t_derivative() == TPoly.of((3, m.scale(-2)))


def test_tpoly_bracket_and_eq():
    x, y = CMat.unit(2, 0, 1), CMat.unit(2, 1, 0)
    p = TPoly.of((1, x))
    q = TPoly.of((1, y))
    assert p.bracket(q) == TPoly.of((2, x.bracket(y)))
    assert (p - p).is_zero()
    with pytest.raises(MetricError):
        TPoly({-1: x})


# ---------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------

def test_identity_suite_standard_2x2():
    data = standard_data(2)
    report = sl2_identity_suite(data.triple)
    assert report.all_pass
    # e^X H e^-X = H - 2X by direct 2x2 multiplication
    x, h = data.triple.X, data.triple.H
    lhs = x.exp_nilpotent() * h * (-x).exp_nilpotent()
    assert lhs == h - x.scale(2)


def test_identity_suite_zero_triple():
    z = CMat.zero(2)
    report = sl2_identity_suite(Sl2Data(z, z, z, z, CMat.identity(2)))
    assert report.all_pass


def test_identity_suite_3x3_block():
    assert sl2_identity_suite(standard_data(3).triple).all_pass


def test_identity_suite_random_conjugates():
    rng = random.Random(81)
    for _ in range(15):
        n = rng.randint(2, 4)
        triple = sl2_complete(rand_nilpotent(rng, n))
        assert sl2_identity_suite(triple).all_pass


# ---------------------------------------------------------------------
# pseudo-curvature
# ---------------------------------------------------------------------

def test_pseudo_curvature_vanishes():
    assert pseudo_curvature(standard_data(2)).is_zero()
    assert pseudo_curvature(standard_data(3)).is_zero()


def test_pseudo_curvature_y_zero_case():
    d = DeRhamLocal(Weight([F(1, 4), 0]), CMat.diag([gr(2), gr(3)]),
                    IrregularType(2, {}))
    data = MetricData.from_de_rham(d)
    # both the derivative term and the bracket vanish individually
    assert data.triple.Y.is_zero()
    assert pseudo_curvature(data).is_zero()


def test_pseudo_curvature_detects_corruption():
    data = standard_data(2)
    bad = Sl2Data(data.triple.s, data.triple.X,
                  data.triple.H + CMat.unit(2, 0, 0), data.triple.Y,
                  data.triple.basis)
    broken = MetricData(data.beta, bad, data.q, validate=False)
    assert not pseudo_curvature(broken).is_zero()
    with pytest.raises(MetricError):
        MetricData(data.beta, bad, data.q)  # validation also catches it


# ---------------------------------------------------------------------
# curvature in the orthonormal frame
# ---------------------------------------------------------------------

def test_curvature_e0_standard():
    data = standard_data(2)
    assert curvature_e0(data) == TPoly.of((2, data.triple.H.scale(2)))


def test_curvature_e0_trivial_triple():
    d = DeRhamLocal(Weight([0, 0]), CMat.zero(2), IrregularType(2, {}))
    assert curvature_e0(MetricData.from_de_rham(d)).is_zero()


def test_curvature_e0_3x3_and_acceptability_shape():
    data = standard_data(3)
    out = curvature_e0(data)
    assert out == TPoly.of((2, data.triple.H.scale(2)))
    assert min(out.coeffs) >= 2  # no terms below t^2


def test_chern_coefficient_and_dbar():
    data = standard_data(2)
    t = data.triple
    want = TPoly.of((0, -t.Y), (1, t.H.scale(2)), (2, t.X.scale(2)))
    assert chern_coefficient(data) == want  # beta = 0 here
    # applying -zbar d/dzbar reproduces the e-frame curvature
    assert chern_curvature_from_coefficient(data) == \
        TPoly.of((2, t.H.scale(2)), (3, t.X.scale(4)))


def test_chern_coefficient_zero_data():
    d = DeRhamLocal(Weight([0, 0]), CMat.zero(2), IrregularType(2, {}))
    assert chern_coefficient(MetricData.from_de_rham(d)).is_zero()


# ---------------------------------------------------------------------
# Higgs extraction
# ---------------------------------------------------------------------

def test_higgs_extraction_pure_nilpotent():
    data = standard_data(2)
    ops = higgs_extraction(data)
    t = data.triple
    assert ops.phi == TPoly.of((1, -t.Y))
    assert ops.residue == t.Y - t.H + t.X
    assert ops.phi_q_tag.is_zero()


def test_higgs_extraction_all_zero():
    d = DeRhamLocal(Weight([0, 0]), CMat.zero(2), IrregularType(2, {}))
    ops = higgs_extraction(MetricData.from_de_rham(d))
    assert ops.phi.is_zero() and ops.phi_star.is_zero() and ops.del_bar.is_zero()
    assert ops.residue.is_zero()


def test_higgs_extraction_semisimple_row():
    d = DeRhamLocal(Weight([F(1, 4), F(1, 4)]),
                    CMat.diag([gr(F(1, 2)), gr(F(1, 3))]), IrregularType(2, {}))
    ops = higgs_extraction(MetricData.from_de_rham(d))
    st = d.structure()
    beta = CMat.diag([gr(F(1, 4)), gr(F(1, 4))])
    assert ops.residue == (st.s - beta).scale(F(1, 2))


def test_higgs_q_tags_carried():
    q = IrregularType(2, {2: (gr(1), gr(-1))})
    d = DeRhamLocal(Weight([0, 0]), CMat.zero(2), q)
    ops = higgs_extraction(MetricData.from_de_rham(d))
    # phi tag = (1/2) z Q'(z) = -diag(1,-1) z^-2
    assert ops.phi_q_tag.coeff(-2) == CMat.diag([-1, 1])
    assert ops.del_bar_q_tag.coeff(-2) == CMat.diag([1, -1])


def test_higgs_residue_matches_dictionary_random():
    rng = random.Random(82)
    for _ in range(20):
        d = rand_de_rham_local(rng, rng.randint(2, 4))
        ops = higgs_extraction(MetricData.from_de_rham(d))
        assert ops.residue == dR_to_Dol(d).residue


# ---------------------------------------------------------------------
# numeric weight-jump diagnostic
# ---------------------------------------------------------------------

def test_weight_jump_power_law():
    d = DeRhamLocal(Weight([F(1, 2), 0]), CMat.zero(2), IrregularType(2, {}))
    report = weight_jump_check(MetricData.from_de_rham(d))
    assert report.de_rham_targets == (1.0, 0.0)
    assert report.de_rham_pass and report.all_pass


def test_weight_jump_log_corrections_only():
    data = standard_data(2)  # beta = 0, nontrivial triple
    report = weight_jump_check(data)
    assert report.de_rham_targets == (0.0, 0.0)
    assert report.de_rham_pass


def test_weight_jump_dolbeault_exponent():
    d = DeRhamLocal(Weight([F(1, 4), F(1, 4)]),
                    CMat.diag([gr(F(1, 3)), gr(0)]), IrregularType(2, {}))
    report = weight_jump_check(MetricData.from_de_rham(d))
    assert report.dolbeault_targets == (2 / 3, 0.0)
    assert report.dolbeault_pass


def _weight_jump_reference(data):
    """The float weight-jump fit, step by step: the matrices converted to
    floats, the metric evaluated with matrix exponentials (mpmath.expm in
    place of scipy.linalg.expm) at each radius, and one 6x3 least-squares
    solve (mpmath.qr_solve in place of numpy.linalg.lstsq) per entry."""
    t = data.triple
    n = t.H.n

    def num(m):
        return mpmath.matrix([[complex(m[i, j]) for j in range(n)] for i in range(n)])

    h_num, x_num, y_num = num(t.H), num(t.X), num(t.Y)
    beta = [float(b) for b in data.beta.entries]
    s_re = [float(t.s[i, i].re) for i in range(n)]
    radii = [10.0 ** (-e) for e in range(3, 9)]
    exp_my, exp_mx = mpmath.expm(-y_num), mpmath.expm(-x_num)
    exp_y, exp_x = mpmath.expm(y_num), mpmath.expm(x_num)
    rows_dr, rows_dol = [], []
    for r in radii:
        big_l = -mpmath.log(r * r)
        logpow_half = mpmath.expm(h_num * (mpmath.log(big_l) / 2))
        logpow_one = mpmath.expm(h_num * mpmath.log(big_l))
        h0 = mpmath.diag([r ** (2 * b) for b in beta]) * logpow_half * exp_my * exp_mx * logpow_half
        h2 = mpmath.diag([r ** (2 * sr) for sr in s_re]) * exp_y * logpow_one * exp_x
        rows_dr.append([abs(h0[i, i]) for i in range(n)])
        rows_dol.append([abs(h2[i, i]) for i in range(n)])
    design = mpmath.matrix([[mpmath.log(r), mpmath.log(-mpmath.log(r * r)), 1] for r in radii])

    def fit(rows):
        return tuple(float(mpmath.qr_solve(design, [mpmath.log(row[i]) for row in rows])[0][0])
                     for i in range(n))

    return fit(rows_dr), fit(rows_dol), tuple(2 * b for b in beta), tuple(2 * s for s in s_re)


def test_weight_jump_matches_float_reference():
    data_dir = Path(__file__).parent / "data"
    cases = [MetricData.from_de_rham(jsonio.dec_de_rham(json.loads((data_dir / f).read_text())))
             for f in ("local_nilpotent.json", "local_semisimple.json")]
    rng = random.Random(11)
    cases += [MetricData.from_de_rham(rand_de_rham_local(rng, n)) for n in (2, 3, 4, 2, 3, 4)]
    for data in cases:
        report = weight_jump_check(data)
        with mpmath.workprec(53):
            dr, dol, dr_want, dol_want = _weight_jump_reference(data)
        for got, ref in ((report.de_rham_exponents, dr), (report.dolbeault_exponents, dol)):
            assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-9, (got, ref)
        assert (report.de_rham_targets, report.dolbeault_targets) == (dr_want, dol_want)
        assert report.de_rham_pass == _within_tolerance(dr, dr_want, report.tolerance)
        assert report.dolbeault_pass == _within_tolerance(dol, dol_want, report.tolerance)


def _within_tolerance(got, want, tol):
    return all(abs(g - w) <= tol * max(1.0, abs(w)) for g, w in zip(got, want))
