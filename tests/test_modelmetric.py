import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from meroconn import jsonio

from meroconn.correspondence import DeRhamLocal, dR_to_Dol
from meroconn.field import CMat, gr
from meroconn.modelmetric import (HiggsOperators, MetricData, MetricError,
                                  TPoly, chern_coefficient,
                                  chern_curvature_from_coefficient,
                                  curvature_e0, higgs_extraction,
                                  _h_frame, pseudo_curvature,
                                  sl2_identity_suite, weight_jump_check)
from meroconn.randomgen import rand_de_rham_local, rand_invertible, rand_nilpotent
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
# exact weight-jump diagnostic
# ---------------------------------------------------------------------

def test_weight_jump_power_law():
    d = DeRhamLocal(Weight([F(1, 2), 0]), CMat.zero(2), IrregularType(2, {}))
    report = weight_jump_check(MetricData.from_de_rham(d))
    assert report.de_rham_exponents == (F(1), F(0))
    assert report.de_rham_l_powers == ({0: 1}, {0: 1})
    assert report.de_rham_pass and report.all_pass


def test_weight_jump_log_corrections_only():
    data = standard_data(3)  # beta = 0, one Jordan block of size 3
    report = weight_jump_check(data)
    assert report.de_rham_exponents == (F(0),) * 3
    assert sorted(e for m in report.de_rham_l_powers for e in m) == [-2, 0, 2]
    assert report.dolbeault_leading == (2, 2, 2)
    assert report.all_pass


def test_weight_jump_dolbeault_exponent():
    d = DeRhamLocal(Weight([F(1, 4), F(1, 4)]),
                    CMat.diag([gr(F(1, 3)), gr(0)]), IrregularType(2, {}))
    report = weight_jump_check(MetricData.from_de_rham(d))
    assert report.dolbeault_exponents == (F(2, 3), F(0))
    assert report.dolbeault_leading == (0, 0)
    assert report.dolbeault_pass


def test_weight_jump_exact_maps_on_the_nilpotent_fixture():
    data = MetricData.from_de_rham(jsonio.dec_de_rham(
        json.loads((Path(__file__).parent / "data" / "local_nilpotent.json").read_text())))
    report = weight_jump_check(data)
    assert report.de_rham_l_powers == ({1: 1}, {-1: 2})
    assert report.dolbeault_leading == (1, 1)
    assert report.all_pass


def test_weight_jump_is_read_in_the_triple_basis():
    """In the standard frame a diagonal entry of this datum mixes L-powers;
    in the triple's basis each entry is one L-power, exponents 2, 0, -2, 0."""
    rng = random.Random(11)
    d = [rand_de_rham_local(rng, n) for n in (2, 3, 4)][2]
    data = MetricData.from_de_rham(d)
    t = data.triple
    p, p_inv, h = _h_frame(t)
    h = [e.re for e in h]
    mid = p_inv * (-t.Y).exp_nilpotent() * (-t.X).exp_nilpotent() * p
    standard = [{} for _ in range(4)]
    for i in range(4):
        for j in range(4):
            for k in range(4):
                c = p[i, j] * mid[j, k] * p_inv[k, i]
                e = (h[j] + h[k]) / 2
                standard[i][e] = standard[i].get(e, gr(0)) + c
    assert any(len([c for c in m.values() if not c.is_zero()]) > 1 for m in standard)
    report = weight_jump_check(data)
    assert report.de_rham_l_powers == ({2: 1}, {0: 3}, {-2: 4}, {0: 1})
    assert report.dolbeault_leading == (2, 2, 2, 0)
    assert report.de_rham_exponents == (F(1),) * 4
    assert report.all_pass


def test_weight_jump_detects_corruption():
    data = standard_data(2)
    t = data.triple
    bad_h = Sl2Data(t.s, t.X, t.H + CMat.unit(2, 0, 0), t.Y, t.basis)
    report = weight_jump_check(MetricData(data.beta, bad_h, data.q, validate=False))
    assert report.de_rham_l_powers == ({2: 1}, {-1: 2})
    assert not report.de_rham_pass and not report.dolbeault_pass
    no_y = Sl2Data(t.s, t.X, t.H, CMat.zero(2), t.basis)
    report = weight_jump_check(MetricData(data.beta, no_y, data.q, validate=False))
    assert not report.de_rham_pass and not report.dolbeault_pass
    # i*X keeps every exponent but makes the coefficients non-real
    i_x = Sl2Data(t.s, t.X.scale(gr(0, 1)), t.H, t.Y, t.basis)
    report = weight_jump_check(MetricData(data.beta, i_x, data.q, validate=False))
    assert report.de_rham_l_powers == ({1: 1}, {-1: gr(1, 1)})
    assert report.dolbeault_leading == (1, 1)
    assert not report.de_rham_pass and not report.dolbeault_pass


def test_weight_jump_holds_on_random_data():
    rng = random.Random(26)
    for _ in range(45):
        d = rand_de_rham_local(rng, rng.randint(2, 4))
        report = weight_jump_check(MetricData.from_de_rham(d))
        assert report.de_rham_exponents == tuple(2 * b for b in d.beta.entries)
        assert report.all_pass, d


# ---------------------------------------------------------------------
# old-vs-new equivalence: Levi and weight tests by support mask
# ---------------------------------------------------------------------

LEVI = "data leaves the Levi factor of beta"
E0_LEVI = "|z|^beta conjugation is nontrivial: data leaves the Levi"


def reference_metric_outcome(beta, t):
    """The former ``MetricData`` validation, brackets with diag(beta)."""
    if t.s is None:
        return "metric data requires the semisimple part s"
    if not t.check_brackets():
        return "sl2 bracket relations fail"
    if any(not t.s.bracket(m).is_zero() for m in (t.X, t.H)):
        return "triple does not commute with s"
    beta_mat = CMat.diag(beta.entries)
    if any(not beta_mat.bracket(m).is_zero() for m in (t.s, t.X, t.H, t.Y)):
        return LEVI
    return None


def reference_e0_refuses(beta, t):
    beta_mat = CMat.diag(beta.entries)
    return any(not beta_mat.bracket(m).is_zero() for m in (t.H, t.X))


def _permuted(t, perm):
    """The triple conjugated by the permutation matrix of ``perm``."""
    n = len(perm)
    p = CMat([[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)])
    p_inv = p.inv()
    return Sl2Data(*(p * m * p_inv for m in (t.s, t.X, t.H, t.Y)), p * t.basis)


@st.composite
def metric_inputs(draw):
    """A valid triple of seeded de Rham data at n = 2-4, conjugated by a
    random permutation, with the permuted beta of the data (inside its
    Levi) or random beta levels (often outside)."""
    n = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    d = rand_de_rham_local(rng, n)
    perm = rng.sample(range(n), n)
    t = _permuted(d.structure(), perm)
    if rng.random() < 0.5:
        beta = Weight([d.beta.entries[perm.index(i)] for i in range(n)])
    else:
        beta = Weight([rng.choice([F(0), F(1, 4), F(1, 2)]) for _ in range(n)])
    return beta, t, d.q


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(metric_inputs())
def test_metric_levi_checks_match_brackets(case):
    beta, t, q = case
    try:
        MetricData(beta, t, q)
        got = None
    except MetricError as exc:
        got = str(exc)
    assert got == reference_metric_outcome(beta, t)
    unchecked = MetricData(beta, t, q, validate=False)
    if reference_e0_refuses(beta, t):
        with pytest.raises(MetricError) as exc:
            curvature_e0(unchecked)
        assert str(exc.value) == E0_LEVI
    else:
        assert curvature_e0(unchecked) == TPoly.of((2, t.H.scale(2)))


def reference_ad_weight_is(p, d_entries, m, w):
    """The former per-entry test of p^-1 m p against H's eigenvalues."""
    mm = p.inv() * m * p
    return all(mm[i, j].is_zero() or d_entries[i] - d_entries[j] == w
               for i in range(m.n) for j in range(m.n))


@st.composite
def weight_triples(draw):
    """(p, H's eigenvalues, X, Y) at n = 1-4: eigenvalues sorted
    descending; in the basis p, X is strictly upper triangular and
    nonzero at weight-2 entries plus up to two strays, and Y likewise
    strictly lower at weight -2, so both are nilpotent and both verdicts
    occur."""
    n = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    d = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
    p = rand_invertible(rng, n)
    p_inv = p.inv()

    def part(w, lower):
        strays = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2))]
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if (j < i if lower else i < j) and (d[i] - d[j] == w or (i, j) in strays):
                    rows[i][j] = rng.choice([1, 2, gr(0, 1)])
        return p * CMat(rows) * p_inv

    return p, d, part(2, False), part(-2, True)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(weight_triples())
def test_ad_weight_matches_per_entry_test(case):
    p, d, x, y = case
    h = p * CMat.diag(d) * p.inv()
    results = dict(sl2_identity_suite(Sl2Data(None, x, h, y, p)).results)
    d_entries = [gr(e) for e in d]
    assert results["log-power conjugation scales X"] == reference_ad_weight_is(p, d_entries, x, 2)
    assert results["log-power conjugation scales Y"] == reference_ad_weight_is(p, d_entries, y, -2)
