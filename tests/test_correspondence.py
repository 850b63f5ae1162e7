import math
import random
import tracemalloc
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from meroconn.angles import _PRECISIONS
from meroconn.correspondence import (CorrespondenceError, DeRhamLocal, Exponential,
                                     PiMatrixPoly, RootOfUnity, _Rounder,
                                     dR_to_Betti, dR_to_Dol, expected_multiplier,
                                     rank1_monodromy_oracle,
                                     roundtrip_weight_check)
from meroconn.field import CMat, GaussRat, gr
from meroconn.randomgen import rand_de_rham_local
from meroconn.rootdata import IrregularType, Weight

Q_TRIV = IrregularType(2, {})


def _mpc(c: GaussRat):
    """c as an mpmath complex, each part num/den rounded at the working
    precision."""
    return mpmath.mpc(mpmath.mpf(c.re.numerator) / c.re.denominator,
                      mpmath.mpf(c.im.numerator) / c.im.denominator)


# ---------------------------------------------------------------------
# de Rham -> Dolbeault
# ---------------------------------------------------------------------

def test_dol_semisimple_example():
    q = IrregularType(2, {2: (gr(1), gr(-1))})
    d = DeRhamLocal(Weight([0, 0]), CMat.diag([gr(F(1, 2)), gr(0)]), q)
    dol = dR_to_Dol(d)
    assert dol.alpha.entries == (F(1, 2), F(0))
    assert dol.residue == CMat.diag([F(1, 4), 0])
    assert dol.q == q.half()


def test_dol_zero_case():
    d = DeRhamLocal(Weight([0, 0]), CMat.zero(2), Q_TRIV)
    dol = dR_to_Dol(d)
    assert dol.alpha.entries == (F(0), F(0))
    assert dol.residue.is_zero()


def test_dol_nilpotent_example():
    # residue E21: the table gives E21 - diag(1,-1) + E12
    d = DeRhamLocal(Weight([0, 0]), CMat.unit(2, 1, 0), Q_TRIV)
    dol = dR_to_Dol(d)
    want = CMat.unit(2, 1, 0) - CMat.diag([1, -1]) + CMat.unit(2, 0, 1)
    assert dol.residue == want


def test_de_rham_invariants_enforced():
    with pytest.raises(CorrespondenceError, match="Levi"):
        DeRhamLocal(Weight([F(1, 2), 0]), CMat.unit(2, 1, 0), Q_TRIV)
    q = IrregularType(2, {1: (gr(1), gr(0))})
    with pytest.raises(CorrespondenceError, match="commute"):
        DeRhamLocal(Weight([0, 0]), CMat.unit(2, 1, 0), q)


# ---------------------------------------------------------------------
# old-vs-new equivalence: the de Rham invariants by support mask
# ---------------------------------------------------------------------

LEVI = "residue leaves the Levi factor of its weight"
COMMUTE = "residue does not commute with the irregular type"


def reference_de_rham_outcome(beta, residue, q):
    """The former row-major loop: the first nonzero entry across beta
    levels or Q levels decides, the beta test first."""
    n = residue.n
    for i in range(n):
        for j in range(n):
            if residue[i, j].is_zero():
                continue
            if beta.entries[i] != beta.entries[j]:
                return LEVI
            if q.entry(i) != q.entry(j):
                return COMMUTE
    return None


def de_rham_outcome(beta, residue, q):
    try:
        DeRhamLocal(beta, residue, q)
    except CorrespondenceError as exc:
        return str(exc)
    return None


_VALUES = [gr(1), gr(-2), gr(0, 1), gr(F(1, 3), -1)]


@st.composite
def de_rham_inputs(draw):
    """(beta, residue, Q) at n = 1-5 with few beta and Q levels; the
    residue is nonzero inside the joint level sets and at up to two stray
    entries, so both messages and acceptance occur."""
    n = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    b, q1, q2 = ([rng.randrange(2) for _ in range(n)] for _ in range(3))
    beta = Weight([F(x, 2) for x in b])
    q = IrregularType(n, {1: tuple(gr(x) for x in q1), 2: tuple(gr(0, x) for x in q2)})
    strays = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2))]
    inside = [[(b[i], q1[i], q2[i]) == (b[j], q1[j], q2[j]) for j in range(n)] for i in range(n)]
    residue = CMat([[rng.choice(_VALUES)
                     if (inside[i][j] and rng.random() < 0.7) or (i, j) in strays else 0
                     for j in range(n)] for i in range(n)])
    return beta, residue, q


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(de_rham_inputs())
def test_de_rham_invariants_match_per_entry_loop(case):
    assert de_rham_outcome(*case) == reference_de_rham_outcome(*case)


def test_doubly_bad_residue_gets_the_first_entry_message():
    """A residue that breaks both rules at different entries gets the
    message of the first one in row-major order, in either order."""
    beta = Weight([0, 0, F(1, 2)])
    q = IrregularType(3, {1: (gr(1), gr(0), gr(1))})
    # (0, 1) crosses Q levels only, (0, 2) and (2, 0) cross beta levels only
    for entries, want in ((((0, 1), (0, 2)), COMMUTE), (((0, 2), (1, 0)), LEVI),
                          (((1, 0), (2, 0)), COMMUTE), (((2, 0), (2, 1)), LEVI),
                          (((0, 1),), COMMUTE), (((2, 0),), LEVI)):
        residue = CMat.diag([1, 2, 3])
        for i, j in entries:
            residue = residue + CMat.unit(3, i, j, gr(1, 1))
        assert de_rham_outcome(beta, residue, q) == want
        assert reference_de_rham_outcome(beta, residue, q) == want


# ---------------------------------------------------------------------
# de Rham -> Betti
# ---------------------------------------------------------------------

def test_betti_rational_semisimple_example():
    d = DeRhamLocal(Weight([0, 0]), CMat.diag([gr(F(1, 2)), gr(0)]), Q_TRIV)
    bet = dR_to_Betti(d)
    assert bet.gamma.entries == (F(-1, 2), F(0))
    assert bet.semisimple_factor == (RootOfUnity(1, 2), RootOfUnity(0, 1))
    num = bet.monodromy_numeric()
    assert abs(num[0][0] + 1) < 1e-14 and abs(num[1][1] - 1) < 1e-14


def test_betti_trivial_residue():
    beta = Weight([F(1, 4), F(1, 4)])
    d = DeRhamLocal(beta, CMat.zero(2), Q_TRIV)
    bet = dR_to_Betti(d)
    assert bet.gamma.entries == beta.entries
    assert bet.nilpotent_factor == PiMatrixPoly({0: CMat.identity(2)})


def test_betti_nilpotent_symbolic_pi():
    d = DeRhamLocal(Weight([0, 0]), CMat.unit(2, 1, 0), Q_TRIV)
    bet = dR_to_Betti(d)
    assert bet.gamma.entries == (F(0), F(0))
    # I - 2 pi i E21: the pi^1 coefficient is -2i E21
    assert bet.nilpotent_factor.coeffs[1] == CMat.unit(2, 1, 0).scale(gr(0, -2))
    assert 2 not in bet.nilpotent_factor.coeffs


def test_roundtrip_weight_identity():
    rng = random.Random(61)
    for _ in range(50):
        d = rand_de_rham_local(rng, rng.randint(2, 4))
        assert roundtrip_weight_check(d)


def _selftest_monodromy_draws():
    """The 20 local data of the monodromy cases of
    ``selftest.criterion_dictionary`` at seed 42: its rng replayed past
    the 100 weight cases."""
    rng = random.Random(42 + 4)
    for _ in range(100):
        rand_de_rham_local(rng, rng.randint(2, 4))
    return [rand_de_rham_local(rng, rng.randint(2, 3)) for _ in range(20)]


def test_monodromy_factorization_against_expm():
    rng = random.Random(62)
    drawn = [rand_de_rham_local(rng, rng.randint(2, 3)) for _ in range(10)]
    for d in drawn + _selftest_monodromy_draws():
        st = d.structure()
        assert st.s * st.Y == st.Y * st.s
        got = dR_to_Betti(d).monodromy_numeric()
        n = st.s.n
        with mpmath.workprec(120):
            residue = st.s + st.Y
            full = mpmath.matrix([[_mpc(residue[i, j]) for j in range(n)] for i in range(n)])
            want = mpmath.expm(-2j * mpmath.pi * full)
        err = max(abs(complex(want[i, j]) - got[i][j]) for i in range(n) for j in range(n))
        assert err < 1e-10


def _mp_monodromy(d):
    """exp(-2 pi i s) * sum_k (-2 pi i Y)^k / k! from the structure of d,
    in mpmath at the working precision."""
    st = d.structure()
    n = st.s.n
    y = mpmath.matrix([[_mpc(st.Y[i, j]) for j in range(n)] for i in range(n)])
    term = nil = mpmath.eye(n)
    for k in range(1, n):
        term = term * y * (-2j * mpmath.pi) / k
        nil = nil + term
    return [[mpmath.exp(-2j * mpmath.pi * _mpc(st.s[i, i])) * nil[i, j] for j in range(n)]
            for i in range(n)]


def _near_cancelling_data():
    """Residues [[s, 0], [y, s]] with Re s = -1/6 whose (1, 0) entry
    exp(-2 pi i s) * (-2 pi i y) has a part (p - q sqrt(3))/2 (times
    pi exp(2 pi Im s)), with p^2 - 3 q^2 = 1, so about 1/(4p): past
    p = 2**32 its 64-bit enclosure meets 0, and the exact zero test and
    the ladder decide it."""
    out = []
    p, q = 2, 1
    for k in range(25):
        p, q = 2 * p + 3 * q, p + 2 * q
        if k % 6:
            continue
        for im in (0, F(1, 3), F(-2)):
            s = gr(F(-1, 6), im)
            y = gr(F(-q, 2), F(p, 2))
            out.append(DeRhamLocal(Weight([0, 0]), CMat([[s, 0], [y, s]]), Q_TRIV))
    return out


def test_monodromy_is_the_nearest_double_of_the_exact_value():
    """Every part is the double nearest to a 400-bit evaluation, and
    exactly 0.0 where the exact value is 0: parts that vanish because
    Re s is in Z/2 (or Z/4) for a non-real s print 0.0, not rounding
    noise."""
    rng = random.Random(6301)
    drawn = [rand_de_rham_local(rng, rng.randint(2, 4)) for _ in range(320)]
    vanishing = 0
    for d in drawn + _near_cancelling_data():
        got = dR_to_Betti(d).monodromy_numeric()
        with mpmath.workprec(400):
            want = _mp_monodromy(d)
            for i, row in enumerate(want):
                for j, w in enumerate(row):
                    for g, v in ((got[i][j].real, w.real), (got[i][j].imag, w.imag)):
                        if abs(v) < mpmath.mpf(2) ** -300:
                            assert g == 0.0 and math.copysign(1, g) == 1, (d, i, j)
                            if not d.structure().s[i, i].is_real() and abs(w) > 0.5:
                                vanishing += 1
                        else:
                            assert g == float(v), (d, i, j)
    assert vanishing >= 20


def test_row_exponential_enclosures_contain_the_value():
    for im in (F(4), F(-4), F(1, 3), F(-7, 2), F(0), F(40), F(-40)):
        rounder = _Rounder(gr(F(1, 5), im))
        for prec in _PRECISIONS[:3]:
            # exp(2 pi |Im s|) in [elo, ehi] * 2^(e - prec)
            elo, ehi, e = rounder._exp_enclosure(prec)
            with mpmath.workprec(prec + 400):
                value = mpmath.exp(2 * mpmath.pi * abs(im.numerator) / mpmath.mpf(im.denominator))
                assert elo <= mpmath.ldexp(value, prec - e) <= ehi
            assert (ehi - elo) << (prec - 4) <= ehi


def test_complex_residue_prints_an_exact_zero():
    # exp(-2 pi i (2 + 4i)) = exp(8 pi) is real
    d = DeRhamLocal(Weight([0, 0]), CMat.diag([gr(2, 4), gr(F(1, 2))]), Q_TRIV)
    bet = dR_to_Betti(d)
    assert bet.semisimple_factor == (Exponential(F(2), F(4)), RootOfUnity(1, 2))
    assert not hasattr(bet.semisimple_factor[0], "p")
    with mpmath.workprec(200):
        e8pi = float(mpmath.exp(8 * mpmath.pi))
    assert bet.semisimple_factor[0].numeric() == complex(e8pi, 0.0)
    num = bet.monodromy_numeric()
    assert num == [[complex(e8pi, 0.0), 0j], [0j, complex(-1.0, 0.0)]]
    assert [repr(x.imag) for row in num for x in row] == ["0.0"] * 4
    # the precision argument is kept and changes nothing
    assert dR_to_Betti(d, prec=64).monodromy_numeric(200) == num


def test_expected_multiplier_is_the_nearest_double():
    for q in range(1, 25):
        for p in range(-2 * q, 2 * q + 1):
            with mpmath.workprec(256):
                want = complex(mpmath.expjpi(2 * mpmath.mpf(p) / q))
            assert expected_multiplier(F(p, q)) == want, (p, q)


# ---------------------------------------------------------------------
# rank-1 oracle
# ---------------------------------------------------------------------

def test_oracle_trivial():
    assert abs(rank1_monodromy_oracle(F(0), steps=256, prec=64) - 1) < 1e-10


def test_oracle_half():
    got = rank1_monodromy_oracle(F(1, 2), steps=2048, prec=64)
    assert abs(got - (-1)) < 1e-8


def test_oracle_third_with_essential_factor():
    q = IrregularType(1, {1: (gr(-1),)})
    got = rank1_monodromy_oracle(F(1, 3), q, steps=4096, prec=64)
    assert abs(got - expected_multiplier(F(1, 3))) < 1e-8


def test_oracle_orientation_consistent():
    # one global orientation sign works for positive and negative b
    for b in (F(1, 4), F(-1, 4), F(2, 3)):
        got = rank1_monodromy_oracle(b, steps=2048, prec=64)
        assert abs(got - expected_multiplier(b)) < 1e-8


def test_oracle_rejects_matrix_input():
    with pytest.raises(CorrespondenceError):
        rank1_monodromy_oracle(F(1, 2), IrregularType(2, {1: (gr(1), gr(0))}))


@pytest.mark.parametrize("steps, prec", [(0, 64), (-5, 64), (64, 0), (64, -3)])
def test_oracle_rejects_bad_steps_and_precision(steps, prec):
    with pytest.raises(CorrespondenceError, match=r"\S"):
        rank1_monodromy_oracle(F(1, 2), steps=steps, prec=prec)


def _reference_oracle(b, q=None, steps=8192, prec=128):
    """The oracle's RK4 scheme on mpf/mpc operators at ``prec`` bits: P **
    steps for q None, the rotation loop otherwise.  Run at prec + 80 it
    stands in for the exact RK4 value."""
    b = b if isinstance(b, GaussRat) else GaussRat(F(b))
    zq_terms = [] if q is None else [(-j, c * GaussRat(-j)) for j, (c,) in q.coeffs.items()]
    with mpmath.workprec(prec):
        two_pi_i = 2j * mpmath.pi
        h = mpmath.mpf(1) / steps

        def step(f, a0, a_mid, a1):
            k1 = a0 * f
            k2 = a_mid * (f + h * k1 / 2)
            k3 = a_mid * (f + h * k2 / 2)
            k4 = a1 * (f + h * k3)
            return f + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6

        a_b = two_pi_i * _mpc(b)
        if not zq_terms:
            return step(mpmath.mpc(1), a_b, a_b, a_b) ** steps
        ts = [two_pi_i * _mpc(c) for _, c in zq_terms]
        rhos = [mpmath.expjpi(e * h) for e, _ in zq_terms]

        def coeff(ts):
            a = a_b
            for t in ts:
                a = a + t
            return a

        f, a0 = mpmath.mpc(1), coeff(ts)
        for _ in range(steps):
            ts = [t * r for t, r in zip(ts, rhos)]
            a_mid = coeff(ts)
            ts = [t * r for t, r in zip(ts, rhos)]
            a1 = coeff(ts)
            f = step(f, a0, a_mid, a1)
            a0 = a1
        return f


class _Fixed:
    """x + i y at the binary point 2**-fbits; products and quotients are
    floored."""

    def __init__(self, x, y, fbits):
        self.x, self.y, self.fbits = x, y, fbits

    def __add__(self, other):
        return _Fixed(self.x + other.x, self.y + other.y, self.fbits)

    def __mul__(self, other):
        if isinstance(other, int):
            return _Fixed(self.x * other, self.y * other, self.fbits)
        x = (self.x * other.x - self.y * other.y) >> self.fbits
        y = (self.x * other.y + self.y * other.x) >> self.fbits
        return _Fixed(x, y, self.fbits)

    __rmul__ = __mul__

    def __floordiv__(self, n):
        return _Fixed(self.x // n, self.y // n, self.fbits)


def _integer_oracle(b, q=None, steps=8192, prec=128):
    """The oracle's specification on plain integers in operator form:
    2 pi, the rotations and every stage floored to 2**-F with
    F = prec + steps.bit_length() + 4, and f as a mantissa pair with an
    exponent, floored to F bits after each product.  The oracle must match
    it bit for bit."""
    fb = prec + steps.bit_length() + 4
    b = b if isinstance(b, GaussRat) else GaussRat(F(b))
    zq_terms = [] if q is None else [(-j, c * GaussRat(-j)) for j, (c,) in q.coeffs.items()]
    with mpmath.workprec(fb + 32):
        two_pi = int(mpmath.floor(2 * mpmath.pi * 2 ** fb))
        rhos = [mpmath.expjpi(mpmath.mpf(e) / steps) for e, _ in zq_terms]
        rhos = [_Fixed(int(mpmath.floor(r.real * 2 ** fb)),
                       int(mpmath.floor(r.imag * 2 ** fb)), fb) for r in rhos]

    def two_pi_i(c):
        return _Fixed(two_pi * -c.im.numerator // c.im.denominator,
                      two_pi * c.re.numerator // c.re.denominator, fb)

    one = _Fixed(1 << fb, 0, fb)

    def factor(a0, a_mid, a1):
        k1 = a0
        k2 = a_mid * (one + k1 // (2 * steps))
        k3 = a_mid * (one + k2 // (2 * steps))
        k4 = a1 * (one + k3 // steps)
        return one + (k1 + 2 * k2 + 2 * k3 + k4) // (6 * steps)

    def times(f, g):
        # f * g on (x, y, e) = (x + i y) 2**e, mantissas floored to F bits
        x, y = f[0] * g[0] - f[1] * g[1], f[0] * g[1] + f[1] * g[0]
        k = max(abs(x), abs(y)).bit_length() - fb
        if k >= 0:
            return x >> k, y >> k, f[2] + g[2] + k
        return x << -k, y << -k, f[2] + g[2] + k

    a_b = two_pi_i(b)
    ts = [two_pi_i(c) for _, c in zq_terms]
    if not ts:
        g = factor(a_b, a_b, a_b)
        f = g = (g.x, g.y, -fb)
        for bit in format(steps, "b")[1:]:
            f = times(f, f)
            if bit == "1":
                f = times(f, g)
    else:
        def coeff(ts):
            a = a_b
            for t in ts:
                a = a + t
            return a

        f, a0 = (1 << fb, 0, -fb), coeff(ts)
        for _ in range(steps):
            ts = [t * r for t, r in zip(ts, rhos)]
            a_mid = coeff(ts)
            ts = [t * r for t, r in zip(ts, rhos)]
            a1 = coeff(ts)
            g = factor(a0, a_mid, a1)
            f = times(f, (g.x, g.y, -fb))
            a0 = a1
    x, y, e = f
    return complex(float(F(x) * F(2) ** e), float(F(y) * F(2) ** e))


def _oracle_cases():
    rng = random.Random(73)

    def c():
        # complex, with nonzero real and imaginary parts
        return gr(F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)),
                  F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)))

    qs = [None, IrregularType(1, {1: (c(),)}), IrregularType(1, {2: (c(),)}),
          IrregularType(1, {3: (c(),)}), IrregularType(1, {1: (c(),), 3: (c(),)})]
    bs = [F(0), F(1, 6), F(-1, 6), F(1), F(-1), F(5, 2), F(-6)]
    cases = [(b, q, steps, prec) for steps, prec in ((1, 64), (7, 53))
             for q in qs for b in bs]
    # longer runs: every pole shape at least once, each b at least once
    cases += [(F(5, 2), qs[0], 2048, 64), (F(-1, 6), qs[4], 2048, 64),
              (F(1), qs[1], 1024, 64), (F(-6), qs[0], 1024, 64),
              (F(0), qs[3], 512, 64), (F(1, 6), qs[2], 300, 113),
              (F(-1), qs[0], 300, 113)]
    # each q runs through every precision in turn, so anything carried
    # from one call to the next shows as wrong bits
    q1 = IrregularType(1, {1: (c(),)})
    q12 = IrregularType(1, {1: (c(),), 2: (c(),)})
    for steps in (1, 3, 256, 1024):
        for q in (None, q1, q12):
            for prec in (53, 64, 128):
                cases += [(b, q, steps, prec) for b in bs[2:3 if steps > 3 else 4]]
    return cases


def test_oracle_bit_identical_to_reference_loop():
    for b, q, steps, prec in _oracle_cases():
        want = _integer_oracle(b, q, steps, prec)
        assert rank1_monodromy_oracle(b, q, steps=steps, prec=prec) == want, \
            (b, q, steps, prec)


def test_oracle_within_its_error_bound_of_exact_rk4():
    # the error bound of the docstring, against the mpf scheme at 80 more
    # bits, plus the final rounding to a complex double
    for b, q, steps, prec in _oracle_cases():
        assert prec >= 53
        got = rank1_monodromy_oracle(b, q, steps=steps, prec=prec)
        with mpmath.workprec(prec + 80):
            ref = _reference_oracle(b, q, steps, prec + 80)
            err = abs(mpmath.mpc(got) - ref)
            size = abs(ref)
            bound = mpmath.mpf(2) ** -(prec - 4) * max(1, size) + math.ulp(float(size))
            assert err <= bound, (b, q, steps, prec, err / bound)


def test_oracle_rotation_drift_stays_small():
    # 2 * 16384 rounded rotations per term at 53 bits
    q = IrregularType(1, {1: (gr(F(1, 2), F(-1, 3)),), 2: (gr(F(-2, 3), F(1, 4)),)})
    got = rank1_monodromy_oracle(F(1, 3), q, steps=16384, prec=53)
    assert abs(got - expected_multiplier(F(1, 3))) < 1e-8


def test_oracle_keeps_no_memory_between_calls():
    q = IrregularType(1, {2: (gr(F(1, 2), F(-1, 3)),)})
    tracemalloc.start()
    try:
        rank1_monodromy_oracle(F(1, 3), q, steps=2048, prec=64)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024, kept
