import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from meroconn import jsonio, residues
from meroconn.field import CMat, gr, nullspace
from meroconn.randomgen import rand_de_rham_local, rand_invertible, rand_nilpotent
from meroconn.residues import (EigenvalueError, Sl2Data, gaussian_eigenvalues,
                               jordan_decompose, sl2_complete, sl2_complete_blockwise)

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------
# eigenvalues over Q(i)
# ---------------------------------------------------------------------

def test_gaussian_eigenvalues_basic():
    eigs = gaussian_eigenvalues(CMat.diag([gr(F(1, 2)), gr(0, 1), gr(0, 1)]))
    assert (gr(F(1, 2)), 1) in eigs
    assert (gr(0, 1), 2) in eigs


def test_irrational_eigenvalues_rejected():
    # eigenvalues +-sqrt(2)
    with pytest.raises(EigenvalueError, match="outside coefficient field"):
        gaussian_eigenvalues(CMat([[0, 1], [2, 0]]))


def test_complex_rational_eigenvalues_found():
    # rotation matrix: eigenvalues +-i
    eigs = gaussian_eigenvalues(CMat([[0, -1], [1, 0]]))
    assert sorted((complex(l).imag, m) for l, m in eigs) == [(-1.0, 1), (1.0, 1)]


# ---------------------------------------------------------------------
# Jordan decomposition
# ---------------------------------------------------------------------

def test_jordan_examples():
    # semisimple diagonal: unchanged
    d = CMat.diag([gr(F(3, 2)), gr(F(-1, 7))])
    s, y = jordan_decompose(d)
    assert s == d and y.is_zero()
    # nilpotent: all in y
    e12 = CMat.unit(2, 0, 1)
    s, y = jordan_decompose(e12)
    assert s.is_zero() and y == e12
    # [[1,1],[0,1]]: s = I, y = E12
    s, y = jordan_decompose(CMat([[1, 1], [0, 1]]))
    assert s == CMat.identity(2) and y == e12


def test_jordan_random_reconstruction():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(2, 4)
        p = rand_invertible(rng, n)
        diag = [gr(rng.choice([0, 1, 2, F(1, 2)])) for _ in range(n)]
        rows = [[gr(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = diag[i]
            if i + 1 < n and diag[i] == diag[i + 1] and rng.random() < 0.5:
                rows[i][i + 1] = gr(1)
        m = p * CMat(rows) * p.inv()
        s, y = jordan_decompose(m)
        assert s + y == m
        assert s.bracket(y).is_zero()
        assert y.is_nilpotent()


def reference_jordan_decompose(m):
    """The decomposition through generalized eigenprojections that
    Newton's iteration replaced: s = P diag(eigenvalues) P^-1 over a
    generalized eigenbasis P.  Raises EigenvalueError off Q(i)."""
    n = m.n
    eigs = gaussian_eigenvalues(m)
    if len(eigs) == 1 and eigs[0][1] == n:
        s = CMat.identity(n).scale(eigs[0][0])
        return s, m - s
    ident = CMat.identity(n)
    cols = []
    for lam, mult in eigs:
        basis = nullspace((m - ident.scale(lam)) ** mult)
        if len(basis) != mult:
            raise EigenvalueError("generalized eigenspace dimension mismatch")
        cols.extend(basis)
    p = CMat([[cols[j][i] for j in range(n)] for i in range(n)])
    col_vals = [lam for lam, mult in eigs for _ in range(mult)]
    s = p * CMat.diag(col_vals) * p.inv()
    return s, m - s


# few values, so that eigenvalues repeat across Jordan blocks
EIGENVALUES = [gr(0), gr(1), gr(F(-1, 2)), gr(0, 1), gr(2, F(-1, 3))]


@st.composite
def jordan_forms(draw):
    """A Jordan form with blocks of size 1-5 and repeated eigenvalues,
    or a zero or scalar matrix; n = 1-5, conjugated or not."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["jordan", "jordan", "jordan", "zero", "scalar"]))
    if kind == "zero":
        m = CMat.zero(n)
    elif kind == "scalar":
        m = CMat.identity(n).scale(draw(st.sampled_from(EIGENVALUES)))
    else:
        rows = [[gr(0)] * n for _ in range(n)]
        off = 0
        while off < n:
            k = draw(st.integers(1, n - off))
            lam = draw(st.sampled_from(EIGENVALUES))
            for i in range(off, off + k):
                rows[i][i] = lam
                if i + 1 < off + k:
                    rows[i][i + 1] = gr(1)
            off += k
        m = CMat(rows)
    if draw(st.booleans()):
        p = rand_invertible(random.Random(draw(st.integers(0, 2**32))), n)
        m = p * m * p.inv()
    return m


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(jordan_forms())
def test_jordan_decompose_matches_the_eigenbasis_reference(m):
    assert jordan_decompose(m) == reference_jordan_decompose(m)


# monic integer polynomials with no root in Q(i), degree 0 up
NON_SPLIT = [[-2, 0, 1], [-3, 0, 1], [2, 0, 1], [-1, -1, 1], [-2, 0, 0, 1]]


def _companion(p):
    k = len(p) - 1
    return [[(1 if i == j + 1 else 0) if j < k - 1 else -p[i] for j in range(k)]
            for i in range(k)]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def non_split_matrices(draw):
    """An integer matrix whose characteristic polynomial has a factor
    without roots in Q(i), possibly repeated with a nilpotent coupling,
    next to integer eigenvalues; conjugated by an integer unimodular
    matrix.  Returns the matrix, the squarefree part of its
    characteristic polynomial (the product of the distinct factors) and
    whether its nilpotent part is nonzero."""
    factor = draw(st.sampled_from(NON_SPLIT))
    deg = len(factor) - 1
    mult = draw(st.integers(1, 5 // deg))
    coupled = draw(st.booleans())
    blocks = [(_companion(factor), coupled and k > 0) for k in range(mult)]
    sqf = factor
    size = deg * mult
    second = draw(st.sampled_from(NON_SPLIT))
    if second != factor and size + len(second) - 1 <= 5 and draw(st.booleans()):
        blocks.append((_companion(second), False))
        sqf = _poly_mul(sqf, second)
        size += len(second) - 1
    for a in sorted(set(draw(st.lists(st.integers(-2, 2), max_size=5 - size)))):
        blocks.append(([[a]], False))
        sqf = _poly_mul(sqf, [-a, 1])
    n = sum(len(b) for b, _ in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b, couple in blocks:
        k = len(b)
        for i in range(k):
            rows[off + i][off:off + k] = b[i]
            if couple:
                rows[off - k + i][off + i] = 1
        off += k
    lower = CMat([[draw(st.integers(-2, 2)) if i > j else int(i == j) for j in range(n)]
                  for i in range(n)])
    upper = CMat([[draw(st.integers(-2, 2)) if i < j else int(i == j) for j in range(n)]
                  for i in range(n)])
    u = lower * upper
    return u * CMat(rows) * u.inv(), sqf, coupled and mult > 1


def _poly_at(p, m):
    ident = CMat.identity(m.n)
    acc = CMat.zero(m.n)
    for c in reversed(p):
        acc = acc * m + ident.scale(c)
    return acc


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(non_split_matrices())
def test_jordan_decompose_off_the_gaussian_rationals(drawn):
    m, sqf, coupled = drawn
    with pytest.raises(EigenvalueError, match="outside coefficient field"):
        reference_jordan_decompose(m)
    s, y = jordan_decompose(m)
    assert s + y == m
    assert s.bracket(y).is_zero()
    assert y.is_nilpotent() and y.is_zero() != coupled
    assert _poly_at(sqf, s).is_zero()


def test_structure_needs_no_eigenvalues(monkeypatch):
    def no_eigenvalues(m):
        raise AssertionError("the residue structure asked for eigenvalues")

    monkeypatch.setattr(residues, "gaussian_eigenvalues", no_eigenvalues)
    data = [jsonio.dec_de_rham(json.loads(p.read_text())) for p in sorted(DATA.glob("local_*.json"))]
    rng = random.Random(31)
    data += [rand_de_rham_local(rng, rng.randint(1, 4)) for _ in range(6)]
    assert len(data) == 9  # the three local_*.json fixtures and six draws
    for d in data:
        triple = d.structure()
        assert triple.s + triple.Y == d.residue and triple.s.is_diagonal()
        assert triple.check_brackets()


# ---------------------------------------------------------------------
# sl2 completion
# ---------------------------------------------------------------------

def test_sl2_examples():
    # E21: X = E12, H = diag(1, -1)
    d = sl2_complete(CMat.unit(2, 1, 0))
    assert d.X == CMat.unit(2, 0, 1)
    assert d.H == CMat.diag([1, -1])
    assert d.check_brackets()
    # zero: trivial triple
    z = sl2_complete(CMat.zero(3))
    assert z.X.is_zero() and z.H.is_zero()
    # 3x3 Jordan block: H = diag(2, 0, -2)
    y3 = CMat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    d3 = sl2_complete(y3)
    assert d3.H == CMat.diag([2, 0, -2])
    assert d3.X == CMat([[0, 2, 0], [0, 0, 2], [0, 0, 0]])
    assert d3.check_brackets()


def test_sl2_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        sl2_complete(CMat.diag([1, 0]))


def test_sl2_random_nilpotents():
    rng = random.Random(22)
    for _ in range(40):
        n = rng.randint(2, 4)
        y = rand_nilpotent(rng, n)
        d = sl2_complete(y)
        assert d.check_brackets()
        assert d.X.is_nilpotent()
        # H is diagonal in the recorded basis
        hd = d.basis.inv() * d.H * d.basis
        assert hd.is_diagonal()


def test_sl2_blockwise_commutes_with_block_scalars():
    y = CMat([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    d = sl2_complete_blockwise(y, [[0, 1], [2]])
    s = CMat.diag([5, 5, 7])
    assert d.check_brackets()
    assert s.bracket(d.H).is_zero()
    assert s.bracket(d.X).is_zero()
    with pytest.raises(ValueError):
        sl2_complete_blockwise(CMat.unit(3, 2, 0), [[0, 1], [2]])


def test_nullspace_deterministic():
    m = CMat([[1, 2, 3], [2, 4, 6], [0, 0, 0]])
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        assert all(x.is_zero() for x in m.apply(v))
