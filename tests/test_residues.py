import random
from fractions import Fraction as F

import pytest

from meroconn.field import CMat, gr, nullspace
from meroconn.randomgen import rand_invertible, rand_nilpotent
from meroconn.residues import (EigenvalueError, Sl2Data, gaussian_eigenvalues,
                               jordan_decompose, sl2_complete, sl2_complete_blockwise)


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
