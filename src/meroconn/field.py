"""Gaussian rationals, the exact coefficient field, and constant matrices over it.

Every algebraic identity in the library is tested with ``==`` rather
than a tolerance, so the scalar type must be an exact field.  A value
is stored as a normalized integer triple ``(a, b, d)`` for
``(a + b*i)/d``; arithmetic is delegated to the kernel.

``CMat``, the dense constant matrix, lives here too.  Its entries are
kernel triples, as in series and Laurent matrices, so it needs only the
kernel; residues, Stokes factors and representation tuples use it
without any Laurent series.  So does ``rref``, the library's one
Gauss-Jordan elimination on rows of triples, behind inverses, kernels,
ranks and the centralizer solve of the canonical reduction.

One pattern rule decides every vanishing test: m vanishes on the entries
with pred(i, j) iff ``not (m.support() & entry_mask(n, pred))``.  So does
[D, m] = 0 for a diagonal D: m vanishes wherever D_i != D_j.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

from . import _kernel as K


def _triple_from(re, im=0):
    re = Fraction(re)
    im = Fraction(im)
    d = math.lcm(re.denominator, im.denominator)
    a = re.numerator * (d // re.denominator)
    b = im.numerator * (d // im.denominator)
    return K.qnormalize(a, b, d)


def _binary(op):
    """The ``GaussRat`` operator (x, y) -> op(x.t, y.t).  It returns
    NotImplemented for an operand that ``_coerce`` cannot take, so that a
    matrix or a series on the other side can take it; a float or complex
    is refused."""
    def method(self, other):
        try:
            t = _coerce(other).t
        except TypeError:
            if isinstance(other, (float, complex)):
                raise
            return NotImplemented
        return GaussRat.from_triple(op(self.t, t))
    return method


class GaussRat:
    """An element of Q(i), immutable and hashable."""

    __slots__ = ("t",)

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussRat):
            if im == 0:
                object.__setattr__(self, "t", re.t)
                return
            re = re.re
        # (re + im i) / 1 is already normalized, and so is a Fraction
        if type(re) is int and type(im) is int:
            t = (re, im, 1)
        elif im == 0 and isinstance(re, (int, Fraction)):
            t = (re.numerator, 0, re.denominator)
        else:
            t = _triple_from(re, im)
        object.__setattr__(self, "t", t)

    @classmethod
    def from_triple(cls, t):
        self = object.__new__(cls)
        object.__setattr__(self, "t", t)
        return self

    @property
    def re(self) -> Fraction:
        a, _, d = self.t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self.t
        return Fraction(b, d)

    def __setattr__(self, *a):
        raise AttributeError("GaussRat is immutable")

    def is_zero(self) -> bool:
        return self.t[0] == 0 and self.t[1] == 0

    def is_real(self) -> bool:
        return self.t[1] == 0

    def conjugate(self) -> "GaussRat":
        a, b, d = self.t
        return GaussRat.from_triple((a, -b, d))

    __add__ = __radd__ = _binary(K.qadd)
    __sub__ = _binary(K.qsub)
    __rsub__ = _binary(lambda x, y: K.qsub(y, x))
    __mul__ = __rmul__ = _binary(K.qmul)
    __truediv__ = _binary(K.qdiv)
    __rtruediv__ = _binary(lambda x, y: K.qdiv(y, x))

    def __neg__(self):
        return GaussRat.from_triple(K.qneg(self.t))

    def inv(self) -> "GaussRat":
        return GaussRat.from_triple(K.qinv(self.t))

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (GaussRat, int, Fraction)):
            return self.t == _coerce(other).t
        return NotImplemented

    def __hash__(self):
        return hash(self.t)

    def __complex__(self):
        a, b, d = self.t
        return complex(a / d, b / d)

    def __repr__(self):
        a, b, d = self.t
        if b == 0:
            return f"GaussRat({Fraction(a, d)})"
        return f"GaussRat({Fraction(a, d)}, {Fraction(b, d)})"


def _coerce(x) -> GaussRat:
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    if isinstance(x, (float, complex)):
        raise TypeError("floats are not exact; build GaussRat from Fractions")
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussRat")


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)


def gr(re, im=0) -> GaussRat:
    """Shorthand constructor used heavily in tests and fixtures."""
    return GaussRat(re, im)


# ----------------------------------------------------------------------
# constant matrices
# ----------------------------------------------------------------------

def _t(x):
    """The kernel triple of a ``GaussRat`` or of anything ``GaussRat`` takes."""
    return x.t if isinstance(x, GaussRat) else GaussRat(x).t


class CMat:
    """Dense n x n matrix over the Gaussian rationals, immutable.

    ``t`` holds the entries as rows of kernel triples; every operation
    runs on them, and ``GaussRat``s are built only where entries leave:
    ``m[i, j]``, ``rows``, ``trace`` and ``apply``."""

    __slots__ = ("n", "t")

    def __init__(self, rows):
        t = tuple(tuple(_t(x) for x in row) for row in rows)
        if any(len(r) != len(t) for r in t):
            raise ValueError("CMat must be square")
        object.__setattr__(self, "n", len(t))
        object.__setattr__(self, "t", t)

    def __setattr__(self, *a):
        raise AttributeError("CMat is immutable")

    @classmethod
    def zero(cls, n):
        return cls._of([[K.ZERO] * n] * n)

    @classmethod
    def identity(cls, n):
        return cls._of([[K.ONE if i == j else K.ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, entries):
        t = [_t(x) for x in entries]
        return cls._of([[x if i == j else K.ZERO for j in range(len(t))] for i, x in enumerate(t)])

    @classmethod
    def unit(cls, n, i, j, c=1):
        """c * E_ij with 0-based indices."""
        return cls([[c if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return GaussRat.from_triple(self.t[i][j])

    @property
    def rows(self):
        """The entries as rows of ``GaussRat``s, built on each read."""
        return tuple(tuple(map(GaussRat.from_triple, row)) for row in self.t)

    @classmethod
    def _of(cls, rows):
        """From rows of kernel triples, unchecked."""
        self = object.__new__(cls)
        rows = tuple(map(tuple, rows))
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "t", rows)
        return self

    def __add__(self, other):
        _check_dim(self, other)
        return CMat._of(map(K.qadd, r, s) for r, s in zip(self.t, other.t))

    def __sub__(self, other):
        _check_dim(self, other)
        return CMat._of(map(K.qsub, r, s) for r, s in zip(self.t, other.t))

    def __neg__(self):
        return CMat._of(map(K.qneg, row) for row in self.t)

    def __mul__(self, other):
        """Each entry of a product is one exact dot product, normalized once."""
        if isinstance(other, CMat):
            _check_dim(self, other)
            cols = list(zip(*other.t))
            return CMat._of([[K.qdot(row, col) for col in cols] for row in self.t])
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = _t(c)
        return CMat._of([[K.qmul(x, c) for x in row] for row in self.t])

    def bracket(self, other) -> "CMat":
        return self * other - other * self

    def conjugate(self) -> "CMat":
        return CMat._of([[(a, -b, d) for a, b, d in row] for row in self.t])

    def trace(self) -> GaussRat:
        return sum((self[i, i] for i in range(self.n)), ZERO)

    def is_zero(self) -> bool:
        return not any(x[0] or x[1] for row in self.t for x in row)

    def support(self) -> int:
        """The nonzero pattern as a bitmask: bit i*n + j is set iff entry
        (i, j) is nonzero."""
        return sum(1 << k for k, x in enumerate(x for row in self.t for x in row)
                   if x[0] or x[1])

    def is_diagonal(self) -> bool:
        return self.is_block_diagonal([i] for i in range(self.n))

    def is_block_diagonal(self, blocks) -> bool:
        """Entries between different blocks of the partition vanish."""
        block_of = {i: b for b, idxs in enumerate(blocks) for i in idxs}
        return not (self.support()
                    & entry_mask(self.n, lambda i, j: block_of[i] != block_of[j]))

    def __pow__(self, k: int):
        """M^k for k >= 0 by squaring, with no product by I."""
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return CMat.identity(self.n) if out is None else out

    def is_nilpotent(self) -> bool:
        p = self
        for _ in range(self.n):
            if p.is_zero():
                return True
            p = p * self
        return p.is_zero()

    def inv(self) -> "CMat":
        """Exact inverse: the right half of ``rref([M | I])``."""
        n = self.n
        rows, pivots = rref([[*row, *(K.ONE if i == j else K.ZERO for j in range(n))]
                             for i, row in enumerate(self.t)])
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix not invertible")
        return CMat._of([row[n:] for row in rows])

    def exp_nilpotent_terms(self) -> List["CMat"]:
        """The terms N^k / k! of exp(N), from k = 0 to the last nonzero
        power; raises ValueError unless N is nilpotent (N^n = 0)."""
        terms = [CMat.identity(self.n)]
        power = terms[0]
        for k in range(1, self.n + 1):
            power = power * self
            if power.is_zero():
                return terms
            terms.append(power.scale(Fraction(1, math.factorial(k))))
        raise ValueError("exp_nilpotent requires a nilpotent matrix")

    def exp_nilpotent(self) -> "CMat":
        """Exact exp of a nilpotent matrix (finite sum)."""
        terms = self.exp_nilpotent_terms()
        return sum(terms[1:], terms[0])

    def apply(self, vec):
        """Matrix times column vector (list of GaussRat)."""
        if len(vec) != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs vector of {len(vec)}")
        vec = [_t(x) for x in vec]
        return [GaussRat.from_triple(K.qdot(row, vec)) for row in self.t]

    def __eq__(self, other):
        if not isinstance(other, CMat):
            return NotImplemented
        return self.n == other.n and self.t == other.t

    def __hash__(self):
        return hash(self.t)  # = hash(self.rows), as hash(GaussRat) = hash of its t

    def __repr__(self):
        body = "; ".join(" ".join(map(_short, row)) for row in self.rows)
        return f"CMat[{body}]"


def entry_mask(n: int, pred) -> int:
    """The entries (i, j) of an n x n matrix with pred(i, j), as a bitmask
    in the layout of ``CMat.support``: bit i*n + j."""
    return sum(1 << (i * n + j) for i in range(n) for j in range(n) if pred(i, j))


def _short(x: GaussRat) -> str:
    if x.im == 0:
        return str(x.re)
    return f"({x.re}+{x.im}i)"


def _check_dim(a, b):
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")


def rref(rows) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form of rows of kernel triples: (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c][0] or rows[i][c][1]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = K.qinv(rows[r][c])
        rows[r] = [K.qmul(x, inv) for x in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and (f[0] or f[1]):
                rows[i] = [K.qsub(a, K.qmul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def nullspace(m: CMat) -> List[List[GaussRat]]:
    """Basis of the kernel (as column vectors), deterministic."""
    rows, pivots = rref(m.t)
    n = m.n
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [K.ZERO] * n
        vec[fc] = K.ONE
        for r, pc in enumerate(pivots):
            vec[pc] = K.qneg(rows[r][fc])
        basis.append([GaussRat.from_triple(x) for x in vec])
    return basis
