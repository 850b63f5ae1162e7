"""Gaussian rationals, the exact coefficient field, and constant matrices over it.

Every algebraic identity in the library is tested with ``==`` rather
than a tolerance, so the scalar type must be an exact field.  A value
is stored as a normalized integer triple ``(a, b, d)`` for
``(a + b*i)/d``; arithmetic is delegated to the kernel.

``CMat``, the dense constant matrix, lives here too: it needs only
``GaussRat`` and the kernel's dot product, and residues, Stokes factors
and representation tuples use it without any Laurent series.  So does
``rref``, the library's one Gauss-Jordan elimination, behind inverses,
kernels, ranks and the centralizer solve of the canonical reduction.

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


class GaussRat:
    """An element of Q(i), immutable and hashable."""

    __slots__ = ("t",)

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            # (re + im i) / 1 is already normalized
            object.__setattr__(self, "t", (re, im, 1))
            return
        if isinstance(re, GaussRat):
            if im == 0:
                object.__setattr__(self, "t", re.t)
                return
            re = re.re
        object.__setattr__(self, "t", _triple_from(re, im))

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

    def __add__(self, other):
        return GaussRat.from_triple(K.qadd(self.t, _coerce(other).t))

    __radd__ = __add__

    def __sub__(self, other):
        return GaussRat.from_triple(K.qsub(self.t, _coerce(other).t))

    def __rsub__(self, other):
        return GaussRat.from_triple(K.qsub(_coerce(other).t, self.t))

    def __mul__(self, other):
        return GaussRat.from_triple(K.qmul(self.t, _coerce(other).t))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return GaussRat.from_triple(K.qdiv(self.t, _coerce(other).t))

    def __rtruediv__(self, other):
        return GaussRat.from_triple(K.qdiv(_coerce(other).t, self.t))

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
    if isinstance(x, complex):
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

def _as_gr(x) -> GaussRat:
    if isinstance(x, GaussRat):
        return x
    return GaussRat(x)


class CMat:
    """Dense n x n matrix over the Gaussian rationals."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(_as_gr(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("CMat must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("CMat is immutable")

    @classmethod
    def zero(cls, n):
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, n, i, j, c=1):
        """c * E_ij with 0-based indices."""
        rows = [[0] * n for _ in range(n)]
        rows[i][j] = c
        return cls(rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    @classmethod
    def _of(cls, rows):
        """From rows of ``GaussRat``s, unchecked."""
        self = object.__new__(cls)
        rows = tuple(map(tuple, rows))
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "rows", rows)
        return self

    def __add__(self, other):
        _check_dim(self, other)
        return CMat._of([[x + y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        _check_dim(self, other)
        return CMat._of([[x - y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __neg__(self):
        return CMat._of([[-x for x in row] for row in self.rows])

    def __mul__(self, other):
        """Each entry of a product is one exact dot product, normalized once."""
        if isinstance(other, CMat):
            _check_dim(self, other)
            cols = [[x.t for x in col] for col in zip(*other.rows)]
            return CMat._of([
                [GaussRat.from_triple(K.qdot(row, col)) for col in cols]
                for row in ([x.t for x in r] for r in self.rows)
            ])
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = _as_gr(c)
        return CMat._of([[x * c for x in row] for row in self.rows])

    def bracket(self, other) -> "CMat":
        return self * other - other * self

    def conjugate(self) -> "CMat":
        return CMat._of([[x.conjugate() for x in row] for row in self.rows])

    def trace(self) -> GaussRat:
        return sum((self.rows[i][i] for i in range(self.n)), GaussRat(0))

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    def support(self) -> int:
        """The nonzero pattern as a bitmask: bit i*n + j is set iff entry
        (i, j) is nonzero."""
        bits = 0
        for k, x in enumerate(x for row in self.rows for x in row):
            if not x.is_zero():
                bits |= 1 << k
        return bits

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
        rows, pivots = rref([[*row, *(ONE if i == j else ZERO for j in range(n))]
                             for i, row in enumerate(self.rows)])
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
        vec = [_as_gr(x).t for x in vec]
        return [GaussRat.from_triple(K.qdot([x.t for x in row], vec)) for row in self.rows]

    def __eq__(self, other):
        if not isinstance(other, CMat):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(
            " ".join(_short(x) for x in row) for row in self.rows
        )
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


def rref(rows: List[List[GaussRat]]) -> Tuple[List[List[GaussRat]], List[int]]:
    """Reduced row echelon form; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def nullspace(m: CMat) -> List[List[GaussRat]]:
    """Basis of the kernel (as column vectors), deterministic."""
    rows, pivots = rref([list(r) for r in m.rows])
    n = m.n
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [GaussRat(0)] * n
        vec[fc] = GaussRat(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis
