"""Residue structure: exact Jordan decomposition and sl2 completion.

The decomposition needs no eigenvalues: the semisimple part is a
polynomial in the residue, found by Newton's iteration.  Eigenvalues
serve shape recovery only, and there the exactness boundary is
explicit: they must lie in the Gaussian rationals, otherwise
``gaussian_eigenvalues`` reports failure instead of approximating.
A squarefree part of degree at most 2 is solved exactly, by a square
root test in Q(i) for the discriminant of a quadratic.  Higher degrees
go to a certified root finder: the numeric roots of the squarefree part
of the characteristic polynomial are rounded to the only lattice in
Q(i) that can hold them and accepted by exact evaluation; the roots so
found are divided out, which leaves a quotient of degree at most 2 to
the exact test.  A root is declared outside Q(i) only under an
inclusion-disk certificate.  Only that root finder loads mpmath.
Nilpotent parts are completed to sl2 triples through Jordan chains
with the standard weighted blocks

    Y = subdiagonal ones,  H = diag(k-1, k-3, ..., 1-k),
    X = superdiagonal i(k-i),

conjugated back through the recorded chain basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import InternalError
from .field import CMat, GaussRat, nullspace, rref


class EigenvalueError(ValueError):
    pass


def charpoly(m: CMat) -> List[GaussRat]:
    """Characteristic polynomial coefficients [c0, ..., cn] with cn = 1,
    via the Faddeev-LeVerrier recursion (exact over the field)."""
    n = m.n
    coeffs = [GaussRat(0)] * (n + 1)
    coeffs[n] = GaussRat(1)
    mk = CMat.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        ck = -mk.trace() / GaussRat(k)
        coeffs[n - k] = ck
        if k < n:
            mk = mk + CMat.identity(n).scale(ck)
    return coeffs


def gaussian_eigenvalues(m: CMat) -> List[Tuple[GaussRat, int]]:
    """Eigenvalues in Q(i) with algebraic multiplicities, sorted by (re, im).

    The distinct eigenvalues are the roots of the squarefree part of the
    characteristic polynomial.  Those of a quadratic x^2 + bx + c are
    (-b +- sqrt(D))/2 when D = b^2 - 4c has a square root in Q(i), and
    lie outside the Gaussian rationals otherwise, decided exactly.  For
    a higher degree, numeric roots are rounded to the lattice
    (1/L) Z[i], L the lcm of the characteristic polynomial's denominators,
    which holds every root in Q(i) (rational-root theorem in Z[i]); a
    candidate counts only if it is an exact root, and its multiplicity
    comes from exact division.  The exact roots a pass finds are
    divided out, and a quotient of degree at most 2 is decided exactly.
    Raises EigenvalueError if some root lies outside the Gaussian
    rationals, which is reported only under a certificate: Weierstrass
    inclusion disks that are pairwise disjoint and narrower than the
    lattice spacing.  Without one the precision is doubled.
    """
    p = charpoly(m)
    sf = _squarefree_part(p)
    if len(sf) == 2:
        return [(-sf[0], m.n)]
    zs = _gaussian_roots(sf, math.lcm(*(c.t[2] for c in p)))
    return sorted(((z, _multiplicity(p, z)) for z in zs), key=lambda t: (t[0].re, t[0].im))


def _gaussian_roots(sf: List[GaussRat], den: int) -> List[GaussRat]:
    """The roots of the monic squarefree sf, which all lie in the lattice
    (1/den) Z[i]; EigenvalueError if one lies outside Q(i).

    Numeric roots are rounded to the lattice, up the precision ladder.
    The exact roots a pass finds are divided out, and the quotient goes
    on at the same precision; once it has degree at most 2 it is decided
    exactly (``_low_degree_roots``), so a root crowding a lattice point
    that is itself a root cannot stall the certificate."""
    found: List[GaussRat] = []
    prec = last = _START_PREC + den.bit_length()
    for _ in range(_PASSES):
        if len(sf) <= 3:
            break
        last = prec
        zs = _approx_roots(sf, prec)
        if zs is None:
            prec *= 2
            continue
        new: List[GaussRat] = []
        for z in zs:
            cand = _nearest_lattice_point(z, den)
            if cand not in new and _horner(sf, cand).is_zero():
                new.append(cand)
        if new:
            for z in new:
                sf = _poly_divmod(sf, [-z, GaussRat(1)])[0]
            found += new
            continue
        if _inclusion_certified(sf, zs, den):
            raise EigenvalueError("eigenvalues outside coefficient field")
        prec *= 2
    if len(sf) > 3:
        raise EigenvalueError(f"eigenvalues not certified at {last} bits")
    return found + _low_degree_roots(sf)


def _low_degree_roots(sf: List[GaussRat]) -> List[GaussRat]:
    """The roots of the monic squarefree sf of degree at most 2, decided
    exactly: those of x^2 + bx + c are (-b +- sqrt(D))/2 when
    D = b^2 - 4c has a square root in Q(i); EigenvalueError otherwise."""
    if len(sf) <= 2:
        return [-c for c in sf[:-1]]
    c, b, _ = sf
    root = _gaussian_sqrt(b * b - c * GaussRat(4))
    if root is None:
        raise EigenvalueError("eigenvalues outside coefficient field")
    half = GaussRat(Fraction(1, 2))
    return [(root - b) * half, (-root - b) * half]


def _gaussian_sqrt(c: GaussRat) -> Optional[GaussRat]:
    """A square root of c in Q(i), or None if c has none.  (p + iq)^2 = c
    asks for p^2 = (|c| + Re c)/2 and q^2 = (|c| - Re c)/2, q of the sign
    of Im c: |c| and both halves must be rational squares."""
    u, v = c.re, c.im
    r = _rational_sqrt(u * u + v * v)
    if r is None:
        return None
    p, q = _rational_sqrt((r + u) / 2), _rational_sqrt((r - u) / 2)
    if p is None or q is None:
        return None
    return GaussRat(p, q if v >= 0 else -q)


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """The square root of the rational x >= 0 if it is rational, else None."""
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


# Working precision (bits) of the first root-finding pass, on top of the
# bit length of the denominator bound; doubled after each pass that
# neither finds an exact root nor certifies the roots.
_START_PREC = 64
_PASSES = 9


def _squarefree_part(p: List[GaussRat]) -> List[GaussRat]:
    """p / gcd(p, p'), monic; coefficient lists run from degree 0 up."""
    a, b = p, _derivative(p)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return _monic(_poly_divmod(p, a)[0])


def _derivative(p: List[GaussRat]) -> List[GaussRat]:
    return [c * GaussRat(k) for k, c in enumerate(p) if k > 0]


def _poly_divmod(a: List[GaussRat], b: List[GaussRat]):
    """Quotient and remainder; b has a nonzero leading coefficient and the
    remainder comes back with its leading zeros stripped."""
    rem = list(a)
    lead_inv = b[-1].inv()
    quot = [GaussRat(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] * lead_inv
        quot[k] = c
        if not c.is_zero():
            for j, bj in enumerate(b):
                rem[k + j] = rem[k + j] - c * bj
    rem = rem[:len(b) - 1]
    while rem and rem[-1].is_zero():
        rem.pop()
    return quot, rem


def _monic(p: List[GaussRat]) -> List[GaussRat]:
    inv = p[-1].inv()
    return [c * inv for c in p]


def _horner(p: List[GaussRat], x: GaussRat) -> GaussRat:
    acc = GaussRat(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _multiplicity(p: List[GaussRat], root: GaussRat) -> int:
    """How often (x - root) divides p exactly (0 if root is no root)."""
    factor = [-root, GaussRat(1)]
    mult = 0
    while True:
        p, rem = _poly_divmod(p, factor)
        if rem:
            return mult
        mult += 1


def _approx_roots(p: List[GaussRat], prec: int) -> Optional[List[GaussRat]]:
    """Numeric roots of the monic p at ``prec`` bits, as the exact dyadic
    values mpmath returned (None if the iteration did not converge).

    mpmath stops on an absolute tolerance, so the roots are first scaled
    by a power of two into the unit disk (Fujiwara's bound
    2 max |c_k|^(1/(deg - k))) and scaled back exactly.  The iteration
    runs at twice ``prec`` bits against a tolerance of ``prec`` bits:
    the Durand-Kerner step of a root in a cluster of width delta stalls
    near the working precision over delta, so at ``prec`` bits alone
    such a cluster misses the tolerance at every precision, while at
    2 * prec it converges once delta exceeds 2**-prec."""
    import mpmath
    from mpmath.libmp import NoConvergence

    deg = len(p) - 1
    shift = max([0] + [
        1 - (d.bit_length() - max(abs(a), abs(b)).bit_length() - 2) // (deg - k)
        for k, (a, b, d) in enumerate(c.t for c in p[:-1]) if a or b
    ])
    with mpmath.workprec(prec):
        coeffs = []
        for k in range(deg, -1, -1):
            a, b, d = p[k].t
            d <<= shift * (deg - k)
            coeffs.append(mpmath.mpc(mpmath.mpf(a) / d, mpmath.mpf(b) / d))
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=100 + 10 * deg, extraprec=prec)
        except NoConvergence:
            return None
        return [GaussRat(_dyadic(z.real) * 2**shift, _dyadic(z.imag) * 2**shift)
                for z in roots]


def _dyadic(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if sign:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _nearest_lattice_point(z: GaussRat, den: int) -> GaussRat:
    return GaussRat(Fraction(round(z.re * den), den), Fraction(round(z.im * den), den))


def _inclusion_certified(p: List[GaussRat], zs: List[GaussRat], den: int) -> bool:
    """Weierstrass inclusion test for the monic squarefree p of degree k
    at the approximations zs (Braess & Hadeler, Numer. Math. 1973): the
    disks |x - z_i| <= k |W_i|, W_i = p(z_i) / prod_{j != i} (z_i - z_j),
    hold all roots, and when they are pairwise disjoint each holds
    exactly one.  A disk of radius below 1/(2 den) meets (1/den) Z[i] at
    most in the lattice point nearest its centre.  Decided exactly on
    squared radii."""
    k = len(zs)
    rad2 = []
    for i, zi in enumerate(zs):
        denom = GaussRat(1)
        for j, zj in enumerate(zs):
            if j != i:
                denom = denom * (zi - zj)
        if denom.is_zero():
            return False
        r2 = k * k * _abs2(_horner(p, zi)) / _abs2(denom)
        if not 4 * den * den * r2 < 1:
            return False
        rad2.append(r2)
    for i in range(k):
        for j in range(i + 1, k):
            # sqrt(R_i) + sqrt(R_j) < sqrt(D), squared twice
            gap = _abs2(zs[i] - zs[j]) - rad2[i] - rad2[j]
            if gap <= 0 or gap * gap <= 4 * rad2[i] * rad2[j]:
                return False
    return True


def _abs2(z: GaussRat) -> Fraction:
    a, b, d = z.t
    return Fraction(a * a + b * b, d * d)


# ----------------------------------------------------------------------
# Jordan decomposition
# ----------------------------------------------------------------------

def jordan_decompose(m: CMat) -> Tuple[CMat, CMat]:
    """Additive Jordan decomposition m = s + y with s semisimple,
    y nilpotent, [s, y] = 0; exact, by Newton's iteration
    S <- S - P(S) P'(S)^-1 from S = m until P(S) = 0, P the squarefree
    part of the characteristic polynomial (so P'(S) is invertible).
    After k steps S - s is a multiple of (m - s)^(2^k), so the loop ends
    within ceil(log2 n) steps: ceil(log2 n) + 1 evaluations of P."""
    p = _squarefree_part(charpoly(m))
    dp = _derivative(p)
    s = m
    for _ in range((m.n - 1).bit_length() + 1):
        ps = _matrix_horner(p, s)
        if ps.is_zero():
            return s, m - s
        s = s - ps * _matrix_horner(dp, s).inv()
    raise InternalError("internal error: Jordan-Chevalley iteration did not converge")


def _matrix_horner(p: List[GaussRat], s: CMat) -> CMat:
    """p(s) for a coefficient list p from degree 0 up, by Horner's rule."""
    ident = CMat.identity(s.n)
    acc = ident.scale(p[-1])
    for c in reversed(p[:-1]):
        acc = acc * s + ident.scale(c)
    return acc


# ----------------------------------------------------------------------
# sl2 completion
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Sl2Data:
    """A residue's structure: semisimple part s plus the sl2 triple
    (X, H, Y) completing the nilpotent part.  ``basis`` conjugates the
    standard weighted Jordan blocks to (X, H, Y); H is diagonal in that
    basis."""

    s: Optional[CMat]
    X: CMat
    H: CMat
    Y: CMat
    basis: CMat

    def check_brackets(self) -> bool:
        two_x = self.X.scale(2)
        two_y = self.Y.scale(2)
        ok = (
            self.H.bracket(self.X) == two_x
            and self.H.bracket(self.Y) == -two_y
            and self.X.bracket(self.Y) == self.H
        )
        if ok and self.s is not None:
            ok = self.s.bracket(self.Y).is_zero()
        return ok


def sl2_complete(y: CMat) -> Sl2Data:
    """Complete a nilpotent matrix into an sl2 triple (s omitted)."""
    if not y.is_nilpotent():
        raise ValueError("sl2_complete requires a nilpotent matrix")
    n = y.n
    if y.is_zero():
        z = CMat.zero(n)
        return Sl2Data(None, z, z, y, CMat.identity(n))
    chains = _jordan_chains(y)
    cols = [v for chain in chains for v in chain]
    p = CMat([[cols[j][i] for j in range(n)] for i in range(n)])
    p_inv = p.inv()
    sizes = [len(c) for c in chains]
    x_std, h_std = _standard_blocks(sizes)
    x = p * x_std * p_inv
    h = p * h_std * p_inv
    data = Sl2Data(None, x, h, y, p)
    if not data.check_brackets():
        raise InternalError("internal error: sl2 bracket relations failed")
    return data


def sl2_complete_blockwise(y: CMat, blocks: List[List[int]]) -> Sl2Data:
    """sl2 completion respecting a partition of the index set.

    ``y`` must vanish off the diagonal blocks; the triple is assembled
    per block so that H and X commute with anything constant on the
    blocks (used when the residue must stay inside a Levi factor).
    """
    n = y.n
    if not y.is_block_diagonal(blocks):
        raise ValueError("nilpotent part is not block diagonal")
    x_rows = [[GaussRat(0)] * n for _ in range(n)]
    h_rows = [[GaussRat(0)] * n for _ in range(n)]
    p_rows = [[GaussRat(0)] * n for _ in range(n)]
    for idxs in blocks:
        sub = CMat([[y[i, j] for j in idxs] for i in idxs])
        data = sl2_complete(sub)
        for a, i in enumerate(idxs):
            for b, j in enumerate(idxs):
                x_rows[i][j] = data.X[a, b]
                h_rows[i][j] = data.H[a, b]
                p_rows[i][j] = data.basis[a, b]
    # brackets of block-diagonal matrices are taken block by block, and
    # sl2_complete checked every block
    return Sl2Data(None, CMat(x_rows), CMat(h_rows), y, CMat(p_rows))


def _jordan_chains(y: CMat) -> List[List[List[GaussRat]]]:
    """Jordan chains of a nilpotent matrix, each as [v, Yv, ..., Y^(k-1)v]."""
    n = y.n
    kernels = [[]]  # kernels[j] = basis of ker(y^j)
    power = CMat.identity(n)
    p = 0
    while True:
        power = power * y if p > 0 else y
        basis = nullspace(power)
        kernels.append(basis)
        p += 1
        if len(basis) == n:
            break
    chains: List[List[List[GaussRat]]] = []
    for j in range(p, 0, -1):
        spanning = [list(v) for v in kernels[j - 1]]
        spanning += [c[len(c) - j] for c in chains if len(c) >= j]
        for v in kernels[j]:
            if _independent(spanning, v):
                chain = [list(v)]
                for _ in range(j - 1):
                    chain.append(y.apply(chain[-1]))
                chains.append(chain)
                spanning.append(list(v))
    total = sum(len(c) for c in chains)
    if total != n:
        raise InternalError("internal error: Jordan chains do not span")
    return chains


def _independent(spanning: List[List[GaussRat]], v: List[GaussRat]) -> bool:
    """v is outside the span of ``spanning``, an independent list."""
    _, pivots = rref(spanning + [v])
    return len(pivots) == len(spanning) + 1


def _standard_blocks(sizes: List[int]) -> Tuple[CMat, CMat]:
    """Block-diagonal standard X (superdiag i(k-i)) and H (diag k-1, ...)."""
    n = sum(sizes)
    x_rows = [[GaussRat(0)] * n for _ in range(n)]
    h_rows = [[GaussRat(0)] * n for _ in range(n)]
    off = 0
    for k in sizes:
        for i in range(1, k):
            x_rows[off + i - 1][off + i] = GaussRat(i * (k - i))
        for i in range(k):
            h_rows[off + i][off + i] = GaussRat(k - 1 - 2 * i)
        off += k
    return CMat(x_rows), CMat(h_rows)
