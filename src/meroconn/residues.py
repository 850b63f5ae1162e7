"""Residue structure: exact Jordan decomposition and sl2 completion.

The decomposition needs no eigenvalues: the semisimple part is a
polynomial in the residue, found by Newton's iteration.  Eigenvalues
serve shape recovery only, and there the exactness boundary is
explicit: they must lie in the Gaussian rationals, otherwise
``gaussian_eigenvalues`` reports failure instead of approximating.
One exact root finder serves every degree, with no numerics.  Scaled
by the lcm of the characteristic polynomial's denominators, the
squarefree part becomes a monic polynomial over Z[i], whose roots in
Q(i) are Gaussian integers inside its Cauchy bound.  They are found
modulo the first prime p = 1 (mod 4) at which both images of that
polynomial in F_p[y] (i mapped to either square root of -1) are
squarefree, lifted p-adically past twice the bound, and accepted only
by exact evaluation; fewer roots than the degree means some root lies
outside Q(i).  Nilpotent parts are completed to sl2 triples through
Jordan chains with the standard weighted blocks

    Y = subdiagonal ones,  H = diag(k-1, k-3, ..., 1-k),
    X = superdiagonal i(k-i),

conjugated back through the recorded chain basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from . import _kernel as K
from .errors import InternalError
from .field import CMat, GaussRat, nullspace, rref


class EigenvalueError(ValueError):
    pass


def charpoly(m: CMat) -> List[GaussRat]:
    """Characteristic polynomial coefficients [c0, ..., cn] with cn = 1,
    via the Faddeev-LeVerrier recursion (exact over the field)."""
    n = m.n
    coeffs = [K.ZERO] * n + [K.ONE]
    mk = CMat.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        ck = K.qdiv(K.qneg(mk.trace().t), (k, 0, 1))
        coeffs[n - k] = ck
        if k < n:
            mk = _plus_scalar(mk, ck)
    return [GaussRat.from_triple(c) for c in coeffs]


def _plus_scalar(m: CMat, c) -> CMat:
    """m + c I for a kernel triple c."""
    return CMat._of([[K.qadd(x, c) if i == j else x for j, x in enumerate(row)]
                     for i, row in enumerate(m.t)])


def gaussian_eigenvalues(m: CMat) -> List[Tuple[GaussRat, int]]:
    """Eigenvalues in Q(i) with algebraic multiplicities, sorted by (re, im).

    The distinct eigenvalues are the roots of the squarefree part of the
    characteristic polynomial.  Every one in Q(i) lies in the lattice
    (1/L) Z[i], L the lcm of the characteristic polynomial's
    denominators (rational-root theorem in Z[i]), and ``_gaussian_roots``
    finds them there by p-adic lifting, for every degree alike.  A
    candidate counts only if it is an exact root, and its multiplicity
    comes from exact division.  Raises EigenvalueError if some root lies
    outside the Gaussian rationals, which is the case exactly when fewer
    exact roots than the degree of the squarefree part are found.
    """
    p = charpoly(m)
    zs = _gaussian_roots(_squarefree_part(p), math.lcm(*(c.t[2] for c in p)))
    return sorted(((z, _multiplicity(p, z)) for z in zs), key=lambda t: (t[0].re, t[0].im))


def _gaussian_roots(sf: List[GaussRat], den: int) -> List[GaussRat]:
    """The roots of the monic squarefree sf, which all lie in the lattice
    (1/den) Z[i]; EigenvalueError if one lies outside Q(i).

    y = den x turns sf into a monic g in Z[i][y]: den^n times the
    characteristic polynomial at y/den is monic and integral, and sf is
    a monic factor of it, integral by Gauss's lemma.  A root of sf in
    Q(i) is then (a + bi)/den with a + bi a root of g, so |a|, |b| <= B =
    1 + max_k (|Re g_k| + |Im g_k|), the Cauchy bound.  At the first
    prime p = 1 (mod 4) where both images of g in F_p[y], under
    i -> +-iota with iota^2 = -1, are squarefree, a + bi reduces to a
    simple root a +- b iota of each image.  The roots of the images in
    F_p are lifted by Newton's step to a modulus q = p^(2^j) > 2B, and
    each pair (r+, r-) gives a = (r+ + r-)/2 and b = (r+ - r-)/(2 iota)
    as symmetric residues mod q (Loos, SIAM J. Comput. 12 (1983),
    carried over to Z[i]).  A candidate counts only if it is an exact
    root of sf; none is missed, so fewer than deg sf of them is the
    refusal."""
    d = len(sf) - 1
    g = [(c * GaussRat(den ** (d - k))).t[:2] for k, c in enumerate(sf)]
    bound = 1 + max((abs(a) + abs(b) for a, b in g[:-1]), default=0)
    p, iota = _good_prime(g)
    q, lifts = p, 0
    while q <= 2 * bound:
        q, lifts = q * q, lifts + 1
    iota = _lift([1, 0, 1], iota, p, lifts)
    images = []
    for s in (iota, -iota):
        h = [(a + b * s) % q for a, b in g]
        images.append([_lift(h, r, p, lifts) for r in range(p) if _eval_mod(h, r, p) == 0])
    half, half_iota = pow(2, -1, q), pow(2 * iota, -1, q)
    found = []
    for rp in images[0]:
        for rm in images[1]:
            a, b = _symmetric((rp + rm) * half, q), _symmetric((rp - rm) * half_iota, q)
            z = GaussRat(Fraction(a, den), Fraction(b, den))
            if abs(a) <= bound and abs(b) <= bound and _horner(sf, z).is_zero():
                found.append(z)
    if len(found) < d:
        raise EigenvalueError("eigenvalues outside coefficient field")
    return found


def _good_prime(g: List[Tuple[int, int]]) -> Tuple[int, int]:
    """The first prime p = 1 (mod 4) at which both images of the
    Gaussian-integer polynomial g (pairs (Re, Im) from degree 0 up) in
    F_p[y] are squarefree, and iota with iota^2 = -1 mod p, namely
    c^((p-1)/4) for the least quadratic non-residue c: a rejected prime
    costs a gcd in F_p[y], no search through F_p."""
    p = 1
    while True:
        p += 4
        if any(p % f == 0 for f in range(3, math.isqrt(p) + 1, 2)):
            continue
        c = 2
        while pow(c, (p - 1) // 2, p) != p - 1:
            c += 1
        iota = pow(c, (p - 1) // 4, p)
        if all(_squarefree_mod([(a + b * s) % p for a, b in g], p) for s in (iota, -iota)):
            return p, iota


def _squarefree_mod(h: List[int], p: int) -> bool:
    """gcd(h, h') is a nonzero constant in F_p[y] (h with a unit leading
    coefficient, from degree 0 up)."""
    a, b = h, _strip([k * c % p for k, c in enumerate(h) if k])
    while b:
        a, b = b, _rem_mod(a, b, p)
    return len(a) == 1


def _rem_mod(a: List[int], b: List[int], p: int) -> List[int]:
    """a mod b in F_p[y], leading zeros stripped; b[-1] != 0 mod p."""
    a, inv = list(a), pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a.pop() * inv % p
        shift = len(a) - len(b) + 1
        for j, bj in enumerate(b[:-1]):
            a[shift + j] = (a[shift + j] - c * bj) % p
    return _strip(a)


def _strip(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _eval_mod(h: List[int], r: int, q: int) -> int:
    acc = 0
    for c in reversed(h):
        acc = (acc * r + c) % q
    return acc


def _lift(h: List[int], r: int, p: int, steps: int) -> int:
    """The root mod p^(2^steps) of h (integer coefficients from degree 0
    up) over the simple root r mod p, by ``steps`` Newton steps, each of
    which squares the modulus."""
    dh = [k * c for k, c in enumerate(h) if k]
    q = p
    for _ in range(steps):
        q *= q
        r = (r - _eval_mod(h, r, q) * pow(_eval_mod(dh, r, q), -1, q)) % q
    return r


def _symmetric(x: int, q: int) -> int:
    """The residue of x mod q in (-q/2, q/2]."""
    x %= q
    return x - q if 2 * x > q else x


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
    acc = CMat.diag([p[-1]] * s.n)
    for c in reversed(p[:-1]):
        acc = _plus_scalar(acc * s, c.t)
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
    x_rows = [[K.ZERO] * n for _ in range(n)]
    h_rows = [[K.ZERO] * n for _ in range(n)]
    p_rows = [[K.ZERO] * n for _ in range(n)]
    for idxs in blocks:
        data = sl2_complete(CMat._of([[y.t[i][j] for j in idxs] for i in idxs]))
        for a, i in enumerate(idxs):
            for b, j in enumerate(idxs):
                x_rows[i][j] = data.X.t[a][b]
                h_rows[i][j] = data.H.t[a][b]
                p_rows[i][j] = data.basis.t[a][b]
    # brackets of block-diagonal matrices are taken block by block, and
    # sl2_complete checked every block
    return Sl2Data(None, CMat._of(x_rows), CMat._of(h_rows), y, CMat._of(p_rows))


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
    _, pivots = rref([[x.t for x in row] for row in spanning + [v]])
    return len(pivots) == len(spanning) + 1


def _standard_blocks(sizes: List[int]) -> Tuple[CMat, CMat]:
    """Block-diagonal standard X (superdiag i(k-i)) and H (diag k-1, ...)."""
    n = sum(sizes)
    x_rows = [[K.ZERO] * n for _ in range(n)]
    h_rows = [[K.ZERO] * n for _ in range(n)]
    off = 0
    for k in sizes:
        for i in range(1, k):
            x_rows[off + i - 1][off + i] = (i * (k - i), 0, 1)
        for i in range(k):
            h_rows[off + i][off + i] = (k - 1 - 2 * i, 0, 1)
        off += k
    return CMat._of(x_rows), CMat._of(h_rows)
