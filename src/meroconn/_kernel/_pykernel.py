"""Pure-Python arithmetic kernel.

Gaussian rationals are passed around as normalized integer triples
``(a, b, d)`` meaning ``(a + b*i) / d`` with ``d > 0`` and
``gcd(a, b, d) == 1``, so equal values have equal triples.  Series
coefficients are lists of such triples.
"""

from math import gcd

ZERO = (0, 0, 1)
ONE = (1, 0, 1)


def qnormalize(a, b, d):
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(gcd(a, b), d)
    if g > 1:
        a //= g
        b //= g
        d //= g
    return (a, b, d)


def qadd(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        return qnormalize(a1 + a2, b1 + b2, d1)
    return qnormalize(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def qsub(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        return qnormalize(a1 - a2, b1 - b2, d1)
    return qnormalize(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)


def qneg(x):
    return (-x[0], -x[1], x[2])


def qmul(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    if b1 == 0 and b2 == 0:
        return qnormalize(a1 * a2, 0, d1 * d2)
    return qnormalize(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def qinv(x):
    a, b, d = x
    if a == 0 and b == 0:
        raise ZeroDivisionError("inverse of zero Gaussian rational")
    n = a * a + b * b
    return qnormalize(d * a, -d * b, n)


def qdiv(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    if a2 == 0 and b2 == 0:
        raise ZeroDivisionError("division by zero Gaussian rational")
    n = a2 * a2 + b2 * b2
    re = a1 * a2 + b1 * b2
    im = b1 * a2 - a1 * b2
    return qnormalize(d2 * re, d2 * im, d1 * n)


def qconv(xs, ys, nout):
    """Truncated convolution: out[k] = sum_{i+j=k} xs[i]*ys[j] for k < nout."""
    return qconvsum(((0, xs, ys),), nout)


def qconvsum(terms, nout):
    """Truncated sum of shifted convolutions: for k < nout,
    out[k] = sum over (s, xs, ys) in terms of sum_{s+i+j=k} xs[i]*ys[j].

    One entry of a Laurent-matrix product is such a sum.  Each output
    coefficient is accumulated unnormalized over a common denominator,
    with a gcd only where a product's denominator differs from the
    running one, and normalized once (delayed normalization: Henrici,
    J. ACM 3 (1956); Knuth, TAOCP vol. 2, 4.5.1)."""
    re = [0] * nout
    im = [0] * nout
    den = [1] * nout
    for s, xs, ys in terms:
        if s >= nout:
            continue
        # nonzero coefficients only, as (output index, triple)
        yk = [(s + j, y) for j, y in enumerate(ys[:nout - s]) if y[0] or y[1]]
        if not yk:
            continue
        for i, (a1, b1, d1) in enumerate(xs[:nout - s]):
            if not (a1 or b1):
                continue
            for k, (a2, b2, d2) in yk:
                k += i
                if k >= nout:
                    break
                if b1 or b2:
                    pr = a1 * a2 - b1 * b2
                    pi = a1 * b2 + b1 * a2
                else:
                    pr = a1 * a2
                    pi = 0
                d = d1 * d2
                dk = den[k]
                if d == dk:
                    re[k] += pr
                    im[k] += pi
                elif re[k] or im[k]:
                    g = gcd(dk, d)
                    fa = d // g
                    fp = dk // g
                    re[k] = re[k] * fa + pr * fp
                    im[k] = im[k] * fa + pi * fp
                    den[k] = dk * fa
                else:
                    re[k] = pr
                    im[k] = pi
                    den[k] = d
    out = [ZERO] * nout
    for k in range(nout):
        a, b = re[k], im[k]
        if a or b:
            d = den[k]
            g = gcd(a, b, d)
            out[k] = (a // g, b // g, d // g) if g > 1 else (a, b, d)
    return out


def qconvat(terms, k):
    """Coefficient k of the sum of shifted convolutions that ``qconvsum``
    forms: sum over (s, xs, ys) in terms of sum_{s+i+j=k} xs[i]*ys[j],
    accumulated the same way and normalized once.

    The two loops stay separate: a ``qconvsum`` that called this once per
    output coefficient measured slower on perfbench ``canonical``, 130-154
    against 156-164 items/s and p50 4.17-4.28 against 3.83-4.04 ms over 4
    alternating pairs, and 149-156 against 154-161 items/s in 4 more
    (2-CPU host, Python 3.11)."""
    re = im = 0
    den = 1
    for s, xs, ys in terms:
        kk = k - s
        top = min(len(xs), kk + 1)
        for i in range(max(0, kk - len(ys) + 1), top):
            a1, b1, d1 = xs[i]
            if not (a1 or b1):
                continue
            a2, b2, d2 = ys[kk - i]
            if not (a2 or b2):
                continue
            if b1 or b2:
                pr = a1 * a2 - b1 * b2
                pi = a1 * b2 + b1 * a2
            else:
                pr = a1 * a2
                pi = 0
            d = d1 * d2
            if d == den:
                re += pr
                im += pi
            elif re or im:
                g = gcd(den, d)
                fa = d // g
                fp = den // g
                re = re * fa + pr * fp
                im = im * fa + pi * fp
                den *= fa
            else:
                re = pr
                im = pi
                den = d
    if not (re or im):
        return ZERO
    g = gcd(re, im, den)
    return (re // g, im // g, den // g) if g > 1 else (re, im, den)


def qdot(xs, ys):
    """sum_i xs[i]*ys[i] over two equal-length lists, normalized once: coefficient
    len - 1 of the convolution of xs with ys reversed."""
    return qconvat(((0, xs, ys[::-1]),), len(xs) - 1)


def qvadd(xs, ys):
    """Elementwise sum of two aligned coefficient lists (padded to max len)."""
    n = max(len(xs), len(ys))
    out = [ZERO] * n
    for i in range(n):
        x = xs[i] if i < len(xs) else ZERO
        y = ys[i] if i < len(ys) else ZERO
        out[i] = qadd(x, y)
    return out


def qvscale(xs, c):
    return [qmul(x, c) for x in xs]
