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
    out = [ZERO] * nout
    nx = len(xs)
    ny = len(ys)
    for i in range(min(nx, nout)):
        x = xs[i]
        if x[0] == 0 and x[1] == 0:
            continue
        a1, b1, d1 = x
        jmax = min(ny, nout - i)
        for j in range(jmax):
            y = ys[j]
            if y[0] == 0 and y[1] == 0:
                continue
            a2, b2, d2 = y
            t = qnormalize(a1 * y[0] - b1 * y[1], a1 * y[1] + b1 * y[0], d1 * d2)
            out[i + j] = qadd(out[i + j], t)
    return out


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
