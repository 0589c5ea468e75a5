"""Dense truncated series kernels over Z/m and over F_p[Y]/(modulus).

Residue vectors are plain lists of ints in [0, m).  The numpy int64 path
is used only when the worst-case accumulator provably fits; otherwise we
fall back to exact Python integers, so results are identical either way.

A series over F_{p^w} = F_p[Y]/(modulus) is packed into one flat list
(Kronecker substitution in Y): the coefficient of X^k is a polynomial in Y
of degree below w, stored in slots [k*s, k*s + w) of a block of
s = 2w - 1 slots, the other w - 1 slots being zero.  A product of two
such coefficients has Y-degree at most 2w - 2, so one convolution mod p
of two packed lists multiplies the series with no overlap between blocks;
each block is then reduced mod the modulus.  Without a modulus (the rings
F_p and Z/p^P) s = 1, a block is one residue and nothing is reduced.
"""

from __future__ import annotations

_INT64_SAFE = 2**62


def conv_mod(a, b, n, mod):
    """Truncated product: first n coefficients of a*b with entries mod m."""
    la = min(len(a), n)
    lb = min(len(b), n)
    if la == 0 or lb == 0 or n == 0:
        return [0] * n
    # reduce first: callers may hand residues from a larger modulus, and
    # the int64 bound below assumes entries below mod
    a = [x % mod for x in a[:la]]
    b = [x % mod for x in b[:lb]]
    if (mod - 1) * (mod - 1) * min(la, lb) < _INT64_SAFE:
        import numpy as np

        full = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        out = (full[:n] % mod).tolist()
    else:
        out = [0] * min(n, la + lb - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            top = min(lb, n - i)
            for j in range(top):
                out[i + j] = (out[i + j] + ai * b[j]) % mod
    if len(out) < n:
        out.extend([0] * (n - len(out)))
    return out


def block_size(modulus):
    """Slots per X-power in a packed list: 2w - 1, or 1 without a modulus."""
    return 1 if modulus is None else 2 * len(modulus) - 3


def mul_mod(a, b, n, mod, modulus=None):
    """First n blocks of the packed product a*b."""
    if modulus is None:
        return conv_mod(a, b, n, mod)
    w = len(modulus) - 1
    s = 2 * w - 1
    c = conv_mod(a, b, n * s, mod)
    # Y^(w+e) = -Y^e * (modulus - Y^w): fold slots 2w-2 .. w of each block down
    for top in range(0, n * s, s):
        for d in range(top + s - 1, top + w - 1, -1):
            t = c[d]
            if t:
                c[d] = 0
                for j in range(w):
                    c[d - w + j] = (c[d - w + j] - t * modulus[j]) % mod
    return c


def unit_inverse(a, mod, modulus=None):
    """Inverse of the unit block a[0:s], as a block."""
    if modulus is None:
        return [pow(a[0], -1, mod)]
    # F_{p^w}^* has order p^w - 1; mod is p here
    e = mod ** (len(modulus) - 1) - 2
    s = block_size(modulus)
    base = a[:s]
    out = [1] + [0] * (s - 1)
    while e:
        if e & 1:
            out = mul_mod(out, base, 1, mod, modulus)
        base = mul_mod(base, base, 1, mod, modulus)
        e >>= 1
    return out


def compose_mod(outer, inner, n, mod, modulus=None):
    """First n blocks of outer(inner(X)) by Horner; inner's first block must be 0."""
    if n == 0:
        return []
    s = block_size(modulus)
    outer = outer[: n * s]
    top = len(outer) - s
    acc = [x % mod for x in outer[top:]]
    for k in range(top - s, -1, -s):
        acc = mul_mod(acc, inner, n, mod, modulus)
        for j in range(s):
            acc[j] = (acc[j] + outer[k + j]) % mod
    if len(acc) < n * s:
        acc.extend([0] * (n * s - len(acc)))
    return acc


def recip_mod(a, n, mod, modulus=None):
    """First n blocks of 1/a where a's first block is a unit.

    Newton iteration h -> h - h*(a*h - 1) doubles the number of correct
    blocks per step.
    """
    s = block_size(modulus)
    h = unit_inverse(a, mod, modulus)
    m = 1
    while m < n:
        m = min(2 * m, n)
        e = mul_mod(a[: m * s], h, m, mod, modulus)
        e[0] -= 1
        corr = mul_mod(h, e, m, mod, modulus)
        h = h + [0] * (m * s - len(h))
        h = [(x - y) % mod for x, y in zip(h, corr)]
    return h + [0] * (n * s - len(h))


def reversion_mod(g, n, mod, modulus=None):
    """First n blocks of the substitution inverse h of g, g(h) == X.

    g's first block is zero and its second a unit.  Newton iteration on
    h -> h - (g(h) - X)/g'(h); correct-through exponent k means
    g(h) == X mod X^(k+1).
    """
    s = block_size(modulus)
    g = g[: n * s]
    dg = [(i // s) * c % mod for i, c in enumerate(g)][s:]
    h = [0] * s + unit_inverse(g[s:], mod, modulus)
    k = 1
    while k < n - 1:
        m = min(2 * k + 2, n)
        hp = h + [0] * (m * s - len(h))
        e = compose_mod(g[: m * s], hp, m, mod, modulus)
        e[s] = (e[s] - 1) % mod
        dgh = compose_mod(dg[: m * s], hp, m, mod, modulus)
        corr = mul_mod(e, recip_mod(dgh, m, mod, modulus), m, mod, modulus)
        h = [(a - b) % mod for a, b in zip(hp, corr)]
        k = 2 * k + 1
    return h + [0] * (n * s - len(h))
