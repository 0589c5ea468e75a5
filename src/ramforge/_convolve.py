"""Dense truncated series kernels over Z/m and over F_p[Y]/(modulus).

Residue vectors are plain lists of ints in [0, m).  A product takes the
numpy int64 path only when the worst-case accumulator provably fits.
Past that bound it is one big-integer multiply (Kronecker substitution
in X): each list is packed into one Python int with a fixed slot of
bytes per coefficient, wide enough for any coefficient of the product,
and the slots of the product are read back and reduced.  Both paths are
exact, so results are identical either way.

A series over F_{p^w} = F_p[Y]/(modulus) is packed into one flat list
(Kronecker substitution in Y): the coefficient of X^k is a polynomial in Y
of degree below w, stored in slots [k*s, k*s + w) of a block of
s = 2w - 1 slots, the other w - 1 slots being zero.  A product of two
such coefficients has Y-degree at most 2w - 2, so one convolution mod p
of two packed lists multiplies the series with no overlap between blocks;
each block is then reduced mod the modulus.  Without a modulus (the rings
F_p and Z/p^P) s = 1, a block is one residue and nothing is reduced.

Composition is Paterson-Stockmeyer (baby steps, giant steps): about
2*sqrt(L) products for an outer series of L blocks, where Horner's rule
takes L - 1; see ``compose_mod``.
"""

from __future__ import annotations

from math import isqrt

_INT64_SAFE = 2**62


def _pack(vals, size):
    """The residues vals as one int, size bytes per slot, lowest first."""
    return int.from_bytes(b"".join([v.to_bytes(size, "little") for v in vals]), "little")


def _unpack(x, size, count, mod):
    """The first count slots of the packed int x, each reduced mod mod."""
    raw = (x & ((1 << (8 * size * count)) - 1)).to_bytes(size * count, "little")
    return [int.from_bytes(raw[i : i + size], "little") % mod
            for i in range(0, size * count, size)]


def conv_mod(a, b, n, mod):
    """Truncated product: first n coefficients of a*b with entries mod m."""
    la = min(len(a), n)
    lb = min(len(b), n)
    if la == 0 or lb == 0 or n == 0:
        return [0] * n
    # reduce first: callers may hand residues from a larger modulus, and
    # both bounds below assume entries below mod
    a = [x % mod for x in a[:la]]
    b = [x % mod for x in b[:lb]]
    if (mod - 1) * (mod - 1) * min(la, lb) < _INT64_SAFE:
        import numpy as np

        full = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        out = (full[:n] % mod).tolist()
    else:
        # a product coefficient sums at most min(la, lb) terms below mod^2
        size = (2 * (mod - 1).bit_length() + min(la, lb).bit_length() + 7) // 8
        m = min(n, la + lb - 1)
        out = _unpack(_pack(a, size) * _pack(b, size), size, m, mod)
    if len(out) < n:
        out.extend([0] * (n - len(out)))
    return out


def block_size(modulus):
    """Slots per X-power in a packed list: 2w - 1, or 1 without a modulus."""
    return 1 if modulus is None else 2 * len(modulus) - 3


def _fold(c, n, mod, modulus):
    """Reduce each of the first n blocks of c mod the modulus, in place."""
    w = len(modulus) - 1
    s = 2 * w - 1
    # Y^(w+e) = -Y^e * (modulus - Y^w): fold slots 2w-2 .. w of each block down
    for top in range(0, n * s, s):
        for d in range(top + s - 1, top + w - 1, -1):
            t = c[d]
            if t:
                c[d] = 0
                for j in range(w):
                    c[d - w + j] = (c[d - w + j] - t * modulus[j]) % mod
    return c


def mul_mod(a, b, n, mod, modulus=None):
    """First n blocks of the packed product a*b."""
    if modulus is None:
        return conv_mod(a, b, n, mod)
    return _fold(conv_mod(a, b, n * block_size(modulus), mod), n, mod, modulus)


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
    """First n blocks of outer(inner(X)); inner's first block must be 0.

    Paterson-Stockmeyer.  With k = ceil(sqrt(L)) for the L blocks of
    outer, cut outer into chunks C_i of k blocks, outer = sum_i C_i(X) X^(ik),
    so outer(inner) = sum_i C_i(inner) * (inner^k)^i.  The baby powers
    inner^0 .. inner^k take k - 1 products.  Every C_i(inner) is a linear
    combination of them: a coefficient block c = sum_t c_t Y^t times a
    power is the sum of the power shifted by t slots times c_t, and the
    shifts stay inside each block, so all chunks are one matrix product of
    scalars for every ring.  Horner's rule in inner^k takes the last
    ceil(L/k) - 1 products.
    """
    if n == 0:
        return []
    s = block_size(modulus)
    w = (s + 1) // 2
    width = n * s
    outer = [x % mod for x in outer[:width]]
    blocks = -(-len(outer) // s)
    if blocks == 0:
        return [0] * width
    k = isqrt(blocks - 1) + 1
    m = -(-blocks // k)
    outer.extend([0] * (m * k * s - len(outer)))
    inner = [x % mod for x in inner[:width]]
    inner.extend([0] * (width - len(inner)))
    powers = [[1] + [0] * (width - 1), inner]
    while len(powers) < (k + 1 if m > 1 else k):
        powers.append(mul_mod(powers[-1], inner, n, mod, modulus))

    # chunk i, row (j, t): the coefficient c_t of Y^t in block ik + j of outer
    coef = [[outer[(i * k + j) * s + t] for j in range(k) for t in range(w)] for i in range(m)]
    if (mod - 1) * (mod - 1) * k * w < _INT64_SAFE:
        import numpy as np

        base = np.asarray(powers[:k], dtype=np.int64)
        shifted = np.zeros((k, w, width), dtype=np.int64)
        for t in range(w):
            shifted[:, t, t:] = base[:, : width - t]
        chunks = (np.asarray(coef, dtype=np.int64) @ shifted.reshape(k * w, width)) % mod
        chunks = chunks.tolist()
    else:
        # the same sums over Kronecker-packed powers: a slot shift is a bit shift
        size = (2 * (mod - 1).bit_length() + (k * w).bit_length() + 7) // 8
        rows = [_pack(pw, size) << (8 * size * t) for pw in powers[:k] for t in range(w)]
        chunks = [_unpack(sum(c * r for c, r in zip(row, rows) if c), size, width, mod)
                  for row in coef]
    if modulus is not None:
        for c in chunks:
            _fold(c, n, mod, modulus)

    # chunk i is multiplied by (inner^k)^i, which vanishes below block ik
    acc = chunks[-1]
    for i in range(m - 2, -1, -1):
        prod = mul_mod(acc, powers[k], n - i * k, mod, modulus)
        acc = [(x + y) % mod for x, y in zip(prod, chunks[i])]
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
