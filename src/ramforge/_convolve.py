"""Dense truncated series kernels over Z/m and over F_p[Y]/(modulus).

Residue vectors are sequences of ints in [0, m); ``compose_mod`` also
passes numpy arrays of them to the product functions, which then return
arrays.  A product takes the numpy int64 path only when the worst-case
accumulator provably fits.  Past that bound it is one big-integer
multiply (Kronecker substitution in X): each list is packed into one
Python int with a fixed slot of bytes per coefficient, wide enough for
any coefficient of the product, and the slots of the product are read
back and reduced.  Both paths are exact, so results are identical either
way.

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
takes L - 1.  It stays array-resident: int64 arrays below the bound,
object arrays of Python ints past it; see ``compose_mod``.
"""

from __future__ import annotations

from functools import lru_cache
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
    """Truncated product: first n coefficients of a*b with entries mod m.

    a and b are sequences of ints, or two numpy arrays of residues below
    mod as compose_mod passes them (int64 below the bound, Python ints in
    object arrays past it); arrays give an array of a's dtype, anything
    else a list.
    """
    la = min(len(a), n)
    lb = min(len(b), n)
    arrays = hasattr(a, "dtype")
    if not arrays:
        # reduce first: callers may hand residues from a larger modulus, and
        # both bounds below assume entries below mod
        a = [x % mod for x in a[:la]]
        b = [x % mod for x in b[:lb]]
    if la == 0 or lb == 0:
        out = []
    elif (mod - 1) * (mod - 1) * min(la, lb) < _INT64_SAFE:
        import numpy as np

        out = np.convolve(np.asarray(a[:la], dtype=np.int64), np.asarray(b[:lb], dtype=np.int64))
        out = out[:n] % mod
        if not arrays:
            out = out.tolist()
    else:
        # a product coefficient sums at most min(la, lb) terms below mod^2
        size = (2 * (mod - 1).bit_length() + min(la, lb).bit_length() + 7) // 8
        out = _unpack(_pack(a[:la], size) * _pack(b[:lb], size), size, min(n, la + lb - 1), mod)
    if arrays:
        return _residues(out, n, None, a.dtype)
    if len(out) < n:
        out.extend([0] * (n - len(out)))
    return out


def _residues(x, length, mod, dtype):
    """x as a numpy array of dtype, cut or zero-padded to length.

    The entries are reduced mod mod (those past int64 before conversion),
    or taken as they are when mod is None.
    """
    import numpy as np

    v = np.zeros(length, dtype=dtype)
    x = x[:length]
    try:
        v[: len(x)] = x
    except OverflowError:  # residues of a larger modulus, past int64
        v[: len(x)] = [c % mod for c in x]
    if mod is not None:
        v %= mod
    return v


def block_size(modulus):
    """Slots per X-power in a packed list: 2w - 1, or 1 without a modulus."""
    return 1 if modulus is None else 2 * len(modulus) - 3


@lru_cache(maxsize=64)
def _reduction(modulus, mod):
    """Rows Y^d mod (modulus, mod) for d = 0 .. 2w-2, w coefficients each."""
    w = len(modulus) - 1
    rows = [tuple(int(d == j) for j in range(w)) for d in range(w)]
    for _ in range(w - 1):
        # Y * Y^(d-1), with Y^w = -(modulus - Y^w)
        prev = rows[-1]
        rows.append(tuple(((prev[j - 1] if j else 0) - prev[-1] * modulus[j]) % mod for j in range(w)))
    return tuple(rows)


def _fold(c, n, mod, modulus):
    """Reduce each of the first n blocks of c mod the modulus.

    c is a list, or a numpy array that is reduced in place.  All blocks go
    at once: a block of 2w - 1 slots times the rows Y^d mod the modulus.
    """
    import numpy as np

    w = len(modulus) - 1
    s = 2 * w - 1
    arr = c
    if not hasattr(c, "dtype"):
        # a folded slot sums s products of two residues
        arr = np.asarray(c, dtype=np.int64 if (mod - 1) * (mod - 1) * s < _INT64_SAFE else object)
    blocks = arr[: n * s].reshape(n, s)
    blocks[:, :w] = blocks @ np.asarray(_reduction(tuple(modulus), mod), dtype=arr.dtype) % mod
    blocks[:, w:] = 0
    return arr if arr is c else arr.tolist()


def mul_mod(a, b, n, mod, modulus=None):
    """First n blocks of the packed product a*b (lists, or arrays as conv_mod)."""
    if modulus is None:
        return conv_mod(a, b, n, mod)
    return _fold(conv_mod(a, b, n * block_size(modulus), mod), n, mod, modulus)


def power(x, k, op):
    """x combined with itself k >= 1 times under the associative op.

    Left-to-right binary powering: each bit of k after the leading one
    costs one op squaring the result, and one more op with x when set.
    """
    result = x
    for bit in bin(k)[3:]:
        result = op(result, result)
        if bit == "1":
            result = op(result, x)
    return result


def unit_inverse(a, mod, modulus=None):
    """Inverse of the unit block a[0:s], as a block."""
    if modulus is None:
        return [pow(a[0], -1, mod)]
    # F_{p^w}^* has order p^w - 1; mod is p here
    return power(a[: block_size(modulus)], mod ** (len(modulus) - 1) - 2,
                 lambda x, y: mul_mod(x, y, 1, mod, modulus))


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

    The operands are converted once, and the baby powers, the chunks and the
    Horner accumulator stay numpy arrays until the result is returned as a
    list: int64 arrays when every product and chunk sum fits, object arrays
    of Python ints otherwise.  The chunk sums are the same matrix product
    for both dtypes; only the products in conv_mod change method.
    """
    if n == 0:
        return []
    s = block_size(modulus)
    w = (s + 1) // 2
    width = n * s
    blocks = -(-min(len(outer), width) // s)
    if blocks == 0:
        return [0] * width
    k = isqrt(blocks - 1) + 1
    m = -(-blocks // k)
    import numpy as np

    # a product coefficient sums at most width terms below (mod - 1)^2, a
    # chunk coefficient k*w <= width of them and a folded slot s <= width,
    # so one bound covers all three
    small = (mod - 1) * (mod - 1) * width < _INT64_SAFE
    dtype = np.int64 if small else object
    outer = _residues(outer, m * k * s, mod, dtype)
    inner = _residues(inner, width, mod, dtype)
    powers = [_residues([1], width, None, dtype), inner]
    while len(powers) < (k + 1 if m > 1 else k):
        powers.append(mul_mod(powers[-1], inner, n, mod, modulus))

    # chunk i, row (j, t): the coefficient c_t of Y^t in block ik + j of outer
    coef = outer.reshape(m, k, s)[:, :, :w].reshape(m, k * w)
    base = np.stack(powers[:k])
    shifted = np.zeros((k, w, width), dtype=dtype)
    for t in range(w):
        shifted[:, t, t:] = base[:, : width - t]
    chunks = coef @ shifted.reshape(k * w, width) % mod
    if modulus is not None:
        _fold(chunks.reshape(-1), m * n, mod, modulus)

    # chunk i is multiplied by (inner^k)^i, which vanishes below block ik
    acc = chunks[-1]
    for i in range(m - 2, -1, -1):
        prod = mul_mod(acc, powers[k], n - i * k, mod, modulus)
        acc = (prod + chunks[i, : len(prod)]) % mod
    return acc.tolist()


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
