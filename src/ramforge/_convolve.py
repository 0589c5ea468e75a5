"""Dense truncated series kernels over Z/m and over F_p[Y]/(modulus).

Residue vectors are sequences of ints in [0, m); the kernel's layouts and
``divide_mod`` also pass numpy arrays of them to ``conv_mod``, which then
returns arrays.  That range is the kernel's one input contract: a
``TruncSeries`` or a field element reduces its coefficients once, when it
is built, and the kernel reads every entry handed to it as a residue,
never reducing it again.  This is the one
module that imports numpy, picks an array's dtype or knows the int64 and
float64 bounds: every other module hands in and gets back lists.  A
product takes one of four exact methods, chosen by one size test on m and
the number of terms a coefficient of the product sums:

- direct: one numpy int64 op, when the worst-case accumulator, terms
  products below (m - 1)^2, provably fits (the one statement of that
  bound is ``_pieces``);
- split: just past that bound, for series products (``conv_mod``), the
  shorter operand is cut by length into c <= 3 pieces whose products fit
  directly (see ``_pieces``), one numpy op each, and the reduced products
  are added at their offsets;
- halves: past that, while the halves fit (see ``_int64_exact``),
  each residue is split into two h-bit halves, h = ceil(bits(m - 1)/2),
  and three int64 ops on the halves (Karatsuba) are recombined mod m;
- Kronecker: past the halves band, one big-integer multiply (Kronecker
  substitution in X): each list is packed into one Python int with a
  fixed slot of bytes per coefficient, wide enough for any coefficient of
  the product, and the slots of the product are read back and reduced.

Every method is exact, so results are identical whichever runs.  The
direct and halves methods serve every bilinear op of the kernel: series
products, the chunk sums of a composition and the block reduction of
``_Slots.reduce``.  The split serves series products alone: it never
makes more numpy calls than halves, and makes fewer coefficient products.

A series over F_{p^w} = F_p[Y]/(modulus) enters and leaves the kernel
as one flat list of residues: the coefficient of X^k is a polynomial in Y
of degree below w, a block of w residues in [k*w, (k+1)*w).  Without a
modulus (the rings F_p and Z/p^P) w = 1, a block is one residue and
nothing is reduced.  Inside a call a series is in one of two layouts,
picked by ``_layout`` alone, from the ring and the number of blocks.  Both
offer the same operations (read in, write out, product, fold, chunk sums,
scale, +2 on the constant term), and compositions, baby powers and Newton
steps are written once against them:

- ``_Words``, over F_{p^w} where they fit: each block is one int64 word
  sum_t c_t 2^(bt), b bits per slot, enough for every slot sum the call
  can form (``_word_bits``).  This is Kronecker substitution at the bit
  level (D. Harvey, "Faster polynomial multiplication via multipoint
  Kronecker substitution", J. Symbolic Comput. 44, 2009).  A product is
  one ``np.convolve`` of n words, then one fold: the 2w - 1 slots of each
  word are unpacked by shift and mask, taken times the rows Y^t mod the
  modulus, mod p, and repacked.
- ``_Slots``, over F_p and Z/p^P, and over F_{p^w} past the word bound
  (as over F_{q^2} for a prime q near 2^31): arrays of the residues, each
  block padded on read-in to a product block of 2w - 1 slots and cut back
  to w on write-out.  A product of two coefficients has Y-degree at most
  2w - 2, so one ``conv_mod`` of two such arrays (Kronecker substitution
  in Y) multiplies the series with no overlap between blocks, and each
  block is reduced mod the modulus.

A field element is one block, and the field's product is the one-block
``mul_mod(a, b, 1, p, modulus)``.  Lists of at most ``_SHORT`` slots take
the big-integer multiply, whatever m, which at that length costs about
numpy's call overhead, and one list block is reduced in pure Python:
arithmetic in fields up to w = 4 never imports numpy.  Longer lists and
all arrays take the first of direct, split and halves that is exact, and
Kronecker past the halves band.

Composition takes one of two methods:

- Paterson-Stockmeyer (baby steps, giant steps), in every ring: about
  2*sqrt(L) products for an outer series of L blocks, where Horner's rule
  takes L - 1.  Its baby steps, the powers inner^0 .. inner^k, are built
  by ``baby_powers``.
- the Frobenius split, over F_p alone (w = 1 and mod = p), where
  h(X)^p = h(X^p): with outer = sum_{r<p} X^r f_r(X^p),
  outer(h) = sum_r h^r (f_r o h)(X^p), so one composition mod X^n is p
  compositions mod X^ceil(n/p) and p - 1 products, recursively
  (D. J. Bernstein, "Composing power series over a finite ring in
  essentially linear time", J. Symbolic Comput. 26, 1998).  What it reads
  of the inner series is built by ``frobenius_tables``: for its levels,
  h^0 .. h^(p-1) mod X^n by float64 products, and its base table,
  h^0 .. h^(B-1) mod X^B, from packed Python ints, one product and one
  multiply-shift fold per row.  The split runs in float64 alone, and
  ``frobenius_wins`` takes it only where every sum it forms is exact
  there (``_float64_exact``).  A small level is one BLAS matrix product
  of its rows with a matrix of shifted powers of h, a big one float64
  convolutions with the phases of the powers, by one size test,
  ``_matrix_level``.  The identity fails over Z/p^P, and over F_{p^w} it
  twists the coefficients of h.

``compose_data`` makes the one choice, by one ring and size test: the
split over F_p (a prime mod, ``is_prime``, and no modulus) where
``frobenius_wins`` holds for the outer blocks the data serve.  Either
method's data depend on the inner series and the precision alone, and
``compose_mod`` takes them ready made, so compositions with one inner (as
in ``nottingham.compose_power``) can build them once; it builds them by
``compose_data`` otherwise.  A composition stays in the layout of its n
blocks, and ``_compose``, its one body, serves ``reversion_mod`` too.

Reciprocals and substitution inverses are Newton iterations.
``recip_mod`` runs its steps over Z/p^P on arrays, as ``divide_mod`` hands
them.  ``reversion_mod`` makes one composition per step, E = g(h), and
reads 1/g'(h) off the chain rule as h'/E' (Brent and Kung, J. ACM 25,
1978), where 1/E' is 2 - E' to the precision the step needs.

``divide_mod`` divides over Z/p^P by a series whose first unit entry,
the pivot, need not be its first: the quotient is a fixed point, reached
in rounds that each take two array products, and the caller, which knows
the valuations, sets the number of rounds.  It is the array half of the
level quotients of ``pdyn``.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf, isqrt
from typing import NamedTuple

from .errors import InvariantError

_INT64_SAFE = 2**62
_FLOAT64_SAFE = 2**53
_SHORT = 8
_FROBENIUS_BASE = 32
_LEVEL_MATRIX = 2**18

# Miller-Rabin with the first 13 prime bases decides primality of every n
# below this bound (Sorenson and Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@lru_cache(maxsize=256)
def is_prime(n):
    """Whether n is a prime certified by deterministic Miller-Rabin; False
    from ``_MR_BOUND`` on, where the test is not proven."""
    if n < 2 or n >= _MR_BOUND:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        if b >= n:
            break
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pack(vals, size):
    """The residues vals as one int, size bytes per slot, lowest first."""
    return int.from_bytes(b"".join([v.to_bytes(size, "little") for v in vals]), "little")


def _unpack(x, size, count, mod):
    """The first count slots of the packed int x, each reduced mod mod."""
    raw = (x & ((1 << (8 * size * count)) - 1)).to_bytes(size * count, "little")
    return [int.from_bytes(raw[i : i + size], "little") % mod
            for i in range(0, size * count, size)]


def _int64_exact(mod, terms):
    """Whether an int64 method, direct or halves (see ``_halves``), is exact
    for a bilinear op on residues below mod, each output entry a sum of at
    most terms products.

    In halves, an entry of the product of the sums of halves is below
    terms * 2^(2h+2), and a reduced value times 2^h mod mod is below
    mod * 2^h; both must stay below the int64 bound.
    """
    if _pieces(mod, terms) == 1:
        return True
    h = ((mod - 1).bit_length() + 1) // 2
    return terms << (2 * h + 2) < _INT64_SAFE and mod << h < _INT64_SAFE


def _halves(op, a, b, mod):
    """op(a, b) mod mod for a bilinear numpy op on int64 residue arrays.

    Each residue is split as x = x1 * 2^h + x0 with h-bit halves,
    h = ceil(bits(mod - 1) / 2).  op runs three times (Karatsuba): on the
    low halves, on the high halves, and on the sums of halves, from which
    the cross term follows.  The three are recombined mod mod by two
    multiplications by 2^h mod mod.  Exact when the halves bound of
    ``_int64_exact`` holds for the terms op sums per entry.
    """
    h = ((mod - 1).bit_length() + 1) // 2
    mask = (1 << h) - 1
    a0, a1, b0, b1 = a & mask, a >> h, b & mask, b >> h
    lo = op(a0, b0)
    hi = op(a1, b1)
    mid = op(a0 + a1, b0 + b1) - lo - hi
    r = (1 << h) % mod
    return ((hi % mod * r + mid) % mod * r + lo) % mod


def _pieces(mod, terms):
    """The fewest pieces c that the shorter operand of a product, whose
    entries sum at most terms products of residues below mod, can be cut
    into so that each piece's product fits directly in int64: each piece
    then sums at most t = (_INT64_SAFE - 1) // (mod - 1)^2 products, and
    c = ceil(terms / t).  c is infinite when t < 1, where one product of
    two residues does not fit.

    c = 1 is the direct bound, terms * (mod - 1)^2 < 2^62, which every
    method test of the kernel reads here."""
    t = (_INT64_SAFE - 1) // ((mod - 1) * (mod - 1) or 1)
    return -(-terms // t) if t > 0 else inf


def _float64_exact(mod, terms):
    """Whether float64 is exact for a bilinear op on residues below mod,
    each output entry a sum of at most terms products: terms * (mod - 1)^2
    < 2^53, the float64 bound beside the int64 one of ``_pieces``.  Every
    partial sum, in any order and fused or not, is then an integer below
    2^53, which float64 holds exactly (D. Goldberg, "What every computer
    scientist should know about floating-point arithmetic", ACM Computing
    Surveys 23, 1991)."""
    return terms * (mod - 1) ** 2 < _FLOAT64_SAFE


def _word_bits(p, w, terms):
    """The slot width b of the word layout over F_{p^w} where its products
    and chunk sums of at most terms blocks fit, else 0.

    A block c = sum_t c_t Y^t, residues c_t < p, is one int64 word
    sum_t c_t 2^(bt), b the widest width whose 2w - 1 slots stay within
    ``_INT64_SAFE``.  A slot of a product of two words sums at most w
    products below (p - 1)^2, one of a series product terms times that,
    and a Horner step of ``_compose`` adds a chunk sum, bounded the same
    way, before its one fold: words fit where 2 * terms * w * (p - 1)^2
    < 2^b, so no slot carries.  A fold's row sums stay below 2^36.  Words
    fit over every field of the benchmark (at most 67 blocks), over F_27 to
    170 blocks and over F_4 to 262,143, never once (p - 1)^2 reaches 2^18.
    """
    b = (_INT64_SAFE.bit_length() - 1) // (2 * w - 1)
    return b if (2 * terms * w * (p - 1) ** 2).bit_length() <= b else 0


def _layout(mod, modulus, n):
    """The layout of a kernel call on n blocks: ``_Words`` over
    F_p[Y]/(modulus), p = mod, where ``_word_bits`` admits n blocks, and
    ``_Slots`` otherwise, in the dtype of products of n blocks."""
    if modulus is None:
        return _slots(mod, None, 1, 1, array_dtype(mod, n))
    modulus, w = tuple(modulus), len(modulus) - 1
    if b := _word_bits(mod, w, n):
        return _words(mod, modulus, b)
    return _slots(mod, modulus, w, 2 * w - 1, array_dtype(mod, n * (2 * w - 1)))


@lru_cache(maxsize=64)
def _words(mod, modulus, b):
    """The ``_Words`` of slot width b over F_p[Y]/(modulus), p = mod, with
    its tables built once."""
    import numpy as np

    w = len(modulus) - 1
    shifts = b * np.arange(2 * w - 1, dtype=np.int64)
    rows = np.asarray(_reduction(modulus, mod), dtype=np.int64)
    tables = (shifts, rows, -rows % mod, np.left_shift(1, shifts[:w]))
    for x in tables:
        x.flags.writeable = False
    return _Words(mod, w, (1 << b) - 1, *tables)


class _Words(NamedTuple):
    """Series over F_p[Y]/(modulus) as numpy arrays of int64 words (see
    ``_word_bits``), one per block of w slots of b bits, folded, or of
    2w - 1 slots, unfolded, as products and chunk sums come out: one fold
    reduces a product, or a product plus a chunk sum."""

    mod: int
    w: int
    mask: int  # 2^b - 1
    shifts: object  # b * t for the 2w - 1 slots t
    rows: object  # Y^t mod the modulus, for t < 2w - 1 (``_reduction``)
    negated: object  # the rows negated mod p
    place: object  # 2^(bt) for the w slots of a folded word

    stride = 1  # array entries per block
    dtype = "int64"

    def of(self, x, n):
        """The first n blocks of the residue sequence or array x, w residues
        each, as words."""
        import numpy as np

        return _residues(x, n * self.w, np.int64).reshape(n, self.w) @ self.place

    def slots(self, x):
        """The folded words x written out: w residues per word."""
        return (x[:, None] >> self.shifts[: self.w] & self.mask).reshape(-1)

    def product(self, x, y, n):
        """The first n blocks of x * y, unfolded: one ``np.convolve``."""
        import numpy as np

        return np.convolve(x[:n], y[:n])[:n]

    def fold(self, x, negate=False):
        """Unfolded words x reduced mod (modulus, p), negated when negate:
        the 2w - 1 slots by shift and mask, times the rows Y^t, mod p."""
        slots = x[..., None] >> self.shifts & self.mask
        return slots @ (self.negated if negate else self.rows) % self.mod @ self.place

    def mul(self, x, y, n, negate=False):
        """The first n blocks of x * y (or of -x * y), folded."""
        return self.fold(self.product(x, y, n), negate)

    def chunks(self, outer, base):
        """The chunk sums of ``_compose``, one matrix product: unfolded, but
        for the last, where Horner's rule starts, folded."""
        import numpy as np

        out = outer.reshape(-1, len(base)) @ np.stack(base)
        out[-1] = self.fold(out[-1])
        return out

    def scale(self, x, c):
        """Block i of the folded words x times the integer c[i], mod p."""
        slots = self.slots(x).reshape(-1, self.w)
        return slots * (c[:, None] % self.mod) % self.mod @ self.place

    def plus_two(self, c):
        """The folded word c plus 2 in its slot Y^0."""
        low = c & self.mask
        return c + (low + 2) % self.mod - low

    def data(self, x, n):
        """What a composition mod X^n reads of the words x: its baby powers."""
        return _powers(self, x[:n].copy(), n, isqrt(n - 1) + 1)


class _Slots(NamedTuple):
    """Series over Z/m, or over F_p[Y]/(modulus) past the word bound, as
    numpy arrays of their residues, int64 or Python ints (see ``_layout``),
    in blocks of 2w - 1 slots.  Products and chunk sums come out with every
    block reduced (``reduce``), so the fold of a Horner sum is one mod m."""

    mod: int
    modulus: object  # a tuple, or None over Z/m
    w: int
    stride: int  # 2w - 1 slots per block
    dtype: object

    def of(self, x, n):
        """The first n blocks of the residue sequence or array x, w residues
        each, as an array, each block padded to 2w - 1 slots where w > 1."""
        if self.w == 1:
            return _residues(x, n, self.dtype)
        out = _residues((), n * self.stride, self.dtype)
        out.reshape(n, self.stride)[:, : self.w] = _residues(x, n * self.w, self.dtype).reshape(n, self.w)
        return out

    def slots(self, x):
        """The reduced array x written out: w residues per block."""
        return x if self.w == 1 else x.reshape(-1, self.stride)[:, : self.w].reshape(-1)

    def reduce(self, x):
        """Each block of the array x reduced mod the modulus, in place: the
        2w - 1 slots times the rows Y^t, by ``_bilinear``."""
        if self.modulus is not None:
            import numpy as np

            rows = np.asarray(_reduction(self.modulus, self.mod), dtype=self.dtype)
            blocks = x.reshape(-1, self.stride)
            blocks[:, : self.w] = _bilinear(np.matmul, blocks, rows, self.stride, self.mod)
            blocks[:, self.w :] = 0
        return x

    def product(self, x, y, n):
        """The first n blocks of x * y, reduced: ``conv_mod``, ``reduce``."""
        return self.reduce(conv_mod(x, y, n * self.stride, self.mod))

    def fold(self, x):
        """A sum of reduced products and chunk sums, mod m."""
        return x % self.mod

    def mul(self, x, y, n, negate=False):
        """The first n blocks of x * y (or of -x * y), reduced."""
        out = self.product(x, y, n)
        return -out % self.mod if negate else out

    def chunks(self, outer, base):
        """The chunk sums of ``_compose``, reduced: a block c = sum_t c_t Y^t
        times a power is the power shifted by t slots times c_t, within each
        block, so all chunks are one matrix product ``coef @ shifted``."""
        import numpy as np

        k, w, width = len(base), self.w, len(base[0])
        # chunk i, row (j, t): the coefficient c_t of Y^t in block ik + j of outer
        coef = outer.reshape(-1, k, self.stride)[:, :, :w].reshape(-1, k * w)
        base = np.stack(base)
        shifted = np.zeros((k, w, width), dtype=self.dtype)
        for t in range(w):
            shifted[:, t, t:] = base[:, : width - t]
        chunks = _bilinear(np.matmul, coef, shifted.reshape(k * w, width), k * w, self.mod)
        self.reduce(chunks.reshape(-1))
        return chunks

    def scale(self, x, c):
        """Block i of x times the integer c[i], mod m."""
        return (x.reshape(len(c), -1) * c[:, None] % self.mod).reshape(-1)

    def plus_two(self, c):
        """The slot c plus 2, mod m."""
        return (c + 2) % self.mod

    def data(self, x, n):
        """What a composition mod X^n reads of the slots x: ``compose_data``
        of their first n blocks, written out."""
        return compose_data(self.slots(x[: n * self.stride]), n, self.mod, self.modulus, n)


# interned, one _Slots per ring and dtype, so that reversion_mod reads g and
# h in again only where a step's layout is another object
_slots = lru_cache(maxsize=64)(_Slots)

def _split(x, y, n, mod, c):
    """First n entries of the product of int64 residue arrays x and y mod
    mod, the shorter of the two cut into c pieces of at most
    ceil(len / c) entries, so that each piece's product fits directly in
    int64 (see ``_pieces``).

    Each piece takes one ``np.convolve`` with the part of the other array
    that reaches the first n entries at its offset.  The products are
    reduced, added at the offsets of their pieces, and reduced again.
    ``conv_mod`` takes it for c <= 3, where it makes no more numpy products
    than ``_halves`` and fewer coefficient products.
    """
    import numpy as np

    if len(x) > len(y):
        x, y = y, x
    piece = -(-len(x) // c)
    out = np.zeros(min(n, len(x) + len(y) - 1), dtype=np.int64)
    for i in range(0, len(x), piece):
        part = np.convolve(x[i : i + piece], y[: len(out) - i])[: len(out) - i]
        out[i : i + len(part)] += part % mod
    return out % mod


def _bilinear(op, a, b, terms, mod):
    """op(a, b) mod mod for a bilinear numpy op on residue arrays, each
    output entry a sum of at most terms products.

    Object arrays and int64 arrays below the direct bound take op once;
    int64 arrays past it, which are only made where ``_int64_exact`` holds,
    take ``_halves``.
    """
    if a.dtype == object or _pieces(mod, terms) == 1:
        return op(a, b) % mod
    return _halves(op, a, b, mod)


def conv_mod(a, b, n, mod):
    """Truncated product: first n coefficients of a*b with entries mod m.

    a and b are sequences of residues below mod, or two numpy arrays of
    them as ``_Slots`` passes them (int64 where ``_int64_exact`` holds,
    Python ints in object arrays past it); arrays give an array of a's
    dtype, anything else a list.  Lists of at most ``_SHORT`` slots take
    Kronecker; longer lists and arrays take direct, split or halves where
    one is exact, and Kronecker past the halves band.
    """
    la = min(len(a), n)
    lb = min(len(b), n)
    arrays = hasattr(a, "dtype")
    if la == 0 or lb == 0:
        out = []
    elif (arrays or max(la, lb) > _SHORT) and (
        (pieces := _pieces(mod, min(la, lb))) <= 3 or _int64_exact(mod, min(la, lb))
    ):
        import numpy as np

        x, y = np.asarray(a[:la], dtype=np.int64), np.asarray(b[:lb], dtype=np.int64)
        if pieces == 1:
            out = np.convolve(x, y)[:n] % mod
        elif pieces <= 3:
            out = _split(x, y, n, mod, pieces)
        else:
            out = _halves(np.convolve, x, y, mod)[:n]
        if not arrays:
            out = out.tolist()
    else:
        # numpy integers have no to_bytes
        x, y = (a[:la].tolist(), b[:lb].tolist()) if arrays else (a[:la], b[:lb])
        # a product coefficient sums at most min(la, lb) terms below mod^2
        size = (2 * (mod - 1).bit_length() + min(la, lb).bit_length() + 7) // 8
        out = _unpack(_pack(x, size) * _pack(y, size), size, min(n, la + lb - 1), mod)
    if arrays:
        return _residues(out, n, a.dtype)
    if len(out) < n:
        out.extend([0] * (n - len(out)))
    return out


def array_dtype(mod, terms):
    """The numpy dtype of residue arrays mod mod whose bilinear ops sum at
    most terms products: int64 where ``_int64_exact`` holds, else object
    (Python ints)."""
    import numpy as np

    return np.int64 if _int64_exact(mod, terms) else object


def _residues(x, length, dtype):
    """The residues x as a numpy array of dtype, cut or zero-padded to length."""
    import numpy as np

    v = np.zeros(length, dtype=dtype)
    x = x[:length]
    v[: len(x)] = x
    return v


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


def row_combination(vec, rows, mod):
    """sum_d vec[d] * rows[d] mod mod: the vector vec times the matrix rows."""
    return [sum(c * row[j] for c, row in zip(vec, rows)) % mod for j in range(len(rows[0]))]


def mul_mod(a, b, n, mod, modulus=None):
    """First n blocks of the packed product a*b, as a list.

    Over Z/m this is ``conv_mod``.  Over F_{p^w} one block, a product of
    field elements, is reduced in pure Python, and more blocks take the
    layout of n blocks (see ``_layout``)."""
    if modulus is None:
        return conv_mod(a, b, n, mod)
    if n == 1:
        # a product of two blocks has Y-degree at most 2w - 2
        c = conv_mod(a, b, 2 * len(modulus) - 3, mod)
        return row_combination(c, _reduction(tuple(modulus), mod), mod)
    layout = _layout(mod, modulus, n)
    return layout.slots(layout.mul(layout.of(a, n), layout.of(b, n), n)).tolist()


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
    """Inverse of the unit block a[0:w], as a block."""
    if modulus is None:
        return [pow(a[0], -1, mod)]
    # F_{p^w}^* has order p^w - 1; mod is p here
    return power(a[: len(modulus) - 1], mod ** (len(modulus) - 1) - 2,
                 lambda x, y: mul_mod(x, y, 1, mod, modulus))


def _powers(layout, x, n, k):
    """x^0 .. x^k mod X^n in the layout, from x, an array of n blocks in it
    that no caller writes to: k - 1 products, read-only arrays."""
    powers = [_residues([1], n * layout.stride, layout.dtype), x]
    for _ in range(k - 1):
        powers.append(layout.mul(powers[-1], powers[1], n))
    for y in powers:
        y.flags.writeable = False
    return powers


def baby_powers(inner, n, mod, modulus, k):
    """The baby steps of ``compose_mod``: inner^0 .. inner^k mod X^n, in
    k - 1 products, as read-only numpy arrays in the layout of n blocks
    (see ``_layout``), in which ``compose_mod`` reads them.  They depend on
    inner and n alone, so every composition of n blocks with one inner can
    share them.
    """
    layout = _layout(mod, modulus, n)
    return _powers(layout, layout.of(inner, n), n, k)


def frobenius_wins(p, n):
    """The size test of the Frobenius split over F_p for outer series of n
    blocks, from its measured crossover with Paterson-Stockmeyer in a
    p-step of ``nottingham.compose_power`` (tables built, then p - 1
    compositions onto one inner, or binary powering from p = 7): the
    split wins from n = p^2 / 4 terms on, as the p - 2 products behind
    h^2 .. h^(p-1) grow with p.  In 10 alternating pairs at n = p^2 / 4 it
    won 9 or 10 for each p = 11, 13, 17, 23 and 31, at 0.53 - 0.76 of the
    time, and at n = p^2 / 10 it won 7 - 10 (p = 11 .. 211), so the
    crossover is below p^2 / 4 but not steadily below p^2 / 10; at
    p <= 7 the split was ahead at every n from 8 (0.3 - 0.5 of the time).
    Below 8 terms Paterson-Stockmeyer is kept: a short outer loses with
    the split.

    It also requires that the split's float64 sums be exact
    (``_float64_exact``): an entry of a power of h, of the base product or
    of a level sums fewer than n + p products below (p - 1)^2, bounded
    here by p * n.  As n >= p^2 / 4, that refuses every p from 2,053 on,
    whose n start at 1.05M terms, and no n below 1.06M for smaller p."""
    return n >= 8 and 4 * n >= p * p and _float64_exact(p, p * n)


def _matrix_level(p, m, nd, rows):
    """Whether a level of the Frobenius split, rows composites of n_d = nd
    terms, each put together from p children of m terms, is one matrix
    product: where rows times the p * m x n_d entries of its matrix stay
    within ``_LEVEL_MATRIX``.  Past that, float64 convolutions take less
    time, and the matrix would take memory of order n_d^2 (see
    ``frobenius_tables``).  That work, about n^2 / p^d at depth d, falls
    with the depth, so the matrix levels are the deepest ones, and a split
    of up to about 500 terms has no other.

    Measured on 2 vCPUs with OpenBLAS's default threading, tables plus one
    composition, against this test: a matrix on every level took 25 + 5 ms
    at p = 5, n = 3200, against 5 + 5 ms, and 42 + 82 ms at p = 2, with
    peak RSS 246 MB against 31 MB; bounding the matrix alone,
    p * m * n_d, and not the rows, p = 2 at n = 3200 took 15 - 18 ms a
    composition in three runs of four, against 3 - 5 ms, its levels of
    8 - 64 rows running as threaded products; and a bound of 2^20 took
    1.4 + 0.8 ms at p = 2, n = 1000, against 0.2 + 0.5 ms, with 18 MB
    more peak RSS."""
    return rows * p * m * nd <= _LEVEL_MATRIX


def compose_data(inner, n, mod, modulus, blocks):
    """What ``compose_mod`` reads of inner mod X^n, for outer series of at
    most blocks <= n blocks: ``frobenius_tables`` over F_p (a prime mod and
    no modulus) where ``frobenius_wins`` holds for blocks, and otherwise
    ``baby_powers`` with k = ceil(sqrt(blocks)).

    This is the one choice of composition method.  The test reads the
    blocks the data will serve, as a short outer loses with the split: a
    caller that keeps the data for every composition mod X^n passes n.
    The split's sums grow with n, whatever the blocks, so its float64
    bound is read at n too.
    """
    if modulus is None and frobenius_wins(mod, blocks) and frobenius_wins(mod, n) and is_prime(mod):
        return frobenius_tables(inner, n, mod)
    return baby_powers(inner, n, mod, modulus, isqrt(blocks - 1) + 1)


class FrobeniusTables(NamedTuple):
    """What the Frobenius split keeps of an inner series mod X^n over F_p
    (see ``frobenius_tables``): read-only float64 arrays, about 2p * n_d
    entries for a convolution level, at most ``_LEVEL_MATRIX`` for a
    matrix level, and n_D^2 for the base table."""

    p: int
    sizes: tuple  # the level lengths n = n_0 > n_1 > .. > n_D
    levels: tuple  # one per level d < D, a matrix or a phase stack
    table: object  # the base table


def _base_table(inner, size, p):
    """h^0 .. h^(B-1) mod X^B over F_p, B = size, as the rows of a B x B
    float64 array, from B - 1 products of packed Python ints.

    h and each row are packed into one int, W bits per slot (Kronecker
    substitution at the bit level, as in ``_Words``), slot 0 of h cleared:
    the inner series of every composition has h(0) = 0.  Row j + 1 is
    fold((row_j * h) & cut), where cut keeps the B low slots and
    fold(x) = x - (((x * M) >> s) & low) * p reduces every slot mod p at
    once by multiply-shift (T. Granlund and P. L. Montgomery, "Division by
    invariant integers using multiplication", PLDI 1994):

    - slot k < B of row_j * h sums at most k <= B - 1 products below
      (p - 1)^2, as h's slot 0 is 0, so it is below 2^b for
      b = bits(max(B - 1, 1) * (p - 1)^2), and carries into no other slot
      while b <= W;
    - with s = b + bits(p) and M = ceil(2^s / p) = (2^s + e) / p, 0 <= e < p,
      a slot v < 2^b has v * e < 2^s, so for v = q * p + r, v * M / 2^s =
      q + (r + v * e / 2^s) / p with r + v * e / 2^s < p: floor(v * M / 2^s)
      = floor(v / p);
    - W is the least of 8, 16, 32 and 64 with W >= b + bits(M), so each
      v * M < 2^W stays in its slot of x * M, floor(v * M / 2^s) < 2^(W - s),
      and low, the low W - s bits of every slot, keeps exactly floor(v / p):
      each slot of the fold is v mod p, with no borrow between slots; and
      W >= s, as M >= 2^b and b >= bits(p) - 1 give b + bits(M) >= 2b + 1
      >= s.

    As M <= 2^(b+1), b + bits(M) <= 2b + 2.  ``frobenius_wins`` admits
    p * n * (p - 1)^2 < 2^53 only with 4n >= p^2, so p <= 2039, and
    B <= ``_FROBENIUS_BASE`` = 32 then gives b <= 27: every table the split
    builds fits slots of 64 bits.  A direct call past them raises
    ``InvariantError`` rather than build a wrong table.
    """
    import numpy as np

    b = (max(size - 1, 1) * (p - 1) ** 2).bit_length()
    s = b + p.bit_length()
    mult = -(-(1 << s) // p)
    width = next((w for w in (8, 16, 32, 64) if w >= b + mult.bit_length()), None)
    if width is None:
        raise InvariantError(f"the Frobenius base table over F_{p} at {size} terms needs slots past 64 bits")
    slot = np.dtype(f"<u{width // 8}")
    cut = (1 << (width * size)) - 1
    low = cut // ((1 << width) - 1) * ((1 << (width - s)) - 1)
    h = int.from_bytes(_residues(inner, size, slot).tobytes(), "little") >> width << width
    row, rows = 1, [1]
    for _ in range(size - 1):
        x = row * h & cut
        row = x - ((x * mult >> s) & low) * p
        rows.append(row)
    raw = b"".join([r.to_bytes(slot.itemsize * size, "little") for r in rows])
    return np.frombuffer(raw, dtype=slot).reshape(size, size).astype(np.float64)


def frobenius_tables(inner, n, p):
    """The per-inner data of ``compose_mod``'s Frobenius split over F_p.

    The levels run n_0 = n, n_(d+1) = ceil(n_d / p), down to the first
    n_D <= ``_FROBENIUS_BASE``.  Level d < D puts p^d composites of n_d
    terms together from children of m = n_(d+1) terms, and keeps, as
    ``_matrix_level`` picks:

    - a matrix of p * m rows of n_d terms, row r * m + i being
      X^(p * i) * h^r mod X^(n_d): the n_d terms of the powers of h, padded
      in front by zeros, that start p * i before them, so the matrix is one
      strided view of the padded powers, copied once;
    - or a phase stack: for r = 1 .. p - 1, the phases t = 0 .. p - 1 of
      h^r mod X^(n_d), phase t being h^r's coefficients t, t + p, .., each
      in a block of 2m - 1 slots, so that one product of a child with the
      stack gives its p products with the phases, in separate blocks.

    Both read h^0 .. h^(p-1) mod X^n, p - 2 float64 products, each reduced
    mod p, padded in front by p * (n_1 - 1) zeros, the most a level reads.
    The base table holds h^0 .. h^(B-1) mod X^B, B = n_D, as rows, built
    from packed ints by ``_base_table``; with no level
    (n <= ``_FROBENIUS_BASE``) it is all the split reads.
    """
    import numpy as np
    from numpy.lib.stride_tricks import as_strided

    sizes = [n]
    while sizes[-1] > _FROBENIUS_BASE:
        sizes.append(-(-sizes[-1] // p))
    levels = []
    if len(sizes) > 1:
        pad = p * (sizes[1] - 1)
        padded = np.zeros((p, pad + n))
        powers = padded[:, pad:]
        powers[0, 0] = 1
        powers[1] = _residues(inner, n, np.float64)
        for r in range(2, p):
            powers[r] = np.convolve(powers[r - 1], powers[1])[:n] % p
    for d, (nd, m) in enumerate(zip(sizes, sizes[1:])):
        if _matrix_level(p, m, nd, p**d):
            # row (r, i) starts p * i entries before h^r, in its zero padding
            step = padded.strides[1]
            windows = as_strided(powers, (p, m, nd), (padded.strides[0], -p * step, step))
            levels.append(windows.reshape(p * m, nd))
        else:
            phases = np.zeros((p - 1, m * p))
            phases[:, :nd] = powers[1:, :nd]
            stack = np.zeros((p - 1, p, 2 * m - 1))
            stack[:, :, :m] = phases.reshape(p - 1, m, p).transpose(0, 2, 1)
            levels.append(stack.reshape(p - 1, -1))
    table = _base_table(inner, sizes[-1], p)
    for x in levels + [table]:
        x.flags.writeable = False
    return FrobeniusTables(p, tuple(sizes), tuple(levels), table)


def _frobenius_compose(outer, n, tables):
    """First n terms of outer(h) over F_p, as an int64 array, from h's
    ``frobenius_tables`` and outer, at most n terms.

    As h(X)^p = h(X^p) over F_p, writing outer = sum_{r<p} X^r f_r(X^p)
    gives outer(h) = sum_r h^r (f_r o h)(X^p), and mod X^n each f_r o h is
    needed only mod X^ceil(n/p).  Every composition of a level has the
    same inner h, so the levels are run on all their outers at once:
    splitting the rows of outers D times leaves p^D rows of n_D terms,
    composed by one matrix product with the base table; each level up
    then puts a row together from its p children g_r = f_r o h, as
    sum_r h^r g_r(X^p) mod X^(n_d).  On a matrix level that is one
    product of the rows, children g_0 .. g_(p-1) side by side, with the
    level's matrix, h^0 = 1 carrying g_0.  On a convolution level phase t
    of the sum is sum_r g_r times phase t of h^r: a row takes p - 1
    products of g_r with the stack of h^r, and g_0 adds to phase 0.  All
    of it runs in float64, exact where ``frobenius_wins`` holds, and each
    level is reduced mod p once.
    """
    import numpy as np

    p, sizes, levels, table = tables
    f = np.asarray(outer, dtype=np.float64)[None, :]
    for m in sizes[1:]:
        padded = np.zeros((len(f), m * p))
        padded[:, : f.shape[1]] = f
        f = padded.reshape(-1, m, p).transpose(0, 2, 1).reshape(-1, m)
    g = f @ table[: f.shape[1]] % p
    for nd, m, level in reversed(list(zip(sizes, sizes[1:], levels))):
        rows = len(g) // p
        if _matrix_level(p, m, nd, rows):
            g = g.reshape(rows, p * m) @ level % p
            continue
        g = g.reshape(rows, p, m)
        acc = np.zeros((rows, p, 2 * m - 1))
        acc[:, 0, :m] = g[:, 0]
        width = (p - 1) * (2 * m - 1) + m
        for row, parts in zip(acc.reshape(rows, -1), g):
            for r in range(1, p):
                row[:width] += np.convolve(parts[r], level[r - 1])[:width]
        g = (acc[:, :, :m] % p).transpose(0, 2, 1).reshape(rows, -1)[:, :nd]
    return g[0].astype(np.int64)


def _compose(layout, outer, data, n):
    """First n blocks of outer(inner) in the layout, from outer (at most n
    blocks in it) and inner's ``compose_data`` mod X^n, tables or powers.

    Paterson-Stockmeyer, from the baby powers inner^0 .. inner^k: with
    outer = sum_i C_i(X) X^(ik) in chunks C_i of k blocks, outer(inner) =
    sum_i C_i(inner) * (inner^k)^i.  Every C_i(inner) is a linear
    combination of the baby powers, so the chunk sums are one matrix product
    (``chunks``), and Horner's rule in inner^k takes ceil(L/k) - 1 products
    for the L blocks of outer, each with one fold of product plus chunk.
    """
    if isinstance(data, FrobeniusTables):
        return _frobenius_compose(outer, n, data)
    k = len(data) - 1
    r = layout.stride
    m = -(-len(outer) // (k * r))
    chunks = layout.chunks(_residues(outer, m * k * r, layout.dtype), data[:k])
    # chunk i is multiplied by (inner^k)^i, which vanishes below block ik
    acc = chunks[-1]
    for i in range(m - 2, -1, -1):
        width = n - i * k
        acc = layout.fold(layout.product(acc, data[k], width) + chunks[i, : width * r])
    return acc


def compose_mod(outer, inner, n, mod, modulus=None, powers=None):
    """First n blocks of outer(inner(X)); inner's first block must be 0.

    powers, when given, are ``compose_data``'s for inner mod X^n, and inner
    is not read: baby powers for any k (each gives the same result), or the
    tables of the Frobenius split, so a caller can keep one set for every
    composition with one inner.  Otherwise ``compose_data`` builds them for
    the L <= n blocks of outer, with k = ceil(sqrt(L)).  outer is read in
    once, to the layout of n blocks (see ``_layout``) that the baby powers
    are in, and ``_compose`` runs in it.
    """
    w = 1 if modulus is None else len(modulus) - 1
    blocks = -(-min(len(outer), n * w) // w)
    if powers is None:
        powers = compose_data(inner, n, mod, modulus, blocks)
    if isinstance(powers, FrobeniusTables):
        return _frobenius_compose(outer[:n], n, powers).tolist()
    layout = _layout(mod, modulus, n)
    return layout.slots(_compose(layout, layout.of(outer, blocks), powers, n)).tolist()


def recip_mod(a, n, mod):
    """First n >= 1 terms of 1/a over Z/mod, where a's first term is a unit.

    Newton iteration h -> h - h*(a*h - 1) doubles the number of correct
    terms per step.  With h correct through k terms, a*h - 1 vanishes below
    X^k, so the step to m <= 2k terms sets terms k .. m-1 of h to
    -h * ((a*h) / X^k), a product of m - k terms.

    a is a numpy residue array whose dtype covers products of n terms (see
    ``array_dtype``), as ``divide_mod`` hands it, and so is the result.
    """
    a = _residues(a, n, a.dtype)
    h = _residues(unit_inverse(a[:1].tolist(), mod), n, a.dtype)
    m = 1
    while m < n:
        k, m = m, min(2 * m, n)
        e = conv_mod(a[:m], h[:k], m, mod)[k:]
        h[k:m] = -conv_mod(h[: m - k], e, m - k, mod) % mod
    return h


def divide_mod(num, den, i0, rounds, mod):
    """The quotient q of num by den over Z/mod, pivoting on den_i0, and its
    residual (num - q * den) mod X^i0, both as lists.

    num and den are sequences of L residues, and den_i0 is a unit; q has
    L - i0 terms.  With den = den_lo + X^i0 * den_hi (den_lo the first i0
    terms), q = ((num - q * den_lo) / X^i0) / den_hi is iterated from
    q = 0 for exactly rounds rounds.  Where den_lo's entries are divisible
    by p^v, v >= 1, for mod = p^P, a round multiplies the error of q by
    p^v, so rounds = ceil(P / v) make q exact; the caller picks rounds and
    reads the residual.

    The rounds run on arrays of the dtype that covers products of L terms,
    converted once.
    """
    import numpy as np

    L = len(num)
    dtype = array_dtype(mod, L)
    num = np.asarray(num, dtype=dtype)
    den = np.asarray(den, dtype=dtype)
    den_lo = den[:i0]
    den_hi_inv = recip_mod(den[i0:], L - i0, mod)
    q = np.zeros(L - i0, dtype=dtype)
    for _ in range(rounds):
        t = (num - conv_mod(q, den_lo, L, mod)) % mod if i0 else num
        q = conv_mod(t[i0:], den_hi_inv, L - i0, mod)
    residual = (num[:i0] - conv_mod(q, den, i0, mod)) % mod
    return q.tolist(), residual.tolist()


def reversion_mod(g, n, mod, modulus=None):
    """First n blocks of the substitution inverse h of g, g(h) == X.

    g's first block is zero and its second a unit.  Newton iteration
    h -> h - (E - X)/g'(h) on E = g(h), one composition per step (Brent and
    Kung): by the chain rule E' = g'(h) h', so 1/g'(h) = h'/E'.
    Correct-through exponent k means E == X mod X^(k+1), so the step to
    m <= 2k + 2 blocks needs h'/E' only mod X^(m-k-1), against
    (E - X)/X^(k+1); it fills blocks k+1 .. m-1.  E' = 1 + D with D
    vanishing below X^k, so D^2 vanishes below X^(2k), and m - k - 1 <= 2k:
    mod X^(m-k-1), 1/E' = 1 - D = 2 - E', with no reciprocal to compute.

    Each step runs in the layout of its m blocks (see ``_layout``), and g
    and h are read in again only where it changes: over F_{p^w} the steps
    words fit run in words, the longer ones past the word bound in slots.
    """
    import numpy as np

    w = 1 if modulus is None else len(modulus) - 1
    h = [0] * w + unit_inverse(g[w:], mod, modulus)
    layout, k = None, 1
    while k < n - 1:
        m = min(2 * k + 2, n)
        t = m - k - 1
        step = _layout(mod, modulus, m)
        if step is not layout:
            x, h = step.of(g, n), step.of(h if layout is None else layout.slots(h), n)
            layout = step
        r = layout.stride
        e = _compose(layout, x[: m * r], layout.data(h, m), m)
        inv = layout.scale(e[r : (t + 1) * r], -np.arange(1, t + 1))
        inv[0] = layout.plus_two(inv[0])
        ratio = layout.mul(layout.scale(h[r : (t + 1) * r], np.arange(1, t + 1)), inv, t)
        h[(k + 1) * r : m * r] = layout.mul(e[(k + 1) * r :], ratio, t, negate=True)
        k = 2 * k + 1
    return h if layout is None else layout.slots(h).tolist()
