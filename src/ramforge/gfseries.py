"""Exact arithmetic in finite fields and truncated power-series rings.

A ``TruncSeries`` holds the first N coefficients of a power series over
``F_{p^w}``; it represents the series modulo X^N and nothing more.  Every
binary operation returns a result at the minimum truncation of its inputs
and never extends precision.  All values are immutable and every operation
is a pure function, so concurrent use is safe.

Series products, composition and substitution inverses run in the
``_convolve`` kernel for every extension degree.  A series is stored in
the kernel's layout, one flat tuple of residues mod p with one block of
2w - 1 slots per power of X and the Y-coefficients of X^k in slots
[k(2w-1), k(2w-1) + w), so it is handed to the kernel as it is and the
kernel's result (each block reduced mod the field's modulus) is wrapped
without per-coefficient work.  For w = 1 a block is a single residue.
The coefficients as ``FFElem`` values are a view built on first use.

Field extensions require an explicit monic irreducible modulus from the
caller; no built-in modulus tables are shipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ._convolve import block_size, compose_mod, mul_mod, reversion_mod


# Miller-Rabin with the first 13 prime bases decides primality of every n
# below this bound (Sorenson and Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@lru_cache(maxsize=256)  # every PadicSeries result re-checks its p
def _require_prime(n):
    """Raise ValueError unless n is a prime that can be certified."""
    if n >= _MR_BOUND:
        raise ValueError(
            f"primality of {n} cannot be certified: deterministic Miller-Rabin "
            f"is proven only below {_MR_BOUND}"
        )
    if n < 2:
        raise ValueError(f"{n} is not prime")
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
            raise ValueError(f"{n} is not prime")


def vp(n, p, cap):
    """The p-adic valuation of the integer n, at most cap; vp(0) is cap.

    A zero residue mod p^cap certifies only a valuation >= cap.
    """
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (coefficient lists, low degree first)


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, mod, p):
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        c = a[-1]
        if c:
            off = len(a) - 1 - dm
            for j in range(dm):
                a[off + j] = (a[off + j] - c * mod[j]) % p
        a.pop()
    return _ptrim(a)


def _pmulmod(a, b, mod, p):
    return _pmod(_pmul(a, b, p), mod, p)


def _ppowmod(a, e, mod, p):
    result = [1]
    base = _pmod(a, mod, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, mod, p)
        base = _pmulmod(base, base, mod, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # make b monic, then reduce a mod b
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        a = _pmod(a, bm, p)
        a, b = b, a
    return a


@lru_cache(maxsize=64)
def _frobenius_rows(modulus, p, k):
    """Rows (Y^t)^(p^k) mod the modulus for t = 0 .. w-1, w coefficients each."""
    w = len(modulus) - 1
    y = _ppowmod([0, 1], p**k, modulus, p)
    rows, r = [], [1]
    for _ in range(w):
        rows.append(tuple(r) + (0,) * (w - len(r)))
        r = _pmulmod(r, y, modulus, p)
    return tuple(rows)


def _prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class FiniteField:
    """The field F_{p^w}, with an explicit modulus when w > 1.

    ``modulus`` is the coefficient tuple (low degree first, monic) of an
    irreducible degree-w polynomial over F_p; it is checked at construction
    by verifying X^{p^w} == X mod modulus together with the gcd conditions
    for the proper divisors of w.  Primality of p is checked by
    deterministic Miller-Rabin, which is proven below 3.3e24; a larger p
    is rejected as uncertifiable.
    """

    p: int
    w: int = 1
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        _require_prime(self.p)
        if self.w < 1:
            raise ValueError("extension degree must be >= 1")
        if self.w == 1:
            if self.modulus is not None:
                raise ValueError("prime fields take no modulus")
            return
        if self.modulus is None:
            raise ValueError("an explicit irreducible modulus is required for w > 1")
        mod = tuple(c % self.p for c in self.modulus)
        object.__setattr__(self, "modulus", mod)
        if len(mod) != self.w + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree w")
        self._check_irreducible(mod)

    def _check_irreducible(self, mod):
        p, w = self.p, self.w
        x = [0, 1]
        xq = _ppowmod(x, p**w, mod, p)
        if xq != x:
            raise ValueError("modulus is not irreducible (X^{p^w} != X)")
        for r in _prime_factors(w):
            xr = _ppowmod(x, p ** (w // r), mod, p)
            diff = list(xr)
            while len(diff) < 2:
                diff.append(0)
            diff[1] = (diff[1] - 1) % p
            g = _pgcd(diff, list(mod), p)
            if len(g) - 1 > 0:
                raise ValueError("modulus is not irreducible (gcd condition fails)")

    @property
    def order(self):
        return self.p**self.w

    def coerce(self, value):
        """Wrap an int, coefficient vector, or FFElem as an element."""
        rep = self._rep(value)
        return value if isinstance(value, FFElem) else FFElem(self, rep)

    def _rep(self, value):
        """The reduced coefficient vector (w entries) of an int, vector or FFElem."""
        if isinstance(value, FFElem):
            if value.field != self:
                raise ValueError("field mismatch")
            return value.rep
        if isinstance(value, int):
            return (value % self.p,) + (0,) * (self.w - 1)
        rep = tuple(int(c) % self.p for c in value)
        if len(rep) > self.w:
            raise ValueError("coefficient vector longer than extension degree")
        return rep + (0,) * (self.w - len(rep))

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def __repr__(self):
        if self.w == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.w}"


class FFElem:
    """An element of a FiniteField, stored as a reduced coefficient vector."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def _check(self, other):
        if not isinstance(other, FFElem) or other.field != self.field:
            raise ValueError("field mismatch")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FFElem(self.field, tuple((a + b) % p for a, b in zip(self.rep, other.rep)))

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FFElem(self.field, tuple((a - b) % p for a, b in zip(self.rep, other.rep)))

    def __neg__(self):
        p = self.field.p
        return FFElem(self.field, tuple((-a) % p for a in self.rep))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        if f.w == 1:
            return FFElem(f, ((self.rep[0] * other.rep[0]) % f.p,))
        prod = _pmod(_pmul(list(self.rep), list(other.rep), f.p), list(f.modulus), f.p)
        prod = prod + [0] * (f.w - len(prod))
        return FFElem(f, tuple(prod))

    def __pow__(self, e):
        f = self.field
        if e < 0:
            return self.inverse() ** (-e)
        if f.w == 1:
            return FFElem(f, (pow(self.rep[0], e, f.p),))
        res = _ppowmod(list(self.rep), e, list(f.modulus), f.p)
        res = res + [0] * (f.w - len(res))
        return FFElem(f, tuple(res))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.field.order - 2)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def frobenius(self, j=1):
        """Apply x -> x^{p^(j mod w)}; negative j selects the inverse power."""
        f = self.field
        k = j % f.w
        if k == 0:
            return self
        return self ** (f.p**k)

    def is_zero(self):
        return all(a == 0 for a in self.rep)

    def __eq__(self, other):
        return (
            isinstance(other, FFElem)
            and other.field == self.field
            and other.rep == self.rep
        )

    def __hash__(self):
        return hash((self.field, self.rep))

    def __repr__(self):
        if self.field.w == 1:
            return str(self.rep[0])
        return "(" + ",".join(str(c) for c in self.rep) + ")"


class TruncSeries:
    """A power series over a finite field known modulo X^N.

    The series is stored as ``packed``, the kernel's residue list as a
    tuple: ``trunc`` blocks of 2w - 1 slots, the reduced Y-coefficients of
    X^k in slots [k(2w-1), k(2w-1) + w) and zeros in the rest (one slot per
    coefficient over F_p).  ``coeffs`` is a view of it as ``trunc``
    FFElem values, built on first use; the k-th entry is the coefficient
    of X^k.  Instances are immutable.
    """

    __slots__ = ("field", "trunc", "packed", "_coeffs")

    def __init__(self, field, coeffs, trunc=None):
        coeffs = tuple(coeffs)
        s = block_size(field.modulus)
        packed = [0] * (len(coeffs) * s)
        if all(type(c) is int for c in coeffs):
            packed[::s] = [c % field.p for c in coeffs]
        else:
            for k, c in enumerate(coeffs):
                packed[k * s : k * s + field.w] = field._rep(c)
        if trunc is None:
            trunc = len(coeffs)
        if trunc < 1:
            raise ValueError("truncation must be >= 1")
        if len(coeffs) != trunc:
            raise ValueError(f"expected {trunc} coefficients, got {len(coeffs)}")
        self.field = field
        self.trunc = trunc
        self.packed = tuple(packed)
        self._coeffs = None

    @property
    def coeffs(self):
        if self._coeffs is None:
            f, w = self.field, self.field.w
            s = block_size(f.modulus)
            self._coeffs = tuple(FFElem(f, self.packed[i : i + w])
                                 for i in range(0, len(self.packed), s))
        return self._coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def x(cls, field, trunc):
        if trunc < 2:
            raise ValueError("truncation must be >= 2 to represent X")
        return cls(field, (0, 1) + (0,) * (trunc - 2), trunc)

    @classmethod
    def one(cls, field, trunc):
        return cls(field, (1,) + (0,) * (trunc - 1), trunc)

    @classmethod
    def zero(cls, field, trunc):
        return cls(field, (0,) * trunc, trunc)

    # -- helpers ------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, TruncSeries) or other.field != self.field:
            raise ValueError("field mismatch")

    def block(self, k):
        """The packed block of X^k: its w Y-coefficients, then w - 1 zeros."""
        s = block_size(self.field.modulus)
        return self.packed[k * s : (k + 1) * s]

    def valuation(self, start=0):
        """Exponent of the first nonzero coefficient at or above X^start, or None."""
        s = block_size(self.field.modulus)
        # upper slots of a block are zero, so the first nonzero slot lies in
        # the block of the first nonzero coefficient
        first = next((i for i in range(start * s, len(self.packed)) if self.packed[i]), None)
        return None if first is None else first // s

    def shift(self, k, n):
        """X^k times the series mod X^n; k < 0 drops the first -k coefficients."""
        if n - k > self.trunc:
            raise ValueError("cannot extend precision by shifting")
        s = block_size(self.field.modulus)
        packed = (0,) * (min(max(k, 0), n) * s) + self.packed[max(-k, 0) * s : max(n - k, 0) * s]
        return _from_packed(self.field, packed, n)

    def truncate(self, n):
        """Forget coefficients at and above X^n (n <= current truncation)."""
        if n > self.trunc:
            raise ValueError("cannot extend precision by truncating")
        if n == self.trunc:
            return self
        return _from_packed(self.field, self.packed[: n * block_size(self.field.modulus)], n)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        return self._termwise(other, 1)

    def __sub__(self, other):
        return self._termwise(other, -1)

    def _termwise(self, other, sign):
        self._check(other)
        n = min(self.trunc, other.trunc)
        p = self.field.p
        width = n * block_size(self.field.modulus)
        return _from_packed(
            self.field, [(a + sign * b) % p for a, b in zip(self.packed[:width], other.packed[:width])], n
        )

    def __mul__(self, other):
        self._check(other)
        n = min(self.trunc, other.trunc)
        f = self.field
        width = n * block_size(f.modulus)
        out = mul_mod(self.packed[:width], other.packed[:width], n, f.p, f.modulus)
        return _from_packed(f, out, n)

    def compose(self, inner):
        """outer(inner(X)); inner must have zero constant term."""
        self._check(inner)
        if any(inner.block(0)):
            raise ValueError("inner series must have zero constant term")
        n = min(self.trunc, inner.trunc)
        f = self.field
        width = n * block_size(f.modulus)
        out = compose_mod(self.packed[:width], inner.packed[:width], n, f.p, f.modulus)
        return _from_packed(f, out, n)

    def comp_inverse(self):
        """Substitution inverse h with g(h) == h(g) == X mod X^N.

        Requires zero constant term and an invertible linear coefficient.
        Computed by Newton iteration on h -> h - (g(h) - X)/g'(h), which
        doubles the number of correct coefficients per step.
        """
        if any(self.block(0)):
            raise ValueError("not a substitution unit: constant term is nonzero")
        if self.trunc < 2 or not any(self.block(1)):
            raise ValueError("not a substitution unit: linear coefficient is zero")
        f = self.field
        n = self.trunc
        return _from_packed(f, reversion_mod(self.packed, n, f.p, f.modulus), n)

    def frobenius_twist(self, j):
        """Apply the coefficient automorphism x -> x^{p^(j mod w)}."""
        f = self.field
        if f.w == 1 or j % f.w == 0:
            return self
        # x -> x^(p^j) fixes F_p, so it maps sum c_t Y^t to sum c_t (Y^t)^(p^j)
        w, s = f.w, block_size(f.modulus)
        rows = _frobenius_rows(f.modulus, f.p, j % f.w)
        packed = list(self.packed)
        for i in range(0, len(packed), s):
            block = packed[i : i + w]
            if any(block):
                packed[i : i + w] = [sum(c * row[d] for c, row in zip(block, rows)) % f.p
                                     for d in range(w)]
        return _from_packed(f, packed, self.trunc)

    # -- comparisons / display ----------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and other.field == self.field
            and other.trunc == self.trunc
            and other.packed == self.packed
        )

    def __hash__(self):
        return hash((self.field, self.trunc, self.packed))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = repr(c)
            if k == 0:
                terms.append(cs)
            elif k == 1:
                terms.append("X" if cs == "1" else f"{cs}*X")
            else:
                terms.append(f"X^{k}" if cs == "1" else f"{cs}*X^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} mod X^{self.trunc} over {self.field!r}>"


def _from_packed(field, packed, n):
    # a series from n blocks of reduced residues with zero upper slots, as
    # the kernel returns them: no per-coefficient work
    g = object.__new__(TruncSeries)
    g.field = field
    g.trunc = n
    g.packed = tuple(packed)
    g._coeffs = None
    return g


def frobenius_twist(g, j):
    return g.frobenius_twist(j)
