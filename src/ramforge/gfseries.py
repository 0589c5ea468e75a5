"""Exact arithmetic in finite fields and truncated power-series rings.

A ``TruncSeries`` holds the first N coefficients of a power series over
``F_{p^w}``; it represents the series modulo X^N and nothing more.  Every
binary operation returns a result at the minimum truncation of its inputs
and never extends precision.  All values are immutable and every operation
is a pure function, so concurrent use is safe.

Series products, composition and substitution inverses run in the
``_convolve`` kernel for every extension degree: a series is handed over
packed into one flat residue list, one block of 2w - 1 slots per power of
X with the Y-coefficients of X^k in slots [k(2w-1), k(2w-1) + w), and the
kernel reduces each block of a product mod the field's modulus.  For w = 1
a block is a single residue.

Field extensions require an explicit monic irreducible modulus from the
caller; no built-in modulus tables are shipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ._convolve import block_size, compose_mod, mul_mod, reversion_mod


@lru_cache(maxsize=256)  # every PadicSeries result re-checks its p
def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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
    for the proper divisors of w.  Primality of p is checked by trial
    division; this toolkit targets desk-scale characteristics.
    """

    p: int
    w: int = 1
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
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
        if isinstance(value, FFElem):
            if value.field != self:
                raise ValueError("field mismatch")
            return value
        if isinstance(value, int):
            rep = (value % self.p,) + (0,) * (self.w - 1)
            return FFElem(self, rep)
        rep = tuple(int(c) % self.p for c in value)
        if len(rep) > self.w:
            raise ValueError("coefficient vector longer than extension degree")
        rep = rep + (0,) * (self.w - len(rep))
        return FFElem(self, rep)

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

    ``coeffs`` always has exactly ``trunc`` entries; the k-th entry is the
    coefficient of X^k.  Instances are immutable.
    """

    __slots__ = ("field", "trunc", "coeffs")

    def __init__(self, field, coeffs, trunc=None):
        coeffs = tuple(field.coerce(c) for c in coeffs)
        if trunc is None:
            trunc = len(coeffs)
        if trunc < 1:
            raise ValueError("truncation must be >= 1")
        if len(coeffs) != trunc:
            raise ValueError(f"expected {trunc} coefficients, got {len(coeffs)}")
        self.field = field
        self.trunc = trunc
        self.coeffs = coeffs

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

    def _packed(self, n):
        # the first n coefficients in the kernel's packed block layout
        pad = (0,) * (block_size(self.field.modulus) - self.field.w)
        return [x for c in self.coeffs[:n] for x in c.rep + pad]

    def truncate(self, n):
        """Forget coefficients at and above X^n (n <= current truncation)."""
        if n > self.trunc:
            raise ValueError("cannot extend precision by truncating")
        if n == self.trunc:
            return self
        return TruncSeries(self.field, self.coeffs[:n], n)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        self._check(other)
        n = min(self.trunc, other.trunc)
        return TruncSeries(
            self.field, tuple(a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])), n
        )

    def __sub__(self, other):
        self._check(other)
        n = min(self.trunc, other.trunc)
        return TruncSeries(
            self.field, tuple(a - b for a, b in zip(self.coeffs[:n], other.coeffs[:n])), n
        )

    def __mul__(self, other):
        self._check(other)
        n = min(self.trunc, other.trunc)
        f = self.field
        out = mul_mod(self._packed(n), other._packed(n), n, f.p, f.modulus)
        return _unpacked(f, out, n)

    def compose(self, inner):
        """outer(inner(X)); inner must have zero constant term."""
        self._check(inner)
        if not inner.coeffs[0].is_zero():
            raise ValueError("inner series must have zero constant term")
        n = min(self.trunc, inner.trunc)
        f = self.field
        out = compose_mod(self._packed(n), inner._packed(n), n, f.p, f.modulus)
        return _unpacked(f, out, n)

    def comp_inverse(self):
        """Substitution inverse h with g(h) == h(g) == X mod X^N.

        Requires zero constant term and an invertible linear coefficient.
        Computed by Newton iteration on h -> h - (g(h) - X)/g'(h), which
        doubles the number of correct coefficients per step.
        """
        if not self.coeffs[0].is_zero():
            raise ValueError("not a substitution unit: constant term is nonzero")
        if self.trunc < 2 or self.coeffs[1].is_zero():
            raise ValueError("not a substitution unit: linear coefficient is zero")
        f = self.field
        n = self.trunc
        return _unpacked(f, reversion_mod(self._packed(n), n, f.p, f.modulus), n)

    def frobenius_twist(self, j):
        """Apply the coefficient automorphism x -> x^{p^(j mod w)}."""
        if self.field.w == 1 or j % self.field.w == 0:
            return self
        return TruncSeries(self.field, tuple(c.frobenius(j) for c in self.coeffs), self.trunc)

    # -- comparisons / display ----------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and other.field == self.field
            and other.trunc == self.trunc
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.trunc, self.coeffs))

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


def _unpacked(field, flat, n):
    # a series from the first n blocks of a packed list
    w, s = field.w, block_size(field.modulus)
    return TruncSeries(field, [flat[k : k + w] for k in range(0, n * s, s)], n)


def frobenius_twist(g, j):
    return g.frobenius_twist(j)
