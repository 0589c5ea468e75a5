"""Exact arithmetic in finite fields and truncated power-series rings.

A ``TruncSeries`` holds the first N coefficients of a power series over a
``FiniteField``, the ring F_p, Z/p^P or F_{p^w}; it represents the series
modulo X^N and nothing more.  Every binary operation returns a result at
the minimum truncation of its inputs and never extends precision.  All
values are immutable and every operation is a pure function, so
concurrent use is safe.

Series products, composition and substitution inverses run in the
``_convolve`` kernel for every ring.  A series is stored as its
coefficients, one flat tuple of residues mod ``field.mod`` (p, or p^P
over Z/p^P) with w per power of X, the Y-coefficients of X^k in
[kw, (k+1)w).  That is the kernel's entry and exit form, so a series is
handed to the kernel as it is and the kernel's result (each block reduced
mod the field's modulus) is wrapped without per-coefficient work.  For
w = 1 a block is a single residue.  (Inside a kernel call a block over
F_{p^w} is one int64 word where that fits, or a product block of 2w - 1
slots past the word bound; the stored form stays this one.)  The
coefficients as ``FFElem`` values are a view built on first use.
A JSON list of plain ints is packed in one pass (``_plain_packed``).

Field elements are single blocks of the same kernel: their product is
the one-block ``mul_mod``, and powers, inverses and the Frobenius rows
behind the irreducibility test use its ``power``.  That product needs no
numpy, so building a field and computing in it never import it.

Field extensions require an explicit monic irreducible modulus from the
caller; no built-in modulus tables are shipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from ._convolve import (_MR_BOUND, compose_data, compose_mod, is_prime, mul_mod, power, reversion_mod,
                        row_combination, unit_inverse)


def _require_prime(n):
    """Raise ValueError unless n is a prime that can be certified."""
    if n >= _MR_BOUND:
        raise ValueError(
            f"primality of {n} cannot be certified: deterministic Miller-Rabin "
            f"is proven only below {_MR_BOUND}"
        )
    if not is_prime(n):
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


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pgcd(a, b, p):
    """A gcd over F_p of coefficient lists, low degree first, by Euclid."""
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):  # a -= c * X^off * b cancels a's top coefficient
            c, off = a[-1] * inv % p, len(a) - len(b)
            a = _ptrim([(x - c * b[j - off]) % p if j >= off else x for j, x in enumerate(a)])
        a, b = b, a
    return a


@lru_cache(maxsize=64)
def _frobenius_rows(modulus, p, k):
    """Rows (Y^t)^(p^k) mod the modulus for t = 0 .. w-1, w coefficients each."""
    w = len(modulus) - 1
    mul = partial(mul_mod, n=1, mod=p, modulus=modulus)
    y = power([0, 1], p**k, mul)
    rows, r = [], [1] + [0] * (w - 1)
    for _ in range(w):
        rows.append(tuple(r))
        r = mul(r, y)
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
    """The field F_{p^w}, with an explicit modulus when w > 1; for prec > 1
    (and w = 1) the ring Z/p^prec.

    ``modulus`` is the coefficient tuple (low degree first, monic) of an
    irreducible degree-w polynomial over F_p; it is checked at construction
    by verifying X^{p^w} == X mod modulus together with the gcd conditions
    for the proper divisors of w.  Primality of p is checked by
    deterministic Miller-Rabin, which is proven below 3.3e24; a larger p
    is rejected as uncertifiable.  ``mod`` = p^prec, set once here, is the
    modulus of the residues the kernel computes with.
    """

    p: int
    w: int = 1
    modulus: tuple[int, ...] | None = None
    prec: int = 1

    def __post_init__(self):
        _require_prime(self.p)
        if self.w < 1:
            raise ValueError("extension degree must be >= 1")
        if self.prec < 1 or (self.prec > 1 and self.w != 1):
            raise ValueError("precision must be >= 1, and > 1 only for w = 1 (the ring Z/p^prec)")
        object.__setattr__(self, "mod", self.p**self.prec)
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
        # Rabin's test; row 1 of the Frobenius rows for k is X^(p^k)
        p, w = self.p, self.w
        if _frobenius_rows(mod, p, w)[1] != (0, 1) + (0,) * (w - 2):
            raise ValueError("modulus is not irreducible (X^{p^w} != X)")
        for r in _prime_factors(w):
            diff = list(_frobenius_rows(mod, p, w // r)[1])
            diff[1] = (diff[1] - 1) % p
            if len(_pgcd(diff, list(mod), p)) > 1:
                raise ValueError("modulus is not irreducible (gcd condition fails)")

    @property
    def order(self):
        return self.p ** (self.w * self.prec)

    def is_unit(self, block):
        """Whether a block of w residues is a unit of the ring: nonzero mod p
        (in F_{p^w} every nonzero element, in Z/p^P a residue prime to p)."""
        return any(c % self.p for c in block)

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
            return (value % self.mod,) + (0,) * (self.w - 1)
        rep = tuple(int(c) % self.mod for c in value)
        if len(rep) > self.w:
            raise ValueError("coefficient vector longer than extension degree")
        return rep + (0,) * (self.w - len(rep))

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def __repr__(self):
        if self.prec > 1:
            return f"Z/{self.p}^{self.prec}"
        if self.w == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.w}"


class FFElem:
    """An element of a FiniteField: one reduced kernel block of w residues.

    Products are one-block ``mul_mod`` calls; the Frobenius applies the
    cached rows (Y^t)^(p^k), as ``TruncSeries.frobenius_twist`` does per block.
    """

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def _check(self, other):
        if not isinstance(other, FFElem) or other.field != self.field:
            raise ValueError("field mismatch")

    def __add__(self, other):
        self._check(other)
        m = self.field.mod
        return FFElem(self.field, tuple((a + b) % m for a, b in zip(self.rep, other.rep)))

    def __sub__(self, other):
        self._check(other)
        m = self.field.mod
        return FFElem(self.field, tuple((a - b) % m for a, b in zip(self.rep, other.rep)))

    def __neg__(self):
        m = self.field.mod
        return FFElem(self.field, tuple((-a) % m for a in self.rep))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        return FFElem(f, tuple(mul_mod(self.rep, other.rep, 1, f.mod, f.modulus)))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** -e
        return power(self, e, FFElem.__mul__) if e else self.field.one()

    def inverse(self):
        f = self.field
        if not f.is_unit(self.rep):
            raise ZeroDivisionError(f"{self!r} is not a unit of {f!r}")
        return FFElem(f, tuple(unit_inverse(self.rep, f.mod, f.modulus)))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def frobenius(self, j=1):
        """Apply x -> x^{p^(j mod w)}; negative j selects the inverse power."""
        f = self.field
        k = j % f.w
        if k == 0:
            return self
        return FFElem(f, tuple(row_combination(self.rep, _frobenius_rows(f.modulus, f.p, k), f.p)))

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
    """A power series over F_p, Z/p^P or F_{p^w} known modulo X^N.

    The series is stored as ``packed``, the kernel's residue list as a
    tuple: ``trunc`` blocks of w residues, the reduced Y-coefficients of
    X^k in [kw, (k+1)w) (one residue per coefficient over F_p and Z/p^P).
    ``coeffs`` is a view of it as ``trunc`` FFElem values, built on first
    use; the k-th entry is the coefficient of X^k.  Instances are
    immutable.  ``_baby`` keeps what a composition mod X^trunc reads of the
    series as its inner series, built on first use by
    ``_convolve.compose_data`` (see ``compose``): the tables of the
    Frobenius split or the Paterson-Stockmeyer baby powers, as the kernel
    chooses.  Neither view takes part in equality, hashing or repr.
    """

    __slots__ = ("field", "trunc", "packed", "_coeffs", "_baby")

    def __init__(self, field, coeffs, trunc=None):
        coeffs = tuple(coeffs)
        packed = _plain_packed(field, coeffs)
        if packed is None:
            packed = [x for c in coeffs for x in field._rep(c)]
        if trunc is None:
            trunc = len(coeffs)
        _check_length(len(coeffs), trunc)
        self.field = field
        self.trunc = trunc
        self.packed = tuple(packed)
        self._coeffs = None
        self._baby = None

    @property
    def coeffs(self):
        if self._coeffs is None:
            f, w = self.field, self.field.w
            self._coeffs = tuple(FFElem(f, self.packed[i : i + w]) for i in range(0, len(self.packed), w))
        return self._coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def x(cls, field, trunc):
        if trunc < 2:
            raise ValueError("truncation must be >= 2 to represent X")
        w = field.w
        return _from_packed(field, (0,) * w + (1,) + (0,) * ((trunc - 1) * w - 1), trunc)

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

    def _require_substitution(self, kind):
        """Raise ValueError unless the series is X times a unit of its ring."""
        if any(self.block(0)):
            raise ValueError(f"not a {kind}: constant term is nonzero")
        if not self.field.is_unit(self.block(1)):
            raise ValueError(f"not a {kind}: linear coefficient is not a unit of {self.field!r}")

    def block(self, k):
        """The packed block of X^k: its w Y-coefficients."""
        w = self.field.w
        return self.packed[k * w : (k + 1) * w]

    def valuation(self, start=0):
        """Exponent of the first nonzero coefficient at or above X^start, or None."""
        w = self.field.w
        first = next((i for i in range(start * w, len(self.packed)) if self.packed[i]), None)
        return None if first is None else first // w

    def shift(self, k, n):
        """X^k times the series mod X^n; k < 0 drops the first -k coefficients."""
        if n - k > self.trunc:
            raise ValueError("cannot extend precision by shifting")
        w = self.field.w
        packed = (0,) * (min(max(k, 0), n) * w) + self.packed[max(-k, 0) * w : max(n - k, 0) * w]
        return _from_packed(self.field, packed, n)

    def truncate(self, n):
        """Forget coefficients at and above X^n (n <= current truncation)."""
        if n > self.trunc:
            raise ValueError("cannot extend precision by truncating")
        if n == self.trunc:
            return self
        return _from_packed(self.field, self.packed[: n * self.field.w], n)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        return self._termwise(other, 1)

    def __sub__(self, other):
        return self._termwise(other, -1)

    def _termwise(self, other, sign):
        self._check(other)
        n = min(self.trunc, other.trunc)
        m = self.field.mod
        width = n * self.field.w
        return _from_packed(
            self.field, [(a + sign * b) % m for a, b in zip(self.packed[:width], other.packed[:width])], n
        )

    def __mul__(self, other):
        self._check(other)
        n = min(self.trunc, other.trunc)
        f = self.field
        width = n * f.w
        out = mul_mod(self.packed[:width], other.packed[:width], n, f.mod, f.modulus)
        return _from_packed(f, out, n)

    def compose(self, inner):
        """outer(inner(X)); inner must have zero constant term.

        The kernel's ``compose_mod`` picks the method: the Frobenius split
        over F_p from a size on, Paterson-Stockmeyer otherwise.  A
        composition mod X^(inner.trunc) reuses the data of inner that the
        first such composition built, so ``compose_power``, which composes
        onto one inner again and again, builds them once.
        """
        self._check(inner)
        if any(inner.block(0)):
            raise ValueError("inner series must have zero constant term")
        n = min(self.trunc, inner.trunc)
        f = self.field
        width = n * f.w
        powers = None
        if n == inner.trunc:
            if inner._baby is None:
                inner._baby = compose_data(inner.packed, n, f.mod, f.modulus, n)
            powers = inner._baby
        out = compose_mod(self.packed[:width], inner.packed[:width], n, f.mod, f.modulus, powers)
        return _from_packed(f, out, n)

    def comp_inverse(self):
        """Substitution inverse h with g(h) == h(g) == X mod X^N.

        Requires zero constant term and a unit linear coefficient.
        Computed by Newton iteration on h -> h - (g(h) - X)/g'(h), which
        doubles the number of correct coefficients per step, with one
        composition per step; the kernel picks each one's method as for
        ``compose``, so over F_p the long steps take the Frobenius split.
        """
        self._require_substitution("substitution unit")
        f = self.field
        n = self.trunc
        return _from_packed(f, reversion_mod(self.packed, n, f.mod, f.modulus), n)

    def frobenius_twist(self, j):
        """Apply the coefficient automorphism x -> x^{p^(j mod w)}."""
        f = self.field
        if f.w == 1 or j % f.w == 0:
            return self
        # x -> x^(p^j) fixes F_p, so it maps sum c_t Y^t to sum c_t (Y^t)^(p^j)
        w = f.w
        rows = _frobenius_rows(f.modulus, f.p, j % f.w)
        packed = list(self.packed)
        for i in range(0, len(packed), w):
            block = packed[i : i + w]
            if any(block):
                packed[i : i + w] = row_combination(block, rows, f.p)
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


def _plain_packed(field, coeffs):
    """The packed residues of coeffs in one pass, where every coefficient is
    a plain int (w = 1) or a list of at most w plain ints (w > 1), as the
    JSON reader gives them; None for any other sequence, which is read
    coefficient by coefficient."""
    if field.w == 1:
        packed = [c % field.mod for c in coeffs if type(c) is int]
        return packed if len(packed) == len(coeffs) else None
    w, p = field.w, field.mod
    pad = [0] * w
    packed = [x % p for c in coeffs if type(c) is list and len(c) <= w
              for x in c + pad[len(c) :] if type(x) is int]
    return packed if len(packed) == len(coeffs) * w else None


def _check_length(count, trunc):
    """Refuse a truncation below 1, or one that count coefficients miss."""
    if trunc < 1:
        raise ValueError("truncation must be >= 1")
    if count != trunc:
        raise ValueError(f"expected {trunc} coefficients, got {count}")


def _from_packed(field, packed, n):
    # a series from n blocks of w reduced residues, as the kernel returns
    # them: no per-coefficient work
    g = object.__new__(TruncSeries)
    g.field = field
    g.trunc = n
    g.packed = tuple(packed)
    g._coeffs = None
    g._baby = None
    return g


frobenius_twist = TruncSeries.frobenius_twist
