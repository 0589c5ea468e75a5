"""Exact piecewise-linear transfer functions for ramification data.

Everything here is computed over exact rationals; values like 249/4 feed
strict-inequality checks downstream, so no floating point is allowed.
PLFunc domains start at 0 (group-side convention): the segment down to -1
always has slope 1 and never enters any formula used by this toolkit.

BreakData models a cyclic totally ramified p^n-extension: strictly
increasing upper breaks with index jumps of p.  Repeated breaks
(non-cyclic filtrations) are unsupported.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property

from .gfseries import _require_prime


def parse_decimal(text):
    """int(text) for a reader of decimal text.  Past Python's limit on
    decimal-to-int conversion, whose ValueError names
    ``sys.set_int_max_str_digits`` as the remedy, the ValueError names the
    cause instead; any other ValueError passes unchanged."""
    try:
        return int(text)
    except ValueError as exc:
        if "int_max_str_digits" not in str(exc):
            raise
        raise ValueError(
            f"the input has an integer of more than {sys.get_int_max_str_digits()} digits, "
            "too long to read"
        ) from None


def int_in(v):
    """An int from a JSON integer or a decimal string (as int_out writes
    past 2^53); bools, floats and any other string raise ValueError."""
    if type(v) is int:
        return v
    if isinstance(v, str) and re.fullmatch(r"-?[0-9]+", v):
        return parse_decimal(v)
    raise ValueError(f"expected an integer, got {v!r}")


def _lowest(num, den):
    """The pair num/den in lowest terms, for den > 0."""
    g = math.gcd(num, den)
    return num // g, den // g


_FRACTION = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational_in(x):
    """(numerator, denominator > 0) in lowest terms, read from a Fraction, an
    int (not a bool), a string "a" or "a/b" of decimal digits with an
    optional minus sign on a, or a [numerator, denominator] pair of
    integers; anything else, or a zero denominator, is a ValueError.  The
    exact types are tried first, so the common inputs skip the
    abstract-base-class checks."""
    kind = type(x)
    if kind is int:
        return x, 1
    if kind is Fraction or (kind is not str and isinstance(x, Fraction)):
        return x.numerator, x.denominator
    if isinstance(x, str) and (m := _FRACTION.fullmatch(x)):
        num, den = parse_decimal(m[1]), parse_decimal(m[2]) if m[2] else 1
    elif isinstance(x, (tuple, list)) and len(x) == 2:
        num, den = int_in(x[0]), int_in(x[1])
    else:
        raise ValueError(f"not an exact rational: {x!r}")
    if den == 0:
        raise ValueError(f"zero denominator: {x!r}")
    return _lowest(num, den) if den > 0 else _lowest(-num, -den)


def frac_in(x):
    """The rational _rational_in reads from x (a Fraction, an int, a decimal
    string "a" or "a/b", or a [numerator, denominator] pair), as a Fraction."""
    return x if type(x) is Fraction else Fraction(*_rational_in(x))


@dataclass(frozen=True)
class BreakData:
    """Upper ramification breaks of a cyclic degree-p^n totally ramified extension."""

    p: int
    e: Fraction
    upper: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "e", frac_in(self.e))
        object.__setattr__(self, "upper", tuple(frac_in(b) for b in self.upper))
        _require_prime(self.p)
        if self.e.numerator <= 0:
            raise ValueError("ramification index e must be positive")
        if not self.upper:
            raise ValueError("at least one upper break is required")
        if any(b.numerator <= 0 for b in self.upper):
            raise ValueError("upper breaks must be positive")
        if any(b.numerator * c.denominator >= c.numerator * b.denominator
               for b, c in zip(self.upper, self.upper[1:])):
            raise ValueError("upper breaks must be strictly increasing")

    @property
    def n(self):
        return len(self.upper)

    @cached_property
    def psi(self):
        """The lower-numbering transfer function, slope p^(j+1) after break b_j:
        built on first use and kept, outside equality, hashing and the wire format."""
        p = self.p
        bps = [(0, 1)] + [(b.numerator, b.denominator) for b in self.upper]
        return PLFunc._of(bps, [(p**j, 1) for j in range(self.n + 1)], (0, 1))


class PLFunc:
    """A continuous, strictly increasing piecewise-linear function on [0, oo).

    slopes[i] applies on [breakpoints[i], breakpoints[i+1]); the last slope
    extends to infinity.  Kept in canonical form (adjacent equal slopes
    merged), so equal data is function equality.

    Its state is an integer form, built once, on construction: the
    breakpoints are ``_bnum[i] / _bden``, segment i is the line
    ``(_pnum[i] x + _qnum[i]) / _den``, the value at breakpoint i is
    ``_vnum[i] / _den`` and ``_slopes[i]`` is the slope of segment i as a
    (numerator, denominator) pair in lowest terms.  A point x = a/b lies at
    or past breakpoint i exactly when _bnum[i] <= a*_bden // b, and a value
    y = a/b at or past the value at breakpoint i exactly when
    _vnum[i] <= a*_den // b, so evaluation, slopes and preimages find their
    segment by an integer bisect and build one Fraction each.  The public
    fields ``breakpoints``, ``slopes``, ``value_at_origin`` and ``values``
    are Fraction tuples built when read.
    """

    def __init__(self, breakpoints, slopes, value_at_origin):
        bps = [_rational_in(b) for b in breakpoints]
        sls = [_rational_in(s) for s in slopes]
        v0 = _rational_in(value_at_origin)
        if not bps or bps[0][0] != 0:
            raise ValueError("breakpoints must start at 0")
        if len(sls) != len(bps):
            raise ValueError("need exactly one slope per breakpoint")
        if any(a * d >= c * b for (a, b), (c, d) in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(n <= 0 for n, _ in sls):
            raise ValueError("slopes must be positive")
        self._build(bps, sls, v0)

    @classmethod
    def _of(cls, bps, sls, v0):
        """The function of (numerator, denominator) pairs in lowest terms
        already known to be valid: the breakpoints strictly increasing from
        0, one positive slope each."""
        f = object.__new__(cls)
        f._build(bps, sls, v0)
        return f

    def _build(self, bps, sls, v0):
        """Merge adjacent equal slopes and build the integer form from
        reduced pairs.

        With every slope over the denominator L and the breakpoints over D,
        den = lcm(v0's denominator, L*D) puts the slope of each segment and
        its value at 0 over den, and makes each slope numerator a multiple
        of D; continuity at each breakpoint gives the next intercept.
        """
        cb, cs = [bps[0]], [sls[0]]
        for b, s in zip(bps[1:], sls[1:]):
            if s != cs[-1]:
                cb.append(b)
                cs.append(s)
        bden = math.lcm(*[d for _, d in cb])
        den = math.lcm(v0[1], math.lcm(*[d for _, d in cs]) * bden)
        bnum, pnum, qnum, vnum = [], [], [], []
        q, last = v0[0] * (den // v0[1]), 0  # the first breakpoint is 0
        for (n, d), (sn, sd) in zip(cb, cs):
            b, p = n * (bden // d), sn * (den // sd)
            q += (last - p) // bden * b
            last = p
            bnum.append(b)
            pnum.append(p)
            qnum.append(q)
            vnum.append(p // bden * b + q)
        # immutable: the state is set once, here
        self.__dict__.update(
            _bden=bden, _bnum=tuple(bnum), _den=den, _pnum=tuple(pnum), _qnum=tuple(qnum),
            _vnum=tuple(vnum), _slopes=tuple(cs),
        )

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash((self._bden, self._bnum, self._den, self._pnum, self._qnum))

    def __repr__(self):
        return (f"{type(self).__qualname__}(breakpoints={self.breakpoints!r}, "
                f"slopes={self.slopes!r}, value_at_origin={self.value_at_origin!r})")

    @property
    def breakpoints(self):
        bden = self._bden
        return tuple(Fraction(b, bden) for b in self._bnum)

    @property
    def slopes(self):
        return tuple(Fraction(n, d) for n, d in self._slopes)

    @property
    def value_at_origin(self):
        return Fraction(self._vnum[0], self._den)

    def _pairs(self):
        """The breakpoints, the slopes and the value at 0 as (numerator,
        denominator) pairs in lowest terms."""
        bden = self._bden
        return [_lowest(b, bden) for b in self._bnum], self._slopes, _lowest(self._vnum[0], self._den)

    @property
    def values(self):
        """The value at each breakpoint."""
        den = self._den
        return tuple(Fraction(v, den) for v in self._vnum)

    @classmethod
    def identity(cls):
        return cls._of([(0, 1)], [(1, 1)], (0, 1))

    def _index(self, a, b):
        """The segment containing a/b, for integers a and b > 0."""
        if a < 0:
            raise ValueError("PLFunc domain starts at 0")
        return bisect_right(self._bnum, a * self._bden // b) - 1

    def _ratio(self, a, b):
        """(num, den) with self(a/b) = num/den, for integers a and b > 0;
        den is _den * b."""
        i = self._index(a, b)
        return self._pnum[i] * a + self._qnum[i] * b, self._den * b

    def __call__(self, x):
        return Fraction(*self._ratio(*_rational_in(x)))

    def slope_at(self, x):
        """Slope of the segment containing x (right-continuous at kinks)."""
        return Fraction(*self._slopes[self._index(*_rational_in(x))])

    def preimage(self, y):
        """The unique x >= 0 with self(x) = y; requires y >= self(0)."""
        a, b = _rational_in(y)
        den = self._den
        if a * den < self._vnum[0] * b:
            raise ValueError(f"{Fraction(a, b)} is below the range of this function")
        i = bisect_right(self._vnum, a * den // b) - 1
        return Fraction(a * den - self._qnum[i] * b, self._pnum[i] * b)

    def inverse(self):
        """The compositional inverse; requires self(0) = 0 so the domain is [0, oo)."""
        if self._vnum[0] != 0:
            raise ValueError("inverse is only supported for functions fixing 0")
        den = self._den
        return PLFunc._of([_lowest(v, den) for v in self._vnum],
                          [(d, n) for n, d in self._slopes], (0, 1))


def psi_from_breaks(bd):
    """The lower-numbering transfer function, the one kept on bd (``BreakData.psi``)."""
    return bd.psi


def phi_from_breaks(bd):
    """The upper-numbering transfer function, inverse of psi_from_breaks."""
    return bd.psi.inverse()


def pl_compose(f, g):
    """Exact composite f(g(x)) with merged breakpoints.

    Its breakpoints are g's and the preimages under g of f's breakpoints
    above g(0), met in the order of their images: g's knot value
    _vnum/_den against f's breakpoint _bnum/_bden, as integer
    cross-products.  Between two of them f and g are both linear, and the
    slope is the product of theirs.
    """
    if g._vnum[0] < 0:
        raise ValueError("ranges incompatible: g takes negative values at 0")
    gb, gbden, gv, gq, gp, gden = g._bnum, g._bden, g._vnum, g._qnum, g._pnum, g._den
    fb, fbden, fp = f._bnum, f._bden, f._pnum
    i, j = 0, bisect_right(fb, gv[0] * fbden // gden) - 1
    bps, sls, den = [(0, 1)], [], f._den * gden
    while True:
        sls.append(_lowest(fp[j] * gp[i], den))
        g_next, f_next = i + 1 < len(gv), j + 1 < len(fb)
        if g_next and f_next:
            order = gv[i + 1] * fbden - fb[j + 1] * gden
        elif g_next or f_next:
            order = -1 if g_next else 1
        else:
            break
        if order >= 0:
            j += 1
        if order <= 0:
            i += 1
            bps.append(_lowest(gb[i], gbden))
        else:
            bps.append(_lowest(fb[j] * gden - gq[i] * fbden, gp[i] * fbden))
    return PLFunc._of(bps, sls, _lowest(*f._ratio(gv[0], gden)))


def _tame_index(e):
    """The index e of a tame step as a Fraction; ValueError unless e > 0."""
    e = frac_in(e)
    if e <= 0:
        raise ValueError(f"tame index e must be positive, got {e}")
    return e


def tame_psi(e):
    """Transfer function of a tame totally ramified step of index e: x -> e*x."""
    return PLFunc((Fraction(0),), (_tame_index(e),), Fraction(0))


def tame_phi(e):
    """Inverse tame step: x -> x/e on x >= 0."""
    return PLFunc((Fraction(0),), (1 / _tame_index(e),), Fraction(0))


@dataclass(frozen=True)
class Violation:
    rule: str
    index: int
    detail: str


@dataclass(frozen=True)
class BreaksVerdict:
    valid: bool
    violations: tuple[Violation, ...]

    @property
    def first(self):
        return self.violations[0] if self.violations else None


def validate_breaks(bd):
    """Check the admissibility rules for cyclic upper-break sequences.

    (a) 1 <= b_0 <= pe/(p-1);
    (b) if b_i <= e/(p-1) then p*b_i <= b_{i+1} <= pe/(p-1);
    (c) if b_i >= e/(p-1) then b_{i+1} = b_i + e.

    Every quantity is compared as an integer: times (p-1) and the least
    common denominator of e and the breaks, which makes e/(p-1) an integer.
    """
    p, e, upper = bd.p, bd.e, bd.upper
    lcd = math.lcm(e.denominator, *(b.denominator for b in upper))
    threshold = e.numerator * (lcd // e.denominator)
    ceiling, step = p * threshold, (p - 1) * threshold
    bs = [b.numerator * (lcd // b.denominator) * (p - 1) for b in upper]
    violations = []
    if not (lcd * (p - 1) <= bs[0] <= ceiling):
        violations.append(
            Violation("a", 0, f"b_0 = {upper[0]} outside [1, pe/(p-1) = {_ceiling(bd)}]")
        )
    for i in range(bd.n - 1):
        b, nxt = bs[i], bs[i + 1]
        if b <= threshold and not (p * b <= nxt <= ceiling):
            violations.append(
                Violation(
                    "b", i,
                    f"b_{i + 1} = {upper[i + 1]} outside "
                    f"[p*b_{i} = {p * upper[i]}, {_ceiling(bd)}]",
                )
            )
        if b >= threshold and nxt != b + step:
            violations.append(
                Violation(
                    "c", i, f"b_{i + 1} = {upper[i + 1]} must equal b_{i} + e = {upper[i] + e}"
                )
            )
    return BreaksVerdict(not violations, tuple(violations))


def _ceiling(bd):
    """pe/(p-1), the bound of rules (a) and (b), as the violations print it."""
    return Fraction(bd.p * bd.e.numerator, (bd.p - 1) * bd.e.denominator)


@dataclass(frozen=True)
class YHZ:
    """The distinguished break y = b_h and its lower image z."""

    y: Fraction
    h: int
    z: Fraction


def extract_yhz(bd):
    """Smallest upper break exceeding e/(p-1), falling back to the largest."""
    en, ed = bd.e.numerator, bd.e.denominator * (bd.p - 1)
    h = bd.n - 1
    for j, b in enumerate(bd.upper):
        if b.numerator * ed > en * b.denominator:
            h = j
            break
    y = bd.upper[h]
    return YHZ(y, h, bd.psi(y))


def lower_break_formula(bd, yhz, i):
    """Closed form of the i-th lower break: z + e*p^(h+1)*(p^(i-h)-1)/(p-1)."""
    if not (yhz.h <= i < bd.n):
        raise ValueError(f"index i = {i} outside [h = {yhz.h}, n = {bd.n})")
    p, e, z = bd.p, bd.e, yhz.z
    geometric = (p ** (i - yhz.h) - 1) // (p - 1)
    return Fraction(
        z.numerator * e.denominator + e.numerator * z.denominator * p ** (yhz.h + 1) * geometric,
        z.denominator * e.denominator,
    )


def psi_ie_formula(bd, yhz, i):
    """Closed form of psi((i+1)e), split on y <= e versus y > e.

    Valid for 0 <= i <= n-1-h, where the evaluation point falls inside the
    break range; it must equal direct piecewise-linear evaluation there.
    """
    p, h = bd.p, yhz.h
    if not (0 <= i <= bd.n - 1 - h):
        raise ValueError(f"index i = {i} outside [0, n-1-h = {bd.n - 1 - h}]")
    zn, zd = yhz.z.numerator, yhz.z.denominator
    en, ed = bd.e.numerator, bd.e.denominator
    yn, yd = yhz.y.numerator, yhz.y.denominator
    # z + e*p^(h+1)*(p^i - 1)/(p - 1) + c*(e - y), over zd*ed*yd
    c = p ** (h + i + 1) if yn * ed <= en * yd else p ** (h + i)
    geometric = (p**i - 1) // (p - 1)
    return Fraction(
        zn * ed * yd + en * zd * yd * p ** (h + 1) * geometric + c * (en * yd - yn * ed) * zd,
        zd * ed * yd,
    )
