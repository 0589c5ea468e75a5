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

from dataclasses import dataclass
from fractions import Fraction


def frac_in(x):
    """An exact rational from a Fraction, an int, a string like "13/4" or a
    [numerator, denominator] pair; anything else, or a zero denominator,
    is a ValueError."""
    if isinstance(x, Fraction):
        return x
    try:
        if isinstance(x, (int, str)):
            return Fraction(x)
        if isinstance(x, (tuple, list)) and len(x) == 2:
            return Fraction(int(x[0]), int(x[1]))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {x!r}") from None
    raise ValueError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class BreakData:
    """Upper ramification breaks of a cyclic degree-p^n totally ramified extension."""

    p: int
    e: Fraction
    upper: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "e", frac_in(self.e))
        object.__setattr__(self, "upper", tuple(frac_in(b) for b in self.upper))
        if self.p < 2:
            raise ValueError("p must be a prime >= 2")
        if self.e <= 0:
            raise ValueError("ramification index e must be positive")
        if not self.upper:
            raise ValueError("at least one upper break is required")
        if any(b <= 0 for b in self.upper):
            raise ValueError("upper breaks must be positive")
        if any(b >= c for b, c in zip(self.upper, self.upper[1:])):
            raise ValueError("upper breaks must be strictly increasing")

    @property
    def n(self):
        return len(self.upper)


@dataclass(frozen=True)
class PLFunc:
    """A continuous, strictly increasing piecewise-linear function on [0, oo).

    slopes[i] applies on [breakpoints[i], breakpoints[i+1]); the last slope
    extends to infinity.  Stored in canonical form (adjacent equal slopes
    merged), so dataclass equality is function equality.
    """

    breakpoints: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]
    value_at_origin: Fraction

    def __post_init__(self):
        bps = tuple(frac_in(b) for b in self.breakpoints)
        sls = tuple(frac_in(s) for s in self.slopes)
        v0 = frac_in(self.value_at_origin)
        if not bps or bps[0] != 0:
            raise ValueError("breakpoints must start at 0")
        if len(sls) != len(bps):
            raise ValueError("need exactly one slope per breakpoint")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(s <= 0 for s in sls):
            raise ValueError("slopes must be positive")
        cb, cs = [bps[0]], [sls[0]]
        for b, s in zip(bps[1:], sls[1:]):
            if s == cs[-1]:
                continue
            cb.append(b)
            cs.append(s)
        object.__setattr__(self, "breakpoints", tuple(cb))
        object.__setattr__(self, "slopes", tuple(cs))
        object.__setattr__(self, "value_at_origin", v0)

    @classmethod
    def identity(cls):
        return cls((Fraction(0),), (Fraction(1),), Fraction(0))

    def __call__(self, x):
        x = frac_in(x)
        if x < 0:
            raise ValueError("PLFunc domain starts at 0")
        value = self.value_at_origin
        for i, left in enumerate(self.breakpoints):
            right = self.breakpoints[i + 1] if i + 1 < len(self.breakpoints) else None
            if right is None or x <= right:
                return value + self.slopes[i] * (x - left)
            value += self.slopes[i] * (right - left)
        raise AssertionError("unreachable")

    def slope_at(self, x):
        """Slope of the segment containing x (right-continuous at kinks)."""
        x = frac_in(x)
        if x < 0:
            raise ValueError("PLFunc domain starts at 0")
        for i in range(len(self.breakpoints) - 1, -1, -1):
            if x >= self.breakpoints[i]:
                return self.slopes[i]
        raise AssertionError("unreachable")

    def preimage(self, y):
        """The unique x >= 0 with self(x) = y; requires y >= self(0)."""
        y = frac_in(y)
        if y < self.value_at_origin:
            raise ValueError(f"{y} is below the range of this function")
        value = self.value_at_origin
        for i, left in enumerate(self.breakpoints):
            right = self.breakpoints[i + 1] if i + 1 < len(self.breakpoints) else None
            if right is None:
                return left + (y - value) / self.slopes[i]
            nxt = value + self.slopes[i] * (right - left)
            if y <= nxt:
                return left + (y - value) / self.slopes[i]
            value = nxt
        raise AssertionError("unreachable")

    def inverse(self):
        """The compositional inverse; requires self(0) = 0 so the domain is [0, oo)."""
        if self.value_at_origin != 0:
            raise ValueError("inverse is only supported for functions fixing 0")
        bps = tuple(self(b) for b in self.breakpoints)
        sls = tuple(1 / s for s in self.slopes)
        return PLFunc(bps, sls, Fraction(0))


def psi_from_breaks(bd):
    """The lower-numbering transfer function: slope p^(j+1) after break b_j."""
    p = bd.p
    bps = (Fraction(0),) + bd.upper
    sls = tuple(Fraction(p) ** j for j in range(bd.n + 1))
    return PLFunc(bps, sls, Fraction(0))


def phi_from_breaks(bd):
    """The upper-numbering transfer function, inverse of psi_from_breaks."""
    return psi_from_breaks(bd).inverse()


def pl_compose(f, g):
    """Exact composite f(g(x)) with merged breakpoints."""
    g0 = g.value_at_origin
    if g0 < 0:
        raise ValueError("ranges incompatible: g takes negative values at 0")
    pts = set(g.breakpoints)
    for bf in f.breakpoints:
        if bf > g0:
            pts.add(g.preimage(bf))
    bps = tuple(sorted(pts))
    sls = []
    for i, left in enumerate(bps):
        if i + 1 < len(bps):
            mid = (left + bps[i + 1]) / 2
        else:
            mid = left + 1
        sls.append(f.slope_at(g(mid)) * g.slope_at(mid))
    return PLFunc(bps, tuple(sls), f(g0))


def tame_psi(e):
    """Transfer function of a tame totally ramified step of index e: x -> e*x."""
    return PLFunc((Fraction(0),), (frac_in(e),), Fraction(0))


def tame_phi(e):
    """Inverse tame step: x -> x/e on x >= 0."""
    return PLFunc((Fraction(0),), (1 / frac_in(e),), Fraction(0))


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
    """
    p, e, upper = bd.p, bd.e, bd.upper
    ceiling = Fraction(p) * e / (p - 1)
    threshold = e / (p - 1)
    violations = []
    if not (1 <= upper[0] <= ceiling):
        violations.append(
            Violation("a", 0, f"b_0 = {upper[0]} outside [1, pe/(p-1) = {ceiling}]")
        )
    for i in range(bd.n - 1):
        b, nxt = upper[i], upper[i + 1]
        if b <= threshold and not (p * b <= nxt <= ceiling):
            violations.append(
                Violation(
                    "b", i, f"b_{i + 1} = {nxt} outside [p*b_{i} = {p * b}, {ceiling}]"
                )
            )
        if b >= threshold and nxt != b + e:
            violations.append(
                Violation("c", i, f"b_{i + 1} = {nxt} must equal b_{i} + e = {b + e}")
            )
    return BreaksVerdict(not violations, tuple(violations))


@dataclass(frozen=True)
class YHZ:
    """The distinguished break y = b_h and its lower image z."""

    y: Fraction
    h: int
    z: Fraction


def extract_yhz(bd):
    """Smallest upper break exceeding e/(p-1), falling back to the largest."""
    threshold = bd.e / (bd.p - 1)
    h = bd.n - 1
    for j, b in enumerate(bd.upper):
        if b > threshold:
            h = j
            break
    y = bd.upper[h]
    return YHZ(y, h, psi_from_breaks(bd)(y))


def lower_break_formula(bd, yhz, i):
    """Closed form of the i-th lower break: z + e*p^(h+1)*(p^(i-h)-1)/(p-1)."""
    if not (yhz.h <= i < bd.n):
        raise ValueError(f"index i = {i} outside [h = {yhz.h}, n = {bd.n})")
    p = bd.p
    return yhz.z + bd.e * p ** (yhz.h + 1) * Fraction(p ** (i - yhz.h) - 1, p - 1)


def psi_ie_formula(bd, yhz, i):
    """Closed form of psi((i+1)e), split on y <= e versus y > e.

    Valid for 0 <= i <= n-1-h, where the evaluation point falls inside the
    break range; it must equal direct piecewise-linear evaluation there.
    """
    p, e = bd.p, bd.e
    y, h, z = yhz.y, yhz.h, yhz.z
    if not (0 <= i <= bd.n - 1 - h):
        raise ValueError(f"index i = {i} outside [0, n-1-h = {bd.n - 1 - h}]")
    base = z + e * p ** (h + 1) * Fraction(p**i - 1, p - 1)
    if y <= e:
        return base + p ** (h + i + 1) * (e - y)
    return base + p ** (h + i) * (e - y)
