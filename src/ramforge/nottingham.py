"""Substitution-group computations: depths, iterates, and break sequences.

The depth of g in A(k) is the degree of the leading term of (g(X)-X)/X;
the identity has infinite depth.  At truncation N a depth can only be
certified when it is at most N-2, so operations here never report a depth
they cannot prove: they return an ``AtLeast`` marker instead.  Callers who
need more must retry at a larger truncation; no a-priori bound on the
required N is available.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._convolve import power
from .errors import PrecisionError, SenViolationError
from .gfseries import TruncSeries, _require_prime


@dataclass(frozen=True)
class AtLeast:
    """Uncertified depth marker: the depth is >= bound, possibly infinite."""

    bound: int

    def __repr__(self):
        return f"at_least({self.bound})"


@dataclass(frozen=True)
class RamSequence:
    """Certified lower/upper ramification breaks of the group closure of g."""

    p: int
    lower: tuple[int, ...]
    upper: tuple[int, ...]
    certified_to: int  # truncation N at which every listed depth was certified


@dataclass(frozen=True)
class IndexReport:
    """Outcome of the eventual-constant-difference test on upper breaks.

    status is one of "determined", "candidate", "undetermined".  For
    "determined", every certified difference from ``stabilized_at`` on
    equals d.  For "candidate" only the final difference supports d.
    """

    d: int | None
    status: str
    stabilized_at: int | None
    evidence: tuple
    n_max: int


def _require_group_element(g):
    if any(g.block(0)):
        raise ValueError("not a substitution-group element: constant term is nonzero")
    if g.trunc < 2 or not any(g.block(1)):
        raise ValueError("not a substitution-group element: linear coefficient is zero")


def depth(g):
    """Depth of g, or AtLeast(N-1) when no nonzero term is visible."""
    _require_group_element(g)
    linear = g.block(1)
    if linear[0] != 1 or any(linear[1:]):
        return 0
    lead = g.valuation(2)
    return AtLeast(g.trunc - 1) if lead is None else lead - 1


def compose_power(g, k):
    """k-fold self-composition g^(k) by binary powering."""
    if k < 0:
        raise ValueError("composition power must be >= 0")
    if k == 0:
        return TruncSeries.x(g.field, g.trunc)
    return power(g, k, TruncSeries.compose)


def p_iterate(g, n):
    """g composed with itself p^n times."""
    _require_group_element(g)
    if n < 0:
        raise ValueError("iterate level must be >= 0")
    return compose_power(g, g.field.p**n)


def lower_breaks(g, n_max):
    """Certified lower breaks i_0..i_{n_max} of the closure of g.

    Raises PrecisionError (carrying the certified prefix in ``partial``)
    as soon as some iterate's depth cannot be certified at the working
    truncation.
    """
    p = g.field.p

    def chain():
        h = g
        yield h
        for _ in range(n_max):
            h = compose_power(h, p)
            yield h

    lower = certified_depths(chain(), g.trunc)
    return RamSequence(p, tuple(lower), upper_from_lower(p, lower), g.trunc)


def certified_depths(chain, trunc):
    """The depths i_0, i_1, ... of a chain g, g^(p), g^(p^2), ... over F_p.

    The chain is read lazily and stops at the first depth that cannot be
    certified at truncation trunc: that raises PrecisionError carrying the
    certified prefix in ``partial``.
    """
    lower = []
    for n, h in enumerate(chain):
        d = depth(h)
        if isinstance(d, AtLeast):
            if n == 0:
                raise PrecisionError(
                    f"depth of the generator is uncertified (>= {d.bound}) at truncation {trunc}",
                    quantity="lower_break",
                    level=0,
                    partial=(),
                )
            raise PrecisionError(
                f"depth of the p^{n}-th iterate is uncertified (>= {d.bound}) "
                f"at truncation {trunc}; retry with a larger truncation",
                quantity="lower_break",
                level=n,
                partial=tuple(lower),
            )
        if d < 1:
            raise ValueError("generator must have linear coefficient 1 and finite depth")
        lower.append(d)
    return lower


def upper_from_lower(p, lower):
    """Upper breaks from lower ones: b_0 = i_0, b_n = b_{n-1} + (i_n - i_{n-1})/p^n."""
    _require_prime(p)
    lower = tuple(int(i) for i in lower)
    if any(b <= a for a, b in zip(lower, lower[1:])):
        raise ValueError("lower breaks must be strictly increasing")
    upper = [lower[0]]
    for n in range(1, len(lower)):
        diff = lower[n] - lower[n - 1]
        if diff % p**n:
            raise SenViolationError(
                f"p^{n} does not divide i_{n} - i_{n-1} = {diff}; "
                "the input is not the break sequence of a Z_p-subgroup"
            )
        upper.append(upper[-1] + diff // p**n)
    return tuple(upper)


def index_of(p, upper):
    """Detect the eventual constant difference d of an upper-break sequence."""
    _require_prime(p)
    upper = tuple(Fraction(b) for b in upper)
    if len(upper) < 2:
        raise ValueError("need at least two upper breaks")
    if any(b <= a for a, b in zip(upper, upper[1:])) or upper[0] <= 0:
        raise ValueError("upper breaks must be positive and strictly increasing")
    n_max = len(upper) - 1
    diffs = tuple(b - a for a, b in zip(upper, upper[1:]))
    forced = [i for i in range(len(diffs)) if upper[i + 1] < p * upper[i]]
    if not forced:
        return IndexReport(None, "undetermined", None, diffs, n_max)

    cands = {diffs[i] for i in forced}
    if len(cands) > 1:
        raise ValueError(f"inconsistent break sequence: forced steps give differences {sorted(cands)}")
    d = cands.pop()
    if d.denominator != 1 or d <= 0:
        raise ValueError(f"forced difference {d} is not a positive integer")
    d = int(d)
    first = forced[0]
    if upper[first] < Fraction(d, p - 1):
        raise ValueError(
            f"break b_{first} = {upper[first]} is below d/(p-1) = {Fraction(d, p - 1)} "
            "yet the next step is neither a p-fold jump nor consistent"
        )
    for i in range(first + 1, len(diffs)):
        if diffs[i] != d:
            raise ValueError(
                f"difference b_{i + 1} - b_{i} = {diffs[i]} after stabilization at d = {d}"
            )
    stabilized_at = first + 1
    while stabilized_at > 1 and diffs[stabilized_at - 2] == d:
        stabilized_at -= 1
    if len(diffs) >= 2 and diffs[-1] == diffs[-2] == d:
        return IndexReport(d, "determined", stabilized_at, diffs, n_max)
    return IndexReport(d, "candidate", stabilized_at, diffs, n_max)


def unit_part(g):
    """h with g(X) = X*h(X); truncation drops by one."""
    if any(g.block(0)):
        raise ValueError("constant term must vanish")
    if g.trunc < 2:
        raise ValueError("truncation too small to shift")
    return g.shift(-1, g.trunc - 1)


def series_agree_mod(a, b, m):
    """True iff the coefficients of a and b agree below X^m."""
    if m > a.trunc or m > b.trunc:
        raise ValueError(f"m = {m} exceeds a truncation ({a.trunc}, {b.trunc})")
    if a.field != b.field:
        raise ValueError("field mismatch")
    return a.truncate(m) == b.truncate(m)


def _image_order_exponent(g, m):
    # j with p^j = order of the image of <g> in A(k)/{h : h == X mod X^{m+1}},
    # i.e. the number of certified lower breaks <= m-1.
    j = 0
    h = g
    p = g.field.p
    while True:
        d = depth(h)
        if isinstance(d, AtLeast):
            if d.bound >= m:
                return j
            raise PrecisionError(
                f"cannot certify break {j} against level {m} at truncation {h.trunc}",
                quantity="image_order",
                level=j,
            )
        if d >= m:
            return j
        j += 1
        if p**j > p ** (m + 1):
            raise ValueError("runaway exponent search; input is not a pro-p generator")
        h = compose_power(h, p)


def subgroup_equal_mod(g, g2, m):
    """Compare the subgroups generated by g and g2 in the quotient mod X^{m+1}.

    True iff the cyclic p-groups generated by the images of g and g2
    coincide.  Implemented as an exhaustive exponent search over Z/p^j
    where p^j is the common image order; the result is deterministic.
    """
    if g.field != g2.field:
        raise ValueError("field mismatch")
    if m < 1:
        raise ValueError("level m must be >= 1")
    if g.trunc <= m or g2.trunc <= m:
        raise ValueError("truncations must exceed m")
    for s in (g, g2):
        d = depth(s)
        if d == 0:
            raise ValueError("elements must lie in the depth >= 1 subgroup")
    p = g.field.p
    j = _image_order_exponent(g, m)
    j2 = _image_order_exponent(g2, m)
    if j != j2:
        return False
    if j == 0:
        return True
    gq = g.truncate(m + 1)
    g2q = g2.truncate(m + 1)
    acc = gq
    for a in range(1, p**j):
        if a % p and acc == g2q:
            return True
        acc = acc.compose(gq)
    return False


def conjugate(h, g):
    """h o g o h^{-1} at the common truncation."""
    return h.compose(g).compose(h.comp_inverse())
