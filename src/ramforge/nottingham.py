"""Substitution-group computations: depths, iterates, and break sequences.

The depth of g in A(k) is the degree of the leading term of (g(X)-X)/X;
the identity has infinite depth.  At truncation N a depth can only be
certified when it is at most N-2, so operations here never report a depth
they cannot prove: they return an ``AtLeast`` marker instead.  Callers who
need more must retry at a larger truncation; no a-priori bound on the
required N is available.

The iterates g, g^(p), g^(p^2), ... come from one chain, ``p_chain``, each
link the p-fold composite of the one before: the lower breaks are the
depths of its links, certified by ``certified_depths`` (on chains of g
cut short of its truncation, for ``lower_breaks``), and ``p_iterate``,
the image-order search and the level quotients and analysis of
``ramforge.pdyn`` read their iterates off it.
A link is ``compose_power(prev, p)``: for p <= 5 it composes onto prev
p - 1 times, so each p-step builds the composition data of one inner
series, prev; from p = 7 on it powers in binary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._convolve import power
from .errors import PrecisionError, SenViolationError
from .gfseries import TruncSeries, _require_prime

_ONTO_G = 5  # compose_power composes onto g up to this k


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
    if g.field.prec > 1:
        raise ValueError("breaks and depths are over F_{p^w}: reduce a Z/p^P series mod p first")
    g._require_substitution("substitution-group element")


def depth(g):
    """Depth of g, or AtLeast(N-1) when no nonzero term is visible."""
    _require_group_element(g)
    linear = g.block(1)
    if linear[0] != 1 or any(linear[1:]):
        return 0
    lead = g.valuation(2)
    return AtLeast(g.trunc - 1) if lead is None else lead - 1


def compose_power(g, k):
    """k-fold self-composition g^(k).

    Up to k = ``_ONTO_G``, k - 1 compositions h <- h o g, all with the one
    inner series g, whose composition data (``TruncSeries.compose``) are
    built once; from there binary powering, which takes fewer compositions
    but builds data for each inner it squares.  For k = 4 and 5 binary
    powering saves one composition and builds the data of g^(2) besides,
    which cost more than a composition wherever a p-step is slow.
    """
    if k < 0:
        raise ValueError("composition power must be >= 0")
    if k == 0:
        return TruncSeries.x(g.field, g.trunc)
    if k > _ONTO_G:
        return power(g, k, TruncSeries.compose)
    h = g
    for _ in range(k - 1):
        h = h.compose(g)
    return h


def p_chain(g, n):
    """The n + 1 iterates g, g^(p), ..., g^(p^n), computed lazily, each the
    p-fold composite of the one before.  A link equal to X is X from then
    on: it is yielded again, the same object, with no more compositions."""
    x = TruncSeries.x(g.field, g.trunc) if g.trunc > 1 else None
    yield g
    for _ in range(n):
        if g != x:
            g = compose_power(g, g.field.p)
        yield g


def p_iterate(g, n):
    """g composed with itself p^n times, by ``chain_link``."""
    _require_group_element(g)
    if n < 0:
        raise ValueError("iterate level must be >= 0")
    return chain_link(g, n)


def chain_link(g, n):
    """Link n of ``p_chain(g, n)``.  The series mod X^N over a finite ring
    are finitely many, so the chain is eventually periodic: link n is read
    off the cycle, and no link past the first repeated one is built."""
    seen = {}
    for j, h in enumerate(p_chain(g, n)):
        if h in seen:
            i = seen[h]
            return list(seen)[i + (n - i) % (j - i)]
        seen[h] = j
    return h


def lower_breaks(g, n_max):
    """Certified lower breaks i_0..i_{n_max} of the closure of g.

    The breaks, or the PrecisionError carrying the certified prefix in
    ``partial``, are those of ``certified_depths(p_chain(g, n_max))`` at
    g's truncation N, read off chains of g mod X^t, t <= N: composition
    commutes with truncation, so a depth certified there is the depth at N.

    t starts at 2 plus the depth ``_predicted`` for link n_max from i_0 and
    upper-break difference 1, or for links 1 and 2 from differences up to
    max(2, p - 2) if more: on random generators over F_2, F_3 and F_5 that
    spared the dearest chains, at p = 5, a second one most often, and an
    overshoot is paid by every later link, so it stops at link 2.  Each
    certified depth moves t up to its own prediction, plus 2, before the
    next link is built; an uncertified link, at least t - 1, moves t to at
    least 2t and the next value Sen's congruence admits.  t stops at N, so
    at most about n_max + log2(N) chains are built, and only the chain at
    N raises.  A generator of uncertified depth or depth 0, and n_max = 0,
    start at N.
    """
    if n_max < 0:
        raise ValueError("the level count must be >= 0")
    p, n = g.field.p, g.trunc
    i = depth(g)
    t = n
    if n_max and not isinstance(i, AtLeast) and i:
        t = min(n, 2 + max(_predicted(p, i, 1, n_max, 1, n),
                           _predicted(p, i, 1, min(2, n_max), max(2, p - 2), n)))
    while True:
        lower = []
        try:
            for j, d in enumerate(certified_depths(p_chain(g.truncate(t), n_max)), 1):
                lower.append(d)
                diff = (d - lower[-2]) // p ** (j - 1) if j > 1 else 1
                want = min(n, _predicted(p, d, j, n_max, diff, n) + 2)
                if want > t:
                    break
            else:
                return RamSequence(p, tuple(lower), upper_from_lower(p, lower), n)
        except PrecisionError:
            if t == n:
                raise
            want = min(n, max(2 * t, t + 1 + (lower[-1] - t + 1) % p ** len(lower)))
        t = want


def _predicted(p, i, j, n_max, diff, cap):
    """The depth of link n_max predicted from i = i_(j-1), level by level:
    i_k is the least value congruent to i_(k-1) mod p^k (Sen's congruence)
    and at least both i_(k-1) + diff * p^k, for diff the last difference
    of upper breaks, and p * i_(k-1), which every sampled chain met.  The
    prediction stops once it reaches cap, so a large n_max costs nothing."""
    for k in range(j, n_max + 1):
        if i >= cap:
            break
        q = p**k
        least = max(i + diff * q, p * i)
        i = least + (i - least) % q
    return i


def certified_depths(chain):
    """The depths i_0, i_1, ... of a chain g, g^(p), g^(p^2), ... over F_p.

    The chain is read lazily and each depth yielded once certified at the
    truncation of its link; the first that cannot be certified raises
    PrecisionError carrying the certified prefix in ``partial`` and the
    link's index in ``level``.  ``lower_breaks`` and ``ramforge.pdyn.analyze``
    both certify their depths here.
    """
    lower = []
    for n, h in enumerate(chain):
        d = depth(h)
        if isinstance(d, AtLeast):
            link = f"p^{n}-th iterate" if n else "generator"
            retry = "; retry with a larger truncation" if n else ""
            raise PrecisionError(
                f"depth of the {link} is uncertified (>= {d.bound}) at truncation {h.trunc}{retry}",
                quantity="lower_break", level=n, partial=tuple(lower))
        if d < 1:
            raise ValueError("generator must have linear coefficient 1 and finite depth")
        lower.append(d)
        yield d


def upper_from_lower(p, lower):
    """Upper breaks from lower ones: b_0 = i_0, b_n = b_{n-1} + (i_n - i_{n-1})/p^n."""
    _require_prime(p)
    lower = tuple(int(i) for i in lower)
    if any(b <= a for a, b in zip(lower, lower[1:])):
        raise ValueError("lower breaks must be strictly increasing")
    upper = list(lower[:1])
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
    """Detect the eventual constant difference d of an upper-break sequence.

    Integer breaks, as ``upper_from_lower`` gives them, are compared as
    integers; any other breaks are read as Fractions.
    """
    _require_prime(p)
    upper = tuple(upper)
    if not all(type(b) is int for b in upper):
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
        raise ValueError("inconsistent break sequence: forced steps give differences "
                         f"{sorted(Fraction(c) for c in cands)}")
    d = cands.pop()
    if d.denominator != 1 or d <= 0:
        raise ValueError(f"forced difference {d} is not a positive integer")
    d = int(d)
    first = forced[0]
    if upper[first] * (p - 1) < d:
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


def _image_order_exponent(g, m):
    # j with p^j = order of the image of <g> in A(k)/{h : h == X mod X^{m+1}}:
    # the first link of the chain mod X^(m+1) equal to X.  Depth >= 1 rises
    # strictly along the chain, so link m - 1 at the latest is X.
    x = TruncSeries.x(g.field, m + 1)
    return next(j for j, h in enumerate(p_chain(g.truncate(m + 1), m)) if h == x)


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
