"""Truncated p-adic dynamics: iteration, level quotients, Newton polygons.

A p-adic series is a ``TruncSeries`` over Z/p^P (``FiniteField(p,
prec=P)``), known modulo X^M.  Its ring operations commute with reduction
mod p, a change of ring, so they keep full coefficient precision.  The
level-quotient division is the only lossy step; its result carries an
explicit per-coefficient certification profile, and nothing is ever
asserted beyond it.  There is no automatic precision escalation: the
caller picks (P, M), results are certified or flagged.

One reader, ``_valuations``, turns each coefficient and its certified
digits into an integer valuation and whether it is exact; the Weierstrass
degree, the constant valuation of a level and the Newton polygon read it.

This module keeps the p-adic side of the division: the pivot, the
valuations, the number of rounds and the certification profile.  The
arithmetic, on arrays, is the kernel's ``divide_mod``; nothing here
handles arrays or knows the kernel's int64 bound.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice

from ._convolve import divide_mod
from .errors import PrecisionError
from .gfseries import FiniteField, TruncSeries, _from_packed, vp
from .nottingham import (IndexReport, certified_depths, chain_link, compose_power, index_of, p_chain,
                         upper_from_lower)


def PadicSeries(p, prec, trunc, coeffs):
    """The series with integer coefficients coeffs mod p^prec, mod X^trunc."""
    return TruncSeries(FiniteField(p, prec=prec), coeffs, trunc)


def _require_dynamical(u):
    if u.field.w != 1:
        raise ValueError("expected a series over Z/p^P")
    if u.packed[0]:
        raise ValueError("dynamical series must satisfy u(0) = 0")


pad_compose = TruncSeries.compose  # outer(inner(X)) mod (p^P, X^M), by name for the tracer


def pad_iterate(u, k):
    """k-fold composite of u with itself, by ``compose_power``."""
    _require_dynamical(u)
    return compose_power(u, k)


def reduce_mod_p(u):
    """Coefficientwise reduction into F_p[[X]] at the same truncation."""
    return TruncSeries(FiniteField(u.field.p), u.packed, u.trunc)


@dataclass(frozen=True)
class DividedSeries:
    """A quotient series with a per-coefficient certification profile.

    ``series.packed[k]`` is the computed residue mod p^prec, but only its
    bottom ``coeff_prec[k]`` digits are certified; a zero entry means the
    coefficient is unknown.
    """

    series: TruncSeries
    coeff_prec: tuple[int, ...]


def _certified(f):
    """The series of f and its certified digits per coefficient: a
    quotient's own profile, or all prec digits of a series over Z/p^P."""
    if isinstance(f, DividedSeries):
        return f.series, f.coeff_prec
    if f.field.w != 1:
        raise ValueError("expected a series over Z/p^P")
    return f, (f.field.prec,) * f.trunc


def _valuations(series, coeff_prec):
    """(v, exact) per coefficient: v = vp(r) for r the coefficient mod p^prec,
    prec its certified digits, and exact = r != 0; a zero residue gives its
    certified digits, 0 when there are none, as a lower bound."""
    p = series.field.p
    for c, prec in zip(series.packed, coeff_prec):
        r = c % p**prec
        yield vp(r, p, prec), r != 0


def weierstrass_degree(f):
    """Index of the first unit coefficient, or None when undetermined.

    Accepts a series over Z/p^P (uniform precision) or a DividedSeries;
    scanning stops at the first uncertified coefficient.
    """
    for k, (v, exact) in enumerate(_valuations(*_certified(f))):
        if v == 0:
            return k if exact else None
    return None


def qn_divide(u, n):
    """The level-n quotient (u^(p^n)(X) - X) / (u^(p^(n-1))(X) - X).

    Both numerator and denominator vanish at 0, so the common factor X is
    divided out first; the returned series is the quotient proper, whose
    constant term is the ratio of the linear coefficients.  The division
    pivots on the first unit coefficient of the shifted denominator, which
    keeps full coefficient precision away from the truncation tail; the
    conservative certification profile is returned alongside.
    """
    if n < 1:
        raise ValueError("level n must be >= 1")
    _require_dynamical(u)
    prev, cur = p_chain(chain_link(u, n - 1), 1)
    return _divide_level(prev, cur, n)


def _divide_level(prev, cur, n):
    """qn_divide from the iterates prev = u^(p^(n-1)) and cur = u^(p^n).

    The shifted divisor pivots on its first unit entry i0.  Its entries
    below i0 have valuation v_lo >= 1, which fixes the rounds of
    ``divide_mod`` at ceil(P / v_lo), the certified digits of each quotient
    coefficient and the digits of the residual below i0 that must vanish.
    """
    f = prev.field
    p, P, M, mod = f.p, f.prec, prev.trunc, f.mod
    x = TruncSeries.x(f, M)
    num = (cur - x).packed[1:]
    den = (prev - x).packed[1:]
    L = M - 1

    i0 = next((k for k, c in enumerate(den) if c % p != 0), None)
    if i0 is None:
        if all(c == 0 for c in den):
            raise PrecisionError(
                "divisor is indistinguishable from zero at this precision",
                quantity="qn_divisor", level=n,
            )
        raise PrecisionError(
            "Weierstrass degree of the divisor is undetermined below the truncation",
            quantity="qn_divisor", level=n,
        )
    K = L - i0  # >= 1: i0 indexes den, which has L entries

    v_lo = min((vp(c, p, P) for c in den[:i0]), default=P)
    q, residual = divide_mod(num, den, i0, -(-P // v_lo), mod)

    if i0 == 0:
        coeff_prec = (P,) * K  # unit divisor: division is exact
    else:
        coeff_prec = tuple(min(P, v_lo * ((L - 1 - k) // i0)) for k in range(K))

    # residual j < i0 sums q_k * den_(j-k) over k <= min(j, K - 1), each
    # den_(j-k) of valuation >= v_lo; coeff_prec falls with k, so residual j
    # is certified to coeff_prec[min(j, K - 1)] + v_lo digits, and only
    # those must vanish
    if any(residual[j] % p ** min(P, coeff_prec[min(j, K - 1)] + v_lo) for j in range(i0)):
        raise ValueError(
            "division is inexact at certified digits: the series is not of the required form"
        )
    return DividedSeries(_from_packed(f, q, K), coeff_prec)


@dataclass(frozen=True)
class Segment:
    slope: Fraction
    length: int

    @property
    def root_valuation(self):
        return -self.slope


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of (i, v_p(c_i)); slopes are root-valuation data."""

    vertices: tuple[tuple[int, Fraction], ...]
    segments: tuple[Segment, ...]

    @property
    def single_root_valuation(self):
        """Root valuation if the polygon is one segment, else None."""
        if len(self.segments) == 1:
            return self.segments[0].root_valuation
        return None


def newton_polygon(f, degree):
    """Newton polygon of the first ``degree``+1 coefficients of f.

    Coefficients whose valuation cannot be certified (zero residues) are
    accepted only when they lie strictly above the hull of the certified
    points; if such a coefficient could sit on the hull, the polygon is not
    determined and a PrecisionError is raised.  The points are integers, so
    the hull and that test are integer cross-products.
    """
    series, coeff_prec = _certified(f)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree > series.trunc - 1:
        raise ValueError(f"degree {degree} exceeds the truncation window {series.trunc}")
    exact, bounded = [], []
    for i, (v, is_exact) in enumerate(islice(_valuations(series, coeff_prec), degree + 1)):
        (exact if is_exact else bounded).append((i, v))
    if not exact or exact[0][0] != 0 or exact[-1][0] != degree:
        raise PrecisionError(
            "valuation of an endpoint coefficient is uncertified",
            quantity="newton_polygon",
        )

    hull = []
    for x, y in exact:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))

    xs = [x for x, _ in hull]
    for i, bound in bounded:
        # the first segment x1 <= i <= x2; bound <= its value at i
        k = bisect_left(xs, i, 1)
        (x1, y1), (x2, y2) = hull[k - 1], hull[k]
        if (bound - y1) * (x2 - x1) <= (y2 - y1) * (i - x1):
            raise PrecisionError(
                f"coefficient {i} has uncertifiable valuation (>= {bound}) on the hull",
                quantity="newton_polygon", level=i,
            )

    segments = tuple(
        Segment(Fraction(y2 - y1, x2 - x1), x2 - x1)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    )
    return NewtonPolygon(tuple((x, Fraction(y)) for x, y in hull), segments)


def rn_values(p, lower, d=None):
    """Field-of-norms precision levels r_n = ceil((p-1)*i_n/p), with the
    strict lower-bound flags r_n > d(p^n - 1) when the index d is known."""
    rn = tuple(math.ceil(Fraction((p - 1) * i, p)) for i in lower)
    if d is None:
        return rn, None
    flags = tuple(r > d * (p**n - 1) for n, r in enumerate(rn))
    return rn, flags


@dataclass(frozen=True)
class ExtQuantities:
    """Tame-closure data for index d over a base of ramification index e."""

    p: int
    d: int
    e: int
    admissible: bool

    @property
    def t(self):
        """t = d! * e / d."""
        return math.factorial(self.d) * self.e // self.d

    def predicted_valuation(self, n):
        """Common valuation 1/(d*p^n) of the exact-period-p^n points."""
        return Fraction(1, self.d * self.p**n)

    def in_scope(self, n):
        """Whether level n lies in the theorem's stated scope: admissible
        d and e, and n >= 3."""
        return self.admissible and n >= 3


def ext_quantities(p, d, e):
    return ExtQuantities(p, d, e, 1 <= d <= p - 2 and 1 <= e <= p - 1)


@dataclass(frozen=True)
class LevelReport:
    """Certified data for one quotient level q_n, None where unknown.
    Outside ``prediction_in_scope`` (``ExtQuantities.in_scope``) a single
    segment that matches the prediction is an observation, not an instance
    of the theorem."""

    n: int
    weierstrass_degree: int | None = None
    expected_wd: int | None = None
    wd_matches: bool | None = None
    constant_valuation: int | None = None
    expected_constant_valuation: int | None = None
    constant_matches: bool | None = None
    polygon: NewtonPolygon | None = None
    predicted_root_valuation: Fraction | None = None
    prediction_in_scope: bool | None = None
    single_segment_matches: bool | None = None
    note: str | None = None


@dataclass(frozen=True)
class DynamicsReport:
    """Everything certified about one dynamical system at fixed (P, M).

    ``fixed_point_counts[n]`` is the number of fixed points of the p^n-th
    iterate in the open unit disk, counted with multiplicity: i_n + 1.
    """

    p: int
    prec: int
    trunc: int
    depths: tuple[int, ...]
    depth_uncertified_at: int | None
    upper: tuple[int, ...]
    fixed_point_counts: tuple[int, ...]
    index: IndexReport | None
    levels: tuple[LevelReport, ...]
    rn: tuple[int, ...]
    snbound: tuple[bool, ...] | None
    notes: tuple[str, ...]


def analyze(u, n_max):
    """Assemble the full report for u up to level n_max.

    Precision shortfalls are reported as markers level by level, never as
    fabricated values.  A series indistinguishable from the identity is
    rejected outright: its group closure is not infinite.
    """
    p, P, M = u.field.p, u.field.prec, u.trunc
    # the report lists every level; by Sen's congruence i_n >= i_(n-1) + p^n,
    # so level n certifies only where p^(n-1) is below the truncation
    if not 0 <= n_max <= 64:
        raise ValueError(f"the level count {n_max} is outside [0, 64]: no truncation below 2^63 "
                         "certifies a level past 64")
    if M < 2:
        raise ValueError("truncation must be >= 2 to analyze a dynamical series")
    _require_dynamical(u)
    if u.packed[1] % p != 1:
        raise ValueError("u'(0) must be a 1-unit")
    x = TruncSeries.x(u.field, M)
    if u == x:
        raise ValueError(
            "u is the identity at this precision; its group closure is not infinite"
        )

    # the chain u, u^p, u^(p^2), ...: its reductions mod p give the depths
    # (reduction commutes with composition), and level n divides by its
    # two last links
    chain = list(p_chain(u, n_max))
    notes = []
    try:
        depths = tuple(certified_depths(reduce_mod_p(h) for h in chain))
        uncertified_at = None
    except PrecisionError as exc:
        depths = exc.partial
        uncertified_at = exc.level
        notes.append(f"depth at level {exc.level} uncertified at truncation {M}")

    upper = upper_from_lower(p, depths)
    index = index_of(p, upper) if len(upper) >= 2 else None
    d = index.d if index is not None and index.status == "determined" else None
    # the coefficients lie in Z_p, so the base is unramified: e = 1
    ext = ext_quantities(p, d, 1) if d is not None else None

    # once two links in a row are X (and so every later one), each level
    # divides X - X by X - X and is unavailable alike: its report is the
    # last level's, at its own n
    levels = []
    for n in range(1, n_max + 1):
        if n > 1 and chain[n - 2] == x:
            levels.append(replace(levels[-1], n=n))
        else:
            levels.append(_analyze_level(chain[n - 1], chain[n], n, depths, ext))

    rn, flags = rn_values(p, depths, d) if depths else ((), None)
    return DynamicsReport(
        p, P, M, tuple(depths), uncertified_at, upper,
        tuple(i + 1 for i in depths), index,
        tuple(levels), rn, flags, tuple(notes),
    )


def _expected_constant_valuation(prev, n):
    """The valuation of the constant term of level n's quotient, or None
    where nothing is proved; prev is u^(p^(n-1)), so u itself at n = 1.

    The constant term is (a^(p^n) - 1)/(a^(p^(n-1)) - 1) for a = u'(0) != 1,
    and p for a = 1.  Lifting the exponent gives v(a^(p^k) - 1) = v(a - 1) + k
    for odd p, and v(a - 1) + v(a + 1) + k - 1 for p = 2 and k >= 1, so the
    valuation is 1 except at p = 2, n = 1, where it is v_2(a + 1).  a is
    known mod 2^P, so that valuation is proved only below P.
    """
    f = prev.field
    if f.p != 2 or n != 1:
        return 1
    v = vp((prev.packed[1] + 1) % f.mod, 2, f.prec)
    return v if v < f.prec else None


def _analyze_level(prev, cur, n, depths, ext):
    try:
        q = _divide_level(prev, cur, n)
    except (PrecisionError, ValueError) as exc:
        return LevelReport(n, note=f"quotient unavailable: {exc}")

    wd = weierstrass_degree(q)
    expected_wd = None
    if n < len(depths):
        expected_wd = depths[n] - depths[n - 1]
    wd_matches = (wd == expected_wd) if (wd is not None and expected_wd is not None) else None

    v0, exact0 = next(_valuations(q.series, q.coeff_prec))
    const_val = v0 if exact0 else None
    expected_const = _expected_constant_valuation(prev, n)
    const_matches = const_val == expected_const if None not in (const_val, expected_const) else None

    polygon = None
    predicted = ext.predicted_valuation(n) if ext is not None else None
    in_scope = ext.in_scope(n) if ext is not None else None
    single_matches = None
    note = None
    if wd is not None and wd >= 1:
        try:
            polygon = newton_polygon(q, wd)
        except PrecisionError as exc:
            note = f"polygon uncertified: {exc}"
        if polygon is not None and predicted is not None:
            single_matches = polygon.single_root_valuation == predicted
    elif wd is None:
        note = "Weierstrass degree undetermined within the certified window"

    return LevelReport(
        n, wd, expected_wd, wd_matches, const_val, expected_const,
        const_matches, polygon, predicted, in_scope, single_matches, note,
    )
