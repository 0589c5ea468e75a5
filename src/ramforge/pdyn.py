"""Truncated p-adic dynamics: iteration, level quotients, Newton polygons.

A PadicSeries carries a fixed precision pair (P, M): coefficients are
residues modulo p^P and the series is known modulo X^M.  Ring operations
(sum, product, composition) commute with reduction, so they keep full
coefficient precision.  The level-quotient division is the only lossy
step; its result carries an explicit per-coefficient certification
profile, and nothing is ever asserted beyond it.  There is no automatic
precision escalation: the caller picks (P, M), results are certified or
flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._convolve import compose_mod, conv_mod, power, recip_mod
from .errors import PrecisionError
from .gfseries import FiniteField, TruncSeries, _require_prime, vp
from .nottingham import IndexReport, certified_depths, index_of, upper_from_lower


@dataclass(frozen=True)
class PadicSeries:
    """A power series with integer coefficients tracked mod p^prec, mod X^trunc."""

    p: int
    prec: int
    trunc: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        _require_prime(self.p)
        if self.prec < 1 or self.trunc < 1:
            raise ValueError("prec and trunc must be >= 1")
        mod = self.modulus
        object.__setattr__(self, "coeffs", tuple(int(c) % mod for c in self.coeffs))
        if len(self.coeffs) != self.trunc:
            raise ValueError(f"expected {self.trunc} coefficients, got {len(self.coeffs)}")

    @property
    def modulus(self):
        return self.p**self.prec

    @property
    def coeff_prec(self):
        """Certified digits per coefficient: all prec of them."""
        return (self.prec,) * self.trunc

    @classmethod
    def x(cls, p, prec, trunc):
        if trunc < 2:
            raise ValueError("truncation must be >= 2 to represent X")
        return cls(p, prec, trunc, (0, 1) + (0,) * (trunc - 2))

    def __add__(self, other):
        return self._termwise(other, 1)

    def __sub__(self, other):
        return self._termwise(other, -1)

    def _termwise(self, other, sign):
        # the constructor reduces mod p^prec
        p, prec, n = self._common(other)
        return PadicSeries(p, prec, n, [a + sign * b for a, b in zip(self.coeffs[:n], other.coeffs[:n])])

    def __mul__(self, other):
        p, prec, n = self._common(other)
        return PadicSeries(
            p, prec, n, conv_mod(list(self.coeffs[:n]), list(other.coeffs[:n]), n, p**prec)
        )

    def _common(self, other):
        if not isinstance(other, PadicSeries) or other.p != self.p:
            raise ValueError("series must share the same prime")
        return self.p, min(self.prec, other.prec), min(self.trunc, other.trunc)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.trunc > 6 else ""
        return f"PadicSeries(p={self.p}, prec={self.prec}, trunc={self.trunc}, [{head}{tail}])"


def pad_compose(outer, inner):
    """outer(inner(X)) mod (p^P, X^M); inner must have zero constant term."""
    p, prec, n = outer._common(inner)
    if inner.coeffs[0] % p**prec != 0:
        raise ValueError("inner series must have zero constant term")
    out = compose_mod(list(outer.coeffs[:n]), list(inner.coeffs[:n]), n, p**prec)
    return PadicSeries(p, prec, n, out)


def pad_iterate(u, k):
    """k-fold composite of u with itself, by binary powering."""
    if k < 0:
        raise ValueError("iteration count must be >= 0")
    if u.coeffs[0] != 0:
        raise ValueError("dynamical series must satisfy u(0) = 0")
    if k == 0:
        return PadicSeries.x(u.p, u.prec, u.trunc)
    return power(u, k, pad_compose)


def reduce_mod_p(u):
    """Coefficientwise reduction into F_p[[X]] at the same truncation."""
    return TruncSeries(FiniteField(u.p), u.coeffs, u.trunc)


@dataclass(frozen=True)
class DividedSeries:
    """A quotient series with a per-coefficient certification profile.

    ``series.coeffs[k]`` is the computed residue mod p^prec, but only its
    bottom ``coeff_prec[k]`` digits are certified; a zero entry means the
    coefficient is unknown.
    """

    series: PadicSeries
    coeff_prec: tuple[int, ...]

    @property
    def p(self):
        return self.series.p

    @property
    def prec(self):
        return self.series.prec

    @property
    def trunc(self):
        return self.series.trunc

    @property
    def coeffs(self):
        return self.series.coeffs


def weierstrass_degree(f):
    """Index of the first unit coefficient, or None when undetermined.

    Accepts a PadicSeries (uniform precision) or a DividedSeries; scanning
    stops at the first uncertified coefficient.
    """
    for k, (c, prec) in enumerate(zip(f.coeffs, f.coeff_prec)):
        if prec < 1:
            return None
        if c % f.p != 0:
            return k
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
    if u.coeffs[0] != 0:
        raise ValueError("dynamical series must satisfy u(0) = 0")
    prev = pad_iterate(u, u.p ** (n - 1))
    return _divide_level(prev, pad_iterate(prev, u.p), n)


def _divide_level(prev, cur, n):
    """qn_divide from the iterates prev = u^(p^(n-1)) and cur = u^(p^n)."""
    p, P, M = prev.p, prev.prec, prev.trunc
    mod = p**P
    x = PadicSeries.x(p, P, M)
    num = (cur - x).coeffs[1:]
    den = (prev - x).coeffs[1:]
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
    K = L - i0
    if K < 1:
        raise PrecisionError(
            f"truncation too small: only {L} quotient coefficients available "
            f"against divisor degree {i0}",
            quantity="qn_quotient", level=n,
        )

    v_lo = min((vp(c, p, P) for c in den[:i0]), default=P)
    den_lo = list(den[:i0])
    den_hi = list(den[i0:L])
    den_hi_inv = recip_mod(den_hi, K, mod)

    q = [0] * K
    num_l = list(num)
    converged = False
    for _ in range(math.ceil(P / max(v_lo, 1)) + 2):
        t = list(num_l)
        if den_lo:
            prod = conv_mod(q, den_lo, L, mod)
            t = [(a - b) % mod for a, b in zip(t, prod)]
        q_new = conv_mod(t[i0:], den_hi_inv, K, mod)
        if q_new == q:
            converged = True
            break
        q = q_new
    if not converged:
        raise PrecisionError(
            "quotient iteration failed to stabilize", quantity="qn_quotient", level=n
        )

    if i0 == 0:
        coeff_prec = (P,) * K  # unit divisor: division is exact
    else:
        coeff_prec = tuple(min(P, max(0, v_lo * ((L - 1 - k) // i0))) for k in range(K))

    # residual j < i0 sums q_k * den_(j-k) over k <= min(j, K - 1), each
    # den_(j-k) of valuation >= v_lo; coeff_prec falls with k, so residual j
    # is certified to coeff_prec[min(j, K - 1)] + v_lo digits, and only
    # those must vanish
    residual = [(a - b) % mod for a, b in zip(num_l, conv_mod(q, list(den), L, mod))]
    if any(residual[j] % p ** min(P, coeff_prec[min(j, K - 1)] + v_lo) for j in range(i0)):
        raise ValueError(
            "division is inexact at certified digits: the series is not of the required form"
        )
    return DividedSeries(PadicSeries(p, P, K, q), coeff_prec)


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
    determined and a PrecisionError is raised.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree > f.trunc - 1:
        raise ValueError(f"degree {degree} exceeds the truncation window {f.trunc}")
    p = f.p
    exact = []
    bounded = []
    for i, prec_i in enumerate(f.coeff_prec[: degree + 1]):
        if prec_i <= 0:
            bounded.append((i, 0))
            continue
        r = f.coeffs[i] % p**prec_i
        if r == 0:
            bounded.append((i, prec_i))
        else:
            exact.append((i, Fraction(vp(r, p, prec_i))))
    if not exact or exact[0][0] != 0 or exact[-1][0] != degree:
        raise PrecisionError(
            "valuation of an endpoint coefficient is uncertified",
            quantity="newton_polygon",
        )

    hull = []
    for pt in exact:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)

    def hull_value(x):
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= x <= x2:
                return y1 + Fraction(y2 - y1, x2 - x1) * (x - x1)
        raise AssertionError("abscissa outside hull range")

    for i, bound in bounded:
        if bound <= hull_value(i):
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
    t: int
    admissible: bool

    def predicted_valuation(self, n):
        """Common valuation 1/(d*p^n) of the exact-period-p^n points, n >= 3."""
        if n < 3:
            raise ValueError("the valuation prediction applies for n >= 3")
        return Fraction(1, self.d * self.p**n)


def ext_quantities(p, d, e):
    t = math.factorial(d) * e // d
    admissible = 1 <= d <= p - 2 and 1 <= e <= p - 1
    return ExtQuantities(p, d, e, t, admissible)


@dataclass(frozen=True)
class LevelReport:
    """Certified data for one quotient level q_n."""

    n: int
    weierstrass_degree: int | None
    expected_wd: int | None
    wd_matches: bool | None
    constant_valuation: int | None
    expected_constant_valuation: int | None
    constant_matches: bool | None
    polygon: NewtonPolygon | None
    predicted_root_valuation: Fraction | None
    single_segment_matches: bool | None
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
    p, P, M = u.p, u.prec, u.trunc
    if n_max < 0:
        raise ValueError("the level count must be >= 0")
    if M < 2:
        raise ValueError("truncation must be >= 2 to analyze a dynamical series")
    if u.coeffs[0] != 0:
        raise ValueError("dynamical series must satisfy u(0) = 0")
    if u.coeffs[1] % p != 1:
        raise ValueError("u'(0) must be a 1-unit")
    x = PadicSeries.x(p, P, M)
    if all(c == 0 for c in (u - x).coeffs):
        raise ValueError(
            "u is the identity at this precision; its group closure is not infinite"
        )

    # one chain u, u^p, u^(p^2), ...: its reductions mod p give the depths
    # (reduction commutes with composition), and level n divides by its
    # two last links
    chain = [u]
    for _ in range(n_max):
        chain.append(pad_iterate(chain[-1], p))
    notes = []
    try:
        depths = tuple(certified_depths((reduce_mod_p(h) for h in chain), M))
        uncertified_at = None
    except PrecisionError as exc:
        depths = exc.partial
        uncertified_at = exc.level
        notes.append(f"depth at level {exc.level} uncertified at truncation {M}")

    upper = upper_from_lower(p, depths) if depths else ()
    index = index_of(p, upper) if len(upper) >= 2 else None
    d = index.d if index is not None and index.status == "determined" else None

    levels = [_analyze_level(chain[n - 1], chain[n], n, depths, d) for n in range(1, n_max + 1)]

    rn, flags = rn_values(p, depths, d) if depths else ((), None)
    return DynamicsReport(
        p, P, M, tuple(depths), uncertified_at, upper,
        tuple(i + 1 for i in depths), index,
        tuple(levels), rn, flags, tuple(notes),
    )


def _analyze_level(prev, cur, n, depths, d):
    p = prev.p
    try:
        q = _divide_level(prev, cur, n)
    except (PrecisionError, ValueError) as exc:
        return LevelReport(n, None, None, None, None, None, None, None, None, None,
                           note=f"quotient unavailable: {exc}")

    wd = weierstrass_degree(q)
    expected_wd = None
    if n < len(depths):
        expected_wd = depths[n] - depths[n - 1]
    wd_matches = (wd == expected_wd) if (wd is not None and expected_wd is not None) else None

    const_val = None
    if q.coeff_prec[0] > 0:
        r = q.coeffs[0] % p ** q.coeff_prec[0]
        if r != 0:
            const_val = vp(r, p, q.coeff_prec[0])
    expected_const = _expected_constant_valuation(n)
    const_matches = (
        const_val == expected_const
        if (const_val is not None and expected_const is not None)
        else None
    )

    polygon = None
    predicted = Fraction(1, d * p**n) if d is not None else None
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
        const_matches, polygon, predicted, single_matches, note,
    )


def _expected_constant_valuation(n):
    # over Z_p-coefficients the constant term of every level quotient has
    # valuation exactly 1: each p-th power step adds v(p) = 1 to
    # v(a0^(p^k) - 1) for a0 a 1-unit, and the a0 = 1 case gives exactly p
    return 1
