"""Closed-form tame parameters and the intersection-guarantee decision procedure.

Given the upper-break data of a cyclic p^n-extension of a tamely ramified
base with index e, this module evaluates the three inequalities that
certify a lower bound p^m on the degree of the intersection of any two
extensions sharing the same uniformizer series to a cutoff a.  Every
comparison is strict and carried out over exact rationals; equality cases
are failures.  All intermediate quantities are returned for audit, never
just a boolean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvariantError
from .gfseries import _require_prime, vp
from .herbrand import YHZ, BreakData, extract_yhz, validate_breaks


@dataclass(frozen=True)
class TameParams:
    """s = (p-1)/gcd(e, p-1) and e0 = e/gcd(e, p-1) for a tame base."""

    p: int
    e: int
    s: int
    e0: int


def tame_params(p, e):
    _require_prime(p)
    if e < 1:
        raise ValueError("e must be a positive integer")
    if e % p == 0:
        raise ValueError("the base must be tame: p does not divide e")
    g = math.gcd(e, p - 1)
    tp = TameParams(p, e, (p - 1) // g, e // g)
    if tp.e0 * (p - 1) != e * tp.s or (p - 1) % tp.s or tp.e0 % p == 0:
        raise InvariantError(f"cross-check failed: tame parameters {tp} break e0 = e*s/(p-1)")
    return tp


def f_shift(tp, m, t):
    """The three-case shift value at t, with t0 = t - e0*p^m.

    Periodic in t with period s*p^m; zero off the s-divisible classes,
    e0*(p^(v+1)-1) at p-adic level v < m, and e0*(p^(m+1)-1) at level >= m.
    As p does not divide e0, t0 has the level of t when that is below m, and
    a level >= m otherwise; s divides t0 exactly when t = e0*p^m (mod s).
    So t0 is never built, and the level takes at most log_p|t| divisions.
    At level >= m, an m for which p^(m+1) has more than ``SUM_CHECK_DIGITS``
    decimal digits raises ValueError.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p, s, e0 = tp.p, tp.s, tp.e0
    if (t - e0 * pow(p, m, s)) % s:
        return _class_value(tp, None)
    v = vp(t, p, m) if t else m  # vp(0, p, m) would divide m times
    if v == m:
        _check_digits(p, m, "the level-m value")
    return _class_value(tp, v)


def _class_value(tp, v):
    """f_shift on the class of t0: level v, or None when s does not divide t0."""
    return 0 if v is None else tp.e0 * (tp.p ** (v + 1) - 1)


# The work bound of f_shift and f_shift_sum_check: at most this many decimal
# digits in p^(m+1).  At the bound the sum takes under a second (p = 2,
# m = 14,280).
SUM_CHECK_DIGITS = 4300


def _check_digits(p, m, what):
    # p^(m+1) has more than SUM_CHECK_DIGITS digits when (m+1) log10(p) >= it;
    # compared as int against float, so no m overflows
    if m + 1 >= SUM_CHECK_DIGITS / math.log10(p):
        raise ValueError(
            f"m = {m} is too large for {what}: p^(m+1) has more than "
            f"{SUM_CHECK_DIGITS} digits"
        )


def f_shift_sum_check(tp, m):
    """Verify the window sum over one period equals (m+1)*e0*(p^(m+1)-p^m).

    f_shift reads t0 = t - e0*p^m in 0 .. s*p^m - 1 only through its class,
    so the sum takes each class value once, times the class size: the
    (s-1)*p^m values s does not divide, t0 = 0 at level m, and the
    p^(m-v-1)*(p-1) multiples of s at each level v < m.  The m + 2 class
    values reach e0*p^(m+1), so the work grows like m times the size of
    p^(m+1): an m for which p^(m+1) has more than ``SUM_CHECK_DIGITS``
    decimal digits raises ValueError.
    """
    p, s, e0 = tp.p, tp.s, tp.e0
    _check_digits(p, m, "the sum check")
    classes = [(None, (s - 1) * p**m), (m, 1)]
    classes += [(v, p ** (m - v - 1) * (p - 1)) for v in range(m)]
    total = sum(size * _class_value(tp, v) for v, size in classes)
    return total == (m + 1) * e0 * (p ** (m + 1) - p**m)


@dataclass(frozen=True)
class TheoremInputs:
    """Inputs to the condition checker.

    p, e and n are those of the break data ``bd``, whose tame index e must
    be an integer.  ``contained_in_zp`` is caller-supplied: whether the
    extension embeds in a Z_p-extension is a class-field-theoretic fact this
    toolkit does not compute.  ``a`` defaults to e*p^n and ``m`` to the
    largest value with psi((m+1+1/(p-1))e) < e*p^n.  A supplied ``a`` must
    lie in [1, e*p^n]; a supplied ``m`` must lie in [1, n], which
    check_conditions enforces.  ``p``, ``e``, ``n``, ``tp`` and ``yhz`` are
    derived on construction.
    """

    bd: BreakData
    a: int | None = None
    m: int | None = None
    contained_in_zp: bool = True
    p: int = field(init=False, repr=False, compare=False)
    e: int = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)
    tp: TameParams = field(init=False, repr=False, compare=False)
    yhz: YHZ = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bd.e.denominator != 1:
            raise ValueError("the tame index e must be an integer for condition checks")
        object.__setattr__(self, "p", self.bd.p)
        object.__setattr__(self, "e", int(self.bd.e))
        object.__setattr__(self, "n", self.bd.n)
        if self.p <= 3:
            raise ValueError("p > 3 is required")
        object.__setattr__(self, "tp", tame_params(self.p, self.e))
        if self.a is None:
            object.__setattr__(self, "a", self.e * self.p**self.n)
        if not (1 <= self.a <= self.e * self.p**self.n):
            raise ValueError(f"cutoff a = {self.a} outside [1, e*p^n]")
        verdict = validate_breaks(self.bd)
        if not verdict.valid:
            raise ValueError(f"inadmissible break data: {verdict.first.detail}")
        object.__setattr__(self, "yhz", extract_yhz(self.bd))


def m0(ti):
    """Largest m >= 0 with psi((m+1+1/(p-1))e) < e*p^n, or None if none exists.

    psi is strictly increasing, so that m is the largest integer below
    psi^-1(e*p^n)/e - 1 - 1/(p-1).
    """
    p, e = ti.p, ti.e
    x = ti.bd.psi.preimage(e * p**ti.n)
    # x/e - 1 - 1/(p-1) = (x(p-1) - ep) / (e(p-1)), with x = xn/xd
    xn, xd = x.numerator, x.denominator
    best = -((e * p * xd - xn * (p - 1)) // (e * (p - 1) * xd)) - 1
    bound = ti.n - ti.yhz.h - 1
    if best > bound:
        raise InvariantError(f"cross-check failed: m0 = {best} exceeds n - h - 1 = {bound}")
    return best if best >= 0 else None


def q_r_values(tp, yhz, m):
    """q = ((y-e)s + e0)p^m when h = 0 and y > e, else e0*p^m; r = q + e0(p^(m+1)-1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    p, e, s, e0 = tp.p, tp.e, tp.s, tp.e0
    yn, yd = yhz.y.numerator, yhz.y.denominator
    if yhz.h == 0 and yn > e * yd:
        q, rem = divmod(((yn - e * yd) * s + e0 * yd) * p**m, yd)
        if rem:
            raise ValueError("q is not integral; break data is not Galois-integral")
    else:
        q = e0 * p**m
    return q, q + e0 * (p ** (m + 1) - 1)


def psi_ML_lower_bound(ti, m, t):
    """Certified lower bound for the lower-numbering image of the cutoff a.

    Substitutes the upper bounds psi((i+1)e) for the unknown positive upper
    breaks of the top step; larger break values only decrease the result,
    so the returned value is a true lower bound.  It is
    s*p^t*a - s(p-1)*S(t) with S(t) = sum_{k<t} p^k psi((m-t+k+1)e), read
    off the recurrence S(0) = 0, S(t+1) = psi((m-t)e) + p*S(t): t
    evaluations of psi.
    """
    if not (0 <= t <= m):
        raise ValueError(f"t = {t} outside [0, m = {m}]")
    return _psi_ML_bounds(ti, m, t)[t]


def _psi_ML_bounds(ti, m, t_max):
    """psi_ML_lower_bound(ti, m, t) for t = 0 .. t_max, in one pass over psi.

    psi takes the integers (m-t)e to numerators over one denominator, so
    S(t) is summed as an integer numerator over it."""
    p, s, a, e, psi = ti.p, ti.tp.s, ti.a, ti.e, ti.bd.psi
    bounds, total, den = [Fraction(s * a)], 0, psi._den
    for t in range(t_max):
        total = psi._ratio((m - t) * e, 1)[0] + p * total
        bounds.append(Fraction(s * p ** (t + 1) * a * den - s * (p - 1) * total, den))
    return bounds


def _ces_floor(ti, m, t):
    """Closed form of the substituted bound, split on y <= e and y > e.

    It must agree exactly with psi_ML_lower_bound whenever the break-range
    guard m <= n - h holds (and t = m when y > e).  With y = yn/yd and
    z = zn/zd it is one integer numerator over (p-1)(p+1)*yd*zd.
    """
    p, s, e, a = ti.p, ti.tp.s, ti.e, ti.a
    y, h, z = ti.yhz.y, ti.yhz.h, ti.yhz.z
    yn, yd, zn, zd = y.numerator, y.denominator, z.numerator, z.denominator
    den = (p - 1) * (p + 1) * yd * zd
    if y > e:
        # the y <= e form at t = m, with 2p-1 in place of p and p^h in
        # place of p^(m+h-t+1)
        t, c, top = m, 2 * p - 1, p**h
    else:
        c, top = p, p ** (m + h - t + 1)
    pt = p**t
    num = (
        s * pt * a * den
        + s * (pt - 1) * (e * p ** (h + 1) * zd - zn * (p - 1)) * (p + 1) * yd
        - s * top * (pt * pt - 1) * (c * e * yd - yn * (p - 1)) * zd
    )
    return Fraction(num, den)


def phi_EK_closed_form(tp, yhz, m):
    """Upper-numbering image of r = q + e0(p^(m+1)-1) through the cyclotomic
    step, in closed form: (m+1+1/(p-1))e, plus (y-e) when h = 0 and y > e."""
    p, e = tp.p, tp.e
    yn, yd = yhz.y.numerator, yhz.y.denominator
    base = ((m + 1) * (p - 1) + 1) * e
    if yhz.h == 0 and yn > e * yd:
        return Fraction(base * yd + (yn - e * yd) * (p - 1), (p - 1) * yd)
    return Fraction(base, p - 1)


@dataclass(frozen=True)
class Cond1Item:
    t: int
    bound: Fraction
    threshold: int
    ok: bool


@dataclass(frozen=True)
class ConditionReport:
    """Full audit record of one run of the condition checker."""

    p: int
    e: int
    n: int
    a: int
    m: int | None
    y: Fraction | None = None
    h: int | None = None
    z: Fraction | None = None
    q: int | None = None
    r: int | None = None
    t_examined: tuple[int, ...] = ()
    cond1: bool | None = None
    cond1_details: tuple[Cond1Item, ...] = ()
    psi_ml_lower_bound: Fraction | None = None
    cond2: bool | None = None
    cond2_lhs: Fraction | None = None
    cond2_rhs: Fraction | None = None
    cond3: bool | None = None
    cond3_lhs: int | None = None
    cond3_rhs: Fraction | None = None
    contained_in_zp: bool = True
    guarantee: str = "none"
    status: str = "ok"
    path: str = "main"
    m0: int | None = None
    l: int | None = None
    proot: "ConditionReport | None" = None
    notes: tuple[str, ...] = field(default=())

    @property
    def all_pass(self):
        return bool(self.cond1 and self.cond2 and self.cond3)


def _report(ti, m, **fields):
    """The report at level m, with p, e, n, a and the Z_p flag of ti."""
    return ConditionReport(ti.p, ti.e, ti.n, ti.a, m, contained_in_zp=ti.contained_in_zp, **fields)


def _evaluate(ti, m):
    """The three conditions at level m (1 <= m <= n) for cutoff ti.a, as
    the fields of their report, and whether all three pass."""
    tp, yhz, psi = ti.tp, ti.yhz, ti.bd.psi
    p, e, n, a = ti.p, ti.e, ti.n, ti.a
    q, r = q_r_values(tp, yhz, m)

    y_above = yhz.y.numerator > e * yhz.y.denominator
    ts = tuple(range(m + 1)) if yhz.y == e else (m,)
    bounds = _psi_ML_bounds(ti, m, m)
    items = []
    for t in ts:
        bound = bounds[t]
        bnum, bden = bound.numerator, bound.denominator
        if m <= n - yhz.h and (not y_above or t == m):
            floor = _ces_floor(ti, m, t)
            if bnum * floor.denominator != floor.numerator * bden:
                raise InvariantError(
                    f"cross-check failed: psi_ML lower bound at m = {m}, t = {t} "
                    "differs from the ceiling-sum floor"
                )
        threshold = p ** (n + t - m) * q
        items.append(Cond1Item(t, bound, threshold, bnum > threshold * bden))

    lhs, rhs = psi.preimage(a), phi_EK_closed_form(tp, yhz, m)  # condition 2: phi(a) > rhs
    cond3_rhs = psi(ti.bd.upper[-1])

    cond1 = all(it.ok for it in items)
    cond2 = lhs.numerator * rhs.denominator > rhs.numerator * lhs.denominator
    cond3 = a * cond3_rhs.denominator > cond3_rhs.numerator
    fields = dict(
        y=yhz.y, h=yhz.h, z=yhz.z, q=q, r=r, t_examined=ts,
        cond1=cond1, cond1_details=tuple(items), psi_ml_lower_bound=min(it.bound for it in items),
        cond2=cond2, cond2_lhs=lhs, cond2_rhs=rhs,
        cond3=cond3, cond3_lhs=a, cond3_rhs=cond3_rhs,
    )
    return fields, cond1 and cond2 and cond3


def check_conditions(ti):
    """Run the three condition checks at m (supplied or defaulted to m0).

    The guarantee is granted only when every examined t passes and the
    extension is flagged as contained in a Z_p-extension; otherwise, when
    the flag is false, the checker falls back to the degree-p^(n-1)
    variant and reports its result.  Only a defaulted m reports the
    vacuous statuses ``no_m`` and ``m0_zero``; a supplied m outside [1, n]
    is a ValueError.
    """
    m0_val = m0(ti)
    m_val = ti.m if ti.m is not None else m0_val
    if ti.m is None and not m0_val:
        return _report(
            ti, m0_val, m0=m0_val, status="no_m" if m0_val is None else "m0_zero",
            notes=("no level m >= 1 is available; the guarantee is vacuous",),
        )
    if not (1 <= m_val <= ti.n):
        raise ValueError(f"m = {m_val} outside [1, n = {ti.n}]")
    conds, passed = _evaluate(ti, m_val)
    if ti.contained_in_zp:
        return _report(ti, m_val, m0=m0_val, guarantee=f"p^{m_val}" if passed else "none", **conds)
    proot = _proot_check(ti, m0_val)
    path = "proot" if proot.guarantee != "none" else "main"
    return _report(ti, m_val, m0=m0_val, guarantee=proot.guarantee, path=path, proot=proot, **conds)


def proot_check(ti):
    """The degree-p^(n-1) fallback: drop the top break, cutoff l, level m0-1.

    Applicable only when n >= 3 and m0 >= 2; the certified guarantee is
    p^(m0-1) on success.
    """
    return _proot_check(ti, m0(ti))


def _proot_check(ti, m0_val):
    if ti.n < 3 or m0_val is None or m0_val < 2:
        return _report(
            ti, None, m0=m0_val, status="not_applicable", path="proot",
            notes=("requires n >= 3 and m0 >= 2",),
        )
    j = ti.bd.psi(ti.bd.upper[-1])
    l = -((-(ti.p - 1) * j.numerator) // (ti.p * j.denominator))  # ceil((p-1)j/p)
    # the sub-extension's inputs carry ti's Z_p flag into the report; the
    # conditions themselves do not read it
    sub = TheoremInputs(
        BreakData(ti.p, ti.bd.e, ti.bd.upper[:-1]), a=l, contained_in_zp=ti.contained_in_zp
    )
    m = m0_val - 1
    conds, passed = _evaluate(sub, m)
    guarantee = f"p^{m} (proot)" if passed else "none"
    return _report(sub, m, m0=m0_val, path="proot", l=l, guarantee=guarantee, **conds)
