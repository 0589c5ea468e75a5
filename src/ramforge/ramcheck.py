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
from .gfseries import vp
from .herbrand import (
    BreakData,
    extract_yhz,
    phi_from_breaks,
    psi_from_breaks,
    validate_breaks,
)


@dataclass(frozen=True)
class TameParams:
    """s = (p-1)/gcd(e, p-1) and e0 = e/gcd(e, p-1) for a tame base."""

    p: int
    e: int
    s: int
    e0: int
    w: int | None = None  # residue degree of the cyclotomic step; metadata only


def tame_params(p, e, w=None):
    if e < 1:
        raise ValueError("e must be a positive integer")
    if e % p == 0:
        raise ValueError("the base must be tame: p does not divide e")
    g = math.gcd(e, p - 1)
    tp = TameParams(p, e, (p - 1) // g, e // g, w)
    if tp.e0 * (p - 1) != e * tp.s or (p - 1) % tp.s or tp.e0 % p == 0:
        raise InvariantError(f"cross-check failed: tame parameters {tp} break e0 = e*s/(p-1)")
    return tp


def f_shift(tp, m, t):
    """The three-case shift value at t, with t0 = t - e0*p^m.

    Periodic in t with period s*p^m; zero off the s-divisible classes,
    e0*(p^(v+1)-1) at p-adic level v < m, and e0*(p^(m+1)-1) at level >= m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p, s, e0 = tp.p, tp.s, tp.e0
    t0 = t - e0 * p**m
    if t0 % s:
        return 0
    # levels >= m (t0 = 0 included) all give the level-m value
    return e0 * (p ** (vp(t0, p, m) + 1) - 1)


def f_shift_sum_check(tp, m):
    """Verify the window sum over one period equals (m+1)*e0*(p^(m+1)-p^m)."""
    p, s, e0 = tp.p, tp.s, tp.e0
    total = sum(f_shift(tp, m, t) for t in range(e0 * p**m, (e0 + s) * p**m))
    return total == (m + 1) * e0 * (p ** (m + 1) - p**m)


def g_floor(tp, m, n_val):
    """ceil((n_val - e0*(p^(m+1)+p^m-1)) / (s*p^m))."""
    p, s, e0 = tp.p, tp.s, tp.e0
    return math.ceil(Fraction(n_val - e0 * (p ** (m + 1) + p**m - 1), s * p**m))


@dataclass(frozen=True)
class TheoremInputs:
    """Inputs to the condition checker.

    ``contained_in_zp`` is caller-supplied: whether the extension embeds in
    a Z_p-extension is a class-field-theoretic fact this toolkit does not
    compute.  ``a`` defaults to e*p^n and ``m`` to the largest value with
    psi((m+1+1/(p-1))e) < e*p^n.
    """

    p: int
    e: int
    n: int
    bd: BreakData
    a: int = 0
    m: int | None = None
    contained_in_zp: bool = True

    def __post_init__(self):
        if self.p <= 3:
            raise ValueError("p > 3 is required")
        if self.e % self.p == 0:
            raise ValueError("the base must be tame: p does not divide e")
        if self.bd.p != self.p or self.bd.e != self.e:
            raise ValueError("break data does not match (p, e)")
        if self.bd.n != self.n:
            raise ValueError("break data does not match n")
        if self.a == 0:
            object.__setattr__(self, "a", self.e * self.p**self.n)
        if not (1 <= self.a <= self.e * self.p**self.n):
            raise ValueError(f"cutoff a = {self.a} outside [1, e*p^n]")
        verdict = validate_breaks(self.bd)
        if not verdict.valid:
            raise ValueError(f"inadmissible break data: {verdict.first.detail}")


def m0(ti):
    """Largest m >= 0 with psi((m+1+1/(p-1))e) < e*p^n, or None if none exists."""
    psi = psi_from_breaks(ti.bd)
    target = ti.e * ti.p**ti.n
    best = None
    k = 0
    while psi((k + 1 + Fraction(1, ti.p - 1)) * ti.e) < target:
        best = k
        k += 1
    if best is not None:
        h = extract_yhz(ti.bd).h
        if best > ti.n - h - 1:
            raise InvariantError(f"cross-check failed: m0 = {best} exceeds n - h - 1 = {ti.n - h - 1}")
    return best


def q_r_values(tp, yhz, e, m):
    """q = ((y-e)s + e0)p^m when h = 0 and y > e, else e0*p^m; r = q + e0(p^(m+1)-1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if e != tp.e:
        raise ValueError("e does not match the tame parameters")
    p, s, e0 = tp.p, tp.s, tp.e0
    if yhz.h == 0 and yhz.y > e:
        q = ((yhz.y - e) * s + e0) * p**m
        if q.denominator != 1:
            raise ValueError("q is not integral; break data is not Galois-integral")
        q = int(q)
    else:
        q = e0 * p**m
    return q, q + e0 * (p ** (m + 1) - 1)


def psi_ML_lower_bound(ti, tp, yhz, m, t):
    """Certified lower bound for the lower-numbering image of the cutoff a.

    Substitutes the upper bounds psi((i+1)e) for the unknown positive upper
    breaks of the top step; larger break values only decrease the result,
    so the returned value is a true lower bound.
    """
    if not (0 <= t <= m):
        raise ValueError(f"t = {t} outside [0, m = {m}]")
    p, s = tp.p, tp.s
    psi = psi_from_breaks(ti.bd)
    total = Fraction(s * p**t * ti.a)
    for k in range(t):
        beta = psi((m - t + k + 1) * ti.bd.e)
        total -= s * (p - 1) * p**k * beta
    return total


def _ces_floor(ti, tp, yhz, m, t):
    # closed form of the substituted bound; must agree exactly with
    # psi_ML_lower_bound whenever the break-range guard m <= n - h holds
    p, s = tp.p, tp.s
    e, a = Fraction(ti.e), Fraction(ti.a)
    y, h, z = yhz.y, yhz.h, yhz.z
    if y <= e:
        return (
            s * p**t * a
            + s * (p**t - 1) * (e * p ** (h + 1) / (p - 1) - z)
            - s * p ** (m + h - t + 1) * Fraction(p ** (2 * t) - 1, p + 1) * (Fraction(p, p - 1) * e - y)
        )
    return (
        s * p**m * a
        + s * (p**m - 1) * (e * p ** (h + 1) / (p - 1) - z)
        - s * p**h * Fraction(p ** (2 * m) - 1, p + 1) * (Fraction(2 * p - 1, p - 1) * e - y)
    )


def phi_EK_closed_form(tp, yhz, e, m):
    """Upper-numbering image of r = q + e0(p^(m+1)-1) through the cyclotomic
    step, in closed form: (m+1+1/(p-1))e, plus (y-e) when h = 0 and y > e."""
    base = (m + 1 + Fraction(1, tp.p - 1)) * e
    if yhz.h == 0 and yhz.y > e:
        return base + (yhz.y - e)
    return base


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


def _evaluate(ti, m):
    """Evaluate the three conditions at level m (1 <= m <= n) for cutoff ti.a."""
    tp = tame_params(ti.p, ti.e)
    yhz = extract_yhz(ti.bd)
    psi = psi_from_breaks(ti.bd)
    phi = phi_from_breaks(ti.bd)
    p, e, n, a = ti.p, ti.e, ti.n, ti.a
    q, r = q_r_values(tp, yhz, e, m)

    ts = tuple(range(m + 1)) if yhz.y == e else (m,)
    items = []
    for t in ts:
        bound = psi_ML_lower_bound(ti, tp, yhz, m, t)
        if m <= n - yhz.h and (yhz.y <= e or t == m):
            if bound != _ces_floor(ti, tp, yhz, m, t):
                raise InvariantError(
                    f"cross-check failed: psi_ML lower bound at m = {m}, t = {t} "
                    "differs from the ceiling-sum floor"
                )
        threshold = p ** (n + t - m) * q
        items.append(Cond1Item(t, bound, threshold, bound > threshold))
    cond1 = all(it.ok for it in items)

    cond2_lhs = phi(a)
    cond2_rhs = phi_EK_closed_form(tp, yhz, e, m)
    cond2 = cond2_lhs > cond2_rhs

    cond3_rhs = psi(ti.bd.upper[-1])
    cond3 = Fraction(a) > cond3_rhs

    return {
        "y": yhz.y,
        "h": yhz.h,
        "z": yhz.z,
        "q": q,
        "r": r,
        "t_examined": ts,
        "cond1": cond1,
        "cond1_details": tuple(items),
        "psi_ml_lower_bound": min(it.bound for it in items),
        "cond2": cond2,
        "cond2_lhs": cond2_lhs,
        "cond2_rhs": cond2_rhs,
        "cond3": cond3,
        "cond3_lhs": a,
        "cond3_rhs": cond3_rhs,
    }


def check_conditions(ti):
    """Run the three condition checks at m (supplied or defaulted to m0).

    The guarantee is granted only when every examined t passes and the
    extension is flagged as contained in a Z_p-extension; otherwise, when
    the flag is false, the checker falls back to the degree-p^(n-1)
    variant and reports its result.
    """
    m0_val = m0(ti)
    m_val = ti.m if ti.m is not None else m0_val
    if m_val is None or m_val == 0:
        status = "no_m" if m_val is None else "m0_zero"
        return ConditionReport(
            ti.p, ti.e, ti.n, ti.a, m_val, contained_in_zp=ti.contained_in_zp,
            guarantee="none", status=status, m0=m0_val,
            notes=("no level m >= 1 is available; the guarantee is vacuous",),
        )
    if not (1 <= m_val <= ti.n):
        raise ValueError(f"m = {m_val} outside [1, n = {ti.n}]")
    ev = _evaluate(ti, m_val)
    all_pass = ev["cond1"] and ev["cond2"] and ev["cond3"]
    proot_report = None
    if all_pass and ti.contained_in_zp:
        guarantee = f"p^{m_val}"
        path = "main"
    elif not ti.contained_in_zp:
        proot_report = proot_check(ti)
        guarantee = proot_report.guarantee
        path = "proot" if guarantee != "none" else "main"
    else:
        guarantee = "none"
        path = "main"
    return ConditionReport(
        ti.p, ti.e, ti.n, ti.a, m_val, m0=m0_val,
        contained_in_zp=ti.contained_in_zp, guarantee=guarantee,
        status="ok", path=path, proot=proot_report, **ev,
    )


def proot_check(ti):
    """The degree-p^(n-1) fallback: drop the top break, cutoff l, level m0-1.

    Applicable only when n >= 3 and m0 >= 2; the certified guarantee is
    p^(m0-1) on success.
    """
    m0_val = m0(ti)
    if ti.n < 3 or m0_val is None or m0_val < 2:
        return ConditionReport(
            ti.p, ti.e, ti.n, ti.a, None, m0=m0_val, guarantee="none",
            status="not_applicable", path="proot",
            notes=("requires n >= 3 and m0 >= 2",),
        )
    psi = psi_from_breaks(ti.bd)
    j = psi(ti.bd.upper[-1])
    l = math.ceil(Fraction(ti.p - 1, ti.p) * j)
    sub_bd = BreakData(ti.p, ti.bd.e, ti.bd.upper[:-1])
    sub = TheoremInputs(ti.p, ti.e, ti.n - 1, sub_bd, a=l, contained_in_zp=True)
    m = m0_val - 1
    ev = _evaluate(sub, m)
    all_pass = ev["cond1"] and ev["cond2"] and ev["cond3"]
    guarantee = f"p^{m} (proot)" if all_pass else "none"
    return ConditionReport(
        sub.p, sub.e, sub.n, sub.a, m, m0=m0_val, guarantee=guarantee,
        status="ok", path="proot", l=l, contained_in_zp=ti.contained_in_zp, **ev,
    )
