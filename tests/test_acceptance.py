"""Acceptance suite: one criterion per test, one pass/fail line each.

Every assertion is exact (rational or integer equality); there are no
tolerances anywhere.  Run with -s to see the per-criterion lines.
"""

import math
import random
import time
from fractions import Fraction as F

from ramforge import (
    BreakData,
    FiniteField,
    PadicSeries,
    PrecisionError,
    TheoremInputs,
    TruncSeries,
    analyze,
    check_conditions,
    compose_morphism,
    extract_yhz,
    f_shift,
    f_shift_sum_check,
    identity_morphism,
    lower_break_formula,
    lower_breaks,
    m0,
    pad_iterate,
    p_iterate,
    phi_from_breaks,
    psi_from_breaks,
    psi_ie_formula,
    r_equivalent,
    reduce_mod_p,
    rn_values,
    tame_params,
    upper_from_lower,
)
from ramforge.truncation import TruncMorphism, TruncObject

from helpers import cyclotomic_padic, cyclotomic_reduction, random_break_data


def report(number, label, started):
    print(f"ACCEPTANCE {number:2d}: PASS [{time.time() - started:6.2f}s] {label}")


def test_criterion_01_shift_sum_identity():
    started = time.time()
    for p in (5, 7, 11):
        for e in range(1, p):
            tp = tame_params(p, e)
            for m in (1, 2, 3):
                window = sum(
                    f_shift(tp, m, t)
                    for t in range(tp.e0 * p**m, (tp.e0 + tp.s) * p**m)
                )
                assert window == (m + 1) * tp.e0 * (p ** (m + 1) - p**m)
                assert f_shift_sum_check(tp, m)
    report(1, "shift-function window sum equals (m+1)e0(p^(m+1)-p^m) exactly", started)


def test_criterion_02_cyclotomic_depth_oracle():
    started = time.time()
    for p in (5, 7):
        g = cyclotomic_reduction(p, p**3 + 5)
        rs = lower_breaks(g, 2)
        assert rs.lower == (p - 1, p**2 - 1, p**3 - 1)
    report(2, "certified depths of the cyclotomic family equal p^(n+1)-1", started)


def test_criterion_03_sen_integrality():
    started = time.time()
    checked = fully_certified = 0
    for p in (2, 3, 5):
        field = FiniteField(p)
        rng = random.Random(1000 + p)
        for _ in range(200):
            coeffs = [0, 1] + [rng.randrange(p) for _ in range(398)]
            g = TruncSeries(field, coeffs[:120], 120)
            try:
                lower = lower_breaks(g, 2).lower
                fully_certified += 1
            except PrecisionError:
                g = TruncSeries(field, coeffs, 400)
                try:
                    lower = lower_breaks(g, 2).lower
                    fully_certified += 1
                except PrecisionError as exc:
                    lower = exc.partial
            upper_from_lower(p, lower)  # raises SenViolationError on failure
            checked += 1
    assert checked == 600 and fully_certified >= 550
    report(3, f"no Sen violation in {checked} random generators "
              f"({fully_certified} fully certified to n = 2)", started)


def test_criterion_04_transfer_function_coherence():
    started = time.time()
    rng = random.Random(4040)
    for _ in range(500):
        bd = random_break_data(rng)
        psi, phi = psi_from_breaks(bd), phi_from_breaks(bd)
        for b in psi.breakpoints:
            assert phi(psi(b)) == b
        for _ in range(50):
            x = F(rng.randint(0, 600), rng.randint(1, 48))
            assert phi(psi(x)) == x
        yhz = extract_yhz(bd)
        for i in range(yhz.h, bd.n):
            assert lower_break_formula(bd, yhz, i) == psi(yhz.y + (i - yhz.h) * bd.e)
        for i in range(0, bd.n - yhz.h):
            assert psi_ie_formula(bd, yhz, i) == psi((i + 1) * bd.e)
    report(4, "phi o psi = id and the closed break formulas match exact "
              "piecewise-linear evaluation on 500 randomized break data", started)


def test_criterion_05_m0_reproduction():
    started = time.time()
    for p in (5, 7, 11):
        for n in range(2, 9):
            bd = BreakData(p, 1, tuple(range(1, n + 1)))
            assert m0(TheoremInputs(bd)) == n - 1
    report(5, "m0 = n-1 for the forced break pattern over e = 1", started)


def test_criterion_06_condition_soundness():
    started = time.time()
    rng = random.Random(6060)
    passed = 0
    while passed < 200:
        bd = random_break_data(rng, primes=(5, 7, 11, 13), n_max=5)
        ti = TheoremInputs(bd)
        if m0(ti) in (None, 0):
            continue  # the guarantee is vacuous below m = 1
        rep = check_conditions(ti)
        assert rep.all_pass and rep.guarantee == f"p^{rep.m}", (bd, rep)
        passed += 1
    report(6, "all three conditions pass at (a = e*p^n, m = m0) on 200 "
              "randomized admissible break data", started)


def test_criterion_07_dynamics_end_to_end():
    started = time.time()
    for p in (5, 7):
        u = cyclotomic_padic(p, 8, p**3 + 5)
        rep = analyze(u, 1)
        lv = rep.levels[0]
        assert lv.weierstrass_degree == rep.depths[1] - rep.depths[0] == p * (p - 1)
        assert lv.polygon is not None and len(lv.polygon.segments) == 1
        assert lv.polygon.single_root_valuation == F(1, (p - 1) * p)
        assert lv.constant_valuation == 1
    report(7, "q_1 Weierstrass degree, single-segment polygon at 1/((p-1)p), "
              "and unit constant-term valuation for p in {5, 7}", started)


def test_criterion_08_rn_and_snbound():
    started = time.time()
    for p in (5, 7):
        lower = (p - 1, p**2 - 1, p**3 - 1)
        rn, flags = rn_values(p, lower, d=p - 1)
        assert rn == tuple(math.ceil(F((p - 1) * i, p)) for i in lower)
        assert flags == (True, True, True)
    report(8, "r_n = ceil((p-1)i_n/p) with r_n > d(p^n - 1) on cyclotomic data", started)


def test_criterion_09_category_laws():
    started = time.time()
    rng = random.Random(9090)
    F5 = FiniteField(5)
    for _ in range(100):
        lens = [1, 2, 6, 12]
        objs = [TruncObject(F5, e) for e in lens]
        morphs = []
        for src, dst in zip(objs, objs[1:]):
            eta = dst.element([rng.randrange(1, 5)] + [rng.randrange(5) for _ in range(dst.e - 1)])
            morphs.append(TruncMorphism(src, dst, dst.e // src.e, rng.randrange(1), eta))
        f, g, h = morphs
        assert compose_morphism(h, compose_morphism(g, f)) == compose_morphism(
            compose_morphism(h, g), f
        )
        assert compose_morphism(f, identity_morphism(objs[0])) == f
        assert compose_morphism(identity_morphism(objs[1]), f) == f
    src, dst = TruncObject(F5, 2), TruncObject(F5, 8)
    fs = [
        TruncMorphism(src, dst, 4, 0,
                      dst.element([rng.randrange(1, 5)] + [rng.randrange(5) for _ in range(7)]))
        for _ in range(10)
    ]
    for c in (1, 2):
        for a in fs:
            assert r_equivalent(a, a, c)
            for b in fs:
                assert r_equivalent(a, b, c) == r_equivalent(b, a, c)
                if c == 2 and r_equivalent(a, b, 2):
                    assert r_equivalent(a, b, 1)
                for d in fs:
                    if r_equivalent(a, b, c) and r_equivalent(b, d, c):
                        assert r_equivalent(a, d, c)
    report(9, "category laws on 100 random triples; R(c) equivalence axioms "
              "and monotonicity in c", started)


def test_criterion_10_cross_module_commutation():
    started = time.time()
    rng = random.Random(1010)
    for _ in range(50):
        coeffs = [0, 1 + 5 * rng.randrange(5)] + [rng.randrange(5**4) for _ in range(58)]
        u = PadicSeries(5, 4, 60, coeffs)
        assert reduce_mod_p(pad_iterate(u, 5)) == p_iterate(reduce_mod_p(u), 1)
    report(10, "reduction mod p commutes with p-fold iteration on 50 random series", started)
