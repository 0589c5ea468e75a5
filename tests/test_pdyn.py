import hashlib
import json
import math
import random
from collections import deque
from dataclasses import replace
from fractions import Fraction as F

import pytest

from ramforge import _convolve, jsonio, nottingham, pdyn
from ramforge import (
    FiniteField,
    PadicSeries,
    PrecisionError,
    TruncSeries,
    analyze,
    compose_power,
    ext_quantities,
    lower_breaks,
    newton_polygon,
    p_chain,
    p_iterate,
    pad_compose,
    pad_iterate,
    qn_divide,
    reduce_mod_p,
    rn_values,
    weierstrass_degree,
)
from ramforge.gfseries import vp

from helpers import (
    cyclotomic_padic,
    exact_int_compose,
    exact_series_divide,
    formal_group_iterate,
    frac_mod,
    in_scope_closed_form,
    vp_frac,
)


def closed_form_q1(p, prec, trunc):
    """q_1 for the cyclotomic family by the binomial theorem in Y.

    With a = 1 + p and Y = (1+X)^(a-1) - 1, the quotient equals
    ((1+Y)^S - 1)/Y = sum_{i>=1} C(S, i) Y^(i-1) where S = (a^p-1)/(a-1);
    Y has X-valuation 1 so only i <= trunc + 1 contributes.
    """
    import numpy as np

    a = 1 + p
    S = (a**p - 1) // (a - 1)
    mod = p**prec
    Y = [math.comb(a - 1, k) % mod if 1 <= k <= a - 1 else 0 for k in range(trunc)]
    out = [0] * trunc
    ypow = [1] + [0] * (trunc - 1)
    for i in range(1, trunc + 2):
        c = math.comb(S, i) % mod
        for k in range(trunc):
            out[k] = (out[k] + c * ypow[k]) % mod
        full = np.convolve(np.asarray(ypow, dtype=np.int64), np.asarray(Y, dtype=np.int64))
        ypow = (full[:trunc] % mod).tolist()
        if not any(ypow):
            break
    return out


class TestPadIterate:
    def test_single(self):
        u = cyclotomic_padic(5, 5, 12)
        assert pad_iterate(u, 1) == u

    def test_linear_coefficient_multiplies(self):
        u = cyclotomic_padic(5, 5, 30)
        it = pad_iterate(u, 5)
        assert it.packed[1] == pow(6, 5, 5**5)

    def test_random_linear_coefficients(self):
        rng = random.Random(3)
        for _ in range(10):
            p = rng.choice((5, 7))
            trunc = rng.randint(4, 20)
            coeffs = [0, 1 + p * rng.randrange(p)] + [
                rng.randrange(p**4) for _ in range(trunc - 2)
            ]
            u = PadicSeries(p, 4, trunc, coeffs)
            k = rng.randint(1, 9)
            assert pad_iterate(u, k).packed[1] == pow(coeffs[1], k, p**4)

    def test_zero_gives_identity(self):
        u = cyclotomic_padic(5, 5, 8)
        assert pad_iterate(u, 0) == TruncSeries.x(FiniteField(5, prec=5), 8)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError):
            pad_iterate(PadicSeries(5, 3, 3, (1, 1, 0)), 2)

    # p = 5 composes onto u four times, where binary powering would take three
    @pytest.mark.parametrize("p, expected", [(2, 1), (3, 2), (5, 4)])
    def test_p_th_iterate_composition_count(self, monkeypatch, p, expected):
        calls = []

        def counting(compose):
            def wrapper(outer, inner):
                calls.append(1)
                return compose(outer, inner)

            return wrapper

        monkeypatch.setattr(TruncSeries, "compose", counting(TruncSeries.compose))
        u = cyclotomic_padic(p, 4, 12)
        it = pad_iterate(u, p)
        assert len(calls) == expected
        calls.clear()
        assert compose_power(reduce_mod_p(u), p) == reduce_mod_p(it)
        assert len(calls) == expected


class TestReduceModP:
    def test_cyclotomic(self):
        u = cyclotomic_padic(5, 8, 7)
        F5 = FiniteField(5)
        assert reduce_mod_p(u) == TruncSeries(F5, (0, 1, 0, 0, 0, 1, 1), 7)

    def test_p_divisible_terms_vanish(self):
        u = PadicSeries(5, 3, 3, (0, 1, 5))
        assert reduce_mod_p(u) == TruncSeries(FiniteField(5), (0, 1, 0), 3)

    def test_commutes_with_composition(self):
        rng = random.Random(7)
        for _ in range(10):
            trunc = rng.randint(4, 16)
            mk = lambda: PadicSeries(
                5, 4, trunc, [0] + [rng.randrange(5**4) for _ in range(trunc - 1)]
            )
            a, b = mk(), mk()
            assert reduce_mod_p(pad_compose(a, b)) == reduce_mod_p(a).compose(reduce_mod_p(b))

    def test_group_side_needs_the_reduction(self):
        # depths over Z/p^P would read 6X as a non-1-unit and give depth 0
        u = cyclotomic_padic(5, 8, 30)
        for call in (lambda: lower_breaks(u, 1), lambda: p_iterate(u, 1)):
            with pytest.raises(ValueError, match="reduce a Z/p"):
                call()
        assert lower_breaks(reduce_mod_p(u), 1).lower == (4, 24)

    def test_commutes_with_iteration(self):
        rng = random.Random(11)
        for _ in range(10):
            trunc = rng.randint(6, 24)
            u = PadicSeries(
                5, 4, trunc,
                [0, 1 + 5 * rng.randrange(5)] + [rng.randrange(5**4) for _ in range(trunc - 2)],
            )
            assert reduce_mod_p(pad_iterate(u, 5)) == p_iterate(reduce_mod_p(u), 1)


class TestWeierstrassDegree:
    def test_first_unit(self):
        f = PadicSeries(5, 3, 3, (5, 10, 3))
        assert weierstrass_degree(f) == 2

    def test_u_minus_x(self):
        u = cyclotomic_padic(5, 8, 10)
        f = u - TruncSeries.x(FiniteField(5, prec=8), 10)
        assert weierstrass_degree(f) == 5  # i_0 + 1

    def test_undetermined(self):
        f = PadicSeries(5, 3, 4, (5, 10, 15, 20))
        assert weierstrass_degree(f) is None


class TestQnDivide:
    def test_constant_term_valuation(self):
        q1 = qn_divide(cyclotomic_padic(5, 8, 130), 1)
        c0 = q1.series.packed[0]
        assert c0 % 5**8 == (6**5 - 1) // 5 % 5**8
        assert c0 % 5 == 0 and (c0 // 5) % 5 != 0  # valuation exactly 1

    def test_weierstrass_degree(self):
        q1 = qn_divide(cyclotomic_padic(5, 8, 130), 1)
        assert weierstrass_degree(q1) == 20

    def test_tangent_to_identity_constant_is_p(self):
        # u = X + X^2 has u'(0) = 1; the level-1 quotient has constant term p
        u = PadicSeries(5, 6, 40, (0, 1, 1) + (0,) * 37)
        q1 = qn_divide(u, 1)
        assert q1.series.packed[0] == 5

    def test_matches_exact_rational_division(self):
        # independent oracle: the p-th iterate of the cyclotomic series is
        # exactly (1+X)^(a^p) - 1, so divide over Q[[X]] and reduce
        p, P, M = 5, 6, 48
        a = 1 + p
        num = [F(math.comb(a**p, k + 1)) for k in range(M - 1)]
        den = [F(math.comb(a, k + 1)) for k in range(M - 1)]
        num[0] -= 1
        den[0] -= 1
        oracle = exact_series_divide(num, den, M - 1 - 4)
        q1 = qn_divide(cyclotomic_padic(p, P, M), 1)
        for k, (got, prec_k) in enumerate(zip(q1.series.packed, q1.coeff_prec)):
            if prec_k > 0:
                assert got % p**prec_k == frac_mod(oracle[k], p, prec_k), k

    def test_matches_exact_division_random_series(self):
        # exact integer iterates of random polynomial series, divided over Q
        rng = random.Random(13)
        # then rings whose divisions take the length split (Z/7^10 at 64
        # terms), halves (Z/3^20) and Kronecker (Z/3^40)
        for ring in [None] * 12 + [(7, 10, 64), (3, 20, 18), (3, 40, 18)]:
            p, P, M = ring or (rng.choice((5, 7)), rng.choice((2, 3, 6)), rng.randint(10, 18))
            coeffs = [0, 1 + p * rng.randrange(1, p)] + [
                rng.randrange(40) for _ in range(M - 2)
            ]
            acc = list(coeffs)
            for _ in range(p - 1):
                acc = exact_int_compose(acc, coeffs, M)
            num = [F(c) for c in acc[1:]]
            den = [F(c) for c in coeffs[1:]]
            num[0] -= 1
            den[0] -= 1
            i0 = next(k for k, c in enumerate(den) if vp_frac(c, p) == 0)
            oracle = exact_series_divide(num, den, M - 1 - i0)
            q1 = qn_divide(PadicSeries(p, P, M, coeffs), 1)
            assert q1.series.trunc == M - 1 - i0
            for k, (got, prec_k) in enumerate(zip(q1.series.packed, q1.coeff_prec)):
                if prec_k > 0:
                    assert got % p**prec_k == frac_mod(oracle[k], p, prec_k), k

    def test_matches_closed_form_cyclotomic(self):
        for p in (5, 7):
            P, M = 8, p**3 + 5
            q1 = qn_divide(cyclotomic_padic(p, P, M), 1)
            expected = closed_form_q1(p, P, q1.series.trunc)
            for k in range(q1.series.trunc):
                prec_k = q1.coeff_prec[k]
                if prec_k > 0:
                    assert q1.series.packed[k] % p**prec_k == expected[k] % p**prec_k, k

    def test_level_two_matches_closed_form(self):
        # same binomial identity one level up: Y = (1+X)^(a^p - 1) - 1 and
        # q_2 = sum C(S, i) Y^(i-1) with S = (a^(p^2)-1)/(a^p-1)
        import numpy as np

        p, P, M = 5, 8, 130
        a = 1 + p
        S = (a ** (p * p) - 1) // (a**p - 1)
        q2 = qn_divide(cyclotomic_padic(p, P, M), 2)
        trunc = q2.series.trunc
        mod = p**P
        Y = [math.comb(a**p - 1, k) % mod for k in range(trunc)]
        Y[0] = 0
        expected = [0] * trunc
        ypow = [1] + [0] * (trunc - 1)
        for i in range(1, trunc + 2):
            c = math.comb(S, i) % mod
            for k in range(trunc):
                expected[k] = (expected[k] + c * ypow[k]) % mod
            full = np.convolve(
                np.asarray(ypow, dtype=np.int64), np.asarray(Y, dtype=np.int64)
            )
            ypow = (full[:trunc] % mod).tolist()
            if not any(ypow):
                break
        for k in range(trunc):
            prec_k = q2.coeff_prec[k]
            if prec_k > 0:
                assert q2.series.packed[k] % p**prec_k == expected[k] % p**prec_k, k

    def test_matches_naive_recursion_at_higher_precision(self):
        # second oracle: constant-term recursion run at a much larger P,
        # so its own precision loss still exceeds the claimed profile
        p, P_impl, M = 5, 6, 40
        u_hi = cyclotomic_padic(p, 40, M)
        x_hi = TruncSeries.x(FiniteField(p, prec=40), M)
        num = (pad_iterate(u_hi, p) - x_hi).packed[1:]
        den = (pad_iterate(u_hi, 1) - x_hi).packed[1:]
        mod_hi = p**40
        i0 = 4
        naive = []
        for k in range(M - 1 - i0):
            s = num[k]
            for j in range(1, k + 1):
                if j < len(den):
                    s -= den[j] * naive[k - j]
            s %= mod_hi
            v = 0
            while s % p == 0 and v < 40:
                s //= p
                v += 1
            assert v >= 1  # den[0] has valuation 1; division must be exact
            naive.append((s * p ** (v - 1)) % mod_hi)
        q1 = qn_divide(cyclotomic_padic(p, P_impl, M), 1)
        for k in range(q1.series.trunc):
            prec_k = min(q1.coeff_prec[k], 30 - 1 - k // i0)
            if prec_k > 0:
                assert q1.series.packed[k] % p**prec_k == naive[k] % p**prec_k, k

    def test_divisor_without_unit_raises(self):
        u = PadicSeries(5, 3, 10, (0, 6, 5) + (0,) * 7)
        with pytest.raises(PrecisionError):
            qn_divide(u, 1)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            qn_divide(cyclotomic_padic(5, 4, 20), 0)

    @pytest.mark.parametrize("prec", [16, 20])
    def test_residual_checked_only_to_certified_digits(self, prec):
        # p = 3, M = 90, level 2: the divisor's pivot is i0 = 8, the quotient
        # is certified to 10-11 digits there and the residual below the
        # pivot has valuations 14-16, short of the full prec
        u = cyclotomic_padic(3, prec, 90)
        assert weierstrass_degree(qn_divide(u, 2)) == 18
        level = analyze(u, 2).levels[1]
        assert level.note is None
        assert level.weierstrass_degree == level.expected_wd == 18
        assert level.polygon.single_root_valuation == F(1, 18)

    @pytest.mark.parametrize("u, n", [
        (cyclotomic_padic(5, 8, 130), 1),
        (cyclotomic_padic(3, 16, 90), 2),
        (cyclotomic_padic(7, 5, 60), 1),
        (cyclotomic_padic(2, 12, 40), 2),
        (PadicSeries(5, 6, 20, (0, 2, 1) + (0,) * 17), 1),  # a unit divisor: i0 = 0
    ], ids=["p5", "p3-level2", "p7", "p2-level2", "unit"])
    def test_quotient_rounds_are_bounded(self, monkeypatch, u, n):
        # a round multiplies the error of q by a multiple of p^v_lo, so q is
        # exact after ceil(P / v_lo) rounds from q = 0; no round may follow
        # only to confirm it
        f, M = u.field, u.trunc
        prev, cur = deque(p_chain(u, n), maxlen=2)
        den = (prev - TruncSeries.x(f, M)).packed[1:]
        i0 = next(k for k, c in enumerate(den) if c % f.p)
        v_lo = min((vp(c, f.p, f.prec) for c in den[:i0]), default=f.prec)
        K = M - 1 - i0
        assert K != i0  # a round's quotient product is its only call of length K
        lengths = []
        conv, recip = _convolve.conv_mod, _convolve.recip_mod

        def recip_then_rounds(*args):
            # the reciprocal's own products may have length K too, and the
            # rounds follow it
            h = recip(*args)
            lengths.clear()
            return h

        monkeypatch.setattr(_convolve, "conv_mod", lambda a, b, m, mod: lengths.append(m) or conv(a, b, m, mod))
        monkeypatch.setattr(_convolve, "recip_mod", recip_then_rounds)
        pdyn._divide_level(prev, cur, n)
        assert 1 <= lengths.count(K) <= -(-f.prec // v_lo)

    def test_inexact_division_is_rejected(self):
        # the divisor p + X pivots on X, so the numerator 1 would need a
        # quotient with q_0 * p = 1
        p, P, M = 5, 6, 12
        prev = PadicSeries(p, P, M, (0, 1 + p, 1) + (0,) * (M - 3))
        cur = PadicSeries(p, P, M, (0, 2) + (0,) * (M - 2))
        with pytest.raises(ValueError, match="inexact"):
            pdyn._divide_level(prev, cur, 1)


class TestNewtonPolygon:
    def test_textbook_quadratic(self):
        f = PadicSeries(5, 6, 3, (-5, 0, 1))
        poly = newton_polygon(f, 2)
        assert poly.vertices == ((0, F(1)), (2, F(0)))
        assert poly.segments[0].root_valuation == F(1, 2) and poly.segments[0].length == 2

    def test_shifted_u_minus_x(self):
        u = cyclotomic_padic(5, 8, 10)
        shifted = PadicSeries(5, 8, 9, (u - TruncSeries.x(FiniteField(5, prec=8), 10)).packed[1:])
        poly = newton_polygon(shifted, 4)
        assert poly.single_root_valuation == F(1, 4)

    def test_q1_single_segment(self):
        q1 = qn_divide(cyclotomic_padic(5, 8, 130), 1)
        poly = newton_polygon(q1, 20)
        assert poly.single_root_valuation == F(1, 20)
        assert poly.segments[0].length == 20

    def test_two_segment_polygon(self):
        # X^3 + pX + p^2: hull (0,2) -> (1,1) -> (3,0)
        f = PadicSeries(7, 5, 4, (49, 7, 0, 1))
        poly = newton_polygon(f, 3)
        assert poly.vertices == ((0, F(2)), (1, F(1)), (3, F(0)))
        assert [s.root_valuation for s in poly.segments] == [F(1), F(1, 2)]

    def test_uncertified_hull_candidate_raises(self):
        # constant term is 0 mod p^2 so its valuation bound sits on the hull
        f = PadicSeries(5, 2, 3, (0, 0, 1))
        with pytest.raises(PrecisionError):
            newton_polygon(f, 2)

    def test_valuation_mass_equals_constant_valuation(self):
        for p in (5, 7):
            q1 = qn_divide(cyclotomic_padic(p, 8, p**3 + 5), 1)
            wd = weierstrass_degree(q1)
            poly = newton_polygon(q1, wd)
            mass = sum(s.root_valuation * s.length for s in poly.segments)
            assert mass == 1


class TestRnValues:
    def test_formula(self):
        rn, _ = rn_values(5, [4, 24, 124])
        assert rn == (4, 20, 100)

    def test_snbound(self):
        rn, flags = rn_values(5, [4, 24, 124], d=4)
        assert flags == (True, True, True)
        assert rn[1] == 20 > 4 * (5 - 1)

    def test_single(self):
        assert rn_values(5, [4])[0] == (4,)


class TestExtQuantities:
    def test_admissible(self):
        q = ext_quantities(7, 2, 1)
        assert q.t == 1 and q.admissible

    def test_inadmissible_index(self):
        assert not ext_quantities(5, 4, 1).admissible

    def test_predicted_valuation(self):
        q = ext_quantities(7, 2, 1)
        assert q.predicted_valuation(3) == F(1, 686)
        # stated for n >= 3 and admissible d, e; below, the value is still
        # given, and the scope predicate says it is outside
        assert q.predicted_valuation(2) == F(1, 98)
        assert [q.in_scope(n) for n in (1, 2, 3, 4)] == [False, False, True, True]
        assert not any(ext_quantities(5, 4, 1).in_scope(n) for n in (1, 3, 10))


def in_scope_case(p, d, P, M, levels, draw=None):
    """A case of the in-scope family, its id the numbers and the draw."""
    name = "-".join(map(str, (p, d, P, M, levels))) + ("" if draw is None else f"-draw{draw}")
    return pytest.param(p, d, P, M, levels, draw, id=name)


class TestAnalyze:
    def test_cyclotomic_end_to_end(self):
        rep = analyze(cyclotomic_padic(5, 8, 130), 2)
        assert rep.depths == (4, 24, 124)
        assert rep.upper == (4, 8, 12)
        assert rep.fixed_point_counts == (5, 25, 125)
        assert rep.index.d == 4 and rep.index.status == "determined"
        lv1 = rep.levels[0]
        assert lv1.weierstrass_degree == 20 and lv1.wd_matches
        assert lv1.constant_valuation == 1 and lv1.constant_matches
        assert lv1.polygon.single_root_valuation == F(1, 20)
        assert lv1.single_segment_matches
        assert rep.rn == (4, 20, 100) and rep.snbound == (True, True, True)

    @pytest.mark.parametrize("p, P, M, n_max", [(5, 8, 100, 2), (3, 10, 120, 3), (7, 9, 100, 2)])
    def test_invariant_under_conjugation(self, p, P, M, n_max):
        # h = X + p c(X) reduces to X mod p, and maps the periodic points of
        # u to those of h^-1 o u o h without changing their valuations
        u = cyclotomic_padic(p, P, M)
        rng = random.Random(p)
        want = analyze(u, n_max)
        for _ in range(3):
            h = TruncSeries(u.field, [0, 1] + [p * rng.randrange(p ** (P - 1)) for _ in range(M - 2)], M)
            v = h.comp_inverse().compose(u.compose(h))
            assert v != u
            got = analyze(v, n_max)
            assert (got.depths, got.upper) == (want.depths, want.upper)
            compared = 0
            for a, b in zip(got.levels, want.levels):
                if None not in (a.weierstrass_degree, b.weierstrass_degree):
                    assert a.weierstrass_degree == b.weierstrass_degree
                    compared += 1
                if None not in (a.polygon, b.polygon):
                    assert a.polygon == b.polygon
                    compared += 1
            assert compared >= 2

    def test_fixed_point_count_is_wd_of_iterate(self):
        # i_n + 1 equals the Weierstrass degree of u^(p^n)(X) - X
        u = cyclotomic_padic(5, 8, 130)
        rep = analyze(u, 2)
        for n, count in enumerate(rep.fixed_point_counts):
            it = pad_iterate(u, 5**n)
            assert weierstrass_degree(it - TruncSeries.x(FiniteField(5, prec=8), 130)) == count

    @pytest.mark.parametrize("p, d, P, M, levels, draw", [
        in_scope_case(5, 1, 8, 800, 4), in_scope_case(5, 3, 8, 500, 3), in_scope_case(7, 1, 6, 500, 3),
    ] + [in_scope_case(p, d, 6, in_scope_closed_form(p, d, 3)[0][3] + 32, 3, draw)
         for p, d in ((5, 1), (5, 2), (5, 3), (7, 1), (7, 2)) for draw in (0, 1)])
    def test_in_scope_family_matches_the_closed_form(self, p, d, P, M, levels, draw):
        # u = (1 + p)X + X^(d+1), p-multiples added from X^2 on: the
        # reduction, and so the closed form, is unchanged; the theorem's
        # scope starts at level 3, and every level inside it and below it
        # has the predicted single Newton segment and constant valuation.
        # A draw takes u = aX + cX^(d+1) + p-multiples at every other
        # degree, a = 1 + p*r (r = 0 mod p in draw 0) and c a random unit:
        # X + cX^(d+1) is conjugate to X + X^(d+1), so the closed form holds
        rng = random.Random(f"in-scope:{p}:{d}" + ("" if draw is None else f":{draw}"))
        coeffs = [0, 1 + p] + [p * rng.randrange(p ** (P - 1)) for _ in range(M - 2)]
        coeffs[d + 1] += 1
        if draw is not None:
            r = rng.randrange(p ** (P - 1))
            coeffs[1] = 1 + p * (p * r if draw == 0 else r)
            coeffs[d + 1] = rng.randrange(1, p) + p * rng.randrange(p ** (P - 1))
        rep = analyze(PadicSeries(p, P, M, coeffs), levels)
        depths, degrees = in_scope_closed_form(p, d, levels)
        assert rep.depths == tuple(depths) and rep.depth_uncertified_at is None
        assert [lv.n for lv in rep.levels] == list(range(1, levels + 1))
        assert [lv.weierstrass_degree for lv in rep.levels] == degrees
        assert all(lv.wd_matches for lv in rep.levels)
        assert all(lv.constant_matches is True for lv in rep.levels)
        assert [lv.prediction_in_scope for lv in rep.levels] == [lv.n >= 3 for lv in rep.levels]
        assert all(lv.single_segment_matches is True for lv in rep.levels)

    def test_level_three_valuation_law(self):
        # the exact-period valuation 1/(d*p^n) is a theorem only for n >= 3
        rep = analyze(cyclotomic_padic(5, 8, 640), 3)
        assert rep.depths == (4, 24, 124, 624)
        lv = rep.levels[2]
        assert lv.weierstrass_degree == lv.expected_wd == 500
        assert lv.polygon.single_root_valuation == F(1, 500)
        assert lv.single_segment_matches and lv.constant_valuation == 1

    def test_levels_share_one_iterate_chain(self, monkeypatch):
        # u^3 from u and u^9 from u^3, two compositions each; rebuilding
        # u^3 for level 2 would make 6
        u = cyclotomic_padic(3, 8, 60)
        calls = []
        compose = TruncSeries.compose
        monkeypatch.setattr(TruncSeries, "compose", lambda f, g: calls.append(1) or compose(f, g))
        rep = analyze(u, 2)
        assert len(calls) == 4
        monkeypatch.undo()
        for n, level in enumerate(rep.levels, start=1):
            q = qn_divide(u, n)
            assert level.weierstrass_degree == weierstrass_degree(q) is not None
            assert level.polygon == newton_polygon(q, level.weierstrass_degree)

    def test_depths_read_off_the_iterate_chain(self, monkeypatch):
        # the depths are those of the Z/p^P chain's reductions mod p: no
        # composition over F_p, only the chain's four over Z/3^8
        u = cyclotomic_padic(3, 8, 60)
        rings = []
        compose = TruncSeries.compose
        monkeypatch.setattr(TruncSeries, "compose", lambda f, g: rings.append(f.field) or compose(f, g))
        rep = analyze(u, 2)
        assert rings == [FiniteField(3, prec=8)] * 4
        assert rep.depths == (2, 8, 26)

    def test_chain_stops_at_x(self, monkeypatch):
        # mod (5^8, X^130) every link of (1+X)^6 - 1 from level 10 on is X:
        # 64 levels, the most a report lists, build links 1 .. 10, and every
        # level past the first whose two links are X reports as that one
        u = cyclotomic_padic(5, 8, 130)
        calls = []
        build = nottingham.compose_power
        monkeypatch.setattr(nottingham, "compose_power", lambda *args: calls.append(1) or build(*args))
        rep = analyze(u, 64)
        assert len(calls) <= 10
        monkeypatch.undo()
        short = analyze(u, 20)
        assert rep.levels[:20] == short.levels and len(rep.levels) == 64
        assert rep.depths == short.depths and rep.notes == short.notes
        assert all(level == replace(short.levels[-1], n=n)
                   for n, level in enumerate(rep.levels[19:], start=20))

    # SHA-256 of the JSON reports without prediction_in_scope, as the
    # analysis gave them when every level composed its links and divided
    # them anew
    REPORTS = {
        (5, 8, 130, 1): "60aea2915268fecf002ca2cbab81a3db39d30c55cfd077ba69f1d979863ef5d7",
        (5, 8, 130, 2): "53043919ce2008e7fcbd14e8089a727d0ae4686a35387a1c2e272c6711f17deb",
        (5, 8, 130, 5): "94debc9b857e86cc20c9664b620f4677abd50cf9bffa8068d8dab6be06b21e9b",
        (5, 8, 130, 20): "0c4aabc8246cb33997725a23e4cd84e1b98c3d39b06194c84f1bdf4d5960995b",
        (5, 8, 130, 40): "6bf864676fd4f8cf60f25b97f5ba0678288aaf6dfcdecefe9a3a69606270b862",
        (3, 20, 90, 1): "4a5a5feaf05c8b22d44a0fe6d2e3fabf40f31d25957555b62efa1b64dd82652d",
        (3, 20, 90, 2): "36b0a2280aafa8be9c57908d829f09630dd21d81a7ae6c1084202a9cfe4163a4",
        (3, 20, 90, 5): "55c0b76704b2fb408e98592b43d4ef9ce721284e58823bd26dc253342838fef4",
        (3, 20, 90, 20): "18a08a752a10865bff6f9ceda3d1f8d5a5b6e3748a6736134b0e57954cbab09c",
        (3, 20, 90, 30): "19fbef79801290c1b6bb603480709a88475f1f44ea759176fc8148ee642ce76f",
    }

    @pytest.mark.parametrize("p, prec, trunc, n_max", sorted(REPORTS))
    def test_reports_are_unchanged(self, p, prec, trunc, n_max):
        # the chain of (1+X)^4 - 1 mod (3^20, X^90) reaches X at level 23
        doc = jsonio.dynamics_report_out(analyze(cyclotomic_padic(p, prec, trunc), n_max))
        # d = p - 1 is outside the admissible indices at every level; an
        # unavailable level states no prediction
        scope = [lv.pop("prediction_in_scope") for lv in doc["levels"]]
        assert scope == [None if lv["predicted_root_valuation"] is None else False for lv in doc["levels"]]
        text = json.dumps(doc, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.REPORTS[p, prec, trunc, n_max]

    def test_depths_match_lower_breaks(self):
        rng = random.Random(71)
        cases = [(cyclotomic_padic(3, 8, 60), 2), (cyclotomic_padic(5, 8, 30), 2), (cyclotomic_padic(5, 8, 130), 2),
                 (PadicSeries(5, 2, 12, (0, 6, 5) + (0,) * 9), 1)]
        for p in (2, 3, 5):
            for trunc in (8, 20, 40):
                coeffs = [0, 1 + p * rng.randrange(p)] + [rng.randrange(p**4) for _ in range(trunc - 2)]
                coeffs[2 + rng.randrange(trunc // 4)] += 1  # mostly a low, certified depth
                cases.append((PadicSeries(p, 4, trunc, coeffs), 3))
        outcomes = set()
        for u, n_max in cases:
            rep = analyze(u, n_max)
            try:
                want = (lower_breaks(reduce_mod_p(u), n_max).lower, None, ())
            except PrecisionError as exc:
                note = f"depth at level {exc.level} uncertified at truncation {u.trunc}"
                want = (exc.partial, exc.level, (note,))
            assert (rep.depths, rep.depth_uncertified_at, rep.notes) == want
            outcomes.add(want[1])
        assert {None, 0, 1, 2} <= outcomes  # certified, and uncertified at levels 0, 1 and 2

    def test_identity_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            analyze(TruncSeries.x(FiniteField(5, prec=4), 20), 1)

    def test_low_precision_markers(self):
        u = PadicSeries(5, 2, 12, (0, 6, 5) + (0,) * 9)
        rep = analyze(u, 1)
        assert rep.depths == () and rep.depth_uncertified_at == 0
        assert rep.levels[0].note is not None
        assert rep.levels[0].weierstrass_degree is None

    def test_rejects_extension_field_series(self):
        g = TruncSeries(FiniteField(2, 2, (1, 1, 1)), (0, 1, 1, 0))
        calls = (lambda: analyze(g, 1), lambda: qn_divide(g, 1), lambda: weierstrass_degree(g),
                 lambda: newton_polygon(g, 2))
        for call in calls:
            with pytest.raises(ValueError, match=r"Z/p\^P"):
                call()

    def test_requires_one_unit_derivative(self):
        with pytest.raises(ValueError, match="1-unit"):
            analyze(PadicSeries(5, 4, 10, (0, 2) + (0,) * 8), 1)


class TestFormalGroupOracle:
    """The cyclotomic family u = (1+X)^(p+1) - 1 is [p+1] of the
    multiplicative formal group, whose p^n-th iterate is known in closed
    form (``helpers.formal_group_iterate``), and so are its periodic
    points (J. Lubin, Compositio Math. 94, 1994): i_n = p^(n+1) - 1, d =
    p - 1, Weierstrass degree p^n (p - 1) and one root valuation
    1/((p - 1) p^n)."""

    # products mod 5^8 take the direct method at every length here, mod
    # 7^10 direct, split and halves by length, mod 3^20 halves and mod
    # 3^40 Kronecker
    CASES = [(5, 8, 2000, 2), (7, 10, 1000, 2), (3, 20, 2000, 3), (3, 40, 600, 3)]

    @pytest.mark.parametrize("p, prec, trunc, n", CASES)
    def test_chain(self, p, prec, trunc, n):
        chain = p_chain(cyclotomic_padic(p, prec, trunc), n)
        for k, link in enumerate(chain):
            assert list(link.packed) == formal_group_iterate(p + 1, p, k, prec, trunc)

    @pytest.mark.parametrize("p, prec, trunc, n", CASES)
    def test_analyze(self, p, prec, trunc, n):
        # at 1,000 terms every product takes the method it takes at 2,000
        rep = analyze(cyclotomic_padic(p, prec, min(trunc, 1000)), n)
        assert rep.depths == tuple(p ** (k + 1) - 1 for k in range(n + 1))
        assert rep.index.d == p - 1 and not ext_quantities(p, p - 1, 1).admissible
        for lv in rep.levels:
            k = lv.n
            assert lv.note is None and lv.weierstrass_degree == p**k * (p - 1)
            assert lv.constant_valuation == 1
            # d = p - 1 lies outside the theorem's admissible indices: the
            # match is an observation, and Lubin's closed form explains it
            assert lv.prediction_in_scope is False and lv.single_segment_matches is True
            assert lv.polygon.single_root_valuation == F(1, (p - 1) * p**k)

    def test_p_2_level_1_is_an_outside_scope_mismatch(self):
        # at p = 2, (1+X)^3 - 1 has depths 1, 7, 15, 31, not 2^(n+1) - 1,
        # and d = 2; level 1 has two segments, at 1/2 and 1/4, against the
        # prediction 1/4, which is outside the scope at every level
        rep = analyze(PadicSeries(2, 10, 100, formal_group_iterate(3, 2, 0, 10, 100)), 3)
        assert rep.depths == (1, 7, 15, 31) and rep.index.d == 2
        level = rep.levels[0]
        assert [s.root_valuation for s in level.polygon.segments] == [F(1, 2), F(1, 4)]
        assert level.predicted_root_valuation == F(1, 4)
        assert level.prediction_in_scope is False and level.single_segment_matches is False
        assert [lv.prediction_in_scope for lv in rep.levels] == [False] * 3

    @pytest.mark.parametrize("a, level_1", [(3, 2), (5, 1), (7, 3)])
    def test_p_2_constant_term_lifts_the_exponent(self, a, level_1):
        # the constant term of level 1 is (a^2 - 1)/(a - 1) = a + 1, of
        # valuation v_2(a + 1): 2 for (1+X)^3 - 1, 1 for (1+X)^5 - 1 and 3
        # for (1+X)^7 - 1; from level 2 on each squaring adds exactly 1
        rep = analyze(PadicSeries(2, 10, 100, formal_group_iterate(a, 2, 0, 10, 100)), 3)
        assert [lv.expected_constant_valuation for lv in rep.levels] == [level_1, 1, 1]
        assert [lv.constant_valuation for lv in rep.levels] == [level_1, 1, 1]
        assert all(lv.constant_matches for lv in rep.levels)

    def test_p_2_constant_term_unproved_mod_2(self):
        # over Z/2, a = 1 mod 2 says nothing of v_2(a + 1): no expectation at
        # level 1, and the usual one from level 2 on
        rep = analyze(PadicSeries(2, 1, 100, formal_group_iterate(3, 2, 0, 1, 100)), 2)
        assert [lv.expected_constant_valuation for lv in rep.levels] == [None, 1]
        assert all(lv.constant_matches is None for lv in rep.levels)
