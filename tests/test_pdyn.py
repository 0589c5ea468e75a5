import math
import random
from fractions import Fraction as F

import pytest

from ramforge import pdyn
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
    p_iterate,
    pad_compose,
    pad_iterate,
    qn_divide,
    reduce_mod_p,
    rn_values,
    weierstrass_degree,
)

from helpers import cyclotomic_padic, exact_int_compose, exact_series_divide, frac_mod, vp_frac


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
        assert it.coeffs[1] == pow(6, 5, 5**5)

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
            assert pad_iterate(u, k).coeffs[1] == pow(coeffs[1], k, p**4)

    def test_zero_gives_identity(self):
        u = cyclotomic_padic(5, 5, 8)
        assert pad_iterate(u, 0) == PadicSeries.x(5, 5, 8)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError):
            pad_iterate(PadicSeries(5, 3, 3, (1, 1, 0)), 2)

    @pytest.mark.parametrize("p, expected", [(2, 1), (3, 2), (5, 3)])
    def test_p_th_iterate_composition_count(self, monkeypatch, p, expected):
        calls = []

        def counting(compose):
            def wrapper(outer, inner):
                calls.append(1)
                return compose(outer, inner)

            return wrapper

        monkeypatch.setattr(TruncSeries, "compose", counting(TruncSeries.compose))
        monkeypatch.setattr(pdyn, "pad_compose", counting(pdyn.pad_compose))
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
        f = u - PadicSeries.x(5, 8, 10)
        assert weierstrass_degree(f) == 5  # i_0 + 1

    def test_undetermined(self):
        f = PadicSeries(5, 3, 4, (5, 10, 15, 20))
        assert weierstrass_degree(f) is None


class TestQnDivide:
    def test_constant_term_valuation(self):
        q1 = qn_divide(cyclotomic_padic(5, 8, 130), 1)
        c0 = q1.coeffs[0]
        assert c0 % 5**8 == (6**5 - 1) // 5 % 5**8
        assert c0 % 5 == 0 and (c0 // 5) % 5 != 0  # valuation exactly 1

    def test_weierstrass_degree(self):
        q1 = qn_divide(cyclotomic_padic(5, 8, 130), 1)
        assert weierstrass_degree(q1) == 20

    def test_tangent_to_identity_constant_is_p(self):
        # u = X + X^2 has u'(0) = 1; the level-1 quotient has constant term p
        u = PadicSeries(5, 6, 40, (0, 1, 1) + (0,) * 37)
        q1 = qn_divide(u, 1)
        assert q1.coeffs[0] == 5

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
        for k, (got, prec_k) in enumerate(zip(q1.coeffs, q1.coeff_prec)):
            if prec_k > 0:
                assert got % p**prec_k == frac_mod(oracle[k], p, prec_k), k

    def test_matches_exact_division_random_series(self):
        # exact integer iterates of random polynomial series, divided over Q
        rng = random.Random(13)
        for _ in range(12):
            p = rng.choice((5, 7))
            P = rng.choice((2, 3, 6))
            M = rng.randint(10, 18)
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
            assert q1.trunc == M - 1 - i0
            for k, (got, prec_k) in enumerate(zip(q1.coeffs, q1.coeff_prec)):
                if prec_k > 0:
                    assert got % p**prec_k == frac_mod(oracle[k], p, prec_k), k

    def test_matches_closed_form_cyclotomic(self):
        for p in (5, 7):
            P, M = 8, p**3 + 5
            q1 = qn_divide(cyclotomic_padic(p, P, M), 1)
            expected = closed_form_q1(p, P, q1.trunc)
            for k in range(q1.trunc):
                prec_k = q1.coeff_prec[k]
                if prec_k > 0:
                    assert q1.coeffs[k] % p**prec_k == expected[k] % p**prec_k, k

    def test_level_two_matches_closed_form(self):
        # same binomial identity one level up: Y = (1+X)^(a^p - 1) - 1 and
        # q_2 = sum C(S, i) Y^(i-1) with S = (a^(p^2)-1)/(a^p-1)
        import numpy as np

        p, P, M = 5, 8, 130
        a = 1 + p
        S = (a ** (p * p) - 1) // (a**p - 1)
        q2 = qn_divide(cyclotomic_padic(p, P, M), 2)
        trunc = q2.trunc
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
                assert q2.coeffs[k] % p**prec_k == expected[k] % p**prec_k, k

    def test_matches_naive_recursion_at_higher_precision(self):
        # second oracle: constant-term recursion run at a much larger P,
        # so its own precision loss still exceeds the claimed profile
        p, P_impl, M = 5, 6, 40
        u_hi = cyclotomic_padic(p, 40, M)
        x_hi = PadicSeries.x(p, 40, M)
        num = (pad_iterate(u_hi, p) - x_hi).coeffs[1:]
        den = (pad_iterate(u_hi, 1) - x_hi).coeffs[1:]
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
        for k in range(q1.trunc):
            prec_k = min(q1.coeff_prec[k], 30 - 1 - k // i0)
            if prec_k > 0:
                assert q1.coeffs[k] % p**prec_k == naive[k] % p**prec_k, k

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
        shifted = PadicSeries(5, 8, 9, (u - PadicSeries.x(5, 8, 10)).coeffs[1:])
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
        assert ext_quantities(7, 2, 1).predicted_valuation(3) == F(1, 686)
        with pytest.raises(ValueError):
            ext_quantities(7, 2, 1).predicted_valuation(2)


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

    def test_fixed_point_count_is_wd_of_iterate(self):
        # i_n + 1 equals the Weierstrass degree of u^(p^n)(X) - X
        u = cyclotomic_padic(5, 8, 130)
        rep = analyze(u, 2)
        for n, count in enumerate(rep.fixed_point_counts):
            it = pad_iterate(u, 5**n)
            assert weierstrass_degree(it - PadicSeries.x(5, 8, 130)) == count

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
        compose = pdyn.pad_compose
        monkeypatch.setattr(pdyn, "pad_compose", lambda f, g: calls.append(1) or compose(f, g))
        rep = analyze(u, 2)
        assert len(calls) == 4
        monkeypatch.undo()
        for n, level in enumerate(rep.levels, start=1):
            q = qn_divide(u, n)
            assert level.weierstrass_degree == weierstrass_degree(q) is not None
            assert level.polygon == newton_polygon(q, level.weierstrass_degree)

    def test_depths_read_off_the_iterate_chain(self, monkeypatch):
        # the depths are those of the Z/p^P chain's reductions mod p: no
        # composition over F_p, and still the chain's four pad_compose calls
        u = cyclotomic_padic(3, 8, 60)
        calls = {"pad_compose": 0, "TruncSeries.compose": 0}
        pad, series = pdyn.pad_compose, TruncSeries.compose

        def count(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(pdyn, "pad_compose", count("pad_compose", pad))
        monkeypatch.setattr(TruncSeries, "compose", count("TruncSeries.compose", series))
        rep = analyze(u, 2)
        assert calls == {"pad_compose": 4, "TruncSeries.compose": 0}
        assert rep.depths == (2, 8, 26)

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
            analyze(PadicSeries.x(5, 4, 20), 1)

    def test_low_precision_markers(self):
        u = PadicSeries(5, 2, 12, (0, 6, 5) + (0,) * 9)
        rep = analyze(u, 1)
        assert rep.depths == () and rep.depth_uncertified_at == 0
        assert rep.levels[0].note is not None
        assert rep.levels[0].weierstrass_degree is None

    def test_requires_one_unit_derivative(self):
        with pytest.raises(ValueError, match="1-unit"):
            analyze(PadicSeries(5, 4, 10, (0, 2) + (0,) * 8), 1)
