import itertools
import random
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ramforge import (
    BreakData,
    PLFunc,
    TheoremInputs,
    check_conditions,
    extract_yhz,
    f_shift,
    f_shift_sum_check,
    g_floor,
    m0,
    phi_from_breaks,
    proot_check,
    psi_from_breaks,
    psi_ML_lower_bound,
    q_r_values,
    tame_params,
)
from ramforge import InvariantError, ramcheck
from ramforge.gfseries import vp
from ramforge.ramcheck import phi_EK_closed_form

from helpers import (
    f_shift_window_sum,
    fraction_ces_floor,
    literal_psi_ML_bound,
    random_break_data,
    scan_m0,
    t0_f_shift,
)


def ladder(p, n, e=1):
    """The forced break pattern over an unramified-style base."""
    return BreakData(p, e, tuple(range(1, n + 1)))


class TestTameParams:
    def test_unramified(self):
        tp = tame_params(5, 1)
        assert (tp.s, tp.e0) == (4, 1)

    def test_shared_factor(self):
        tp = tame_params(7, 3)
        assert (tp.s, tp.e0) == (2, 1)

    def test_full_gcd(self):
        tp = tame_params(5, 4)
        assert (tp.s, tp.e0) == (1, 1)

    def test_rejects_wild_base(self):
        with pytest.raises(ValueError):
            tame_params(5, 10)


class TestFShift:
    def test_mid_case(self):
        assert f_shift(tame_params(5, 1), 1, 9) == 4

    def test_zero_offset(self):
        assert f_shift(tame_params(5, 1), 1, 5) == 24

    def test_off_lattice(self):
        assert f_shift(tame_params(5, 1), 1, 6) == 0

    def test_periodicity(self):
        rng = random.Random(3)
        for p in (5, 7, 11):
            for e in range(1, p):
                tp = tame_params(p, e)
                for m in (1, 2):
                    period = tp.s * p**m
                    for _ in range(20):
                        t = rng.randint(-2 * period, 3 * period)
                        assert f_shift(tp, m, t) == f_shift(tp, m, t + period)

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(p=st.sampled_from((2, 3, 5, 7, 11, 13)), e=st.integers(1, 40), m=st.integers(1, 12),
           a=st.integers(-10**6, 10**6), j=st.integers(0, 15), offset=st.booleans())
    @example(p=5, e=4, m=3, a=0, j=0, offset=False)  # t = 0: level m
    @example(p=5, e=4, m=3, a=0, j=0, offset=True)   # t0 = 0: level m
    def test_matches_the_level_of_t0(self, p, e, m, a, j, offset):
        # t = a*p^j, or e0*p^m + a*p^j, reaches every level of t0 up to and past m
        assume(e % p)
        tp = tame_params(p, e)
        t = a * p**j + (tp.e0 * p**m if offset else 0)
        assert f_shift(tp, m, t) == t0_f_shift(tp, m, t)

    def test_low_level_at_any_m(self):
        # t = 25 is at level 2 for every m > 2, so its value needs no p^m;
        # t = 0 is at level m, whose value is refused past the work bound
        tp = tame_params(5, 4)
        started = time.perf_counter()
        assert f_shift(tp, 10**9, 25) == 124
        with pytest.raises(ValueError, match="too large for the level-m value"):
            f_shift(tp, 10**9, 0)
        assert time.perf_counter() - started < 1


class TestFShiftSumCheck:
    def test_small_window_by_enumeration(self):
        tp = tame_params(5, 1)
        window = [f_shift(tp, 1, t) for t in range(5, 25)]
        assert sum(window) == 40 and sorted(set(window)) == [0, 4, 24]
        assert f_shift_sum_check(tp, 1)

    def test_p7(self):
        tp = tame_params(7, 1)
        assert f_shift_sum_check(tp, 1)
        assert sum(f_shift(tp, 1, t) for t in range(7, 49)) == 84

    def test_sweep(self):
        for p in (5, 7, 11):
            for e in range(1, p):
                tp = tame_params(p, e)
                for m in (1, 2, 3):
                    assert f_shift_sum_check(tp, m)

    @pytest.mark.parametrize("p, e, m", [(2, 1, 3), (3, 1, 2), (3, 2, 3), (5, 1, 2), (5, 2, 2),
                                         (7, 3, 2), (11, 4, 1)])
    def test_classes_against_the_window_sum(self, monkeypatch, p, e, m):
        # f_shift and the check both read t0 = t - e0*p^m only through its
        # class: not divisible by s (None), or its level v <= m.  Class values
        # raised on one class and lowered on another, so that the t-by-t sum
        # of f_shift is kept or moved, get that sum's verdict from the check.
        tp = tame_params(p, e)
        expected = (m + 1) * tp.e0 * (p ** (m + 1) - p**m)

        def cls(t):
            t0 = t - tp.e0 * p**m
            return None if t0 % tp.s else vp(t0, p, m)

        sizes = Counter(cls(t) for t in range(tp.e0 * p**m, (tp.e0 + tp.s) * p**m))
        class_value = ramcheck._class_value
        for a, b in itertools.permutations(sizes, 2):
            for weight, kept in ((sizes[b], True), (sizes[b] + 1, False)):
                def shifted(tp_, v, a=a, b=b, weight=weight):
                    return class_value(tp_, v) + (weight if v == a else -sizes[a] if v == b else 0)

                monkeypatch.setattr(ramcheck, "_class_value", shifted)
                assert (f_shift_window_sum(f_shift, tp, m) == expected) is kept
                assert f_shift_sum_check(tp, m) is kept

    def test_work_bound_is_fixed(self):
        # p^(m+1) for p = 10007 passes 4300 digits between m = 1073 and 1074;
        # the bound does not move with the interpreter's printing limit
        tp = tame_params(10007, 1)
        limit = sys.get_int_max_str_digits()
        try:
            for setting in (0, 640, 10**5):
                sys.set_int_max_str_digits(setting)
                assert f_shift_sum_check(tp, 1073)
                with pytest.raises(ValueError, match="too large for the sum check"):
                    f_shift_sum_check(tp, 1074)
        finally:
            sys.set_int_max_str_digits(limit)


class TestGFloor:
    def test_above_boundary(self):
        assert g_floor(tame_params(5, 1), 1, 30) == 1

    def test_boundary(self):
        tp = tame_params(5, 1)
        assert g_floor(tp, 1, tp.e0 * (5**2 + 5 - 1)) == 0

    def test_one_period_up(self):
        tp = tame_params(5, 1)
        assert g_floor(tp, 1, tp.e0 * (5**2 + 5 - 1) + tp.s * 5) == 1


class TestM0:
    def test_n3(self):
        assert m0(TheoremInputs(ladder(5, 3))) == 2

    def test_n2(self):
        assert m0(TheoremInputs(ladder(5, 2))) == 1

    def test_p7_n4(self):
        assert m0(TheoremInputs(ladder(7, 4))) == 3

    def test_unramified_pattern_sweep(self):
        for p in (5, 7, 11):
            for n in range(2, 9):
                assert m0(TheoremInputs(ladder(p, n))) == n - 1

    def test_two_break_ramified_base(self):
        bd = BreakData(5, 4, (5, 9))
        assert m0(TheoremInputs(bd)) == 1

    def test_vanishing_case(self):
        # n = 1 over e = 4: psi(5) = 21 > 20 = e*p, so no m >= 0 works
        bd = BreakData(5, 4, (1,))
        assert m0(TheoremInputs(bd)) is None

    def test_equality_is_excluded(self):
        # psi((0+1+1/4)*4) = psi(5) = 5/4 + 5*(5 - 5/4) = 20 = e*p exactly
        ti = TheoremInputs(BreakData(5, 4, (F(5, 4),)))
        assert ti.bd.psi(5) == 20
        assert m0(ti) is None and scan_m0(ti) is None

    @pytest.mark.parametrize("den", [1, 2, 3, 7])
    def test_matches_the_scan(self, den):
        # breaks that are multiples of 1/den, so psi^-1(e*p^n) is a rational
        # with several denominators
        rng = random.Random(700 + den)
        for _ in range(750):
            ti = TheoremInputs(random_break_data(rng, n_max=6, den=den))
            assert m0(ti) == scan_m0(ti)

    def test_cross_check_still_runs(self):
        ti = TheoremInputs(ladder(5, 3))
        object.__setattr__(ti, "yhz", replace(ti.yhz, h=ti.n))
        with pytest.raises(InvariantError, match="exceeds n - h - 1"):
            m0(ti)


class TestQRValues:
    def test_equal_case(self):
        bd = ladder(5, 3)
        q, r = q_r_values(tame_params(5, 1), extract_yhz(bd), 2)
        assert (q, r) == (25, 149)

    def test_y_above_e(self):
        bd = BreakData(5, 4, (5, 9))
        q, r = q_r_values(tame_params(5, 4), extract_yhz(bd), 1)
        assert (q, r) == (10, 34)

    def test_p7(self):
        bd = ladder(7, 2)
        q, r = q_r_values(tame_params(7, 1), extract_yhz(bd), 1)
        assert (q, r) == (7, 55)


class TestPsiMLLowerBound:
    def test_t_zero(self):
        ti = TheoremInputs(ladder(5, 3))
        assert psi_ML_lower_bound(ti, 2, 0) == 4 * 125

    def test_full_depth(self):
        ti = TheoremInputs(ladder(5, 3))
        assert psi_ML_lower_bound(ti, 2, 2) == 12004

    def test_intermediate(self):
        ti = TheoremInputs(ladder(5, 2))
        assert psi_ML_lower_bound(ti, 1, 1) == 484


def random_inputs(seed, den, above=None):
    """TheoremInputs on random break data, breaks multiples of 1/den, with a
    random cutoff; ``above`` picks y > e or y <= e, by drawing again."""
    rng = random.Random(seed)
    while True:
        bd = random_break_data(rng, n_max=6, den=den)
        if above is None or (extract_yhz(bd).y > bd.e) == above:
            break
    return TheoremInputs(bd, a=rng.randint(1, int(bd.e) * bd.p**bd.n))


class TestPsiMLBounds:
    """The one-pass condition-1 bounds against the literal sum, and the
    integer closed form against the Fraction closed form, both from
    tests/helpers.py."""

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32), den=st.sampled_from([1, 2]))
    def test_one_pass_bounds_match_the_literal_sum(self, seed, den):
        ti = random_inputs(seed, den)
        for m in range(1, ti.n + 1):
            literal = [literal_psi_ML_bound(ti, m, t) for t in range(m + 1)]
            assert ramcheck._psi_ML_bounds(ti, m, m) == literal
            assert [psi_ML_lower_bound(ti, m, t) for t in range(m + 1)] == literal

    @pytest.mark.parametrize("above", [False, True], ids=["y<=e", "y>e"])
    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32), den=st.sampled_from([1, 2]))
    def test_integer_closed_form_matches_the_fraction_form(self, above, seed, den):
        ti = random_inputs(seed, den, above)
        for m in range(1, ti.n + 1):
            for t in range(m + 1):
                got = ramcheck._ces_floor(ti, m, t)
                assert type(got) is F and got == fraction_ces_floor(ti, m, t)
                # where _evaluate cross-checks, it is the bound itself
                if m <= ti.n - ti.yhz.h and (not above or t == m):
                    assert got == literal_psi_ML_bound(ti, m, t)

    def test_condition_1_takes_linear_psi_work(self, monkeypatch):
        # y = e, so every t in 0 .. m is examined, on the main path and on
        # the fallback: the literal sums take m(m+1)/2 evaluations of psi
        # per path, 2,405 here
        n = 50
        ti = TheoremInputs(ladder(5, n), contained_in_zp=False)
        calls = []
        call = PLFunc.__call__

        def counted(f, x):
            calls.append(x)
            return call(f, x)

        monkeypatch.setattr(PLFunc, "__call__", counted)
        rep = check_conditions(ti)
        monkeypatch.undo()
        assert len(calls) <= 3 * n
        sub = TheoremInputs(ladder(5, n - 1), a=rep.proot.l)
        for inputs, report in ((ti, rep), (sub, rep.proot)):
            assert report.t_examined == tuple(range(report.m + 1))
            assert [it.bound for it in report.cond1_details] == [
                psi_ML_lower_bound(inputs, report.m, t) for t in report.t_examined
            ]


class TestCheckConditions:
    def test_unramified_n3(self):
        rep = check_conditions(TheoremInputs(ladder(5, 3)))
        assert rep.all_pass and rep.guarantee == "p^2" and rep.m == 2
        # recompute each comparison with the piecewise-linear oracle
        psi, phi = psi_from_breaks(ladder(5, 3)), phi_from_breaks(ladder(5, 3))
        assert rep.cond3_rhs == psi(3) == 31
        assert rep.cond2_lhs == phi(125)
        assert psi(F(13, 4)) == F(249, 4) < 125  # cond2 via the psi side
        for item in rep.cond1_details:
            assert item.bound > item.threshold

    def test_boundary_strictness(self):
        rep = check_conditions(TheoremInputs(ladder(5, 3), a=31))
        assert not rep.cond3 and rep.guarantee == "none"
        assert rep.cond3_lhs == 31 and rep.cond3_rhs == 31

    def test_n2_guarantee(self):
        rep = check_conditions(TheoremInputs(ladder(5, 2), a=25, m=1))
        assert rep.all_pass and rep.guarantee == "p^1"

    def test_vacuous_when_m0_missing(self):
        bd = BreakData(5, 4, (1,))
        rep = check_conditions(TheoremInputs(bd))
        assert rep.guarantee == "none" and rep.status == "no_m"

    def test_m0_zero_only_when_m_is_defaulted(self):
        bd = BreakData(5, 1, (1,))
        assert check_conditions(TheoremInputs(bd)).status == "m0_zero"
        with pytest.raises(ValueError, match=r"m = 0 outside \[1, n = 1\]"):
            check_conditions(TheoremInputs(bd, m=0))

    def test_supplied_cutoff_zero_is_rejected(self):
        with pytest.raises(ValueError, match=r"cutoff a = 0 outside \[1, e\*p\^n\]"):
            TheoremInputs(ladder(5, 3), a=0)
        assert TheoremInputs(ladder(5, 3)).a == TheoremInputs(ladder(5, 3), a=None).a == 125

    def test_zp_flag_gates_main_guarantee(self):
        rep = check_conditions(TheoremInputs(ladder(5, 3), contained_in_zp=False))
        assert rep.path == "proot" and rep.guarantee == "p^1 (proot)"
        assert rep.proot is not None and rep.proot.l == 25

    def test_psi_built_once_per_break_data(self, monkeypatch):
        # one psi for the input and one for the proot sub-data, and no other
        # piecewise-linear function; the validating constructor and the
        # library's own both build through _build
        built = []
        build = PLFunc._build

        def counted(f, *args):
            build(f, *args)
            built.append(f)

        bd = ladder(5, 3)
        monkeypatch.setattr(PLFunc, "_build", counted)
        rep = check_conditions(TheoremInputs(bd, contained_in_zp=False))
        assert rep.proot is not None and rep.proot.status == "ok"
        assert len(built) == 2 and built[0] is bd.psi

    def test_rejects_inadmissible_break_data(self):
        with pytest.raises(ValueError, match="inadmissible"):
            TheoremInputs(BreakData(5, 1, (1, 3)))

    def test_rejects_non_prime_p(self):
        # the tame parameters are derived on construction
        with pytest.raises(ValueError, match="not prime"):
            TheoremInputs(BreakData(9, 1, (1, 2)))

    def test_p_e_n_come_from_the_break_data(self):
        ti = TheoremInputs(BreakData(5, 4, (5, 9)))
        assert (ti.p, ti.e, ti.n) == (5, 4, 2) and type(ti.e) is int
        assert ti.a == 4 * 5**2

    def test_rejects_non_integral_e(self):
        with pytest.raises(ValueError, match="the tame index e must be an integer"):
            TheoremInputs(BreakData(5, "3/2", (1, "5/2")))

    def test_not_applicable_fallback_keeps_the_zp_flag(self):
        # n = 2: the fallback does not apply, and its report says which
        # flag the input carried
        rep = check_conditions(TheoremInputs(BreakData(5, 1, (1, 2)), contained_in_zp=False))
        assert rep.proot is not None and rep.proot.status == "not_applicable"
        assert rep.contained_in_zp is False and rep.proot.contained_in_zp is False

    def test_t_sweep_rule(self):
        # y = e sweeps every t in [0, m]; y != e pins t = m
        bd = BreakData(5, 2, (2, 4, 6))
        ti = TheoremInputs(bd)
        assert m0(ti) == 2
        rep = check_conditions(ti)
        assert rep.t_examined == (0, 1, 2) and rep.all_pass
        # y > e needs e = p-1 with first break p
        bd2 = BreakData(7, 6, (7, 13))
        ti2 = TheoremInputs(bd2)
        rep2 = check_conditions(ti2)
        assert extract_yhz(bd2).y == 7 > 6
        assert rep2.t_examined == (rep2.m,)

    def test_randomized_soundness(self):
        # mirror of the acceptance sweep at a smaller sample size
        rng = random.Random(83)
        count = 0
        while count < 60:
            bd = random_break_data(rng, primes=(5, 7, 11), n_max=5)
            ti = TheoremInputs(bd)
            if m0(ti) in (None, 0):
                continue
            rep = check_conditions(ti)
            assert rep.all_pass, (bd, rep)
            count += 1


class TestQIdentity:
    def test_q_equals_cyclotomic_step_image_plus_e0(self):
        # independent route to q: the cyclotomic-step transfer function
        # applied to the top break of the level-m compositum, plus e0
        rng = random.Random(97)
        checked = 0
        while checked < 80:
            bd = random_break_data(rng, primes=(5, 7, 11), n_max=5)
            ti = TheoremInputs(bd)
            m_val = m0(ti)
            if m_val in (None, 0):
                continue
            tp, yhz = tame_params(bd.p, int(bd.e)), extract_yhz(bd)
            q, _ = q_r_values(tp, yhz, m_val)
            bps = (F(0),) + tuple(F(int(bd.e) * (i + 1)) for i in range(m_val))
            sls = tuple(F(tp.s * bd.p**i) for i in range(m_val + 1))
            psi_ek = PLFunc(bps, sls, F(0))
            if yhz.h == 0 and yhz.y > bd.e:
                u_top = yhz.y + (m_val - 1) * bd.e
            else:
                u_top = m_val * bd.e
            assert q == psi_ek(u_top) + tp.e0
            checked += 1


class TestPhiEKClosedForm:
    def test_matches_pl_oracle(self):
        # build the cyclotomic-step transfer function directly and compare
        rng = random.Random(89)
        for _ in range(50):
            bd = random_break_data(rng, primes=(5, 7, 11), n_max=4)
            ti = TheoremInputs(bd)
            m_val = m0(ti)
            if m_val in (None, 0):
                continue
            tp, yhz = tame_params(bd.p, int(bd.e)), extract_yhz(bd)
            q, r = q_r_values(tp, yhz, m_val)
            bps = (F(0),) + tuple(F(int(bd.e) * (i + 1)) for i in range(m_val))
            sls = tuple(F(tp.s * bd.p**i) for i in range(m_val + 1))
            psi_ek = PLFunc(bps, sls, F(0))
            assert psi_ek.inverse()(r) == phi_EK_closed_form(tp, yhz, m_val)


class TestProotCheck:
    def test_n3_path(self):
        rep = proot_check(TheoremInputs(ladder(5, 3)))
        assert rep.l == 25 and rep.m == 1 and rep.guarantee == "p^1 (proot)"
        assert rep.n == 2  # runs on the degree-p^(n-1) subextension

    def test_hypothesis_gate(self):
        rep = proot_check(TheoremInputs(ladder(5, 2)))
        assert rep.status == "not_applicable" and rep.guarantee == "none"

    @pytest.mark.parametrize("flag", [True, False])
    def test_reports_carry_the_zp_flag(self, flag):
        for bd in (ladder(5, 2), ladder(5, 3)):
            rep = proot_check(TheoremInputs(bd, contained_in_zp=flag))
            assert rep.contained_in_zp is flag

    def test_p7_l_value(self):
        # l = ceil((p-1)/p * psi(u)) with u = 4 the top break: psi(4) = 400
        rep = proot_check(TheoremInputs(ladder(7, 4)))
        assert psi_from_breaks(ladder(7, 4))(4) == 400
        assert rep.l == 343
        assert rep.m == 2 and rep.guarantee == "p^2 (proot)"
