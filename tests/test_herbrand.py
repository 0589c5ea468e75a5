import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ramforge import (
    BreakData,
    PLFunc,
    extract_yhz,
    lower_break_formula,
    phi_from_breaks,
    pl_compose,
    psi_from_breaks,
    psi_ie_formula,
    tame_phi,
    tame_psi,
    validate_breaks,
)
from ramforge.herbrand import _rational_in, frac_in

from helpers import random_break_data


class TestBreakData:
    @pytest.mark.parametrize("p", [0, 1, 4, 9, 91])
    def test_non_prime_p_rejected(self, p):
        with pytest.raises(ValueError, match="not prime"):
            BreakData(p, 1, (1,))


class TestPsiFromBreaks:
    def test_single_break(self):
        psi = psi_from_breaks(BreakData(5, 1, (1,)))
        assert psi(1) == 1 and psi(2) == 6

    def test_two_breaks(self):
        psi = psi_from_breaks(BreakData(5, 1, (1, 2)))
        assert psi(2) == 6 and psi(3) == 31

    def test_rational_point(self):
        psi = psi_from_breaks(BreakData(5, 1, (1, 2, 3)))
        assert psi(F(13, 4)) == F(249, 4)

    def test_identity_below_first_break(self):
        psi = psi_from_breaks(BreakData(7, 2, (3, 5)))
        assert psi(F(5, 2)) == F(5, 2)

    def test_built_once_per_break_data(self):
        bd = BreakData(5, 1, (1, 2, 3))
        assert psi_from_breaks(bd) is psi_from_breaks(bd) is bd.psi
        # the kept function changes neither equality nor hashing
        fresh = BreakData(5, 1, (1, 2, 3))
        assert bd == fresh and hash(bd) == hash(fresh) and repr(bd) == repr(fresh)


class TestPhiFromBreaks:
    def test_inverse_on_samples(self):
        bd = BreakData(5, 1, (1, 2))
        psi, phi = psi_from_breaks(bd), phi_from_breaks(bd)
        for x in (0, F(1, 3), 1, F(7, 5), 2, 3, 10):
            assert phi(psi(x)) == x

    def test_value(self):
        assert phi_from_breaks(BreakData(5, 1, (1, 2)))(31) == 3

    def test_identity_below_first_break(self):
        phi = phi_from_breaks(BreakData(5, 1, (1, 2)))
        assert phi(F(3, 4)) == F(3, 4)


class TestPLCompose:
    def test_identity(self):
        psi = psi_from_breaks(BreakData(5, 1, (1, 2)))
        ident = PLFunc.identity()
        assert pl_compose(psi, ident) == psi
        assert pl_compose(ident, psi) == psi

    def test_psi_phi_collapse(self):
        bd = BreakData(7, 3, (4, 7, 10))
        assert pl_compose(psi_from_breaks(bd), phi_from_breaks(bd)) == PLFunc.identity()

    def test_tower_transitivity(self):
        # two-step tower: bottom level with break (1), top with break psi(2)
        bd_full = BreakData(5, 1, (1, 2))
        bottom = psi_from_breaks(BreakData(5, 1, (1,)))
        top = psi_from_breaks(BreakData(5, 5, (bottom(2),)))
        composite = pl_compose(top, bottom)
        direct = psi_from_breaks(bd_full)
        assert composite == direct
        for k in range(20):
            x = F(k, 4)
            assert composite(x) == direct(x)

    def test_tame_step(self):
        assert pl_compose(tame_phi(3), tame_psi(3)) == PLFunc.identity()
        assert tame_psi(4)(F(5, 2)) == 10

    def test_tame_step_of_fractional_index(self):
        assert tame_psi(F(3, 2))(2) == 3 and tame_phi(F(3, 2))(3) == 2
        assert pl_compose(tame_psi("3/2"), tame_phi([3, 2])) == PLFunc.identity()

    @pytest.mark.parametrize("e", [0, -1, F(-1, 2), "0/5"])
    def test_tame_index_must_be_positive(self, e):
        # both directions refuse the index with one input error
        for step in (tame_psi, tame_phi):
            with pytest.raises(ValueError, match=r"^tame index e must be positive, got "):
                step(e)


class TestValidateBreaks:
    def test_forced_ladder(self):
        assert validate_breaks(BreakData(5, 1, (1, 2, 3))).valid

    def test_rule_c_violation(self):
        verdict = validate_breaks(BreakData(5, 1, (1, 3)))
        assert not verdict.valid and verdict.first.rule == "c"

    def test_rule_a_violation(self):
        verdict = validate_breaks(BreakData(5, 1, (2, 3)))
        assert not verdict.valid and verdict.first.rule == "a"

    def test_rule_b_violation(self):
        verdict = validate_breaks(BreakData(5, 4, (1, 4)))
        assert not verdict.valid and verdict.first.rule == "b"

    def test_threshold_boundary_satisfies_both_rules(self):
        # b_0 = e/(p-1): rules (b) and (c) coincide and force b_1 = b_0 + e
        assert validate_breaks(BreakData(5, 4, (1, 5))).valid
        verdict = validate_breaks(BreakData(5, 4, (1, 6)))
        assert {v.rule for v in verdict.violations} == {"b", "c"}

    def test_accepts_all_generated_and_rejects_perturbations(self):
        rng = random.Random(61)
        for _ in range(60):
            bd = random_break_data(rng)
            assert validate_breaks(bd).valid
            if bd.n >= 2:
                idx = rng.randrange(1, bd.n)
                for delta in (-1, 1):
                    shifted = list(bd.upper)
                    shifted[idx] += delta
                    if any(
                        a >= b for a, b in zip(shifted, shifted[1:])
                    ) or shifted[0] <= 0:
                        continue
                    perturbed = BreakData(bd.p, bd.e, tuple(shifted))
                    assert not validate_breaks(perturbed).valid


class TestExtractYHZ:
    def test_unramified_shape(self):
        yhz = extract_yhz(BreakData(5, 1, (1, 2, 3)))
        assert (yhz.y, yhz.h, yhz.z) == (1, 0, 1)

    def test_threshold_exceeded_at_first(self):
        yhz = extract_yhz(BreakData(5, 4, (5, 9, 13)))
        assert (yhz.y, yhz.h, yhz.z) == (5, 0, 5)

    def test_later_break(self):
        yhz = extract_yhz(BreakData(5, 4, (1, 5, 9)))
        assert (yhz.y, yhz.h, yhz.z) == (5, 1, 21)

    def test_fallback_to_largest(self):
        yhz = extract_yhz(BreakData(5, 4, (1,)))
        assert (yhz.y, yhz.h, yhz.z) == (1, 0, 1)


class TestLowerBreakFormula:
    def test_at_h(self):
        bd = BreakData(5, 1, (1, 2, 3))
        yhz = extract_yhz(bd)
        assert lower_break_formula(bd, yhz, 0) == yhz.z

    def test_top_break(self):
        bd = BreakData(5, 1, (1, 2, 3))
        assert lower_break_formula(bd, extract_yhz(bd), 2) == 31

    def test_ramified_base(self):
        bd = BreakData(5, 4, (5, 9))
        assert lower_break_formula(bd, extract_yhz(bd), 1) == 25

    def test_out_of_range(self):
        bd = BreakData(5, 1, (1, 2))
        with pytest.raises(ValueError):
            lower_break_formula(bd, extract_yhz(bd), 2)

    def test_matches_pl_evaluation_randomized(self):
        rng = random.Random(67)
        for _ in range(200):
            bd = random_break_data(rng)
            yhz = extract_yhz(bd)
            psi = psi_from_breaks(bd)
            for i in range(yhz.h, bd.n):
                assert lower_break_formula(bd, yhz, i) == psi(yhz.y + (i - yhz.h) * bd.e)


class TestPsiIEFormula:
    def test_equal_case(self):
        bd = BreakData(5, 1, (1, 2, 3))
        yhz = extract_yhz(bd)
        assert psi_ie_formula(bd, yhz, 1) == 6
        assert psi_ie_formula(bd, yhz, 0) == 1

    def test_y_above_e(self):
        bd = BreakData(5, 4, (5, 9))
        yhz = extract_yhz(bd)
        assert psi_ie_formula(bd, yhz, 1) == 20
        assert psi_from_breaks(bd)(8) == 20

    def test_h_positive_y_above_e(self):
        bd = BreakData(5, 4, (1, 5, 9))
        yhz = extract_yhz(bd)
        psi = psi_from_breaks(bd)
        assert psi_ie_formula(bd, yhz, 1) == psi(8) == 96

    def test_matches_pl_evaluation_randomized(self):
        rng = random.Random(71)
        for _ in range(200):
            bd = random_break_data(rng)
            yhz = extract_yhz(bd)
            psi = psi_from_breaks(bd)
            for i in range(0, bd.n - yhz.h):
                assert psi_ie_formula(bd, yhz, i) == psi((i + 1) * bd.e)


class TestPLFuncInvariants:
    def test_mutual_inverse_randomized(self):
        rng = random.Random(73)
        for _ in range(100):
            bd = random_break_data(rng)
            psi, phi = psi_from_breaks(bd), phi_from_breaks(bd)
            for b in psi.breakpoints:
                assert phi(psi(b)) == b
            for _ in range(10):
                x = F(rng.randint(0, 400), rng.randint(1, 40))
                assert phi(psi(x)) == x and psi(phi(psi(x))) == psi(x)

    def test_convexity_of_psi(self):
        rng = random.Random(79)
        for _ in range(50):
            bd = random_break_data(rng)
            slopes = psi_from_breaks(bd).slopes
            assert all(a < b for a, b in zip(slopes, slopes[1:]))

    def test_rejects_bad_constructions(self):
        with pytest.raises(ValueError):
            PLFunc((F(1),), (F(1),), F(0))  # must start at 0
        with pytest.raises(ValueError):
            PLFunc((F(0), F(1)), (F(1),), F(0))  # slope count mismatch
        with pytest.raises(ValueError):
            PLFunc((F(0),), (F(-1),), F(0))  # negative slope
        with pytest.raises(ValueError):
            BreakData(5, 1, (2, 2))  # not strictly increasing


# integers whose decimal text is past what a double holds exactly
PAST_2_53 = st.integers(2**53 + 1, 2**90) | st.integers(-(2**90), -(2**53) - 1)


def wire_rationals():
    """(x, value): a wire form of a rational and the rational, built here
    from the integers behind the text.  The forms: an int, a Fraction,
    "a" and an unreduced "a/b", and [n, d] pairs of ints or of decimal
    strings past 2^53, with either sign on d."""
    num, den = st.integers(-(10**30), 10**30), st.integers(1, 10**30)
    return st.one_of(
        num.map(lambda n: (n, F(n))),
        st.fractions().map(lambda f: (f, f)),
        num.map(lambda n: (str(n), F(n))),
        st.tuples(num, den, st.integers(1, 12)).map(
            lambda t: (f"{t[0] * t[2]}/{t[1] * t[2]}", F(t[0], t[1]))),
        st.tuples(PAST_2_53, PAST_2_53).map(lambda t: ([str(t[0]), str(t[1])], F(*t))),
        st.tuples(num, den, st.booleans()).map(
            lambda t: ([t[0], -t[1]] if t[2] else [t[0], t[1]], F(t[0], -t[1] if t[2] else t[1]))),
    )


class TestRationalReader:
    """The one reader of a wire rational, against frac_in and against the
    rational built from its integers: the same value as a pair in lowest
    terms with a positive denominator, and the same error text on every
    refused input."""

    @pytest.mark.parametrize("x, pair", [
        ("-3/4", (-3, 4)), ("6/8", (3, 4)), ("-10/4", (-5, 2)), ("0/5", (0, 1)), ("-0", (0, 1)),
        ("6/3", (2, 1)), ("7", (7, 1)), (-6, (-6, 1)), (F(-6, 4), (-3, 2)), ([4, -6], (-2, 3)),
        (["-4", "6"], (-2, 3)), ((3, 1), (3, 1)),
        ([str(2**60), str(3 * 2**55)], (32, 3)), ([str(2**53 + 1), str(-(2**54))], (-(2**53) - 1, 2**54)),
    ])
    def test_table(self, x, pair):
        assert _rational_in(x) == pair
        value = frac_in(x)
        assert (value.numerator, value.denominator) == pair

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(wire_rationals())
    def test_matches_frac_in(self, case):
        x, value = case
        num, den = _rational_in(x)
        assert (num, den) == (value.numerator, value.denominator)
        assert frac_in(x) == value and frac_in(x).denominator == den

    @pytest.mark.parametrize("bad", [True, 2.5, "+1", "1_0", "\uff11", "3/", "-/2", "1/0", [1, 0],
                                     "1" * (sys.get_int_max_str_digits() + 1)],
                             ids=["true", "float", "plus", "underscore", "fullwidth", "no-den", "no-num",
                                  "zero-den", "zero-pair", "long"])
    def test_refused_alike(self, bad):
        with pytest.raises(ValueError, match="not an exact rational|zero denominator|too long to read") as pair:
            _rational_in(bad)
        with pytest.raises(ValueError) as value:
            frac_in(bad)
        assert str(pair.value) == str(value.value)
