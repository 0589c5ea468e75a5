import random

import pytest

from ramforge import (
    AtLeast,
    FiniteField,
    PrecisionError,
    SenViolationError,
    TruncSeries,
    conjugate,
    depth,
    index_of,
    lower_breaks,
    p_iterate,
    series_agree_mod,
    subgroup_equal_mod,
    unit_part,
    upper_from_lower,
)

from helpers import (
    brute_compose,
    brute_depth,
    cyclotomic_reduction,
    enumerate_subgroup,
    random_nottingham,
)

F2 = FiniteField(2)
F5 = FiniteField(5)


def S(field, coeffs, trunc=None):
    if trunc is not None and len(coeffs) < trunc:
        coeffs = list(coeffs) + [0] * (trunc - len(coeffs))
    return TruncSeries(field, coeffs, trunc)


class TestDepth:
    def test_identity_is_uncertifiable(self):
        # infinite depth: at truncation N only "at least N-1" is provable
        assert depth(TruncSeries.x(F5, 12)) == AtLeast(11)

    def test_basic(self):
        assert depth(S(F5, [0, 1, 1], 3)) == 1

    def test_cyclotomic(self):
        assert depth(cyclotomic_reduction(5, 10)) == 4

    def test_scaled_x_has_depth_zero(self):
        assert depth(S(F5, [0, 2], 2)) == 0

    def test_rejects_non_group_elements(self):
        with pytest.raises(ValueError):
            depth(S(F5, [1, 1], 2))
        with pytest.raises(ValueError):
            depth(S(F5, [0, 0, 1], 3))

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for p in (2, 3, 5):
            f = FiniteField(p)
            for _ in range(20):
                g = random_nottingham(rng, f, rng.randint(3, 12))
                ints = [c.rep[0] for c in g.coeffs]
                b = brute_depth(ints, p, g.trunc)
                got = depth(g)
                if b is None:
                    assert isinstance(got, AtLeast)
                else:
                    assert got == b

    def test_extension_fields(self):
        # the leading term may sit in any Y-slot of its block
        rng = random.Random(6)
        for f in (FiniteField(2, 2, (1, 1, 1)), FiniteField(3, 2, (1, 0, 1)),
                  FiniteField(3, 3, (1, 2, 0, 1))):
            zero = (0,) * f.w
            for trunc in (3, 7, 12):
                for k in range(2, trunc):
                    top = rng.randrange(f.w)  # the highest nonzero Y-slot of the leading term
                    lead = tuple(rng.randrange(f.p) for _ in range(top)) + (rng.randrange(1, f.p),)
                    coeffs = [zero, (1,)] + [zero] * (k - 2) + [lead]
                    coeffs += [tuple(rng.randrange(f.p) for _ in range(f.w)) for _ in range(trunc - k - 1)]
                    assert depth(S(f, coeffs, trunc)) == k - 1
                assert depth(TruncSeries.x(f, trunc)) == AtLeast(trunc - 1)
                assert depth(S(f, [zero, (0, 1)], trunc)) == 0


class TestPIterate:
    def test_zero_iterations(self):
        g = S(F5, [0, 1, 3, 2], 4)
        assert p_iterate(g, 0) == g

    def test_linear_series(self):
        assert p_iterate(S(F5, [0, 2], 2), 1) == S(F5, [0, 2], 2)  # 2^5 = 2 mod 5

    def test_cyclotomic_first_iterate_depth(self):
        g = cyclotomic_reduction(5, 26)
        assert depth(p_iterate(g, 1)) == 24

    def test_matches_repeated_brute_composition(self):
        rng = random.Random(31)
        for _ in range(5):
            n = rng.randint(4, 10)
            g = random_nottingham(rng, F5, n)
            ints = [c.rep[0] for c in g.coeffs]
            acc = list(ints)
            for _ in range(4):
                acc = brute_compose(acc, ints, 5, n)
            assert [c.rep[0] for c in p_iterate(g, 1).coeffs] == acc


class TestLowerBreaks:
    def test_first_break_only(self):
        rs = lower_breaks(S(F2, [0, 1, 1], 3), 0)
        assert rs.lower == (1,)

    def test_cyclotomic_sequence(self):
        rs = lower_breaks(cyclotomic_reduction(5, 130), 2)
        assert rs.lower == (4, 24, 124)
        assert rs.upper == (4, 8, 12)
        assert rs.certified_to == 130

    def test_precision_error_carries_partial(self):
        g = cyclotomic_reduction(5, 30)  # i_2 = 124 is not visible at N = 30
        with pytest.raises(PrecisionError) as exc:
            lower_breaks(g, 2)
        assert exc.value.level == 2
        assert exc.value.partial == (4, 24)

    def test_uncertified_generator(self):
        with pytest.raises(PrecisionError):
            lower_breaks(TruncSeries.x(F5, 8), 1)


class TestUpperFromLower:
    def test_single(self):
        assert upper_from_lower(5, [4]) == (4,)

    def test_cyclotomic(self):
        assert upper_from_lower(5, [4, 24, 124]) == (4, 8, 12)

    def test_sen_violation(self):
        with pytest.raises(SenViolationError):
            upper_from_lower(5, [4, 23])

    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            upper_from_lower(5, [4, 4])


class TestIndexOf:
    def test_determined(self):
        rep = index_of(5, [4, 8, 12])
        assert rep.d == 4 and rep.status == "determined" and rep.stabilized_at == 1

    def test_undetermined(self):
        rep = index_of(5, [1, 5, 25])
        assert rep.d is None and rep.status == "undetermined" and rep.n_max == 2

    def test_constant_difference_one(self):
        rep = index_of(5, [1, 2, 3])
        assert rep.d == 1 and rep.status == "determined" and rep.stabilized_at == 1

    def test_candidate_single_final_step(self):
        rep = index_of(5, [1, 5, 25, 29])
        assert rep.d == 4 and rep.status == "candidate" and rep.stabilized_at == 3

    def test_inconsistent_sequence(self):
        with pytest.raises(ValueError, match="inconsistent"):
            index_of(5, [4, 8, 13])

    def test_break_after_stabilization_must_stay(self):
        with pytest.raises(ValueError):
            index_of(5, [4, 8, 12, 17])


class TestUnitPart:
    def test_x(self):
        assert unit_part(TruncSeries.x(F5, 5)) == TruncSeries.one(F5, 4)

    def test_scaled(self):
        assert unit_part(S(F5, [0, 2, 0, 1], 4)) == S(F5, [2, 0, 1], 3)

    def test_cyclotomic(self):
        g = cyclotomic_reduction(5, 7)
        assert unit_part(g) == S(F5, [1, 0, 0, 0, 1, 1], 6)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError):
            unit_part(S(F5, [1, 1], 2))


class TestSeriesAgreeMod:
    def test_equal_series(self):
        g = S(F5, [0, 1, 2, 3], 4)
        assert series_agree_mod(g, g, 4)

    def test_agree_below_divergence(self):
        a = S(F5, [0, 1, 0, 0, 0, 1, 0], 7)
        b = S(F5, [0, 1, 0, 0, 0, 1, 1], 7)
        assert series_agree_mod(a, b, 6)
        assert not series_agree_mod(a, b, 7)

    def test_m_exceeding_truncation(self):
        with pytest.raises(ValueError):
            series_agree_mod(S(F5, [0, 1], 2), S(F5, [0, 1], 2), 3)


class TestSubgroupEqualMod:
    def test_reflexive(self):
        g = S(F2, [0, 1, 1], 8)
        assert subgroup_equal_mod(g, g, 4)

    def test_p_power_generates_proper_subgroup(self):
        g = S(F2, [0, 1, 1], 8)
        g2 = p_iterate(g, 1)
        assert not subgroup_equal_mod(g, g2, 4)  # m > i_1 = 3

    def test_unit_power_generates_same_subgroup(self):
        g = S(F2, [0, 1, 1], 8)
        g3 = g.compose(g).compose(g)
        assert subgroup_equal_mod(g, g3, 4)

    def test_square_at_low_level(self):
        # brute enumeration of the quotient groups decides the expected value
        g = [0, 1, 1]
        gg = brute_compose(g, g, 2, 8)
        left = enumerate_subgroup(g + [0] * 5, 2, 2)
        right = enumerate_subgroup(gg, 2, 2)
        assert left != right  # <g> has order 2, <g o g> is trivial mod X^3
        gs = S(F2, g, 8)
        assert not subgroup_equal_mod(gs, gs.compose(gs), 2)

    def test_matches_enumeration_randomized(self):
        rng = random.Random(41)
        for _ in range(30):
            p = rng.choice((2, 3, 5))
            f = FiniteField(p)
            m = rng.randint(2, 4)
            n = m + rng.randint(1, 3)
            g = random_nottingham(rng, f, n, depth_one=True)
            g2 = random_nottingham(rng, f, n, depth_one=rng.random() < 0.7)
            gi = [c.rep[0] for c in g.coeffs]
            g2i = [c.rep[0] for c in g2.coeffs]
            expected = enumerate_subgroup(gi, p, m) == enumerate_subgroup(g2i, p, m)
            assert subgroup_equal_mod(g, g2, m) == expected

    def test_requires_truncation_above_level(self):
        g = S(F2, [0, 1, 1], 3)
        with pytest.raises(ValueError):
            subgroup_equal_mod(g, g, 3)


class TestConjugate:
    def test_identity_conjugator(self):
        g = S(F5, [0, 1, 2, 3], 4)
        assert conjugate(TruncSeries.x(F5, 4), g) == g

    def test_linear_conjugator(self):
        h = S(F5, [0, 2, 0], 3)
        g = S(F5, [0, 1, 1], 3)
        assert conjugate(h, g) == S(F5, [0, 1, 3], 3)

    def test_depth_preserved(self):
        rng = random.Random(43)
        for _ in range(10):
            n = rng.randint(4, 12)
            g = random_nottingham(rng, F5, n)
            h = S(F5, [0, rng.randrange(1, 5)] + [rng.randrange(5) for _ in range(n - 2)], n)
            assert depth(conjugate(h, g)) == depth(g)


class TestBreakInvariants:
    def test_depths_strictly_increase(self):
        rng = random.Random(47)
        for _ in range(10):
            g = random_nottingham(rng, F5, 40, depth_one=True)
            try:
                rs = lower_breaks(g, 2)
            except PrecisionError as exc:
                rs = None
                lower = exc.partial
            if rs is not None:
                lower = rs.lower
            assert all(a < b for a, b in zip(lower, lower[1:]))

    def test_sen_integrality_on_certified_prefix(self):
        rng = random.Random(53)
        for p in (2, 3, 5):
            f = FiniteField(p)
            for _ in range(15):
                g = random_nottingham(rng, f, 60, depth_one=True)
                try:
                    lower = lower_breaks(g, 2).lower
                except PrecisionError as exc:
                    lower = exc.partial
                upper_from_lower(p, lower)  # must not raise SenViolationError

    def test_breaks_invariant_under_conjugation(self):
        rng = random.Random(59)
        g = cyclotomic_reduction(5, 40)
        for _ in range(5):
            h = S(F5, [0, rng.randrange(1, 5)] + [rng.randrange(5) for _ in range(38)], 40)
            assert lower_breaks(conjugate(h, g), 1).lower == lower_breaks(g, 1).lower

    def test_generator_independence(self):
        g = cyclotomic_reduction(5, 40)
        for a in (2, 3, 4, 7):
            ga = TruncSeries.x(F5, 40)
            for _ in range(a):
                ga = ga.compose(g)
            assert lower_breaks(ga, 1).lower == lower_breaks(g, 1).lower

    def test_lower_breaks_are_transfer_images_of_upper(self):
        # i_n must equal the piecewise-linear transport of b_n through the
        # function built from the certified upper breaks
        from ramforge import BreakData, psi_from_breaks

        rng = random.Random(101)
        for p in (2, 3, 5):
            f = FiniteField(p)
            for _ in range(10):
                g = random_nottingham(rng, f, 80, depth_one=True)
                try:
                    rs = lower_breaks(g, 2)
                except PrecisionError:
                    continue
                psi = psi_from_breaks(BreakData(p, 10**6, rs.upper))
                for b, i in zip(rs.upper, rs.lower):
                    assert psi(b) == i

    def test_cyclotomic_family_small_odd_prime(self):
        # the p^(n+1)-1 pattern needs p odd: over F_2 the same series has
        # i_1 = 7 because the quadratic cyclotomic step is not cyclic
        g = cyclotomic_reduction(3, 32)
        assert lower_breaks(g, 2).lower == (2, 8, 26)
        g2 = cyclotomic_reduction(2, 40)
        assert lower_breaks(g2, 1).lower == (1, 7)
