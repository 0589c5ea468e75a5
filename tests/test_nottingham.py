import math
import random
from fractions import Fraction

import pytest

from ramforge import _convolve, gfseries, jsonio, nottingham
from ramforge import (
    AtLeast,
    FiniteField,
    PrecisionError,
    SenViolationError,
    TruncSeries,
    compose_power,
    depth,
    index_of,
    lower_breaks,
    p_chain,
    p_iterate,
    subgroup_equal_mod,
    upper_from_lower,
)
from ramforge.nottingham import certified_depths

from helpers import (
    brute_compose,
    brute_depth,
    cyclotomic_reduction,
    enumerate_subgroup,
    exact_int_compose,
    ext_compose,
    random_nottingham,
)

F2 = FiniteField(2)
F5 = FiniteField(5)
F4 = FiniteField(2, 2, (1, 1, 1))
F9 = FiniteField(3, 2, (1, 0, 1))


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


def oracle_powers(g, k_max):
    """g^(1) .. g^(k_max) by repeated brute-force composition onto g."""
    f, n = g.field, g.trunc
    if f.w == 1:
        ints = [c.rep[0] for c in g.coeffs]
        step = lambda acc: [c % f.mod for c in exact_int_compose(acc, ints, n)]
    else:
        ints = [c.rep for c in g.coeffs]
        step = lambda acc: ext_compose(acc, ints, f.p, f.modulus, n)
    acc, out = ints, [g]
    for _ in range(k_max - 1):
        acc = step(acc)
        out.append(TruncSeries(f, acc, n))
    return out


class TestComposePower:
    """``compose_power`` composes onto g up to k = 5 and powers in binary
    from k = 6; both give binary powering's result and the oracle's."""

    # F_p on both sides of the Frobenius split's size test (n >= 64 here),
    # Z/p^P below and past the direct int64 bound, and F_9 and F_27
    RINGS = ((F2, 64), (F5, 63), (F5, 64), (FiniteField(7), 64), (FiniteField(5, prec=4), 30),
             (FiniteField(7, prec=10), 40), (FiniteField(3, 2, (1, 0, 1)), 16),
             (FiniteField(3, 3, (1, 2, 0, 1)), 10))

    @pytest.mark.parametrize("field, n", RINGS, ids=repr)
    def test_matches_binary_powering_and_the_oracle(self, field, n):
        rng = random.Random(f"compose-power:{field!r}:{n}")
        zero = 0 if field.w == 1 else (0,) * field.w
        unit = 1 if field.w == 1 else (1,) + (0,) * (field.w - 1)
        coeff = (lambda: rng.randrange(field.mod)) if field.w == 1 else (
            lambda: tuple(rng.randrange(field.p) for _ in range(field.w)))
        coeffs = [zero, unit] + [coeff() for _ in range(n - 2)]
        g, other = TruncSeries(field, coeffs, n), TruncSeries(field, coeffs, n)
        want = oracle_powers(g, 7)
        for k in range(1, 8):
            binary = _convolve.power(other, k, TruncSeries.compose)
            assert compose_power(g, k) == binary == want[k - 1], k
        assert compose_power(g, 0) == TruncSeries.x(field, n)

    @pytest.mark.parametrize("k, builds", [(1, 0), (2, 1), (3, 1), (4, 1), (5, 1), (6, 2), (7, 2)])
    @pytest.mark.parametrize("field, n", ((F5, 64), (FiniteField(5, prec=4), 30)), ids=repr)
    def test_builds_the_data_of_g_once_up_to_k_5(self, monkeypatch, field, n, k, builds):
        # TruncSeries.compose builds an inner's data by _convolve.compose_data:
        # once for g up to k = 5, and from k = 6 once more for each inner
        # binary powering squares
        calls = []
        build = _convolve.compose_data
        monkeypatch.setattr(gfseries, "compose_data", lambda *args: calls.append(args[1]) or build(*args))
        rng = random.Random(77 + k)
        g = TruncSeries(field, [0, 1] + [rng.randrange(field.mod) for _ in range(n - 2)], n)
        got = compose_power(g, k)
        assert len(calls) == builds and set(calls) <= {n}
        monkeypatch.undo()
        assert got == oracle_powers(g, k)[-1]


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

    @pytest.mark.parametrize("p, trunc, lower", [
        (2, 400, (1, 3, 15, 255)),
        (3, 400, (1, 4, 13, 40)),
        (5, 400, (1, 6, 31, 156)),
        (7, 420, (1, 8, 57, 400)),  # i_3 = 400 is certified from N = 402
    ])
    def test_x_plus_x_squared(self, monkeypatch, p, trunc, lower):
        # known answers, as Paterson-Stockmeyer gave them; for odd p,
        # i_n = (p^(n+1) - 1)/(p - 1).  The chain at the full truncation
        # composes every link by the Frobenius split, through two levels or
        # more: each link is the inner series of its p-step and keeps the
        # split's tables
        g = S(FiniteField(p), [0, 1, 1], trunc)
        assert _convolve.frobenius_wins(p, trunc)
        assert len(_convolve.frobenius_tables(g.packed, trunc, p).sizes) >= 3
        chain = list(p_chain(g, 3))
        assert all(isinstance(h._baby, _convolve.FrobeniusTables) for h in chain[:-1])
        assert tuple(depth(h) for h in chain) == lower
        assert p_iterate(g, 3) == chain[-1]
        assert lower_breaks(g, 3).lower == lower
        if p > 2:
            assert lower == tuple((p ** (n + 1) - 1) // (p - 1) for n in range(4))
        # and the same through Paterson-Stockmeyer
        monkeypatch.setattr(_convolve, "frobenius_wins", lambda p, n: False)
        assert lower_breaks(S(FiniteField(p), [0, 1, 1], trunc), 3).lower == lower

    def test_precision_error_carries_partial(self):
        g = cyclotomic_reduction(5, 30)  # i_2 = 124 is not visible at N = 30
        with pytest.raises(PrecisionError) as exc:
            lower_breaks(g, 2)
        assert exc.value.level == 2
        assert exc.value.partial == (4, 24)
        assert str(exc.value) == (
            "depth of the p^2-th iterate is uncertified (>= 29) at truncation 30; "
            "retry with a larger truncation"
        )

    def test_uncertified_generator(self):
        with pytest.raises(PrecisionError) as exc:
            lower_breaks(TruncSeries.x(F5, 8), 1)
        assert str(exc.value) == "depth of the generator is uncertified (>= 7) at truncation 8"


def outcome(breaks, g, n_max):
    """breaks(g, n_max), or the type, message, level and partial of the
    error it raises."""
    try:
        return breaks(g, n_max)
    except (PrecisionError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "level", None), getattr(exc, "partial", None)


def full_chain_breaks(g, n_max):
    """What ``lower_breaks`` gives, by the chain at g's full truncation."""
    lower = list(certified_depths(p_chain(g, n_max)))
    return tuple(lower), upper_from_lower(g.field.p, lower), g.trunc


def planned_breaks(g, n_max):
    rs = lower_breaks(g, n_max)
    return rs.lower, rs.upper, rs.certified_to


def mobius_plus(field, k, trunc):
    """X/(1 - X) + X^k: X/(1 - X) has order p, so the first link is X
    below about X^k, and its depth is a little above k."""
    coeffs = [0] + [1] * (trunc - 1)
    coeffs[k] += 1
    return S(field, coeffs, trunc)


class TestPlannedBreaks:
    """``lower_breaks`` certifies the chain of g cut to a predicted
    truncation, retrying at a larger one on an uncertified link, and gives
    what the chain at the full truncation gives: the same breaks and
    ``certified_to``, or the same error, level, partial and message."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_the_full_chain(self, p):
        rng = random.Random(f"planned:{p}")
        f = FiniteField(p)
        cases = [(S(f, [0, 1, 1], 400), 3), (S(f, [0, 1, 1], 400), 10**6), (S(f, [0, 1], 9), 1),
                 (S(f, [0, 1, 1], 40), 3), (S(f, [0, 2, 1], 30), 2), (S(f, [0, 1, 0, 0, 1], 5), 2)]
        for _ in range(24):
            trunc = rng.choice([rng.randrange(3, 60), rng.randrange(60, 401)])
            lead = rng.randrange(2, max(3, trunc // 3))
            density = rng.choice([1.0, 0.3, 0.05])
            coeffs = [0, 1] + [rng.randrange(p) if k >= lead and rng.random() < density else 0
                               for k in range(2, trunc)]
            cases.append((S(f, coeffs, trunc), rng.randrange(0, 4)))
        kinds = set()
        for g, n_max in cases:
            want = outcome(full_chain_breaks, g, n_max)
            assert outcome(planned_breaks, g, n_max) == want, (p, g.trunc, n_max)
            kinds.add(want[0] if isinstance(want[0], type) else "breaks")
        assert kinds == {"breaks", PrecisionError, ValueError}

    def test_differences_that_change_at_p_2(self):
        # upper-break differences 1, 3, 30 for X + X^2, and random
        # generators whose second difference is not the first
        assert planned_breaks(S(F2, [0, 1, 1], 400), 3)[0] == (1, 3, 15, 255)
        rng = random.Random(92)
        changed = 0
        for _ in range(40):
            g = random_nottingham(rng, F2, 200)
            want = outcome(full_chain_breaks, g, 2)
            assert outcome(planned_breaks, g, 2) == want
            if isinstance(want[1], tuple) and len(set(b - a for a, b in zip(want[1], want[1][1:]))) > 1:
                changed += 1
        assert changed >= 10

    @pytest.mark.parametrize("p, k, trunc", [(2, 20, 120), (3, 30, 200), (5, 90, 300)])
    def test_link_equal_to_x_at_the_planned_truncation(self, monkeypatch, p, k, trunc):
        # the first chain's link 1 is X mod X^t: uncertified there, and
        # certified once t has grown
        f = FiniteField(p)
        g = mobius_plus(f, k, trunc)
        seen = []
        chain = nottingham.p_chain

        def spy(h, n):
            for link in chain(h, n):
                seen.append(link == TruncSeries.x(f, h.trunc) and h.trunc < trunc)
                yield link

        monkeypatch.setattr(nottingham, "p_chain", spy)
        got = outcome(planned_breaks, g, 2)
        monkeypatch.undo()
        assert any(seen)
        assert got == outcome(full_chain_breaks, g, 2)

    def test_failure_at_the_full_truncation(self):
        # the second link of X/(1 - X) + X^40 over F_5 is X mod X^200
        g = mobius_plus(F5, 40, 200)
        with pytest.raises(PrecisionError) as exc:
            lower_breaks(g, 2)
        assert (exc.value.level, exc.value.partial) == (2, (1, 51))
        assert str(exc.value) == (
            "depth of the p^2-th iterate is uncertified (>= 199) at truncation 200; "
            "retry with a larger truncation"
        )

    def test_depth_zero_generator(self):
        with pytest.raises(ValueError, match="generator must have linear coefficient 1"):
            lower_breaks(S(F5, [0, 2, 1], 20), 2)

    @staticmethod
    def chain_truncations(monkeypatch, g, n_max):
        """The truncation of every chain ``lower_breaks(g, n_max)`` builds."""
        truncs = []
        chain = nottingham.p_chain
        monkeypatch.setattr(nottingham, "p_chain", lambda h, n: truncs.append(h.trunc) or chain(h, n))
        try:
            lower_breaks(g, n_max)
        except PrecisionError:
            pass
        monkeypatch.undo()
        return truncs

    @pytest.mark.parametrize("p, seed, want", [
        (2, 0, [15]),  # one chain
        (5, 0, [93]),
        (5, 2, [120]),  # the first chain is at N
        (3, 14, [28, 40]),  # a move to the prediction from i_1, below 2t
        (2, 5, [15, 30]),  # a doubling
        (3, 5, [27, 63]),  # the next Sen value, past 2t
        (2, 1, [17, 23, 46]),
        (3, 50, [27, 39, 78]),  # a prediction move, then a doubling
    ])
    def test_planned_truncations(self, monkeypatch, p, seed, want):
        # the chains built for random generators at N = 120 and n_max = 2
        g = random_nottingham(random.Random(seed), FiniteField(p), 120)
        assert self.chain_truncations(monkeypatch, g, 2) == want

    def test_planned_truncations_of_known_series(self, monkeypatch):
        assert self.chain_truncations(monkeypatch, S(F5, [0, 1, 1], 4000), 3) == [158]
        # X/(1 - X) has order p: every chain below N is uncertified
        want = [17, 34, 68, 136, 272, 544, 1088, 2000]
        assert self.chain_truncations(monkeypatch, S(F2, [0] + [1] * 1999), 3) == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("trunc", [200, 2000])
    def test_attempt_bound(self, monkeypatch, p, trunc):
        # X/(1 - X) is uncertified at every t: at most n_max + ceil(log2 N) + 1
        # chains, the last of them at N
        g = S(FiniteField(p), [0] + [1] * (trunc - 1))
        truncs = self.chain_truncations(monkeypatch, g, 3)
        assert len(truncs) <= 3 + math.ceil(math.log2(trunc)) + 1
        assert truncs[-1] == trunc

    def test_work_is_bounded_by_the_last_depth(self, monkeypatch):
        # X + X^2 over F_5 at N = 4000: i_3 = 156, and no link is composed
        # at more than 2 * (i_3 + 2) terms
        truncs = []
        power = nottingham.compose_power
        monkeypatch.setattr(nottingham, "compose_power", lambda h, k: truncs.append(h.trunc) or power(h, k))
        rs = lower_breaks(S(F5, [0, 1, 1], 4000), 3)
        assert rs.lower == (1, 6, 31, 156) and rs.certified_to == 4000
        assert truncs and max(truncs) <= 2 * (156 + 2)


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

    @pytest.mark.parametrize("p, upper", [
        (5, [4, 8, 12]), (5, [1, 5, 25]), (5, [1, 2, 3]), (5, [1, 5, 25, 29]), (2, [1, 6, 9]),
        (3, [2, 5, 8, 11]), (5, [4, 8, 13]), (5, [4, 8, 12, 17]), (5, [0, 1]), (5, [3, 3]), (5, [7]),
    ])
    def test_integer_breaks_as_fractions(self, p, upper):
        # integers are compared as integers and Fractions as Fractions,
        # with the same report, document and errors
        def run(breaks):
            try:
                rep = index_of(p, breaks)
            except ValueError as exc:
                return str(exc)
            return rep, jsonio.index_report_out(rep)

        got = run(upper)
        assert got == run([Fraction(b) for b in upper])
        if not isinstance(got, str):
            assert all(type(d) is int for d in got[0].evidence)


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

    def test_both_trivial_in_the_quotient(self):
        # X + X^5 and X + X^4 + X^7 are both X mod X^4: both images are
        # trivial, so they generate the same subgroup there
        g = S(F2, [0, 1, 0, 0, 0, 1], 8)
        g2 = S(F2, [0, 1, 0, 0, 1, 0, 0, 1], 8)
        assert subgroup_equal_mod(g, g2, 3)
        assert subgroup_equal_mod(g, TruncSeries.x(F2, 8), 3)

    def test_requires_truncation_above_level(self):
        g = S(F2, [0, 1, 1], 3)
        with pytest.raises(ValueError):
            subgroup_equal_mod(g, g, 3)


class TestConjugate:
    def test_identity_conjugator(self):
        g = S(F5, [0, 1, 2, 3], 4)
        x = TruncSeries.x(F5, 4)
        assert x.compose(g).compose(x.comp_inverse()) == g

    def test_linear_conjugator(self):
        h = S(F5, [0, 2, 0], 3)
        g = S(F5, [0, 1, 1], 3)
        assert h.compose(g).compose(h.comp_inverse()) == S(F5, [0, 1, 3], 3)

    def test_depth_preserved(self):
        rng = random.Random(43)
        for _ in range(10):
            n = rng.randint(4, 12)
            g = random_nottingham(rng, F5, n)
            h = S(F5, [0, rng.randrange(1, 5)] + [rng.randrange(5) for _ in range(n - 2)], n)
            assert depth(h.compose(g).compose(h.comp_inverse())) == depth(g)


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
            assert lower_breaks(h.compose(g).compose(h.comp_inverse()), 1).lower == lower_breaks(g, 1).lower

    @pytest.mark.parametrize("field", [F2, FiniteField(3), F4, F9], ids=repr)
    def test_breaks_invariant_under_conjugation_over_every_field(self, field):
        # h o g o h^-1 for h a random element of the Nottingham group and
        # h = lambda X: the same lower breaks, or the same uncertified level
        def elem(unit=False):
            while True:
                c = tuple(rng.randrange(field.p) for _ in range(field.w))
                if not unit or any(c):
                    return c

        def outcome(g):
            try:
                return lower_breaks(g, 2).lower
            except PrecisionError as exc:
                return exc.level, exc.partial

        rng = random.Random(67)
        n = 80
        for _ in range(4):
            g = S(field, [0, 1, elem(unit=True)] + [elem() for _ in range(n - 3)], n)
            want = outcome(g)
            for h in (S(field, [0, 1] + [elem() for _ in range(n - 2)], n), S(field, [0, elem(unit=True)], n)):
                assert outcome(h.compose(g).compose(h.comp_inverse())) == want

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
