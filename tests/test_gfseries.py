import random

import pytest

from ramforge import FFElem, FiniteField, TruncSeries, series_agree_mod, unit_part

from helpers import brute_comp_inverse, brute_compose

F5 = FiniteField(5)
F2 = FiniteField(2)
F4 = FiniteField(2, 2, (1, 1, 1))  # t^2 + t + 1
F8 = FiniteField(2, 3, (1, 1, 0, 1))
F9 = FiniteField(3, 2, (1, 0, 1))
F25 = FiniteField(5, 2, (3, 0, 1))
F27 = FiniteField(3, 3, (1, 2, 0, 1))
EXTENSIONS = (F4, F8, F9, F25, F27)


def elem(rng, field, unit=False):
    while True:
        c = tuple(rng.randrange(field.p) for _ in range(field.w))
        if not unit or any(c):
            return c


def unit_series(rng, field, n):
    return S(field, [0, elem(rng, field, unit=True)] + [elem(rng, field) for _ in range(n - 2)], n)


def S(field, coeffs, trunc=None):
    if trunc is not None and len(coeffs) < trunc:
        coeffs = list(coeffs) + [0] * (trunc - len(coeffs))
    return TruncSeries(field, coeffs, trunc)


class TestFiniteField:
    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError, match="not prime"):
            FiniteField(6)

    def test_primality_is_deterministic_miller_rabin(self):
        assert FiniteField(2**61 - 1).p == 2**61 - 1  # trial division would take ~10^9 steps
        # a Carmichael number, a strong pseudoprime to bases 2, 3, 5, 7, and
        # one to every prime base below 37
        for n in (561, 3215031751, 3825123056546413051):
            with pytest.raises(ValueError, match="not prime"):
                FiniteField(n)
        with pytest.raises(ValueError, match="cannot be certified"):
            FiniteField(2**89 - 1)  # prime, but above the proven Miller-Rabin range

    def test_rejects_reducible_modulus(self):
        # X^2 + 1 = (X+1)^2 over F_2
        with pytest.raises(ValueError, match="irreducible"):
            FiniteField(2, 2, (1, 0, 1))

    def test_rejects_non_monic_modulus(self):
        with pytest.raises(ValueError, match="monic"):
            FiniteField(5, 2, (2, 0, 3))

    def test_extension_arithmetic(self):
        t = F4.coerce((0, 1))
        assert t * t == F4.coerce((1, 1))  # t^2 = t + 1
        assert (t * t * t) == F4.one()
        assert t.inverse() * t == F4.one()

    def test_frobenius_element(self):
        t = F4.coerce((0, 1))
        assert t.frobenius(1) == F4.coerce((1, 1))
        assert t.frobenius(2) == t

    def test_prime_field_inverse(self):
        for a in range(1, 5):
            assert F5.coerce(a).inverse() * F5.coerce(a) == F5.one()


class TestAdd:
    def test_x_plus_x(self):
        assert S(F5, [0, 1]) + S(F5, [0, 1]) == S(F5, [0, 2])

    def test_additive_identity(self):
        a = S(F5, [3, 1, 4], 3)
        assert a + TruncSeries.zero(F5, 3) == a

    def test_cancellation(self):
        a = S(F5, [0, 1, 1], 3)
        b = S(F5, [0, 4, 0], 3)
        assert a + b == S(F5, [0, 0, 1], 3)

    def test_field_mismatch(self):
        with pytest.raises(ValueError, match="field mismatch"):
            S(F5, [0, 1]) + S(F2, [0, 1])

    def test_min_truncation(self):
        assert (S(F5, [1] * 7, 7) + S(F5, [1] * 4, 4)).trunc == 4


class TestMul:
    def test_x_squared(self):
        assert S(F5, [0, 1], 3) * S(F5, [0, 1], 3) == S(F5, [0, 0, 1], 3)

    def test_difference_of_squares(self):
        a = S(F5, [1, 1], 3)
        b = S(F5, [1, 4], 3)
        assert a * b == S(F5, [1, 0, 4], 3)

    def test_multiplicative_identity(self):
        a = S(F5, [2, 3, 1, 4], 4)
        assert a * TruncSeries.one(F5, 4) == a


class TestCompose:
    def test_identity_outer(self):
        g = S(F5, [0, 2, 3, 1], 4)
        assert TruncSeries.x(F5, 4).compose(g) == g

    def test_square_of_x_plus_x2(self):
        outer = S(F5, [0, 0, 1], 4)
        inner = S(F5, [0, 1, 1], 4)
        assert outer.compose(inner) == S(F5, [0, 0, 1, 2], 4)

    def test_cyclotomic_self_composition(self):
        # brute-force ascending-power expansion fixes the expected value
        g = [0, 1, 0, 0, 0, 1, 1, 0, 0, 0]
        expected = brute_compose(g, g, 5, 10)
        assert expected == [0, 1, 0, 0, 0, 2, 2, 0, 0, 0]
        gs = S(F5, g, 10)
        assert gs.compose(gs) == S(F5, expected, 10)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError, match="constant term"):
            S(F5, [0, 1], 2).compose(S(F5, [1, 1], 2))

    def test_matches_brute_force_prime_field(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 14)
            outer = [rng.randrange(5) for _ in range(n)]
            inner = [0] + [rng.randrange(5) for _ in range(n - 1)]
            got = S(F5, outer, n).compose(S(F5, inner, n))
            assert [c.rep[0] for c in got.coeffs] == brute_compose(outer, inner, 5, n)

    def test_matches_generic_path_on_extension_field(self):
        rng = random.Random(11)
        for f in EXTENSIONS:
            for _ in range(10):
                n = rng.randint(2, 8)
                outer = [elem(rng, f) for _ in range(n)]
                inner = [(0,) * f.w] + [elem(rng, f) for _ in range(n - 1)]
                got = S(f, outer, n).compose(S(f, inner, n))
                # recompute by ascending powers with FFElem arithmetic only
                inner_e = [f.coerce(c) for c in inner]
                result = [f.zero()] * n
                power = [f.one()] + [f.zero()] * (n - 1)
                for c in outer:
                    ce = f.coerce(c)
                    result = [r + ce * pc for r, pc in zip(result, power)]
                    nxt = [f.zero()] * n
                    for i, pi in enumerate(power):
                        for j in range(n - i):
                            nxt[i + j] = nxt[i + j] + pi * inner_e[j]
                    power = nxt
                assert got == TruncSeries(f, result, n)

    def test_associativity_random(self):
        rng = random.Random(13)
        for f in (F5,) + EXTENSIONS:
            for _ in range(15):
                n = rng.randint(3, 12)
                a, b, c = (unit_series(rng, f, n) for _ in range(3))
                assert a.compose(b).compose(c) == a.compose(b.compose(c))


class TestCompInverse:
    def test_inverse_of_x(self):
        x = TruncSeries.x(F5, 6)
        assert x.comp_inverse() == x

    def test_inverse_of_scaled_x(self):
        assert S(F5, [0, 2], 2).comp_inverse() == S(F5, [0, 3], 2)

    def test_inverse_of_x_plus_x2(self):
        g = S(F5, [0, 1, 1], 4)
        h = g.comp_inverse()
        assert h == S(F5, [0, 1, 4, 2], 4)
        x = TruncSeries.x(F5, 4)
        assert g.compose(h) == x
        assert h.compose(g) == x

    def test_matches_exhaustive_search(self):
        rng = random.Random(3)
        for p in (2, 3, 5):
            f = FiniteField(p)
            for _ in range(8):
                n = rng.randint(3, 9)
                g = [0, rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 2)]
                got = S(f, g, n).comp_inverse()
                assert [c.rep[0] for c in got.coeffs] == brute_comp_inverse(g, p, n)

    def test_two_sided_inverse_random(self):
        rng = random.Random(17)
        for f in (F5,) + EXTENSIONS:
            for _ in range(10):
                n = rng.randint(4, 24)
                g = unit_series(rng, f, n)
                h = g.comp_inverse()
                x = TruncSeries.x(f, n)
                assert g.compose(h) == x and h.compose(g) == x

    def test_rejects_non_units(self):
        with pytest.raises(ValueError, match="constant term"):
            S(F5, [1, 1], 2).comp_inverse()
        with pytest.raises(ValueError, match="linear coefficient"):
            S(F5, [0, 0, 1], 3).comp_inverse()


class TestFrobeniusTwist:
    def test_prime_field_fixed(self):
        g = S(F5, [0, 2, 3], 3)
        assert g.frobenius_twist(1) == g
        assert g.frobenius_twist(-4) == g

    def test_zero_twist(self):
        g = S(F4, [(0, 1), (1, 1)], 2)
        assert g.frobenius_twist(0) == g

    def test_extension_twist(self):
        g = S(F4, [(0, 0), (0, 1)], 2)  # t*X
        assert g.frobenius_twist(1) == S(F4, [(0, 0), (1, 1)], 2)

    def test_full_twist_is_identity(self):
        rng = random.Random(23)
        for _ in range(5):
            g = S(F4, [(rng.randrange(2), rng.randrange(2)) for _ in range(6)], 6)
            assert g.frobenius_twist(F4.w) == g

    def test_negative_twist_inverts(self):
        g = S(F4, [(0, 0), (0, 1), (1, 0)], 3)
        assert g.frobenius_twist(1).frobenius_twist(-1) == g

    def test_matches_coefficientwise_frobenius(self):
        # the packed twist against one FFElem.frobenius per coefficient
        rng = random.Random(31)
        for f in EXTENSIONS:
            g = S(f, [elem(rng, f) for _ in range(12)] + [0], 13)
            for j in range(-f.w, 2 * f.w + 1):
                twisted = g.frobenius_twist(j)
                assert twisted.coeffs == tuple(c.frobenius(j) for c in g.coeffs), (f, j)
                assert twisted == TruncSeries(f, twisted.coeffs, 13)

    def test_ring_homomorphism(self):
        rng = random.Random(29)
        for f in EXTENSIONS:
            for _ in range(8):
                a = S(f, [elem(rng, f) for _ in range(5)], 5)
                b = S(f, [elem(rng, f) for _ in range(5)], 5)
                assert (a * b).frobenius_twist(1) == a.frobenius_twist(1) * b.frobenius_twist(1)
                assert (a + b).frobenius_twist(1) == a.frobenius_twist(1) + b.frobenius_twist(1)


class TestTruncationDiscipline:
    def test_never_extends(self):
        a = S(F5, [0, 1, 1], 3)
        b = S(F5, [0, 1, 0, 0, 1], 5)
        for result in (a + b, a * b, a.compose(b), b.compose(a)):
            assert result.trunc == 3

    def test_strict_coefficient_count(self):
        with pytest.raises(ValueError, match="coefficients"):
            TruncSeries(F5, [0, 1], 3)

    def test_truncate_cannot_extend(self):
        with pytest.raises(ValueError, match="extend"):
            S(F5, [0, 1], 2).truncate(5)


class TestPackedStorage:
    """A series built from coefficients and the same series as a kernel result."""

    FIELDS = (F5, F4, F27)

    def both_forms(self, rng, field, n):
        coeffs = [0, elem(rng, field, unit=True)] + [elem(rng, field) for _ in range(n - 2)]
        built = TruncSeries(field, coeffs, n)
        # the kernel hands back packed residues that are wrapped as they are
        returned = built.compose(TruncSeries.x(field, n))
        assert returned is not built and returned._coeffs is None
        return built, returned

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_forms_agree(self, field):
        rng = random.Random(61)
        for n in (2, 3, 12):
            built, returned = self.both_forms(rng, field, n)
            s = 2 * field.w - 1
            assert len(built.packed) == len(returned.packed) == n * s
            assert built == returned and hash(built) == hash(returned)
            assert repr(built) == repr(returned)
            assert returned.coeffs == built.coeffs
            assert all(isinstance(c, FFElem) and c.field == field for c in returned.coeffs)
            assert returned.coeffs is returned.coeffs  # built once, then cached
            assert all(returned.block(k)[: field.w] == c.rep for k, c in enumerate(returned.coeffs))
            assert all(not any(returned.block(k)[field.w :]) for k in range(n))

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_operations_on_both_forms(self, field):
        rng = random.Random(62)
        n = 9
        a_built, a_ret = self.both_forms(rng, field, n)
        b_built, b_ret = self.both_forms(rng, field, n)
        for m in (1, 4, n):
            assert a_built.truncate(m) == a_ret.truncate(m)
            assert a_ret.truncate(m).coeffs == a_built.coeffs[:m]
        assert unit_part(a_built) == unit_part(a_ret)
        assert unit_part(a_ret).coeffs == a_built.coeffs[1:]
        assert series_agree_mod(a_built, a_ret, n)
        changed = TruncSeries(field, a_built.coeffs[:5] + (field.one(),) + a_built.coeffs[6:], n)
        if changed != a_built:
            assert series_agree_mod(changed, a_ret, 5) and not series_agree_mod(changed, a_ret, 6)
        for x, y in ((a_built, b_ret), (a_ret, b_built), (a_ret, b_ret)):
            total, diff = x + y, x - y
            assert total == a_built + b_built and diff == a_built - b_built
            assert total.coeffs == tuple(c + d for c, d in zip(a_built.coeffs, b_built.coeffs))
            assert diff.coeffs == tuple(c - d for c, d in zip(a_built.coeffs, b_built.coeffs))
            assert (diff + y) == x

    def test_construction_reduces_every_input_form(self):
        # ints, vectors and field elements give the same packed residues
        for field, value, block in ((F5, 7, (2,)), (F5, -1, (4,)), (F4, 3, (1, 0, 0)),
                                    (F4, (3, 2), (1, 0, 0)), (F27, (4, -1), (1, 2, 0, 0, 0))):
            g = TruncSeries(field, [value, 0], 2)
            assert g.block(0) == block
            assert g == TruncSeries(field, [field.coerce(value), 0], 2)
        with pytest.raises(ValueError, match="longer"):
            TruncSeries(F4, [(1, 0, 1)], 1)
        with pytest.raises(ValueError, match="mismatch"):
            TruncSeries(F4, [F9.one()], 1)
