import random

import pytest

from ramforge import (
    FiniteField,
    TruncMorphism,
    TruncObject,
    compose_morphism,
    is_extension,
    is_isomorphism,
    r_equivalent,
)

from helpers import apply_ring_by_powers

F5 = FiniteField(5)
F4 = FiniteField(2, 2, (1, 1, 1))
F9 = FiniteField(3, 2, (1, 0, 1))
F27 = FiniteField(3, 3, (1, 2, 0, 1))


def make_morphism(src, dst, r, twist=0, eta=None, rng=None):
    if eta is None:
        unit = rng.randrange(1, dst.field.p)
        eta = dst.element([unit] + [rng.randrange(dst.field.p) for _ in range(dst.e - 1)])
    return TruncMorphism(src, dst, r, twist, eta)


def random_chain(rng, lengths=(1, 2, 6, 12)):
    """Objects O_1 -> O_2 -> O_3 -> O_4 with extension-compatible ranks."""
    objs = [TruncObject(F5, e) for e in lengths]
    morphs = []
    for src, dst in zip(objs, objs[1:]):
        r = dst.e // src.e
        morphs.append(make_morphism(src, dst, r, rng.randrange(1), rng=rng))
    return objs, morphs


class TestConstruction:
    def test_compatibility_law_enforced(self):
        src, dst = TruncObject(F5, 2), TruncObject(F5, 6)
        eta = dst.element([2, 1, 0, 0, 0, 0])
        mu_ok = dst.element([0, 0, 0, 2, 1, 0])  # eta * pi^3
        TruncMorphism(src, dst, 3, 0, eta, mu_ok)
        with pytest.raises(ValueError, match="compatibility"):
            TruncMorphism(src, dst, 3, 0, eta, dst.element([0, 0, 0, 1, 1, 0]))

    def test_eta_must_be_unit(self):
        src, dst = TruncObject(F5, 1), TruncObject(F5, 2)
        with pytest.raises(ValueError, match="unit"):
            TruncMorphism(src, dst, 2, 0, dst.element([0, 1]))

    def test_residue_ring_must_be_a_field(self):
        with pytest.raises(ValueError, match="residue field"):
            TruncObject(FiniteField(5, prec=2), 3)

    def test_ring_map_existence_bound(self):
        # r*e1 < e2 cannot define a ring map (pi^e1 must die)
        src, dst = TruncObject(F5, 2), TruncObject(F5, 6)
        with pytest.raises(ValueError, match="no ring map"):
            TruncMorphism(src, dst, 2, 0, dst.one())

    def test_mu_image_derived(self):
        src, dst = TruncObject(F5, 2), TruncObject(F5, 4)
        f = TruncMorphism(src, dst, 2, 0, dst.element([3, 1, 0, 0]))
        assert f.mu_image == dst.element([0, 0, 3, 1])


class TestCompose:
    def test_identity_laws(self):
        rng = random.Random(5)
        src, dst = TruncObject(F5, 2), TruncObject(F5, 6)
        f = make_morphism(src, dst, 3, 1, rng=rng)
        assert compose_morphism(TruncMorphism(dst, dst, 1, 0, dst.one()), f) == f
        assert compose_morphism(f, TruncMorphism(src, src, 1, 0, src.one())) == f

    def test_rank_multiplies(self):
        rng = random.Random(7)
        o1, o2, o3 = TruncObject(F5, 1), TruncObject(F5, 2), TruncObject(F5, 6)
        f = make_morphism(o1, o2, 2, rng=rng)
        g = make_morphism(o2, o3, 3, rng=rng)
        assert compose_morphism(g, f).r == 6

    def test_concrete_substitution(self):
        # e1=1, e2=2, e3=6: composite checked coefficientwise by hand
        o1, o2, o3 = TruncObject(F5, 1), TruncObject(F5, 2), TruncObject(F5, 6)
        f = TruncMorphism(o1, o2, 2, 0, o2.element([3, 1]))
        g = TruncMorphism(o2, o3, 3, 0, o3.element([2, 0, 1, 0, 0, 0]))
        gf = compose_morphism(g, f)
        assert gf.r == 6
        # eta_out = nu(eta_f) * eta_g^2 where nu(3 + pi2) = 3 + 2*pi3^3 + pi3^5
        nu_eta_f = g.apply_ring(f.eta_coeff)
        assert nu_eta_f == o3.element([3, 0, 0, 2, 0, 1])
        assert gf.eta_coeff == nu_eta_f * g.eta_coeff * g.eta_coeff
        # mu substitution route must agree
        assert gf.mu_image == g.apply_ring(f.mu_image)

    def test_associativity_randomized(self):
        rng = random.Random(11)
        for _ in range(100):
            _, (f, g, h) = random_chain(rng)
            left = compose_morphism(h, compose_morphism(g, f))
            right = compose_morphism(compose_morphism(h, g), f)
            assert left == right

    def test_endpoint_mismatch(self):
        rng = random.Random(13)
        o1, o2 = TruncObject(F5, 1), TruncObject(F5, 2)
        f = make_morphism(o1, o2, 2, rng=rng)
        with pytest.raises(ValueError, match="source"):
            compose_morphism(f, f)

    def test_twists_add(self):
        o1 = TruncObject(F4, 1)
        o2 = TruncObject(F4, 2)
        o3 = TruncObject(F4, 4)
        f = TruncMorphism(o1, o2, 2, 1, o2.element([(1, 0), (0, 1)]))
        g = TruncMorphism(o2, o3, 2, 1, o3.one())
        assert compose_morphism(g, f).res_twist == 0  # 1 + 1 mod w = 2


class TestIsExtension:
    def test_true_case(self):
        f = TruncMorphism(TruncObject(F5, 2), TruncObject(F5, 6), 3, 0,
                          TruncObject(F5, 6).one())
        assert is_extension(f)

    def test_false_case(self):
        f = TruncMorphism(TruncObject(F5, 2), TruncObject(F5, 3), 3, 0,
                          TruncObject(F5, 3).one())
        assert not is_extension(f)

    def test_identity(self):
        obj = TruncObject(F5, 4)
        assert is_extension(TruncMorphism(obj, obj, 1, 0, obj.one()))


class TestREquivalent:
    def test_reflexive(self):
        rng = random.Random(17)
        src, dst = TruncObject(F5, 2), TruncObject(F5, 8)
        f = make_morphism(src, dst, 4, rng=rng)
        for c in range(1, dst.e + 1):
            assert r_equivalent(f, f, c)

    def test_valuation_threshold(self):
        src = TruncObject(F5, 4)
        dst = TruncObject(F5, 4)
        base = dst.element([1, 0, 0, 0])
        bumped = dst.element([1, 0, 1, 0])  # differs by pi^2
        f = TruncMorphism(src, dst, 1, 0, base)
        f2 = TruncMorphism(src, dst, 1, 0, bumped)
        assert r_equivalent(f, f2, 2)
        assert not r_equivalent(f, f2, 3)

    def test_different_r(self):
        src, dst = TruncObject(F5, 4), TruncObject(F5, 4)
        f = TruncMorphism(src, dst, 1, 0, dst.one())
        # r = 2 against the same endpoints (2*4 >= 4)
        f2 = TruncMorphism(src, dst, 2, 0, dst.one())
        assert not r_equivalent(f, f2, 1)

    def test_equivalence_axioms_and_monotonicity(self):
        rng = random.Random(19)
        src, dst = TruncObject(F5, 3), TruncObject(F5, 9)
        fs = [make_morphism(src, dst, 3, 0, rng=rng) for _ in range(12)]
        for c in (1, 2, 3):
            for a in fs:
                assert r_equivalent(a, a, c)
                for b in fs:
                    assert r_equivalent(a, b, c) == r_equivalent(b, a, c)
                    if r_equivalent(a, b, c):
                        for c2 in range(1, c):
                            assert r_equivalent(a, b, c2)
                    for cc in fs:
                        if r_equivalent(a, b, c) and r_equivalent(b, cc, c):
                            assert r_equivalent(a, cc, c)

    def test_composition_descends_to_classes(self):
        # exploratory: if f == f' mod R(c), then g o f == g o f' mod R(c)
        rng = random.Random(23)
        for _ in range(40):
            o1, o2, o3 = TruncObject(F5, 2), TruncObject(F5, 4), TruncObject(F5, 12)
            base = [rng.randrange(1, 5)] + [rng.randrange(5) for _ in range(3)]
            c = 1
            bump = list(base)
            idx = rng.randint(2 * c, 3)  # keep v(eta - eta') >= r*c = 2
            bump[idx] = (bump[idx] + rng.randrange(1, 5)) % 5
            f = TruncMorphism(o1, o2, 2, 0, o2.element(base))
            f2 = TruncMorphism(o1, o2, 2, 0, o2.element(bump))
            assert r_equivalent(f, f2, c)
            g = make_morphism(o2, o3, 3, rng=rng)
            assert r_equivalent(compose_morphism(g, f), compose_morphism(g, f2), c)


class TestIsIsomorphism:
    def test_identity(self):
        obj = TruncObject(F5, 3)
        assert is_isomorphism(TruncMorphism(obj, obj, 1, 0, obj.one()))

    def test_higher_rank_fails(self):
        f = TruncMorphism(TruncObject(F5, 2), TruncObject(F5, 4), 2, 0,
                          TruncObject(F5, 4).one())
        assert not is_isomorphism(f)

    def test_truncation_shortening_fails(self):
        # r = 1 from length 2 onto length 1: mu kills pi, not an isomorphism
        f = TruncMorphism(TruncObject(F5, 2), TruncObject(F5, 1), 1, 0,
                          TruncObject(F5, 1).one())
        assert not is_isomorphism(f)

    def test_twisted_identity_is_isomorphism(self):
        obj = TruncObject(F4, 3)
        f = TruncMorphism(obj, obj, 1, 1, obj.one())
        assert is_isomorphism(f)

    @staticmethod
    def oracle(f):
        # the three tests is_isomorphism made before the constructor's unit
        # check settled the last two: r = 1 with equal lengths, mu(pi) a
        # uniformizer for e >= 2, and eta a unit
        if f.r != 1 or f.source.e != f.target.e:
            return False
        if f.target.e > 1 and f.mu_image.valuation() != 1:
            return False
        return any(f.eta_coeff.block(0))

    @pytest.mark.parametrize("field", [F5, F9], ids=repr)
    def test_matches_the_three_tests(self, field):
        rng = random.Random(61)
        seen = set()
        for _ in range(200):
            r = rng.choice((1, 2))
            e1 = rng.randint(1, 6)
            e2 = rng.randint(1, min(6, r * e1))
            dst = TruncObject(field, e2)
            eta = [tuple(rng.randrange(field.p) for _ in range(field.w)) for _ in range(e2)]
            while not any(eta[0]):
                eta[0] = tuple(rng.randrange(field.p) for _ in range(field.w))
            f = TruncMorphism(TruncObject(field, e1), dst, r, rng.randrange(1, 4), dst.element(eta))
            verdict = is_isomorphism(f)
            assert verdict == self.oracle(f), f
            seen.add(verdict)
        assert seen == {True, False}


class TestApplyRing:
    # (e1, e2, r) with r*e1 >= e2: e1 < e2, e1 = e2 and e1 > e2
    SHAPES = [(3, 7, 3), (2, 5, 3), (5, 5, 1), (4, 4, 2), (7, 3, 1), (6, 2, 2), (4, 1, 1), (1, 1, 1)]

    @staticmethod
    def elem(rng, field, unit=False):
        while True:
            c = tuple(rng.randrange(field.p) for _ in range(field.w))
            if not unit or any(c):
                return c

    @pytest.mark.parametrize("field", [F4, F9, F27], ids=repr)
    @pytest.mark.parametrize("e1, e2, r", SHAPES)
    def test_matches_power_by_power(self, field, e1, e2, r):
        rng = random.Random(f"{field!r}:{e1}:{e2}:{r}")
        src, dst = TruncObject(field, e1), TruncObject(field, e2)
        for twist in range(field.w):
            eta = dst.element([self.elem(rng, field, unit=True)]
                              + [self.elem(rng, field) for _ in range(e2 - 1)])
            f = TruncMorphism(src, dst, r, twist, eta)
            for _ in range(4):
                a = src.element([self.elem(rng, field) for _ in range(e1)])
                assert f.apply_ring(a) == apply_ring_by_powers(f, a)
            assert f.apply_ring(src.one()) == dst.one()
            assert f.apply_ring(src.pi()) == f.mu_image
