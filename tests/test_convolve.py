"""Differential tests of the series kernel against the brute-force oracles.

Both product branches (numpy int64 and Kronecker big-integer) and both
chunk-combination branches of the Paterson-Stockmeyer composition are
exercised on F_p, on Z/p^P on either side of the int64 bound, and on
packed F_{p^w} series.
"""

import math
import random

import pytest

from ramforge import _convolve
from ramforge._convolve import compose_mod, conv_mod, mul_mod, recip_mod, reversion_mod

from helpers import brute_compose, exact_int_compose, ext_compose, poly_mul_mod

# (p, monic irreducible modulus, low degree first) for F4, F9 and F27
EXTENSIONS = {
    "F4": (2, (1, 1, 1)),
    "F9": (3, (1, 0, 1)),
    "F27": (3, (1, 2, 0, 1)),
}


def exact_branch(mod, length):
    """True when conv_mod takes the big-integer branch for this size."""
    return (mod - 1) * (mod - 1) * length >= _convolve._INT64_SAFE


def pack(series, w):
    """w-tuples -> flat list, one block of 2w - 1 slots per power of X."""
    return [c for coef in series for c in tuple(coef) + (0,) * (w - 1)]


def unpack(flat, w):
    s = 2 * w - 1
    blocks = [flat[i : i + s] for i in range(0, len(flat), s)]
    assert all(not any(b[w:]) for b in blocks), "a block was left unreduced"
    return [tuple(b[:w]) for b in blocks]


def random_elem(rng, p, w, unit=False):
    while True:
        c = tuple(rng.randrange(p) for _ in range(w))
        if not unit or any(c):
            return c


def random_series(rng, mod, modulus, n, lead):
    """A packed series of n blocks: a unit block at index lead, zeros below."""
    if modulus is None:
        unit = rng.randrange(1, mod)
        while math.gcd(unit, mod) != 1:
            unit += 1
        return [0] * lead + [unit] + [rng.randrange(mod) for _ in range(n - lead - 1)]
    w = len(modulus) - 1
    return pack([(0,) * w] * lead + [random_elem(rng, mod, w, unit=True)]
                + [random_elem(rng, mod, w) for _ in range(n - lead - 1)], w)


class TestConvMod:
    # 7^10: (mod-1)^2 * 57 fits in int64, (mod-1)^2 * 58 does not
    MOD = 7**10

    def test_lengths_straddle_int64_bound(self):
        rng = random.Random(31)
        assert not exact_branch(self.MOD, 57) and exact_branch(self.MOD, 58)
        for length in range(50, 66):
            a = [rng.randrange(self.MOD) for _ in range(length)]
            b = [rng.randrange(self.MOD) for _ in range(length + 3)]
            for n in (length - 7, length, 2 * length + 5):
                assert conv_mod(a, b, n, self.MOD) == poly_mul_mod(a, b, self.MOD, n)

    def test_both_branches_agree_on_same_inputs(self, monkeypatch):
        rng = random.Random(32)
        cases = []
        for mod in (2, 5, 7**10, 3**20, 2**61 - 1):
            for la, lb, n in ((1, 1, 1), (1, 9, 12), (13, 4, 8), (40, 40, 79), (40, 40, 100)):
                # residues from a larger modulus, as callers may hand over
                a = [rng.randrange(3 * mod) for _ in range(la)]
                b = [rng.randrange(mod) for _ in range(lb)]
                cases.append((a, b, n, mod, conv_mod(a, b, n, mod)))
        assert any(exact_branch(mod, min(len(a), len(b))) for a, b, _, mod, _ in cases)
        monkeypatch.setattr(_convolve, "_INT64_SAFE", 0)  # every call takes the exact branch
        for a, b, n, mod, got in cases:
            assert conv_mod(a, b, n, mod) == got == poly_mul_mod(a, b, mod, n)

    def test_worst_case_coefficients_fill_the_slots(self):
        # 3^40 - 1 has 64 bits, so a product of two residues just fits 16 bytes
        mod = 3**40
        for la, lb in ((1, 1), (2, 3), (70, 70), (70, 257)):
            a, b = [mod - 1] * la, [mod - 1] * lb
            assert conv_mod(a, b, la + lb, mod) == poly_mul_mod(a, b, mod, la + lb)

    def test_zero_and_empty_inputs(self):
        mod = 3**40
        assert conv_mod([], [1, 2], 4, mod) == [0, 0, 0, 0]
        assert conv_mod([0] * 70, [5] * 70, 70, mod) == [0] * 70
        assert conv_mod([mod - 1] * 70, [mod - 1] * 70, 0, mod) == []


class TestComposeMod:
    def test_prime_field(self):
        rng = random.Random(41)
        for p in (2, 5):
            for n in (20, 25):
                for length in range(1, 21):
                    outer = [rng.randrange(p) for _ in range(length)]
                    for inner_len in (n, 7, 2):
                        inner = [0] + [rng.randrange(p) for _ in range(inner_len - 1)]
                        got = compose_mod(outer, inner, n, p)
                        assert got == brute_compose(outer, inner, p, n)

    @pytest.mark.parametrize("mod, n", [(7**10, 64), (7**25, 24)])
    def test_padic_ring_past_int64_bound(self, mod, n):
        # 7^10, n = 64: products take the exact branch, the chunk sums int64;
        # 7^25: both take the big-integer path
        assert exact_branch(mod, n)
        rng = random.Random(42)
        for length in list(range(1, 21)) + [n]:
            outer = [rng.randrange(mod) for _ in range(length)]
            for inner_len in (n, n // 3):
                inner = [0] + [rng.randrange(mod) for _ in range(inner_len - 1)]
                want = [c % mod for c in exact_int_compose(outer, inner, n)]
                assert compose_mod(outer, inner, n, mod) == want

    def test_worst_case_chunk_sums(self):
        # outer coefficients mod - 1 against 64-bit residues fill the slots
        # of the big-integer chunk sums (see the conv_mod worst case)
        mod, n = 3**40, 30
        rng = random.Random(46)
        inner = [0] + [rng.randrange(mod) for _ in range(n - 1)]
        for length in (4, 9, 25, 30):
            want = [c % mod for c in exact_int_compose([mod - 1] * length, inner, n)]
            assert compose_mod([mod - 1] * length, inner, n, mod) == want

    @pytest.mark.parametrize("name", sorted(EXTENSIONS))
    def test_extension_fields(self, name):
        p, modulus = EXTENSIONS[name]
        w = len(modulus) - 1
        rng = random.Random(43)
        for n in (20, 23):
            for length in range(1, 21):
                outer = [random_elem(rng, p, w) for _ in range(length)]
                for inner_len in (n, 6):
                    inner = [(0,) * w] + [random_elem(rng, p, w) for _ in range(inner_len - 1)]
                    got = compose_mod(pack(outer, w), pack(inner, w), n, p, modulus)
                    assert unpack(got, w) == ext_compose(outer, inner, p, modulus, n)

    def test_extension_field_chunk_sums_past_int64_bound(self, monkeypatch):
        # force the big-integer chunk sums, which no real field size reaches
        p, modulus = EXTENSIONS["F27"]
        rng = random.Random(44)
        monkeypatch.setattr(_convolve, "_INT64_SAFE", 0)
        for length in (1, 5, 16, 17):
            outer = [random_elem(rng, p, 3) for _ in range(length)]
            inner = [(0, 0, 0)] + [random_elem(rng, p, 3) for _ in range(17)]
            got = compose_mod(pack(outer, 3), pack(inner, 3), 18, p, modulus)
            assert unpack(got, 3) == ext_compose(outer, inner, p, modulus, 18)

    @pytest.mark.parametrize(
        "mod, modulus",
        [(5, None), (7**25, None), (2, EXTENSIONS["F4"][1]), (3, EXTENSIONS["F27"][1])],
        ids=["F5", "7^25", "F4", "F27"],
    )
    def test_product_count(self, monkeypatch, mod, modulus):
        n = 100
        rng = random.Random(45)
        outer = random_series(rng, mod, modulus, n, 0)
        inner = random_series(rng, mod, modulus, n, 1)
        calls = {"conv_mod": 0, "mul_mod": 0}
        for name in calls:
            orig = getattr(_convolve, name)

            def counted(*args, name=name, orig=orig, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)

            monkeypatch.setattr(_convolve, name, counted)
        compose_mod(outer, inner, n, mod, modulus)
        k = math.isqrt(n - 1) + 1  # ceil(sqrt(n)); Horner's rule needs n - 1 products
        assert 0 < calls["mul_mod"] <= 2 * k + 1 and calls["conv_mod"] <= 2 * k + 1


class TestRoundTrips:
    RINGS = [(5, None), (7**25, None), (2, EXTENSIONS["F4"][1]),
             (3, EXTENSIONS["F9"][1]), (3, EXTENSIONS["F27"][1])]
    IDS = ["F5", "7^25", "F4", "F9", "F27"]

    @pytest.mark.parametrize("mod, modulus", RINGS, ids=IDS)
    def test_reciprocal(self, mod, modulus):
        s = _convolve.block_size(modulus)
        rng = random.Random(51)
        for n in (1, 2, 9, 30):
            a = random_series(rng, mod, modulus, n, 0)
            one = [1] + [0] * (n * s - 1)
            assert mul_mod(a, recip_mod(a, n, mod, modulus), n, mod, modulus) == one

    @pytest.mark.parametrize("mod, modulus", RINGS, ids=IDS)
    def test_reversion(self, mod, modulus):
        s = _convolve.block_size(modulus)
        rng = random.Random(52)
        for n in (2, 3, 10, 30):
            g = random_series(rng, mod, modulus, n, 1)
            x = [0] * s + [1] + [0] * ((n - 1) * s - 1)
            assert compose_mod(g, reversion_mod(g, n, mod, modulus), n, mod, modulus) == x
