"""Differential tests of the series kernel against the brute-force oracles.

Both product branches (numpy int64 and Kronecker big-integer) and both
chunk-combination branches of the Paterson-Stockmeyer composition are
exercised on F_p, on Z/p^P on either side of the int64 bound, and on
packed F_{p^w} series.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ramforge import _convolve
from ramforge._convolve import compose_mod, conv_mod, mul_mod, recip_mod, reversion_mod
from ramforge.gfseries import vp

from helpers import (brute_comp_inverse, brute_compose, exact_int_compose, exact_series_divide, ext_compose,
                     frac_mod, poly_mul_mod)

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
    """w-tuples -> flat list, w residues per power of X."""
    return [c for coef in series for c in coef]


def unpack(flat, w):
    assert len(flat) % w == 0, "a block was cut short"
    return [tuple(flat[i : i + w]) for i in range(0, len(flat), w)]


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
                a = [rng.randrange(mod) for _ in range(la)]
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

    def test_array_operands(self):
        # compose_mod's form: arrays of reduced residues in, an array of the
        # first operand's dtype out, equal to the list product
        import numpy as np

        rng = random.Random(33)
        for mod, dtype in ((5, np.int64), (7**10, np.int64), (7**10, object), (3**40, object)):
            for la, lb, n in ((1, 1, 1), (9, 4, 12), (40, 40, 79), (70, 70, 70)):
                if dtype is np.int64 and exact_branch(mod, min(la, lb)):
                    continue  # int64 arrays are only passed below the bound
                a = [rng.randrange(mod) for _ in range(la)]
                b = [rng.randrange(mod) for _ in range(lb)]
                got = conv_mod(np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype), n, mod)
                assert isinstance(got, np.ndarray) and got.dtype == dtype
                assert got.tolist() == conv_mod(a, b, n, mod) == poly_mul_mod(a, b, mod, n)

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
        # both sizes are past the int64 bound, so the composition runs on
        # arrays of Python ints with big-integer products
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
        calls = {"conv_mod": 0, "mul_mod": 0, "product": 0, "fold": 0}
        spied = [(_convolve, "conv_mod"), (_convolve, "mul_mod")]
        for layout in (_convolve._Words, _convolve._Slots):
            spied += [(layout, "product"), (layout, "fold")]
        for owner, name in spied:
            orig = getattr(owner, name)

            def counted(*args, name=name, orig=orig, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        k = math.isqrt(n - 1) + 1  # ceil(sqrt(n)); Horner's rule needs n - 1 products
        # Paterson-Stockmeyer by its baby powers, which over F5 the kernel
        # would not choose at this size
        compose_mod(outer, None, n, mod, modulus, _convolve.baby_powers(inner, n, mod, modulus, k))
        # the baby powers and the Horner steps of _compose, in either layout,
        # take k - 1 and ceil(n / k) - 1 products
        assert 0 < calls["product"] <= 2 * k + 1 and calls["mul_mod"] == 0
        if modulus is None:
            # a product of slots is one conv_mod
            assert type(_convolve._layout(mod, modulus, n)) is _convolve._Slots
            assert calls["conv_mod"] == calls["product"]
        else:
            # F4 and F27 at 100 blocks are inside the word bound: a product of
            # words is one np.convolve and one fold, and the last chunk sum
            # takes one fold more
            assert type(_convolve._layout(mod, modulus, n)) is _convolve._Words
            assert 0 < calls["fold"] <= 2 * k + 1 and calls["conv_mod"] == 0


class TestRoundTrips:
    RINGS = [(5, None), (7**25, None), (2, EXTENSIONS["F4"][1]),
             (3, EXTENSIONS["F9"][1]), (3, EXTENSIONS["F27"][1])]
    IDS = ["F5", "7^25", "F4", "F9", "F27"]

    # reciprocals are taken over Z/p^P alone, by divide_mod
    RECIPROCAL_RINGS = [5, 7**25]
    RECIPROCAL_IDS = ["F5", "7^25"]

    @pytest.mark.parametrize("mod", RECIPROCAL_RINGS, ids=RECIPROCAL_IDS)
    def test_reciprocal(self, mod):
        import numpy as np

        rng = random.Random(51)
        for n in (1, 2, 9, 30):
            a = random_series(rng, mod, None, n, 0)
            h = recip_mod(np.asarray(a, dtype=_convolve.array_dtype(mod, n)), n, mod)
            assert mul_mod(a, h.tolist(), n, mod) == [1] + [0] * (n - 1)

    @pytest.mark.parametrize("mod, modulus", RINGS, ids=IDS)
    def test_reversion(self, mod, modulus):
        w = 1 if modulus is None else len(modulus) - 1
        rng = random.Random(52)
        for n in (2, 3, 10, 30):
            g = random_series(rng, mod, modulus, n, 1)
            x = [0] * w + [1] + [0] * ((n - 1) * w - 1)
            assert compose_mod(g, reversion_mod(g, n, mod, modulus), n, mod, modulus) == x

    @pytest.mark.parametrize("mod", RECIPROCAL_RINGS, ids=RECIPROCAL_IDS)
    def test_reciprocal_of_arrays(self, mod):
        # the result has the operand's dtype, the kernel's own or object,
        # and the same entries in both; the operand, read-only as the baby
        # powers are, is not written
        import numpy as np

        rng = random.Random(53)
        for n in (1, 5, 30):
            a = random_series(rng, mod, None, n, 0)
            got = []
            for dtype in (_convolve.array_dtype(mod, n), object):
                x = np.asarray(a, dtype=dtype)
                x.flags.writeable = False
                h = recip_mod(x, n, mod)
                assert isinstance(h, np.ndarray) and h.dtype == dtype and x.tolist() == a
                got.append(h.tolist())
            assert got[0] == got[1]


# (mod, modulus) for reversion: F_p, F_4 .. F_27, and Z/p^P in the int64
# halves band (7^10) and past it (3^40)
REVERSION_RINGS = [
    (2, None), (3, None), (5, None), (7**10, None), (3**40, None),
    (2, EXTENSIONS["F4"][1]), (2, (1, 1, 0, 1)), (3, EXTENSIONS["F9"][1]),
    (2, (1, 1, 0, 0, 1)), (5, (2, 0, 1)), (3, EXTENSIONS["F27"][1]),
]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(ring=st.sampled_from(REVERSION_RINGS), n=st.integers(2, 70), seed=st.integers(0, 2**32))
@example(ring=(5, None), n=20, seed=0)  # last step clipped from 32 blocks to 20
@example(ring=(3**40, None), n=70, seed=0)
@example(ring=(3, EXTENSIONS["F27"][1]), n=3, seed=0)  # one step, clipped from 4 to 3
def test_reversion_one_composition_per_step(ring, n, seed):
    mod, modulus = ring
    w = 1 if modulus is None else len(modulus) - 1
    g = random_series(random.Random(seed), mod, modulus, n, 1)
    with mock.patch.object(_convolve, "compose_mod", wraps=_convolve.compose_mod) as spy, \
            mock.patch.object(_convolve, "_compose", wraps=_convolve._compose) as body_spy:
        h = reversion_mod(g, n, mod, modulus)
    # Newton step j makes g(h) == X correct through X^(2^(j+1) - 1), by one
    # call of the one composition body, in words or in slots, and none of
    # compose_mod
    steps = (n - 1).bit_length() - 1
    assert (spy.call_count, body_spy.call_count) == (0, steps)
    x = [0] * w + [1] + [0] * ((n - 1) * w - 1)
    assert compose_mod(g, h, n, mod, modulus) == x
    assert compose_mod(h, g, n, mod, modulus) == x
    if modulus is None and mod < 7 and n <= 24:
        assert h == brute_comp_inverse(g, mod, n)


# (p, P) for divide_mod: Z/5^8 below the direct bound, 3^20 in the int64
# halves band and 3^40 past it, in Python ints
DIVIDE_RINGS = [(5, 8), (3, 20), (3, 40)]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(ring=st.sampled_from(DIVIDE_RINGS), length=st.integers(1, 40), i0=st.integers(0, 6),
       v=st.integers(1, 3), seed=st.integers(0, 2**32))
@example(ring=(5, 8), length=30, i0=0, v=1, seed=0)
@example(ring=(3, 20), length=30, i0=0, v=1, seed=0)
@example(ring=(3, 40), length=30, i0=0, v=1, seed=0)
@example(ring=(5, 8), length=30, i0=4, v=1, seed=0)
@example(ring=(3, 20), length=30, i0=5, v=2, seed=0)
@example(ring=(3, 40), length=40, i0=6, v=3, seed=0)
def test_divide_mod_matches_exact_division(ring, length, i0, v, seed):
    # den = den_lo + X^i0 den_hi with den_lo divisible by p^v and den_hi a
    # unit series, and num = q den for a q of length - i0 terms: q is the
    # one fixed point of the rounds, reached in ceil(P / v_lo) of them, and
    # the quotient over Q of the integer series num / den
    p, P = ring
    mod = p**P
    i0 = min(i0, length - 1)
    rng = random.Random(seed)
    den = [p**v * rng.randrange(mod) for _ in range(i0)] + random_series(rng, mod, None, length - i0, 0)
    den[0] = den[0] or p**v  # Q division pivots on den_0
    q = [rng.randrange(mod) for _ in range(length - i0)]
    # the integer product: an entry sums at most 40 terms below 27 mod^2
    num = poly_mul_mod(q, den, mod**3, length)
    v_lo = min((vp(c % mod, p, P) for c in den[:i0]), default=P)
    got, residual = _convolve.divide_mod([c % mod for c in num], [c % mod for c in den], i0,
                                         -(-P // v_lo), mod)
    oracle = exact_series_divide(num, den, length - i0)
    assert got == [frac_mod(c, p, P) for c in oracle] == q
    assert residual == [0] * i0
