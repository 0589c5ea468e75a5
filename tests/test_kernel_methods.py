"""Differential tests of the kernel's four exact product methods, and of
its two composition methods.

``conv_mod``, ``mul_mod`` and ``compose_mod`` choose between a direct
numpy int64 op, a product split by length into two or three direct ones
(series products only), an int64 op on residues split in halves
(Karatsuba) and a Kronecker big-integer multiply.  Each case here runs on
the same inputs through every method that is exact for it, and is checked
against the brute-force oracles in ``helpers.py``.  A method is forced by
lowering ``_convolve._INT64_SAFE``, as ``test_convolve.py`` does: to 0
every product takes Kronecker; to just above the halves bound of the case
no product fits directly but every one fits in halves (lists of at most
``_SHORT`` slots take Kronecker whatever the bound); and to just above
(mod - 1)^2 * t, for t a half or a third of the shorter operand's length,
a product fits directly in two or three pieces of it.  Spies on
``_split``, ``_halves`` and ``_pack`` check that the forced method ran.
Over F_p, compositions by the Frobenius split and by Paterson-Stockmeyer
run on the same inputs, under every forced product method, and against
the brute-force oracles; so do the compositions that are handed no data
and so pick their method in the kernel, in reversion and in the ring maps
of truncated rings, against the same ones forced to Paterson-Stockmeyer.
The split's two level forms, matrix products and float64 convolutions,
run on both sides of the size test that picks them.
"""

import os
import random
import subprocess
import sys
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramforge import FiniteField, InvariantError, TruncMorphism, TruncObject, TruncSeries, _convolve
from ramforge._convolve import (_SHORT, baby_powers, compose_mod, conv_mod, frobenius_tables, mul_mod,
                                reversion_mod, row_combination)

from helpers import (apply_ring_by_powers, brute_comp_inverse, brute_compose, cadd, cmul, exact_int_compose,
                     ext_compose, poly_mul_mod)

KERNEL = settings(derandomize=True, max_examples=40, deadline=None, database=None)
SAFE = 2**62

# both sides of every bound: direct at any length here (2, 5), direct or
# halves by length (7^10, 5^12), halves from the first product (3^20,
# 2^32 - 5), the top of the halves band (2^41 - 1), just above it
# (2^41 + 1), and Kronecker (7^25, 3^40)
MODULI = [2, 5, 7**10, 5**12, 3**20, 2**32 - 5, 2**41 - 1, 2**41 + 1, 7**25, 3**40]
moduli = st.one_of(st.sampled_from(MODULI), st.integers(2, 2**66))

# (p, monic irreducible modulus, low degree first): F9, F27, and F_{q^2}
# and F_{q^3} for q = 2^31 - 1, where every product of two residues is past
# the direct bound.  Y^2 + 1 is irreducible as q = 3 mod 4, and
# Y^3 + 3Y + 3 by FiniteField's irreducibility test; Y^3 = -3Y - 3 and
# Y^4 = -3Y^2 - 3Y have entries near q, so a folded slot sums two products
# near 2^62.
Q = 2**31 - 1
EXTENSIONS = {
    "F9": (3, (1, 0, 1)),
    "F27": (3, (1, 2, 0, 1)),
    "Fq2": (Q, (1, 0, 1)),
    "Fq3": (Q, (3, 3, 0, 1)),
}


def halves_floor(mod, terms):
    """The least bound under which products of at most terms terms fit in halves."""
    h = ((mod - 1).bit_length() + 1) // 2
    return max(terms << (2 * h + 2), mod << h) + 1


def run_methods(fn, mod, terms, forced=None):
    """{method: (fn(), calls of _halves, calls of _pack)} for each exact method.

    "natural" is the unforced choice; "direct" runs where every product of at
    most terms terms fits directly, "halves" where it can be forced; forced
    maps more methods to their bounds.
    """
    bounds = {"natural": SAFE, "kronecker": 0, **(forced or {})}
    if (mod - 1) * (mod - 1) * terms < SAFE:
        bounds["direct"] = SAFE
    floor = halves_floor(mod, terms)
    if floor <= SAFE and (mod - 1) * (mod - 1) >= floor:
        bounds["halves"] = floor
    calls = {"_halves": 0, "_pack": 0}
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            orig = getattr(_convolve, name)

            def counted(*args, name=name, orig=orig):
                calls[name] += 1
                return orig(*args)

            mp.setattr(_convolve, name, counted)
        for method, bound in bounds.items():
            mp.setattr(_convolve, "_INT64_SAFE", bound)
            calls.update(dict.fromkeys(calls, 0))
            out[method] = (fn(), calls["_halves"], calls["_pack"])
    return out


def check_methods(results, want, numpy_case):
    """Every method gives want, and each forced method is the one that ran.

    numpy_case: the products are long enough (or arrays) for numpy.
    """
    for method, (got, halves, packs) in results.items():
        assert got == want, method
        if method == "kronecker":
            assert halves == 0
        elif method in ("direct", "slots-direct") and numpy_case:
            assert halves == 0 and packs == 0
        elif method == "halves" and numpy_case:
            assert halves > 0 and packs == 0


def series(draw, mod, size, lead=0):
    return [0] * lead + draw(st.lists(st.integers(0, mod - 1), min_size=size - lead, max_size=size - lead))


@st.composite
def products(draw):
    mod = draw(moduli)
    la, lb = draw(st.integers(0, 70)), draw(st.integers(0, 70))
    n = draw(st.integers(0, la + lb + 3))
    return mod, series(draw, mod, la), series(draw, mod, lb), n


@st.composite
def compositions(draw):
    mod = draw(moduli)
    n = draw(st.integers(1, 40))
    outer = series(draw, mod, draw(st.integers(1, 45)))
    inner = series(draw, mod, draw(st.integers(1, n)), lead=1)
    return mod, outer, inner, n


class TestConvMod:
    @KERNEL
    @given(products())
    def test_methods_agree(self, case):
        mod, a, b, n = case
        want = poly_mul_mod(a, b, mod, n)
        results = run_methods(lambda: conv_mod(a, b, n, mod), mod, max(n, 1))
        la, lb = min(len(a), n), min(len(b), n)
        check_methods(results, want, la and lb and max(la, lb) > _SHORT)
        assert all(type(got) is list for got, _, _ in results.values())

    @KERNEL
    @given(products())
    def test_int64_arrays_give_int64_arrays(self, case):
        # compose_mod's operands: int64 arrays wherever an int64 method is exact
        mod, a, b, n = case
        if not _convolve._int64_exact(mod, max(n, 1)):
            return
        got = conv_mod(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64), n, mod)
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert got.tolist() == poly_mul_mod(a, b, mod, n)

    @pytest.mark.parametrize("mod", [3**20, 2**32 - 5, 2**41 - 1])
    @pytest.mark.parametrize("length", [_SHORT, _SHORT + 1, 70, 130])
    def test_worst_case_residues(self, mod, length):
        a = b = [mod - 1] * length
        results = run_methods(lambda: conv_mod(a, b, 2 * length, mod), mod, 2 * length)
        # these moduli take halves unforced, past the short lists
        assert (results["natural"][1] > 0) == (length > _SHORT)
        check_methods(results, poly_mul_mod(a, b, mod, 2 * length), length > _SHORT)

    @pytest.mark.parametrize("mod", [3**20, 2**41 - 1])
    @pytest.mark.parametrize("slots", [1, 4, _SHORT, _SHORT + 1, 16, 17, 32])
    @pytest.mark.parametrize("arrays", [False, True])
    def test_only_short_lists_past_the_split_take_kronecker(self, mod, slots, arrays):
        # past the split band, lists of at most _SHORT slots take one
        # big-integer multiply, so that field arithmetic needs no numpy;
        # longer lists and arrays of any length take halves.  Arrays come
        # back in their own dtype
        method = "kronecker" if slots <= _SHORT and not arrays else "halves"
        rng = random.Random(slots)
        a, b = ([rng.randrange(mod) for _ in range(slots)] for _ in range(2))
        ops = (np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)) if arrays else (a, b)
        want = poly_mul_mod(a, b, mod, 2 * slots)
        results = run_methods(lambda: conv_mod(*ops, 2 * slots, mod), mod, 2 * slots)
        got, halves, packs = results["natural"]
        assert (halves > 0, packs > 0) == (method == "halves", method == "kronecker")
        assert type(got) is type(ops[0]) and (not arrays or got.dtype == np.int64)
        check_methods({m: (list(r[0]), *r[1:]) for m, r in results.items()}, want, method == "halves")

    def test_just_above_the_halves_band(self):
        # (2^41 - 1) * 2^21 is below the int64 bound, (2^41 + 1) * 2^21 is not
        assert _convolve._int64_exact(2**41 - 1, 130)
        assert not _convolve._int64_exact(2**41 + 1, 1)
        mod = 2**41 + 1
        a = b = [mod - 1] * 70
        results = run_methods(lambda: conv_mod(a, b, 140, mod), mod, 140)
        assert set(results) == {"natural", "kronecker"}
        got, halves, packs = results["natural"]
        assert halves == 0 and packs > 0
        check_methods(results, poly_mul_mod(a, b, mod, 140), True)

    @KERNEL
    @given(st.integers(2, 2**41 - 1), st.integers(1, 6), st.integers(1, 40), st.integers(1, 4), st.data())
    def test_halves_of_any_bilinear_op(self, mod, rows, inner, cols, data):
        # _halves on its own, over the whole band, for both ops the kernel uses
        a = [series(data.draw, mod, inner) for _ in range(rows)]
        b = [series(data.draw, mod, cols) for _ in range(inner)]
        got = _convolve._halves(np.convolve, np.asarray(a[0], dtype=np.int64),
                                np.asarray(b[0], dtype=np.int64), mod)
        assert got.tolist() == poly_mul_mod(a[0], b[0], mod, inner + cols - 1)
        got = _convolve._halves(np.matmul, np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64), mod)
        assert got.tolist() == [[sum(x * row[j] for x, row in zip(r, b)) % mod for j in range(cols)] for r in a]


@st.composite
def split_products(draw):
    # moduli whose (mod - 1)^2 * t stays below 2^62 for the t forced below
    mod = draw(st.sampled_from([2, 5, 7**10, 5**12, 2**20 + 7]) | st.integers(2, 2**24))
    la, lb = draw(st.integers(2, 70)), draw(st.integers(2, 70))
    n = draw(st.integers(2, la + lb + 3))
    return mod, series(draw, mod, la), series(draw, mod, lb), n, draw(st.sampled_from([2, 3]))


class TestSplit:
    def run_split(self, fn, mod, terms, c):
        """fn() with a product of ceil(terms / c) terms the most that fits
        directly, and the pieces of each call of ``_split``; no call may
        take halves or Kronecker."""
        pieces, calls = [], {"_halves": 0, "_pack": 0}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_convolve, "_INT64_SAFE", (mod - 1) ** 2 * -(-terms // c) + 1)
            split = _convolve._split
            mp.setattr(_convolve, "_split", lambda *args: pieces.append(args[-1]) or split(*args))
            for name in calls:
                mp.setattr(_convolve, name, lambda *args, name=name: calls.__setitem__(name, 1))
            got = fn()
        assert calls == {"_halves": 0, "_pack": 0}
        return got, pieces

    @KERNEL
    @given(split_products())
    def test_split_products(self, case):
        mod, a, b, n, c = case
        terms = min(len(a), len(b), n)
        want = poly_mul_mod(a, b, mod, n)
        cases = [(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))]
        if max(min(len(a), n), min(len(b), n)) > _SHORT:  # shorter lists take Kronecker
            cases.append((a, b))
        for ops in cases:
            got, pieces = self.run_split(lambda: conv_mod(*ops, n, mod), mod, terms, c)
            assert len(pieces) == 1 and 2 <= pieces[0] <= 3
            assert list(got) == want and type(got) is type(ops[0])

    @pytest.mark.parametrize("mod", [5, 7**10])
    @pytest.mark.parametrize("c", [2, 3])
    def test_worst_case_residues(self, mod, c):
        # every piece's accumulator at its largest: t products of (mod - 1)^2
        a = b = [mod - 1] * 100
        got, pieces = self.run_split(lambda: conv_mod(a, b, 199, mod), mod, 100, c)
        assert pieces == [c] and got == poly_mul_mod(a, b, mod, 199)

    def test_extension_field_product(self):
        # a packed product over F27, whose natural layout at 12 blocks is one
        # word per block, takes the slot layout under the lowered bound:
        # it splits too, then folds directly
        p, modulus = EXTENSIONS["F27"]
        rng = np.random.default_rng(5)
        n, w = 12, 3
        assert type(_convolve._layout(p, modulus, n)) is _convolve._Words
        a, b = (list(map(tuple, rng.integers(0, p, (n, w)).tolist())) for _ in range(2))
        got, pieces = self.run_split(lambda: mul_mod(pack(a, w), pack(b, w), n, p, modulus),
                                     p, n * (2 * w - 1), 2)
        assert pieces == [2] and unpack(got, w) == ext_mul(a, b, p, modulus, n)

    def test_natural_choice_just_past_the_direct_bound(self):
        # 100 terms mod 7^10: (mod - 1)^2 * 100 is about 2^62.8, past the
        # bound, and two pieces of 50 fit, so no call takes halves
        mod = 7**10
        assert (mod - 1) ** 2 * 100 >= SAFE > (mod - 1) ** 2 * 50
        t = (SAFE - 1) // (mod - 1) ** 2
        assert _convolve._pieces(mod, 100) == 2 and _convolve._pieces(mod, 3 * t) == 3
        assert _convolve._pieces(mod, 3 * t + 1) > 3
        a = b = [mod - 1] * 100
        results = run_methods(lambda: conv_mod(a, b, 100, mod), mod, 100)
        assert results["natural"][1:] == (0, 0)
        check_methods(results, poly_mul_mod(a, b, mod, 100), True)


class TestComposeMod:
    @KERNEL
    @given(compositions())
    def test_methods_agree(self, case):
        mod, outer, inner, n = case
        want = [c % mod for c in exact_int_compose(outer, inner, n)]
        results = run_methods(lambda: compose_mod(outer, inner, n, mod), mod, n)
        check_methods(results, want, True)
        assert all(type(got) is list for got, _, _ in results.values())

    @pytest.mark.parametrize("mod", [3**20, 2**32 - 5, 2**41 - 1])
    def test_worst_case_residues(self, mod):
        n = 40
        outer = [mod - 1] * n
        inner = [0] + [mod - 1] * (n - 1)
        results = run_methods(lambda: compose_mod(outer, inner, n, mod), mod, n)
        assert results["natural"][1] > 0
        check_methods(results, [c % mod for c in exact_int_compose(outer, inner, n)], True)

    def test_just_above_the_halves_band(self):
        mod, n = 2**41 + 1, 30
        outer = [mod - 1] * n
        inner = [0] + [mod - 1] * (n - 1)
        results = run_methods(lambda: compose_mod(outer, inner, n, mod), mod, n)
        assert results["natural"][1] == 0 and results["natural"][2] > 0
        check_methods(results, [c % mod for c in exact_int_compose(outer, inner, n)], True)


FROBENIUS_PRIMES = [2, 3, 5, 7, 11]


@st.composite
def frobenius_cases(draw, max_n=400):
    """(p, outer, inner, n) over F_p: n on both sides of the base size and
    of p times it, and of multiples of p; outers shorter and longer than n;
    dense inners, and sparse ones that start deep."""
    p = draw(st.sampled_from(FROBENIUS_PRIMES))
    base = _convolve._FROBENIUS_BASE
    near = [base - 1, base, base + 1, p * base, p * base + 1]
    n = draw(st.one_of(
        st.integers(1, 130),
        st.sampled_from([k for k in near if k <= max_n]),
        st.builds(lambda k, d: max(1, k * p + d), st.integers(1, 130 // p), st.sampled_from([-1, 0, 1])),
    ).filter(lambda k: k <= max_n))
    outer = series(draw, p, draw(st.integers(1, n + 8)))
    if draw(st.booleans()):
        inner = series(draw, p, n, lead=1)
    else:
        inner = [0] * n
        if n > 1:
            lead = draw(st.integers(1, n - 1))
            for k in draw(st.lists(st.integers(lead, n - 1), max_size=4)):
                inner[k] = draw(st.integers(1, p - 1))
    return p, outer, inner, n


def frobenius_compose(outer, inner, n, p):
    return compose_mod(outer, None, n, p, None, frobenius_tables(inner, n, p))


def paterson_stockmeyer(outer, inner, n, mod, modulus=None):
    """compose_mod by Paterson-Stockmeyer, which it may not choose unforced."""
    k = isqrt(n - 1) + 1
    return compose_mod(outer, None, n, mod, modulus, baby_powers(inner, n, mod, modulus, k))


class TestFrobeniusSplit:
    @settings(KERNEL, max_examples=150)
    @given(frobenius_cases())
    def test_matches_paterson_stockmeyer_and_the_oracle(self, case):
        p, outer, inner, n = case
        want = paterson_stockmeyer(outer, inner, n, p)
        assert frobenius_compose(outer, inner, n, p) == want
        if n <= 64:
            assert want == brute_compose(outer, inner, p, n)

    @settings(KERNEL, max_examples=80)
    @given(frobenius_cases(max_n=70))
    def test_methods_agree(self, case):
        # Paterson-Stockmeyer under each forced product method, and the
        # split under the same forced int64 bounds: the split runs in
        # float64 alone, so no int64 bound reaches it and no call of it
        # takes halves or Kronecker
        p, outer, inner, n = case
        want = [c % p for c in exact_int_compose(outer, inner, n)]
        results = run_methods(lambda: paterson_stockmeyer(outer, inner, n, p), p, n)
        assert {"natural", "kronecker", "direct"} <= set(results)
        check_methods(results, want, True)
        results = run_methods(lambda: frobenius_compose(outer, inner, n, p), p, n)
        assert {"natural", "kronecker", "direct"} <= set(results)
        assert all(r == (want, 0, 0) for r in results.values())

    @pytest.mark.parametrize("n", [1, 9, 20, 32])
    def test_halves_in_the_base_table(self, n):
        # mod 1031 one product fits int64 directly and, under the forced
        # bound, a sum of n of them only in halves; at n <= 32 the base
        # table, built from packed ints, and its one matrix product are the
        # whole split, both float64 whatever the int64 bound: no call takes
        # halves
        p = 1031
        outer = [p - 1] * n
        inner = [0] + [p - 1] * (n - 1)
        results = run_methods(lambda: frobenius_compose(outer, inner, n, p), p, n)
        assert "halves" in results
        want = [c % p for c in exact_int_compose(outer, inner, n)]
        assert all(r == (want, 0, 0) for r in results.values())


def level_forms(fn):
    """fn() and, for each level the split put together, in the order run,
    whether ``_matrix_level`` made it a matrix level."""
    forms = []
    test = _convolve._matrix_level
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_convolve, "_matrix_level", lambda *args: forms.append(test(*args)) or forms[-1])
        return fn(), forms


def level_work(p, n):
    """rows * p * m * n_d, what ``_matrix_level`` bounds, for each level d
    of a split of n terms, top level first."""
    sizes = frobenius_tables([0, 1], n, p).sizes
    return [p**d * p * m * nd for d, (nd, m) in enumerate(zip(sizes, sizes[1:]))]


class TestLevelForms:
    """Each level of the split is a matrix product or float64 convolutions,
    as ``_matrix_level`` picks from (p, m, n_d, rows).  Both forms run on
    the same inputs at the boundary: the last matrix level, at the bound,
    and the first convolution level, just past it.  Residues p - 1 give
    every sum its most."""

    @pytest.mark.parametrize("p", FROBENIUS_PRIMES)
    def test_forced_boundary_against_the_oracle(self, p):
        # n with two levels at p = 2 and 3, one from p = 5; the bound is
        # forced to each level's work and one below it, so each level is in
        # turn the last matrix level and the first convolution level
        n = {2: 70, 3: 100}.get(p, 64)
        outer = [p - 1] * n
        inner = [0] + [p - 1] * (n - 1)
        want = brute_compose(outer, inner, p, n)
        work = level_work(p, n)
        assert len(work) == (2 if p <= 3 else 1) and work == sorted(work, reverse=True)
        seen = set()
        for bound in sorted({w - e for w in work for e in (0, 1)}):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_convolve, "_LEVEL_MATRIX", bound)
                got, forms = level_forms(lambda: frobenius_compose(outer, inner, n, p))
            # the tables ask for each level top first, the composition deepest first
            assert forms == [w <= bound for w in work] + [w <= bound for w in reversed(work)]
            assert got == want
            seen.update(forms)
        assert seen == {True, False}

    @pytest.mark.parametrize("p", FROBENIUS_PRIMES)
    def test_natural_boundary(self, p):
        # the largest n whose top level, one row, is a matrix level, and the
        # next n, whose top level is convolutions; the deeper levels, of less
        # work, stay matrix levels
        n = max(k for k in range(33, 600) if _convolve._matrix_level(p, -(-k // p), k, 1))
        for size, top in ((n, True), (n + 1, False)):
            rng = random.Random(f"boundary:{p}:{size}")
            outer = [p - 1] * size
            inner = [0] + [p - 1 if rng.random() < 0.5 else rng.randrange(p) for _ in range(size - 1)]
            got, forms = level_forms(lambda: frobenius_compose(outer, inner, size, p))
            depth = len(forms) // 2
            assert forms[0] == forms[-1] == top and all(forms[1:depth]) and all(forms[depth:-1])
            assert got == paterson_stockmeyer(outer, inner, size, p)


def run_optimized(body):
    """Run body, a script that exits 0 on success, in a fresh interpreter
    under ``python -O`` with ramforge importable; it must exit 0."""
    script = "import sys\nif not sys.flags.optimize:\n    sys.exit(5)\n" + body
    src = str(Path(_convolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def repeated_products(inner, p, size):
    """h^0 .. h^(size-1) mod X^size over F_p, one schoolbook product each."""
    power, rows = [1] + [0] * (size - 1), []
    for _ in range(size):
        rows.append(power)
        power = poly_mul_mod(power, inner, p, size)
    return rows


class TestFrobeniusTables:
    # the base table's rows are h^0 .. h^(B-1) mod X^B, each one packed
    # product after the last.  n = p - 1, p, p + 1 and 32 are their own
    # base sizes B, below p, equal to it and above it; n = 100 has levels
    # above its base, B = 25, 12, 20, 15 and 10 for p = 2 .. 11
    @pytest.mark.parametrize("p", FROBENIUS_PRIMES)
    @pytest.mark.parametrize("dn", [-1, 0, 1, "32", "100"])
    def test_seeded_base_table_matches_repeated_products(self, p, dn):
        n = int(dn) if isinstance(dn, str) else p + dn
        rng = random.Random(f"tables:{p}:{n}")
        dense = [0] + [rng.randrange(p) for _ in range(n - 1)]
        deep = [0] * n
        if n > 1:
            deep[n // 2] = 1
        for inner in (dense, deep):
            tables = frobenius_tables(inner, n, p)
            size = tables.sizes[-1]
            assert size == n or n == 100
            assert tables.table.tolist() == repeated_products(inner, p, size)

    # (p, n, slot width): each of the four widths the base table takes.
    # p = 47 at n = 1105, which the size test admits, has levels down to
    # B = 24, in 64-bit slots; p = 6197 at B = 32, which a direct call
    # builds though the size test refuses it, needs 63 of its 64 bits
    @pytest.mark.parametrize("p, n, width", [
        (2, 7, 8), (2, 32, 16), (3, 27, 16), (7, 9, 32), (11, 32, 32), (1031, 32, 64), (47, 1105, 64),
        (6197, 32, 64),
    ])
    def test_slot_widths_at_the_worst_slot_sums(self, monkeypatch, p, n, width):
        # every residue of the inner is p - 1, so every slot sums its most
        widths = []
        frombuffer = np.frombuffer
        monkeypatch.setattr(np, "frombuffer", lambda raw, dtype: widths.append(8 * dtype.itemsize)
                            or frombuffer(raw, dtype=dtype))
        inner = [0] + [p - 1] * (n - 1)
        tables = frobenius_tables(inner, n, p)
        assert widths == [width]
        assert tables.table.tolist() == repeated_products(inner, p, tables.sizes[-1])
        assert p != 47 or _convolve.frobenius_wins(p, n)

    def test_past_64_bit_slots_raises_also_under_optimize(self):
        # mod q = 2^31 - 1 one slot sum alone takes 64 bits, so a direct call
        # (the size test admits no such p) raises rather than build a table
        with pytest.raises(InvariantError, match="past 64 bits"):
            frobenius_tables([0, 1, 1, 1], 4, Q)
        run_optimized(
            "from ramforge import InvariantError\n"
            "from ramforge._convolve import frobenius_tables\n"
            "try:\n"
            f"    frobenius_tables([0, 1, 1, 1], 4, {Q})\n"
            "except InvariantError:\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        )

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_baby_powers_only_where_levels_read_them(self, monkeypatch, p):
        # no level reads baby powers: at n <= 32 the base table is the whole
        # split, and above it the levels read h^0 .. h^(p-1) mod X^n, float64
        # products of their own; every array the split keeps is float64
        calls = []
        build = _convolve.baby_powers
        monkeypatch.setattr(_convolve, "baby_powers", lambda *args: calls.append(args[1]) or build(*args))
        rng = random.Random(f"levels:{p}")
        for n in (8, 31, 32, 33, 100):
            tables = frobenius_tables([0] + [rng.randrange(p) for _ in range(n - 1)], n, p)
            assert all(x.dtype == np.float64 for x in (*tables.levels, tables.table))
        assert calls == []


def forced_paterson_stockmeyer(fn):
    """fn() with the kernel's size test never taking the Frobenius split."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_convolve, "frobenius_wins", lambda p, n: False)
        return fn()


def counting_tables(fn):
    """fn() and the n of each ``frobenius_tables`` build it made."""
    calls = []
    build = _convolve.frobenius_tables
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_convolve, "frobenius_tables", lambda *args: calls.append(args[1]) or build(*args))
        return fn(), calls


@st.composite
def reversion_cases(draw):
    """(p, g, n) over F_p: n on both sides of the split's size test, g dense
    or sparse, with a unit linear coefficient."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(3, 200) | st.sampled_from([63, 64, 65, 127, 128, 129]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = [0, rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 2)]
    if draw(st.booleans()):
        g[2:] = [c if rng.random() < 0.05 else 0 for c in g[2:]]
    return p, g, n


class TestComposeData:
    """``compose_data`` is the one choice of composition method.  A
    composition handed no data, as those of ``reversion_mod`` and
    ``TruncMorphism.apply_ring`` are, takes the Frobenius split over F_p
    where the size test holds for its outer blocks, and gives what
    Paterson-Stockmeyer gives."""

    def test_ring_and_size_test(self):
        inner = [0, 1, 1]
        for mod, modulus, n, blocks, split in (
            (2, None, 64, 8, True), (2, None, 64, 7, False), (5, None, 2000, 2, False),
            (5, None, 8, 8, True), (5, None, 100, 7, False), (11, None, 31, 31, True),
            (11, None, 200, 30, False), (7, None, 100, 100, True),
            (4, None, 100, 100, False), (25, None, 1000, 1000, False), (3**20, None, 100, 100, False),
            (2, (1, 1, 1), 100, 100, False), (3, (1, 0, 1), 100, 100, False),
        ):
            data = _convolve.compose_data(inner, n, mod, modulus, blocks)
            if split:
                assert type(data) is _convolve.FrobeniusTables and data.sizes[0] == n
            else:
                assert type(data) is list and len(data) == isqrt(blocks - 1) + 2
                # F4 and F9 at 100 blocks keep one word per block
                layout = _convolve._Slots if modulus is None else _convolve._Words
                assert len(data[0]) == n and type(_convolve._layout(mod, modulus, n)) is layout

    @pytest.mark.parametrize("p", [2, 3, 5, 2039, 2053, 6007])
    def test_split_refused_past_its_row_sum_bound(self, monkeypatch, p):
        # the split's float64 sums, at most p * n products below (p - 1)^2,
        # must stay exact, and first may not at n0.  p = 2039 is the largest
        # prime with n0 past p^2/4, where the size test first admits the
        # split (about 1.04M and 1.06M terms); from p = 2053 on, n0 falls
        # below p^2/4, and the split is refused at every n.
        # The builders are stubbed: no data of that size is made
        n0 = -(-(2**53) // ((p - 1) ** 2 * p))
        assert (p - 1) ** 2 * p * (n0 - 1) < 2**53 <= (p - 1) ** 2 * p * n0
        small = max(-(-p * p // 4), 8)
        assert (small < n0) == (p <= 2039)
        for n in (small - 1, small, n0 - 1, n0):
            assert _convolve.frobenius_wins(p, n) == (small <= n < n0)
        monkeypatch.setattr(_convolve, "frobenius_tables", lambda *args: "split")
        monkeypatch.setattr(_convolve, "baby_powers", lambda *args: "paterson-stockmeyer")
        # the size test reads the outer blocks, the sums the precision
        assert _convolve.is_prime(p)
        top = max(n0 - 1, small)
        for n, blocks in ((top, small), (top, small - 1), (max(n0, small), small)):
            want = "split" if small <= blocks and n < n0 else "paterson-stockmeyer"
            assert _convolve.compose_data([0, 1], n, p, None, blocks) == want

    def test_split_refused_past_its_row_sum_bound_under_optimize(self):
        # the same refusal with assertions stripped, the builders stubbed
        run_optimized(
            "from ramforge import _convolve\n"
            "_convolve.frobenius_tables = lambda *args: 'split'\n"
            "_convolve.baby_powers = lambda *args: 'paterson-stockmeyer'\n"
            "for p in (2, 5, 2039):\n"
            "    n0 = -(-(2**53) // ((p - 1) ** 2 * p))\n"
            "    small = max(-(-p * p // 4), 8)\n"
            "    got = [_convolve.compose_data([0, 1], n, p, None, small) for n in (n0 - 1, n0)]\n"
            "    if got != ['split', 'paterson-stockmeyer']:\n"
            "        sys.exit(1)\n"
            "sys.exit(0 if not _convolve.frobenius_wins(2053, 2053**2 // 4 + 1) else 1)\n"
        )

    def test_short_outer_keeps_paterson_stockmeyer(self):
        # two outer blocks into 2000 terms: the split would lose
        rng = random.Random(81)
        inner = [0] + [rng.randrange(5) for _ in range(1999)]
        got, tables = counting_tables(lambda: compose_mod([3, 4], inner, 2000, 5))
        assert tables == [] and got == [(3 + 4 * c) % 5 for c in inner[:1]] + [4 * c % 5 for c in inner[1:]]

    @settings(KERNEL, max_examples=30)
    @given(reversion_cases())
    def test_reversion(self, case):
        p, g, n = case
        h, tables = counting_tables(lambda: reversion_mod(g, n, p))
        assert h == forced_paterson_stockmeyer(lambda: reversion_mod(g, n, p))
        x = [0, 1] + [0] * (n - 2)
        assert compose_mod(g, h, n, p) == compose_mod(h, g, n, p) == x
        # the last Newton step composes mod X^n with an outer of n blocks
        assert bool(tables) == _convolve.frobenius_wins(p, n)
        assert all(_convolve.frobenius_wins(p, m) for m in tables)
        if n <= 24:
            assert h == brute_comp_inverse(g, p, n)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_comp_inverse(self, p):
        rng = random.Random(82 + p)
        f, n = FiniteField(p), 300
        g = TruncSeries(f, [0, 1, 1] + [rng.randrange(p) if k % 7 == 0 else 0 for k in range(n - 3)], n)
        h, tables = counting_tables(g.comp_inverse)
        assert tables and h == forced_paterson_stockmeyer(TruncSeries(f, g.packed, n).comp_inverse)
        x = TruncSeries.x(f, n)
        assert g.compose(h) == x and h.compose(g) == x

    # (e1, e2, r) with r*e1 >= e2: sources shorter than the split's size
    # test and sources at or past it, shorter and longer than the target
    @pytest.mark.parametrize("e1, e2, r", [(2, 100, 50), (20, 100, 5), (63, 64, 2), (64, 64, 1),
                                           (70, 64, 1), (100, 100, 1), (150, 80, 1)])
    @pytest.mark.parametrize("p", [2, 5])
    def test_apply_ring(self, p, e1, e2, r):
        rng = random.Random(f"{p}:{e1}:{e2}:{r}")
        f = FiniteField(p)
        src, dst = TruncObject(f, e1), TruncObject(f, e2)
        eta = dst.element([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(e2 - 1)])
        m = TruncMorphism(src, dst, r, 0, eta)
        a = src.element([rng.randrange(p) for _ in range(e1)])
        got, tables = counting_tables(lambda: m.apply_ring(a))
        assert got == forced_paterson_stockmeyer(lambda: m.apply_ring(a))
        assert bool(tables) == _convolve.frobenius_wins(p, min(e1, e2))
        if e1 <= 70 and e2 <= 64:
            assert got == apply_ring_by_powers(m, a)


@st.composite
def extension_cases(draw):
    name = draw(st.sampled_from(sorted(EXTENSIONS)))
    p, modulus = EXTENSIONS[name]
    w = len(modulus) - 1
    n = draw(st.integers(1, 12 if p == Q else 20))
    elem = st.tuples(*[st.integers(0, p - 1)] * w)
    outer = draw(st.lists(elem, min_size=1, max_size=n))
    inner = [(0,) * w] + draw(st.lists(elem, min_size=n - 1, max_size=n - 1))
    return p, modulus, outer, inner, n


def ext_mul(a, b, p, modulus, n):
    """a*b mod X^n over F_p[Y]/(modulus), coefficients as w-tuples."""
    zero = (0,) * (len(modulus) - 1)
    out = [zero] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[: n - i]):
            out[i + j] = cadd(out[i + j], cmul(x, y, p, modulus), p)
    return out


def pack(coeffs, w):
    return [c for coef in coeffs for c in coef]


def unpack(flat, w):
    return [tuple(flat[i : i + w]) for i in range(0, len(flat), w)]


def run_ext_methods(fn, p, modulus, n):
    """run_methods for fn, an op on n blocks over F_p[Y]/(modulus), and the
    folds of words and of slots each method made (see ``spy_layouts``).

    Where the word layout admits n blocks, the slot layout is forced as
    "slots-direct": _INT64_SAFE one above (p - 1)^2 times the n(2w - 1)
    slots, where every slot product still fits directly and no word does,
    not even of one block, so the short Newton steps of ``reversion_mod``
    take slots too.
    """
    w = len(modulus) - 1
    width = n * (2 * w - 1)
    forced = {}
    if _convolve._word_bits(p, w, n):
        forced["slots-direct"] = (p - 1) ** 2 * width + 1
        # words of one block need 2w - 1 slots of bits(2w (p - 1)^2) bits
        assert (2 * w - 1) * (2 * w * (p - 1) ** 2).bit_length() > forced["slots-direct"].bit_length()
    results = run_methods(lambda: spy_layouts(fn), p, width, forced)
    layouts = {method: calls for method, ((_, calls), *_) in results.items()}
    return {method: (got, *counts) for method, ((got, _), *counts) in results.items()}, layouts


class TestExtensionFields:
    @KERNEL
    @given(extension_cases())
    def test_methods_agree(self, case):
        # over F_{q^w} the block folds of _Slots.reduce take halves as well;
        # over F9 and F27 the unforced methods take words, and "slots-direct"
        # the direct method on slots, for products, compositions, baby powers
        # and every Newton step of reversion
        p, modulus, outer, inner, n = case
        w = len(modulus) - 1
        inside = bool(_convolve._word_bits(p, w, n))
        assert inside == (p != Q)
        zero = (0,) * w
        one = (1,) + zero[1:]
        # g, with a unit linear coefficient, has a substitution inverse
        g = [zero, one] + inner[2:]
        k = isqrt(n - 1) + 1
        # (op, oracle, whether numpy runs, whether the unforced op takes
        # words, the least n at which a fold of more than one slot block runs)
        ops = [(lambda: compose_mod(pack(outer, w), pack(inner, w), n, p, modulus),
                ext_compose(outer, inner, p, modulus, n), True, inside, 2),
               (lambda: compose_mod(pack(outer, w), None, n, p, modulus,
                                    baby_powers(pack(inner, w), n, p, modulus, k)),
                ext_compose(outer, inner, p, modulus, n), True, inside, 2),
               (lambda: mul_mod(pack(outer, w), pack(inner, w), n, p, modulus),
                ext_mul(outer, inner, p, modulus, n), n > 1, inside and n > 1, 2)]
        if n > 1:
            # the field inverse of the linear coefficient is a short list product
            h = unpack(reversion_mod(pack(g, w), n, p, modulus), w)
            x = [zero, one] + [zero] * (n - 2)
            assert ext_compose(g, h, p, modulus, n) == x == ext_compose(h, g, p, modulus, n)
            ops.append((lambda: reversion_mod(pack(g, w), n, p, modulus), h, False, inside and n > 2, 3))
        for op, want, numpy_case, words, folds_from in ops:
            results, layouts = run_ext_methods(lambda: unpack(op(), w), p, modulus, n)
            check_methods(results, want, numpy_case)
            assert (layouts["natural"]["words"] > 0) == words
            if inside:
                forced = layouts["slots-direct"]
                assert forced["words"] == 0 and (forced["slots"] > 0) == (n >= folds_from)
                assert results["slots-direct"][1] == 0

    def test_worst_case_fold(self):
        # every slot q - 1: a direct int64 fold would overflow
        p, modulus = EXTENSIONS["Fq3"]
        n, s = 4, 5
        rows = _convolve._reduction(modulus, p)
        want = [x for _ in range(n) for x in row_combination([p - 1] * s, rows, p) + [0, 0]]

        def fold():
            # a block fold sums s products: the dtype of s terms
            layout = _convolve._slots(p, modulus, 3, s, _convolve.array_dtype(p, s))
            return layout.reduce(_convolve._residues([p - 1] * (n * s), n * s, layout.dtype)).tolist()

        results = run_methods(fold, p, s)
        assert results["natural"][1] > 0
        check_methods(results, want, True)


# The word layout of F_{p^w} (see ``_convolve._word_bits``) over the fields
# of the benchmark: for each, the last n inside the word bound, and a slot
# width b0 whose bound 2^((2w - 1) b0), set as _INT64_SAFE, puts the last n
# at 15 - 21 blocks, where the brute-force oracles run
WORD_FIELDS = {
    "F4": ((2, (1, 1, 1)), 262143, 6),
    "F8": ((2, (1, 1, 0, 1)), 682, 7),
    "F9": (EXTENSIONS["F9"], 65535, 8),
    "F25": ((5, (3, 0, 1)), 16383, 10),
    "F27": (EXTENSIONS["F27"], 170, 9),
}


def last_inside(p, w):
    """The last n inside the word bound, for _INT64_SAFE a power of 2."""
    b = (_convolve._INT64_SAFE.bit_length() - 1) // (2 * w - 1)
    return ((1 << b) - 1) // (2 * w * (p - 1) ** 2)


def spy_layouts(fn):
    """fn() and the folds it made of words and of more than one slot block."""
    calls = {"words": 0, "slots": 0}
    reduce, words_fold = _convolve._Slots.reduce, _convolve._Words.fold

    def slots(layout, x):
        calls["slots"] += layout.modulus is not None and len(x) > layout.stride
        return reduce(layout, x)

    def words(*args, **kwargs):
        calls["words"] += 1
        return words_fold(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_convolve._Slots, "reduce", slots)
        mp.setattr(_convolve._Words, "fold", words)
        return fn(), calls


class TestWordLayout:
    """Products, compositions with data handed in and built, reversion and
    ring maps at the last n inside the word bound and the first n past it,
    against the brute-force oracles, with spies on the layout that ran.
    Worst-case operands, every slot p - 1, carry the largest slot sums the
    bound admits."""

    @pytest.mark.parametrize("name", sorted(WORD_FIELDS))
    def test_bound(self, name):
        (p, modulus), last, b0 = WORD_FIELDS[name]
        w = len(modulus) - 1
        assert last_inside(p, w) == last
        assert _convolve._word_bits(p, w, last) and not _convolve._word_bits(p, w, last + 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_convolve, "_INT64_SAFE", 1 << (2 * w - 1) * b0)
            n = last_inside(p, w)
            assert 15 <= n <= 21
            assert _convolve._word_bits(p, w, n) == b0 and not _convolve._word_bits(p, w, n + 1)

    @pytest.mark.parametrize("name", ["Fq2", "Fq3"])
    def test_wide_fields_keep_slots(self, name):
        p, modulus = EXTENSIONS[name]
        assert type(_convolve._layout(p, modulus, 1)) is _convolve._Slots
        rng = random.Random(name)
        w, n = len(modulus) - 1, 6
        outer = [tuple(rng.randrange(p) for _ in range(w)) for _ in range(n)]
        inner = [(0,) * w] + outer[1:]
        got, calls = spy_layouts(lambda: compose_mod(pack(outer, w), pack(inner, w), n, p, modulus))
        assert calls["words"] == 0 and calls["slots"] > 0
        assert unpack(got, w) == ext_compose(outer, inner, p, modulus, n)

    @pytest.mark.parametrize("past", [False, True], ids=["last-inside", "first-past"])
    @pytest.mark.parametrize("name", sorted(WORD_FIELDS))
    def test_operations_at_the_bound(self, monkeypatch, name, past):
        (p, modulus), _, b0 = WORD_FIELDS[name]
        w = len(modulus) - 1
        monkeypatch.setattr(_convolve, "_INT64_SAFE", 1 << (2 * w - 1) * b0)
        n = last_inside(p, w) + past
        layout, other = ("slots", "words") if past else ("words", "slots")

        def ran(fn, only=True):
            got, calls = spy_layouts(fn)
            assert calls[layout] > 0 and (calls[other] == 0 or not only), calls
            return got

        rng = random.Random(f"{name}:{n}")
        zero, top = (0,) * w, (p - 1,) * w
        one = (1,) + zero[1:]
        field = FiniteField(p, w, modulus)
        cases = [[top] * n, [tuple(rng.randrange(p) for _ in range(w)) for _ in range(n)]]
        cases[1][0] = cases[1][1] = one
        for outer in cases:
            inner = [zero] + outer[1:]
            assert unpack(ran(lambda: mul_mod(pack(outer, w), pack(inner, w), n, p, modulus)), w) \
                == ext_mul(outer, inner, p, modulus, n)
            want = ext_compose(outer, inner, p, modulus, n)
            assert unpack(ran(lambda: compose_mod(pack(outer, w), pack(inner, w), n, p, modulus)), w) == want
            powers = baby_powers(pack(inner, w), n, p, modulus, isqrt(n - 1) + 1)
            assert unpack(ran(lambda: compose_mod(pack(outer, w), None, n, p, modulus, powers)), w) == want
            # past the bound, reversion's short steps take words
            h = unpack(ran(lambda: reversion_mod(pack(inner, w), n, p, modulus), only=not past), w)
            x = [zero, one] + [zero] * (n - 2)
            assert ext_compose(inner, h, p, modulus, n) == x == ext_compose(h, inner, p, modulus, n)
            src, dst = TruncObject(field, n), TruncObject(field, n)
            ring_map = TruncMorphism(src, dst, 1, 1, dst.element(outer))
            elem = src.element(inner[::-1])
            assert ran(lambda: ring_map.apply_ring(elem)) == apply_ring_by_powers(ring_map, elem)

    @pytest.mark.parametrize("name", ["F8", "F27"])
    def test_real_bound_against_forced_slots(self, name):
        # at the last n inside the real bound, words of 60 bits, and the
        # first n past it; the slot layout is forced inside the bound by
        # lowering _INT64_SAFE one below what the words need
        (p, modulus), last, _ = WORD_FIELDS[name]
        w = len(modulus) - 1
        rng = random.Random(name)
        top = (p - 1,) * w
        for n in (last, last + 1):
            inner = [(0,) * w] + [top] * (n - 1)
            outer = [top] * n
            # (op, whether its slot layout takes words for shorter steps)
            ops = [(lambda: mul_mod(pack(outer, w), pack(inner, w), n, p, modulus), False),
                   (lambda: compose_mod(pack(outer, w), pack(inner, w), n, p, modulus), False)]
            if name == "F27":
                inner[2:] = [tuple(rng.randrange(p) for _ in range(w)) for _ in range(n - 2)]
                ops.append((lambda: reversion_mod(pack(inner, w), n, p, modulus), True))
            for op, mixed in ops:
                got, calls = spy_layouts(op)
                assert calls["words" if n == last else "slots"] > 0
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(_convolve, "_INT64_SAFE", (1 << 60) - 1)
                    forced, forced_calls = spy_layouts(op)
                assert forced_calls["slots"] > 0 and (mixed or forced_calls["words"] == 0)
                assert forced == got
            if name == "F27":
                assert unpack(ops[0][0](), w) == ext_mul(outer, inner, p, modulus, n)


    # (ring, n, whether each run of Newton steps in one layout is words):
    # inside the word bound one words layout, past it words for the steps
    # that fit and then slots, and slots alone where no word fits
    @pytest.mark.parametrize("name, n, runs", [
        ("F9", 30, [True]), ("F27", 44, [True]), ("F27", 200, [True, False]), ("F8", 700, [True, False]),
        ("Fq2", 60, [False]), ("F5", 100, [False]),
    ])
    def test_reversion_changes_layout_at_most_once(self, name, n, runs):
        p, modulus = {**EXTENSIONS, **{k: v[0] for k, v in WORD_FIELDS.items()}, "F5": (5, None)}[name]
        w = 1 if modulus is None else len(modulus) - 1
        rng = random.Random(f"{name}:{n}")
        one = [1] + [0] * (w - 1)
        g = [0] * w + one + [rng.randrange(p) for _ in range((n - 2) * w)]
        seen, compose = [], _convolve._compose
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_convolve, "_compose", lambda layout, *args: seen.append(layout) or compose(layout, *args))
            h = reversion_mod(g, n, p, modulus)
        # one layout object per run of steps, and no return to an earlier one
        changes = [x for i, x in enumerate(seen) if i == 0 or x is not seen[i - 1]]
        assert len({id(x) for x in seen}) == len(changes) == len(runs)
        assert [type(x) is _convolve._Words for x in changes] == runs
        assert len(seen) == (n - 1).bit_length() - 1
        x = [0] * w + one + [0] * ((n - 2) * w)
        assert compose_mod(g, h, n, p, modulus) == x == compose_mod(h, g, n, p, modulus)
