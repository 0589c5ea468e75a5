import ast
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ramforge
from ramforge import FFElem, FiniteField, TruncSeries, _convolve, gfseries, jsonio
from ramforge._convolve import FrobeniusTables, compose_mod
from ramforge.nottingham import compose_power

from helpers import brute_comp_inverse, brute_compose, cfrob, cmul, cpow, exact_int_compose, ext_compose

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

    # primes, prime powers (1093^2 is a base-2 Fermat and strong
    # pseudoprime), a Carmichael number, and the edge of the proven range:
    # its largest prime, and the bound itself, a composite that is a strong
    # pseudoprime to all 13 bases
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 7, 2**61 - 1, 3317044064679887385961813,
                                   4, 9, 25, 3**20, 1093**2, 561,
                                   _convolve._MR_BOUND - 1, _convolve._MR_BOUND, _convolve._MR_BOUND + 2])
    def test_kernel_primality_test_is_require_primes(self, n):
        try:
            gfseries._require_prime(n)
        except ValueError as exc:
            certified = False
            reason = "cannot be certified" if n >= _convolve._MR_BOUND else "not prime"
            assert reason in str(exc)
        else:
            certified = True
        assert _convolve.is_prime(n) is certified

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.integers(0, 10**6))
    def test_kernel_primality_test_against_trial_division(self, n):
        assert _convolve.is_prime(n) == (n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1)))

    def test_rejects_reducible_modulus(self):
        # X^2 + 1 = (X+1)^2 over F_2
        with pytest.raises(ValueError, match=r"irreducible \(X\^\{p\^w\} != X\)"):
            FiniteField(2, 2, (1, 0, 1))

    def test_rejects_modulus_failing_only_the_gcd_condition(self):
        # Y^2 + Y = Y(Y+1) over F_2 divides Y^4 - Y, but shares the factor
        # Y^2 - Y with Y^(2^1) - Y
        with pytest.raises(ValueError, match="gcd condition fails"):
            FiniteField(2, 2, (0, 1, 1))
        # Y^3 - Y over F_3, the product of its three roots
        with pytest.raises(ValueError, match="gcd condition fails"):
            FiniteField(3, 3, (0, 2, 0, 1))

    def test_rejects_non_monic_modulus(self):
        with pytest.raises(ValueError, match="monic"):
            FiniteField(5, 2, (2, 0, 3))

    def test_extension_arithmetic(self):
        t = F4.coerce((0, 1))
        assert t * t == F4.coerce((1, 1)) == F4.coerce(cmul((0, 1), (0, 1), 2, F4.modulus))
        assert t * t * t == F4.one() == F4.coerce(cpow((0, 1), 3, 2, F4.modulus))
        assert t.inverse() == F4.coerce((1, 1))

    def test_frobenius_element(self):
        t = F4.coerce((0, 1))
        assert t.frobenius(1) == F4.coerce((1, 1))
        assert t.frobenius(2) == t

    def test_prime_field_inverse(self):
        for a in range(1, 5):
            assert F5.coerce(a).inverse() * F5.coerce(a) == F5.one()


class TestPadicRing:
    Z5_8 = FiniteField(5, prec=8)

    def test_ring_data(self):
        assert repr(self.Z5_8) == "Z/5^8"
        assert self.Z5_8.mod == self.Z5_8.order == 5**8
        assert self.Z5_8 != F5 and FiniteField(5, prec=1) == F5

    def test_rejects_precision_below_one(self):
        with pytest.raises(ValueError, match="precision"):
            FiniteField(5, prec=0)

    def test_rejects_extension_with_precision(self):
        with pytest.raises(ValueError, match="w = 1"):
            FiniteField(3, 2, (1, 0, 1), prec=2)

    def test_mixed_precision_operands_raise(self):
        a = TruncSeries(FiniteField(5, prec=4), (0, 6, 5, 1))
        b = TruncSeries(self.Z5_8, (0, 6, 5, 1))
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a.compose(b)):
            with pytest.raises(ValueError, match="field mismatch"):
                op()
        with pytest.raises(ValueError, match="field mismatch"):
            a.coeffs[1] * b.coeffs[1]

    def test_arithmetic_mod_p_power(self):
        m = 5**8
        g = TruncSeries(self.Z5_8, (0, 6, -1, m + 3))
        assert g.packed == (0, 6, m - 1, 3)
        assert (g * g).packed == (0, 0, 36, (2 * 6 * (m - 1)) % m)
        assert g.compose(TruncSeries.x(self.Z5_8, 4)) == g
        assert g.compose(g.comp_inverse()) == TruncSeries.x(self.Z5_8, 4)
        c = g.coeffs[1]
        assert (c * c.inverse()).rep == (1,) and (c - c).is_zero()

    def test_equals_padic_series(self):
        coeffs = (0, 6, 15, 20, 15, 6)
        assert TruncSeries(self.Z5_8, coeffs) == ramforge.PadicSeries(5, 8, 6, coeffs)


class TestFieldArithmetic:
    """Every element of each extension field against the schoolbook oracles."""

    @pytest.mark.parametrize("field", EXTENSIONS, ids=repr)
    def test_exhaustive(self, field):
        p, w, mod = field.p, field.w, field.modulus
        reps = list(itertools.product(range(p), repeat=w))
        one = (1,) + (0,) * (w - 1)
        elems = {a: field.coerce(a) for a in reps}
        for a, b in itertools.product(reps, repeat=2):
            assert (elems[a] * elems[b]).rep == cmul(a, b, p, mod)
        for a in reps:
            x = elems[a]
            if any(a):
                inv = next(b for b in reps if cmul(a, b, p, mod) == one)
                assert x.inverse().rep == inv
            else:
                with pytest.raises(ZeroDivisionError):
                    x.inverse()
                with pytest.raises(ZeroDivisionError):
                    x ** -1
            # a^e by one more product per exponent, from 0 up past the
            # group order, and (a^-1)^e for the negative exponents
            up = one
            for e in range(field.order + 2):
                assert (x**e).rep == up, (a, e)
                up = cmul(up, a, p, mod)
            if any(a):
                down = inv
                for e in range(1, field.order + 2):
                    assert (x**-e).rep == down, (a, -e)
                    down = cmul(down, inv, p, mod)
            for j in range(-w, 2 * w + 1):
                assert x.frobenius(j).rep == cfrob(a, j, p, mod), (a, j)

    def test_field_arithmetic_imports_no_numpy(self):
        # field setup and element work in a fresh process stay pure Python
        script = (
            "import sys\n"
            "from ramforge import FiniteField, TruncSeries\n"
            "f = FiniteField(3, 3, (1, 2, 0, 1))\n"
            "a, b = f.coerce((1, 2, 0)), f.coerce((0, 1, 1))\n"
            "assert (a * b).rep == (1, 0, 0) and (a * a.inverse()) == f.one()\n"
            "assert a ** 26 == f.one() and a ** -3 == (a ** 3).inverse()\n"
            "g = TruncSeries(f, [(0, 0, 0), (1, 0, 0), (2, 1, 0)], 3)\n"
            "assert g.frobenius_twist(1).frobenius_twist(2) == g\n"
            "sys.exit(3 if 'numpy' in sys.modules else 0)\n"
        )
        src = str(Path(ramforge.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr or "numpy was imported"

    def test_only_the_kernel_imports_numpy(self):
        # numpy arrays, their dtypes and the int64 bound stay in _convolve
        pkg = Path(ramforge.__file__).resolve().parent
        importers = set()
        for path in pkg.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "numpy" for name in names):
                    importers.add(path.name)
        assert importers == {"_convolve.py"}


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
                assert got == TruncSeries(f, ext_compose(outer, inner, f.p, f.modulus, n), n)

    def test_associativity_random(self):
        rng = random.Random(13)
        for f in (F5,) + EXTENSIONS:
            for _ in range(15):
                n = rng.randint(3, 12)
                a, b, c = (unit_series(rng, f, n) for _ in range(3))
                assert a.compose(b).compose(c) == a.compose(b.compose(c))
        # long enough for the kernel's other paths: the Frobenius split over
        # F_2 and F_5, and over Z/7^10, Z/3^20 and Z/3^40 products by the
        # length split, by halves and by Kronecker
        for f in (F2, F5, FiniteField(7, prec=10), FiniteField(3, prec=20), FiniteField(3, prec=40)):
            for n in (64, 81):
                a, b, c = (S(f, [0, 1 + f.p * rng.randrange(f.mod // f.p)]
                             + [ring_coeff(rng, f) for _ in range(n - 2)], n) for _ in range(3))
                assert a.compose(b).compose(c) == a.compose(b.compose(c))
                assert isinstance(c._baby, FrobeniusTables) == (f.mod in (2, 5))


def ring_coeff(rng, field):
    """A uniform coefficient: a residue mod p^P, or a vector over F_p."""
    if field.w == 1:
        return rng.randrange(field.mod)
    return tuple(rng.randrange(field.p) for _ in range(field.w))


def oracle_compose(field, outer, inner, n):
    if field.w == 1:
        return TruncSeries(field, [c % field.mod for c in exact_int_compose(outer, inner, n)], n)
    return TruncSeries(field, ext_compose(outer, inner, field.p, field.modulus, n), n)


class TestBabyPowerMemo:
    """An inner series keeps its baby powers mod X^trunc once a composition
    has built them; F_11 keeps Paterson-Stockmeyer below 61 terms (p^2/2),
    and 7^10 is past the direct int64 bound at 60 terms, so its products
    are split."""

    RINGS = ((FiniteField(11), 40), (F27, 20), (FiniteField(7, prec=10), 60))

    @pytest.mark.parametrize("field, n", RINGS, ids=lambda x: repr(x) if isinstance(x, FiniteField) else None)
    def test_compositions_through_the_memo_match_the_oracle(self, field, n):
        rng = random.Random(71)
        zero = 0 if field.w == 1 else (0,) * field.w
        inner = [zero] + [ring_coeff(rng, field) for _ in range(n - 1)]
        g = TruncSeries(field, inner, n)
        assert g._baby is None
        outers = [[ring_coeff(rng, field) for _ in range(n)] for _ in range(2)]
        for outer in outers:
            assert TruncSeries(field, outer, n).compose(g) == oracle_compose(field, outer, inner, n)
        memo = g._baby
        assert len(memo) == math.isqrt(n - 1) + 2  # inner^0 .. inner^k
        # one entry per block: a residue, or over F_27 one int64 word
        assert all(len(x) == n for x in memo)
        # a shorter outer composes mod X^(n // 2) < X^trunc: no memo read or built
        short = outers[0][: n // 2]
        fresh = TruncSeries(field, inner, n)
        for h in (g, fresh):
            got = TruncSeries(field, short, n // 2).compose(h)
            assert got == oracle_compose(field, short, inner, n // 2)
        assert g._baby is memo and fresh._baby is None
        # the kernel with the memo and an outer of fewer blocks than n: k is
        # taken from n, not from the outer
        got = compose_mod(TruncSeries(field, short, n // 2).packed, None, n, field.mod, field.modulus, memo)
        want = oracle_compose(field, short + [zero] * (n - n // 2), inner, n)
        assert tuple(got) == want.packed and len(got) == n * field.w

    def test_binary_powering_builds_each_inner_once(self, monkeypatch):
        # g^(7): g∘g, g2∘g, g3∘g3, g6∘g; g and g3 are the inner series
        calls = []
        build = _convolve.baby_powers
        monkeypatch.setattr(_convolve, "baby_powers", lambda *args: calls.append(1) or build(*args))
        rng = random.Random(72)
        f = FiniteField(7, prec=10)
        g = TruncSeries(f, [0, 1] + [ring_coeff(rng, f) for _ in range(28)], 30)
        got = compose_power(g, 7)
        assert len(calls) == 2
        monkeypatch.undo()
        step = TruncSeries.x(f, 30)
        for _ in range(7):
            step = TruncSeries(f, step.packed, 30).compose(TruncSeries(f, g.packed, 30))
        assert got == step

    @pytest.mark.parametrize("field", (F5, F27, FiniteField(7, prec=10)), ids=repr)
    def test_memo_changes_no_view_of_the_series(self, field):
        rng = random.Random(73)
        n = 12
        coeffs = [0 if field.w == 1 else (0,) * field.w] + [ring_coeff(rng, field) for _ in range(n - 1)]
        g, twin = TruncSeries(field, coeffs, n), TruncSeries(field, coeffs, n)
        before = (hash(g), repr(g))
        TruncSeries.x(field, n).compose(g)
        assert g._baby is not None and twin._baby is None
        assert g == twin and twin == g and (hash(g), repr(g)) == before == (hash(twin), repr(twin))
        write = jsonio.padic_out if field.prec > 1 else jsonio.series_out
        assert write(g) == write(twin)
        assert {g: 1}[twin] == 1

    def test_memo_arrays_are_read_only(self):
        g = TruncSeries(F27, [(0, 0, 0), (1, 2, 0)] + [(2, 1, 1)] * 14, 16)
        TruncSeries.x(F27, 16).compose(g)
        # the baby powers are words, one per block, read-only as slots were
        assert [len(x) for x in g._baby] == [16] * 5
        assert all(not x.flags.writeable for x in g._baby)
        with pytest.raises(ValueError, match="read-only"):
            g._baby[1][0] = 1
        assert TruncSeries.x(F27, 16).compose(g) == g


class TestFrobeniusMemo:
    """Over F_p from n = max(p^2/2, 8) terms on, an inner series keeps the
    tables of the Frobenius split; Z/p^P and F_{p^w} keep baby powers."""

    def test_ring_and_size_test(self):
        rng = random.Random(74)
        for field, n, kind in ((F2, 7, list), (F2, 8, FrobeniusTables), (F5, 12, list), (F5, 13, FrobeniusTables),
                               (FiniteField(11), 60, list), (FiniteField(11), 61, FrobeniusTables),
                               (FiniteField(5, prec=2), 400, list), (F25, 400, list)):
            zero = 0 if field.w == 1 else (0,) * field.w
            g = TruncSeries(field, [zero] + [ring_coeff(rng, field) for _ in range(n - 1)], n)
            TruncSeries.x(field, n).compose(g)
            assert type(g._baby) is kind, (field, n)
            # baby powers hold one entry per block: over F25 one int64 word
            assert kind is FrobeniusTables or [len(x) for x in g._baby] == [n] * len(g._baby)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_shared_tables_match_paterson_stockmeyer(self, monkeypatch, p):
        # outers shorter and longer than the inner, composed with one inner,
        # whose tables no composition writes to
        rng = random.Random(75 + p)
        f, n = FiniteField(p), 130
        g = TruncSeries(f, [0] + [rng.randrange(p) for _ in range(n - 1)], n)
        outers = [TruncSeries(f, [rng.randrange(p) for _ in range(k)], k) for k in (n, n, 140, 70)]
        got = [outers[0].compose(g)]
        tables = g._baby
        arrays = (*tables.stacks, tables.table)
        copies = [x.copy() for x in arrays]
        got += [outer.compose(g) for outer in outers[1:]]
        assert type(tables) is FrobeniusTables and g._baby is tables
        assert all((x == y).all() and not x.flags.writeable for x, y in zip(arrays, copies))
        monkeypatch.setattr(_convolve, "frobenius_wins", lambda p, n: False)
        fresh = TruncSeries(f, g.packed, n)
        assert got == [outer.compose(fresh) for outer in outers]
        assert type(fresh._baby) is list

    def test_binary_powering_builds_each_inner_once(self, monkeypatch):
        # g^(7): g∘g, g2∘g, g3∘g3, g6∘g; g and g3 are the inner series
        calls = []
        build = _convolve.frobenius_tables
        monkeypatch.setattr(_convolve, "frobenius_tables", lambda *args: calls.append(1) or build(*args))
        rng = random.Random(76)
        f = FiniteField(7)
        g = TruncSeries(f, [0, 1] + [rng.randrange(7) for _ in range(62)], 64)
        got = compose_power(g, 7)
        assert len(calls) == 2
        monkeypatch.undo()
        assert [c.rep[0] for c in got.coeffs] == oracle_power(g, 7)


def oracle_power(g, k):
    ints = list(g.packed)
    acc = ints
    for _ in range(k - 1):
        acc = brute_compose(acc, ints, g.field.p, g.trunc)
    return acc


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
        # the packed twist against the oracle's power of each coefficient
        rng = random.Random(31)
        for f in EXTENSIONS:
            coeffs = [elem(rng, f) for _ in range(12)] + [(0,) * f.w]
            g = S(f, coeffs, 13)
            for j in range(-f.w, 2 * f.w + 1):
                twisted = g.frobenius_twist(j)
                expected = [cfrob(c, j, f.p, f.modulus) for c in coeffs]
                assert [c.rep for c in twisted.coeffs] == expected, (f, j)
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
            assert len(built.packed) == len(returned.packed) == n * field.w
            assert built == returned and hash(built) == hash(returned)
            assert repr(built) == repr(returned)
            assert returned.coeffs == built.coeffs
            assert all(isinstance(c, FFElem) and c.field == field for c in returned.coeffs)
            assert returned.coeffs is returned.coeffs  # built once, then cached
            assert all(returned.block(k) == c.rep for k, c in enumerate(returned.coeffs))

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_operations_on_both_forms(self, field):
        rng = random.Random(62)
        n = 9
        a_built, a_ret = self.both_forms(rng, field, n)
        b_built, b_ret = self.both_forms(rng, field, n)
        for m in (1, 4, n):
            assert a_built.truncate(m) == a_ret.truncate(m)
            assert a_ret.truncate(m).coeffs == a_built.coeffs[:m]
        assert a_built.shift(-1, n - 1) == a_ret.shift(-1, n - 1)
        assert a_ret.shift(-1, n - 1).coeffs == a_built.coeffs[1:]
        changed = TruncSeries(field, a_built.coeffs[:5] + (field.one(),) + a_built.coeffs[6:], n)
        if changed != a_built:
            assert changed.truncate(5) == a_ret.truncate(5) and changed.truncate(6) != a_ret.truncate(6)
        for x, y in ((a_built, b_ret), (a_ret, b_built), (a_ret, b_ret)):
            total, diff = x + y, x - y
            assert total == a_built + b_built and diff == a_built - b_built
            assert total.coeffs == tuple(c + d for c, d in zip(a_built.coeffs, b_built.coeffs))
            assert diff.coeffs == tuple(c - d for c, d in zip(a_built.coeffs, b_built.coeffs))
            assert (diff + y) == x

    def test_construction_reduces_every_input_form(self):
        # ints, vectors and field elements give the same packed residues
        for field, value, block in ((F5, 7, (2,)), (F5, -1, (4,)), (F4, 3, (1, 0)),
                                    (F4, (3, 2), (1, 0)), (F27, (4, -1), (1, 2, 0))):
            g = TruncSeries(field, [value, 0], 2)
            assert g.block(0) == block
            assert g == TruncSeries(field, [field.coerce(value), 0], 2)
        with pytest.raises(ValueError, match="longer"):
            TruncSeries(F4, [(1, 0, 1)], 1)
        with pytest.raises(ValueError, match="mismatch"):
            TruncSeries(F4, [F9.one()], 1)


class TestCompactForm:
    """A series holds exactly w residues per power of X, the coefficient of
    X^k at [kw, (k+1)w), whatever built it: the constructor, the JSON
    reader or the kernel, in words or on slots."""

    CASES = [(F5, 30), (FiniteField(7, prec=10), 30), (F27, 44), (F27, 200),
             (FiniteField(2**31 - 1, 2, (1, 0, 1)), 60)]

    @pytest.mark.parametrize("field, n", CASES, ids=lambda v: repr(v) if isinstance(v, FiniteField) else str(v))
    def test_every_operation_stores_w_residues_per_coefficient(self, field, n):
        rng = random.Random(f"compact:{field!r}:{n}")
        w = field.w

        def coeff():
            return tuple(rng.randrange(field.mod) for _ in range(w))

        unit = (rng.randrange(1, field.p),) + coeff()[1:]
        g = TruncSeries(field, [(0,) * w, unit] + [coeff() for _ in range(n - 2)], n)
        outer = TruncSeries(field, [coeff() for _ in range(n)], n)
        h = g.comp_inverse()
        made = {
            "TruncSeries": g,
            "series_in": jsonio.series_in(jsonio.series_out(g)),
            "*": outer * g,
            "compose": outer.compose(g),
            "comp_inverse": h,
            "frobenius_twist": g.frobenius_twist(1),
            "shift": g.shift(3, n),
            "shift back": g.shift(-2, n - 2),
            "truncate": g.truncate(n // 2),
        }
        for name, s in made.items():
            assert len(s.packed) == s.trunc * s.field.w, name
            assert len(s.coeffs) == s.trunc, name
            assert all(s.block(k) == c.rep for k, c in enumerate(s.coeffs)), name
        assert made["series_in"] == g and g.compose(h) == TruncSeries.x(field, n)
