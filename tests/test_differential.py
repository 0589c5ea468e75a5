"""Differential property tests of the derived sequences and certified digits.

The iterate chain ``p_chain`` is checked link by link against repeated
brute-force composition over F_p, F_{p^w} and Z/p^P, the lower breaks read
off it against Sen's congruence, and ``p_iterate``, which stops at the
first repeated link, and the image order mod X^(m+1) against it and
against repeated composition.  ``PLFunc``, which sums its knot values once,
is checked against the segment-walk oracle in ``helpers.py`` at its kinks
and between them, and the integer Newton hull and the Weierstrass degree
against the Fraction-hull and digit-scan oracles there.  Long iterates over
F_p, whose p-steps take the Frobenius split through both its level forms,
are checked against the closed form of the multiplicative formal group.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ramforge import _convolve
from ramforge import (
    DividedSeries,
    FiniteField,
    PadicSeries,
    PLFunc,
    PrecisionError,
    TruncSeries,
    lower_breaks,
    newton_polygon,
    nottingham,
    p_chain,
    p_iterate,
    phi_from_breaks,
    pl_compose,
    psi_from_breaks,
    weierstrass_degree,
)
from ramforge.nottingham import _image_order_exponent

from helpers import (
    brute_compose,
    ext_compose,
    formal_group_iterate,
    fraction_newton_polygon,
    pl_walk_compose,
    pl_walk_inverse,
    pl_walk_preimage,
    pl_walk_slope,
    pl_walk_value,
    random_break_data,
    scan_weierstrass_degree,
)

PROPS = settings(derandomize=True, max_examples=30, deadline=None, database=None)

# F_4 = F_2[Y]/(Y^2 + Y + 1) and F_9 = F_3[Y]/(Y^2 + 1)
EXTENSIONS = [FiniteField(2, 2, (1, 1, 1)), FiniteField(3, 2, (1, 0, 1))]
# F_2 .. F_7, F_4, F_8 = F_2[Y]/(Y^3 + Y + 1) and F_9
FIELDS = [FiniteField(p) for p in (2, 3, 5, 7)] + EXTENSIONS + [FiniteField(2, 3, (1, 1, 0, 1))]


def brute_chain(g, p, n, compose):
    """g^(p^k) for k = 0..n, each by composing g onto the last iterate
    until p^k copies of g are used."""
    links, h, count = [g], g, 1
    for k in range(1, n + 1):
        while count < p**k:
            h = compose(h, g)
            count += 1
        links.append(h)
    return links


def residues(draw, p, mod, trunc):
    """X times a unit mod (mod, X^trunc): the linear coefficient is prime to p."""
    lin = draw(st.integers(1, mod - 1).filter(lambda c: c % p))
    rest = draw(st.lists(st.integers(0, mod - 1), min_size=trunc - 2, max_size=trunc - 2))
    return [0, lin] + rest


class TestPChain:
    @PROPS
    @given(st.sampled_from([2, 3, 5]), st.integers(2, 12), st.integers(0, 6), st.data())
    def test_prime_field(self, p, trunc, n, data):
        # with linear coefficient 1 (always, for p = 2) the depths rise
        # strictly, so a chain mod X^trunc reaches X within trunc - 2 links
        # and stays there
        g = residues(data.draw, p, p, trunc)
        links = list(p_chain(TruncSeries(FiniteField(p), g, trunc), n))
        want = brute_chain(g, p, n, lambda a, b: brute_compose(a, b, p, trunc))
        assert [list(h.packed) for h in links] == want

    @PROPS
    @given(st.sampled_from([(2, 6), (3, 4), (5, 3)]), st.integers(2, 10), st.integers(0, 2), st.data())
    def test_padic(self, case, trunc, n, data):
        p, prec = case
        g = residues(data.draw, p, p**prec, trunc)
        links = list(p_chain(PadicSeries(p, prec, trunc, g), n))
        want = brute_chain(g, p, n, lambda a, b: brute_compose(a, b, p**prec, trunc))
        assert [list(h.packed) for h in links] == want

    @PROPS
    @given(st.sampled_from(EXTENSIONS), st.integers(2, 7), st.integers(0, 2), st.data())
    def test_extension_field(self, field, trunc, n, data):
        p, modulus = field.p, field.modulus
        digit = st.integers(0, p - 1)
        coeff = st.tuples(digit, digit)
        lin = data.draw(coeff.filter(any))
        g = [(0, 0), lin] + data.draw(st.lists(coeff, min_size=trunc - 2, max_size=trunc - 2))
        links = list(p_chain(TruncSeries(field, g, trunc), n))
        want = brute_chain(g, p, n, lambda a, b: ext_compose(a, b, p, modulus, trunc))
        assert [[c.rep for c in h.coeffs] for h in links] == want

    def test_stops_composing_at_x(self, monkeypatch):
        # X + X^2 over F_5 has depths 1, 6, ..., so its second link mod X^6
        # is X, and no later link is composed
        g = TruncSeries(FiniteField(5), [0, 1, 1, 0, 0, 0], 6)
        calls = []
        build = nottingham.compose_power
        monkeypatch.setattr(nottingham, "compose_power", lambda *args: calls.append(1) or build(*args))
        links = list(p_chain(g, 1000))
        assert len(calls) == 1 and len(links) == 1001
        assert links[1] == TruncSeries.x(g.field, 6) and all(h is links[1] for h in links[1:])

    def test_yields_n_plus_one_links_lazily(self):
        g = TruncSeries(FiniteField(5), [0, 1, 1, 0, 0, 0], 6)
        assert len(list(p_chain(g, 3))) == 4
        chain = p_chain(g, 10**30)
        assert next(chain) is g and next(chain).trunc == 6


def field_series(draw, field, trunc, linear=None):
    """A series X*unit over field, coefficients as w-tuples: the linear
    coefficient is linear, or a random nonzero one."""
    digit = st.integers(0, field.p - 1)
    coeff = st.tuples(*[digit] * field.w)
    lin = linear or draw(coeff.filter(any))
    return [(0,) * field.w, lin] + draw(st.lists(coeff, min_size=trunc - 2, max_size=trunc - 2))


class TestPIterate:
    @settings(PROPS, max_examples=100)
    @given(st.sampled_from(FIELDS), st.integers(2, 8), st.integers(0, 6), st.data())
    def test_matches_the_chain(self, field, trunc, n, data):
        # linear coefficients other than 1 give chains that cycle with
        # period above 1 without reaching X
        g = TruncSeries(field, field_series(data.draw, field, trunc), trunc)
        assert p_iterate(g, n) == list(p_chain(g, n))[-1]


class TestLongIterates:
    # u = (1+X)^a - 1, a = 1 mod p, is the endomorphism [a] of the
    # multiplicative formal group, so its p^n-th iterate is
    # (1+X)^(a^(p^n)) - 1 (``formal_group_iterate``).  At 2,000 - 3,200
    # terms every p-step composes by the Frobenius split, its top levels by
    # float64 convolutions and its deeper ones by matrix products
    @pytest.mark.parametrize("p, a, n, trunc", [
        (2, 3, 3, 3200), (3, 4, 2, 3200), (3, 7, 2, 2000), (5, 6, 2, 2500), (5, 11, 1, 2000),
    ])
    def test_p_iterate_of_the_multiplicative_formal_group(self, monkeypatch, p, a, n, trunc):
        forms = []
        test = _convolve._matrix_level
        monkeypatch.setattr(_convolve, "_matrix_level", lambda *args: forms.append(test(*args)) or forms[-1])
        g = TruncSeries(FiniteField(p), [math.comb(a, k) % p if k else 0 for k in range(trunc)], trunc)
        assert list(p_iterate(g, n).packed) == formal_group_iterate(a, p, n, 1, trunc)
        assert set(forms) == {True, False}


class TestImageOrder:
    @PROPS
    @given(st.sampled_from(FIELDS), st.integers(1, 6), st.integers(1, 3), st.data())
    def test_against_repeated_composition(self, field, m, extra, data):
        # the order of g mod X^(m+1), by composing g onto itself until X
        p, modulus, trunc = field.p, field.modulus or (0, 1), m + 1 + extra
        one = (1,) + (0,) * (field.w - 1)
        g = field_series(data.draw, field, trunc, linear=one)
        x = [(0,) * field.w, one] + [(0,) * field.w] * (m - 1)
        h, order = g[: m + 1], 1
        while h != x:
            h = ext_compose(h, g, p, modulus, m + 1)
            order += 1
        assert p ** _image_order_exponent(TruncSeries(field, g, trunc), m) == order


@st.composite
def certified_series(draw):
    """A series over Z/p^P with coefficients of every valuation, and either
    its own uniform precision or a random certification profile."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    prec = draw(st.integers(1, 5))
    trunc = draw(st.integers(2, 12))
    # a nonzero constant term, so that the endpoint rejections come from
    # the profile and the degree
    coeffs = [draw(st.integers(1, p**prec - 1)) * p ** draw(st.integers(0, prec - (k == 0)))
              % p**prec for k in range(trunc)]
    series = PadicSeries(p, prec, trunc, coeffs)
    if draw(st.booleans()):
        return series, p, coeffs, (prec,) * trunc
    digits = st.one_of(st.just(prec), st.integers(0, prec))
    profile = tuple(draw(st.lists(digits, min_size=trunc, max_size=trunc)))
    return DividedSeries(series, profile), p, coeffs, profile


def outcome(fn):
    """fn()'s value, or the message and level of the PrecisionError it raises."""
    try:
        return fn()
    except PrecisionError as exc:
        return ("PrecisionError", str(exc), exc.level)


class TestCertifiedDigits:
    @settings(PROPS, max_examples=400)
    @given(certified_series(), st.data())
    def test_newton_polygon(self, case, data):
        f, p, coeffs, profile = case
        # mostly a degree whose coefficient is certified nonzero, so that the
        # hull is built more often than an endpoint is rejected
        certified = [i for i in range(1, len(coeffs)) if coeffs[i] % p ** profile[i]]
        degree = data.draw(st.sampled_from(certified) if certified and data.draw(st.booleans())
                           else st.integers(1, len(coeffs) - 1))

        def polygon():
            poly = newton_polygon(f, degree)
            return poly.vertices, tuple((s.slope, s.length) for s in poly.segments)

        got = outcome(polygon)
        want = outcome(lambda: fraction_newton_polygon(p, coeffs, profile, degree))
        assert repr(got) == repr(want)

    @settings(PROPS, max_examples=200)
    @given(certified_series())
    def test_weierstrass_degree(self, case):
        f, p, coeffs, profile = case
        assert weierstrass_degree(f) == scan_weierstrass_degree(p, coeffs, profile)


class TestSenIntegrality:
    @PROPS
    @given(st.sampled_from([2, 3, 5]), st.integers(20, 60), st.integers(1, 3), st.data())
    def test_lower_breaks(self, p, trunc, n_max, data):
        # Sen: i_n > i_(n-1) and p^n divides i_n - i_(n-1), on every
        # certified prefix, complete or cut short by the truncation
        rest = data.draw(st.lists(st.integers(0, p - 1), min_size=trunc - 2, max_size=trunc - 2))
        g = TruncSeries(FiniteField(p), [0, 1] + rest, trunc)
        try:
            lower = lower_breaks(g, n_max).lower
            assert len(lower) == n_max + 1
        except PrecisionError as exc:
            lower = exc.partial
        for n in range(1, len(lower)):
            assert lower[n] > lower[n - 1]
            assert (lower[n] - lower[n - 1]) % p**n == 0


fracs = st.fractions(min_value=0, max_value=20, max_denominator=12)
positive = st.fractions(min_value=F(1, 12), max_value=20, max_denominator=12)


@st.composite
def plfuncs(draw, fixing_zero=False):
    bps = [F(0)] + sorted(set(draw(st.lists(positive, max_size=6))))
    sls = draw(st.lists(positive, min_size=len(bps), max_size=len(bps)))
    return PLFunc(tuple(bps), tuple(sls), F(0) if fixing_zero else draw(fracs))


def probes(f):
    """The kinks of f, the midpoint of every segment, and a point past the last kink."""
    bps = f.breakpoints
    return list(bps) + [(a + b) / 2 for a, b in zip(bps, bps[1:])] + [bps[-1] + 1]


class TestPLFunc:
    @PROPS
    @given(plfuncs(), st.lists(fracs, max_size=4))
    def test_value_and_slope(self, f, extra):
        for x in probes(f) + extra:
            assert f(x) == pl_walk_value(f, x)
            assert f.slope_at(x) == pl_walk_slope(f, x)

    @PROPS
    @given(plfuncs(), st.lists(fracs, max_size=4))
    def test_preimage(self, f, extra):
        ys = [pl_walk_value(f, x) for x in probes(f)] + [f.value_at_origin + d for d in extra]
        for y in ys:
            assert f.preimage(y) == pl_walk_preimage(f, y)

    @PROPS
    @given(plfuncs(fixing_zero=True))
    def test_inverse(self, f):
        inv = f.inverse()
        assert inv == PLFunc(*pl_walk_inverse(f), F(0))
        for x in probes(f):
            assert inv(pl_walk_value(f, x)) == x

    @PROPS
    @given(st.randoms(use_true_random=False))
    def test_psi_phi_inverse(self, rng):
        bd = random_break_data(rng)
        psi, phi = psi_from_breaks(bd), phi_from_breaks(bd)
        assert pl_compose(psi, phi) == PLFunc.identity() == pl_compose(phi, psi)
        for x in probes(psi) + probes(phi):
            assert psi(phi(x)) == x == phi(psi(x))

    @PROPS
    @given(plfuncs(), plfuncs(), st.lists(fracs, max_size=4))
    def test_compose_pointwise(self, f, g, extra):
        h = pl_compose(f, g)
        for x in probes(h) + probes(g) + extra:
            assert h(x) == pl_walk_value(f, pl_walk_value(g, x))


# knots, slopes and points with numerators and denominators past 2^63
huge = st.builds(F, st.integers(2**63 - 5, 2**80), st.integers(1, 2**66))
wide = st.one_of(positive, huge)


@st.composite
def wide_plfuncs(draw, fixing_zero=False):
    bps = [F(0)] + sorted(set(draw(st.lists(wide, max_size=6))))
    sls = draw(st.lists(wide, min_size=len(bps), max_size=len(bps)))
    return PLFunc(tuple(bps), tuple(sls), F(0) if fixing_zero else draw(st.one_of(fracs, huge)))


def near_knots(f):
    """Points a hair below and above each kink of f, where an integer bisect
    that rounded the wrong way would pick the neighbouring segment."""
    hair = F(1, 3 * 2**64)
    return [b + d for b in f.breakpoints for d in (-hair, hair) if b + d >= 0]


def rebuilt(f):
    """f as the validating constructor builds it from f's public fields."""
    return PLFunc(f.breakpoints, f.slopes, f.value_at_origin)


def assert_as_validated(f):
    """f equals, hashes, prints and evaluates as the function the validating
    constructor builds from its fields, down to the integer form."""
    g = rebuilt(f)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert vars(f) == vars(g) and f.values == g.values


class TestPLFuncIntegerForm:
    """Evaluation, slopes, preimages, the inverse and composition, which find
    their segment by an integer bisect, against the Fraction segment walks of
    helpers.py: on non-integral knots, on knots and points past 2^63, and at
    the knots themselves."""

    @PROPS
    @given(wide_plfuncs(), st.lists(st.one_of(fracs, huge), max_size=4))
    def test_value_and_slope(self, f, extra):
        for x in probes(f) + near_knots(f) + extra:
            assert f(x) == pl_walk_value(f, x)
            assert f.slope_at(x) == pl_walk_slope(f, x)

    @PROPS
    @given(wide_plfuncs(), st.lists(st.one_of(fracs, huge), max_size=4))
    def test_preimage(self, f, extra):
        xs = probes(f) + near_knots(f)
        ys = [pl_walk_value(f, x) for x in xs] + [f.value_at_origin + d for d in extra]
        for y in ys:
            assert f.preimage(y) == pl_walk_preimage(f, y)

    @PROPS
    @given(wide_plfuncs(fixing_zero=True))
    def test_inverse(self, f):
        inv = f.inverse()
        assert inv == PLFunc(*pl_walk_inverse(f), F(0))
        assert_as_validated(inv)
        for x in probes(f) + near_knots(f):
            assert inv(pl_walk_value(f, x)) == x

    @PROPS
    @given(st.one_of(wide_plfuncs(), plfuncs()), st.one_of(wide_plfuncs(), plfuncs()))
    def test_compose(self, f, g):
        h = pl_compose(f, g)
        assert (h.breakpoints, h.slopes, h.value_at_origin) == pl_walk_compose(f, g)
        assert_as_validated(h)

    @PROPS
    @given(st.randoms(use_true_random=False), st.sampled_from([1, 2, 3, 7]))
    def test_psi_phi_and_their_composites(self, rng, den):
        bd = random_break_data(rng, den=den)
        psi, phi = psi_from_breaks(bd), phi_from_breaks(bd)
        for f in (psi, phi, pl_compose(phi, psi), pl_compose(psi, psi)):
            assert_as_validated(f)
        assert pl_compose(phi, psi) == PLFunc.identity()
        for x in probes(psi) + near_knots(psi) + [F(2**64 + 1, 3)]:
            assert psi(x) == pl_walk_value(psi, x)
            assert phi(psi(x)) == x
