"""The kernel's input contract: every entry handed to ``_convolve`` is a
residue in [0, mod).

A ``TruncSeries`` or a field element reduces its coefficients once, when it
is built, and the kernel never reduces its inputs again.  Here every kernel
entry is spied on in every ``ramforge`` namespace that bound it, and public
operations run on inputs whose coefficients are negative or at least the
modulus, past int64 included: products, compositions by both methods,
substitution inverses, the Frobenius twist, ``analyze``,
``compose_morphism`` and two CLI commands.  The spies record every entry
outside [0, mod), and the tests require that there are none.
"""

import inspect
import json
import math
import random
import sys
from collections import Counter

import pytest

from ramforge import (FiniteField, PadicSeries, TruncMorphism, TruncObject, TruncSeries, _convolve, analyze,
                      compose_morphism, jsonio)
from ramforge._convolve import FrobeniusTables
from ramforge.cli import main

# kernel entry -> its residue arguments
ENTRIES = {
    "conv_mod": ("a", "b"),
    "mul_mod": ("a", "b"),
    "compose_mod": ("outer", "inner"),
    "compose_data": ("inner",),
    "recip_mod": ("a",),
    "divide_mod": ("num", "den"),
    "reversion_mod": ("g",),
    "unit_inverse": ("a",),
}

F5 = FiniteField(5)
F27 = FiniteField(3, 3, (1, 2, 0, 1))
FIELDS = [F5, F27]
RINGS = FIELDS + [FiniteField(7, prec=10), FiniteField(3, prec=20), FiniteField(3, prec=40)]
PADIC_RINGS = RINGS[2:]


class Spies:
    """Calls per kernel entry, and every entry found outside [0, mod)."""

    def __init__(self):
        self.calls = Counter()
        self.violations = []

    def wrap(self, name, orig):
        sig = inspect.signature(orig)

        def spy(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            mod = bound["mod"]
            for param in ENTRIES[name]:
                entries = bound[param]
                entries = entries.tolist() if hasattr(entries, "tolist") else entries
                bad = [x for x in entries if not 0 <= x < mod]
                if bad:
                    self.violations.append((name, param, mod, bad[:3]))
            self.calls[name] += 1
            return orig(*args, **kwargs)

        return spy


@pytest.fixture
def spies(monkeypatch):
    out = Spies()
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "ramforge"]
    for name in ENTRIES:
        orig = getattr(_convolve, name)
        spy = out.wrap(name, orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, spy)
    return out


def off_range(rng, c, mod):
    """c plus a multiple of mod: negative, just past mod, or past int64."""
    return c + mod * rng.choice((-3, -1, 1, 2, 2**70, -(2**70)))


def coeff(rng, field, c=None):
    """A coefficient that is not a residue, and its residue: c (as an int)
    when given, else random."""
    if field.w == 1:
        c = rng.randrange(field.mod) if c is None else c
        return off_range(rng, c, field.mod), c
    c = tuple(rng.randrange(field.p) for _ in range(field.w)) if c is None else (c,) + (0,) * (field.w - 1)
    return tuple(off_range(rng, x, field.p) for x in c), c


def coeff_lists(rng, field, n, lead=0, unit=False):
    """n coefficients that are not residues, zero below X^lead and one at
    X^lead when unit is set, and their residues."""
    fixed = [0] * lead + [1] * unit
    return map(list, zip(*(coeff(rng, field, fixed[k] if k < len(fixed) else None) for k in range(n))))


def series(rng, field, n, lead=0, unit=False):
    """A series built from coefficients that are not residues; it equals
    the series built from their residues."""
    raw, red = coeff_lists(rng, field, n, lead, unit)
    out = TruncSeries(field, raw, n)
    assert out == TruncSeries(field, red, n)
    return out


def test_the_spies_see_an_entry_out_of_range(spies):
    # a positive control: the spy on conv_mod in the _convolve namespace
    # records an unreduced entry handed straight to the kernel
    assert _convolve.conv_mod([1, 2], [5, 1], 2, 5) == [0, 1]
    assert spies.violations == [("conv_mod", "b", 5, [5])]


@pytest.mark.parametrize("field", RINGS, ids=repr)
def test_series_operations(spies, field):
    rng = random.Random(field.mod)
    for n in (6, 20, 70):
        a = series(rng, field, n)
        g = series(rng, field, n, lead=1, unit=True)
        h = series(rng, field, n, lead=1)
        assert a * g == g * a
        outer = a.compose(h)  # h._baby: the data of every composition with h
        if field is F5:
            # the Frobenius split from 8 terms (above p^2/4), Paterson-Stockmeyer below
            assert isinstance(h._baby, FrobeniusTables) == (n >= 8)
        # a shorter outer is handed no data, and the kernel builds its own
        assert a.truncate(n - 1).compose(h) == outer.truncate(n - 1)
        inv = g.comp_inverse()
        assert g.compose(inv) == TruncSeries.x(field, n)
        twisted = g.frobenius_twist(1)
        assert twisted.compose(inv.frobenius_twist(1)) == TruncSeries.x(field, n)
        assert (twisted * a).frobenius_twist(-1) == g * a.frobenius_twist(-1)
    element = field.coerce(off_range(rng, 2, field.mod) if field.w == 1 else (2, -1, field.p**30))
    assert element * element.inverse() == field.one()
    assert not spies.violations
    assert {"conv_mod", "mul_mod", "compose_mod", "compose_data", "reversion_mod", "unit_inverse"} <= set(spies.calls)


def dynamical_coeffs(rng, field, M):
    """(1 + X)^(p + 1) - 1 mod X^M, whose linear coefficient p + 1 is a
    1-unit, with every coefficient moved off the residue range."""
    return [off_range(rng, math.comb(field.p + 1, k) if k else 0, field.mod) for k in range(M)]


@pytest.mark.parametrize("field", PADIC_RINGS, ids=repr)
def test_analyze(spies, field):
    rng = random.Random(field.mod)
    M = 3 * field.p**2
    raw = dynamical_coeffs(rng, field, M)
    got = analyze(PadicSeries(field.p, field.prec, M, raw), 2)
    want = analyze(PadicSeries(field.p, field.prec, M, [c % field.mod for c in raw]), 2)
    assert jsonio.dynamics_report_out(got) == jsonio.dynamics_report_out(want)
    assert not spies.violations
    assert {"compose_mod", "divide_mod", "recip_mod", "conv_mod"} <= set(spies.calls)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_compose_morphism(spies, field):
    rng = random.Random(field.p**field.w)
    objs = [TruncObject(field, e) for e in (2, 6, 12)]
    morphs = []
    for src, dst in zip(objs, objs[1:]):
        eta = series(rng, field, dst.e, unit=True)
        morphs.append(TruncMorphism(src, dst, dst.e // src.e, 1, eta))
    composite = compose_morphism(morphs[1], morphs[0])
    assert composite.r == 6
    assert not spies.violations
    assert spies.calls["compose_mod"] > 0


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_cli_series_inverse(spies, capsys, field):
    rng = random.Random(field.p)
    n = 70
    doc = {"p": field.p, "w": field.w, "trunc": n}
    if field.modulus:
        doc["modulus"] = list(field.modulus)
    raw, reduced = coeff_lists(rng, field, n, lead=1, unit=True)
    got = run_cli(capsys, "series", "inverse", "--series", json.dumps({**doc, "coeffs": raw}))
    want = run_cli(capsys, "series", "inverse", "--series", json.dumps({**doc, "coeffs": reduced}))
    assert got == want and got[0] == 0
    assert not spies.violations
    assert spies.calls["reversion_mod"] == 2


@pytest.mark.parametrize("field", PADIC_RINGS, ids=repr)
def test_cli_dynamics_qn(spies, capsys, field):
    rng = random.Random(field.mod)
    M = 3 * field.p**2
    raw = dynamical_coeffs(rng, field, M)
    doc = {"p": field.p, "prec": field.prec, "trunc": M}
    got = run_cli(capsys, "dynamics", "qn", "--series", json.dumps({**doc, "coeffs": raw}), "--n", "2")
    want = run_cli(capsys, "dynamics", "qn", "--series",
                   json.dumps({**doc, "coeffs": [c % field.mod for c in raw]}), "--n", "2")
    assert got == want and got[0] == 0
    assert not spies.violations
    assert spies.calls["divide_mod"] == 2
