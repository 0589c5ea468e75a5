import json
import random
import re
import sys
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from ramforge import (
    BreakData,
    FiniteField,
    PadicSeries,
    TheoremInputs,
    TruncSeries,
    analyze,
    check_conditions,
    lower_breaks,
    qn_divide,
)
from ramforge import _convolve, jsonio
from ramforge.jsonio import (
    break_data_in,
    break_data_out,
    condition_report_out,
    divided_out,
    dynamics_report_out,
    field_in,
    frac_in,
    frac_out,
    int_in,
    int_out,
    morphism_in,
    morphism_out,
    padic_in,
    padic_out,
    plfunc_in,
    plfunc_out,
    ram_sequence_out,
    series_in,
    series_out,
    theorem_inputs_in,
)
from ramforge.herbrand import BreaksVerdict, PLFunc, Violation, psi_from_breaks
from ramforge.nottingham import IndexReport, RamSequence
from ramforge.pdyn import DynamicsReport, LevelReport, NewtonPolygon, Segment
from ramforge.truncation import TruncMorphism, TruncObject

from helpers import (
    cyclotomic_coeffs,
    cyclotomic_padic,
    reference_dynamics_report_out,
    reference_ram_sequence_out,
    reference_trunc_object_out,
    reference_verdict_out,
)


def plfunc_knot_out(v):
    """plfunc_out of a function with a knot at v."""
    return plfunc_out(PLFunc((0, v), (1, 2), 0))


class TestScalars:
    def test_int_policy(self):
        assert int_out(12) == 12
        big = 2**60 + 7
        assert int_out(big) == str(big)
        assert int_in(str(big)) == big
        assert int_in(str(-big)) == -big

    @pytest.mark.parametrize("bad", [True, 2.9, 1.0, float("inf"), "1.5", "0x10", " 7", "1_000", "", None, [1]])
    def test_int_in_rejects_non_integers(self, bad):
        with pytest.raises(ValueError, match="expected an integer"):
            int_in(bad)

    def test_rational_forms(self):
        assert frac_in("3/4") == F(3, 4)
        assert frac_in([3, 4]) == F(3, 4)
        assert frac_in(3) == F(3)
        assert frac_in(frac_out(F(249, 4))) == F(249, 4)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            frac_in({"num": 1})

    def test_rational_strings(self):
        assert frac_in("-3/4") == F(-3, 4)
        assert frac_in("7") == F(7)
        assert frac_in(["-3", "4"]) == F(-3, 4)

    @pytest.mark.parametrize("bad", ["1e5", "1e1000000", "1.5", "1_000", " 3/4", "3/-4", "+3", "3/", "/4",
                                     "0x10", "inf", "nan", "", [1.5, 2], [True, 1], ["1e3", 1], True, False])
    def test_rational_other_forms_rejected(self, bad):
        # only the integer, "a/b" and pair forms; an exponent form was read
        # by Fraction and could ask for millions of digits
        started = time.perf_counter()
        with pytest.raises(ValueError, match="not an exact rational|expected an integer"):
            frac_in(bad)
        assert time.perf_counter() - started < 0.1

    @pytest.mark.parametrize("write", [int_out, frac_out, lambda v: frac_out(F(1, v)), plfunc_knot_out])
    def test_too_long_to_print_names_the_cause(self, write):
        with pytest.raises(ValueError, match=r"^the result has an integer of more than \d+ digits"):
            write(10 ** (sys.get_int_max_str_digits() + 1))


def two_pass_frac_in(x):
    """The rational reader that sends each part of "a/b" through ``int_in``,
    which matches it a second time."""
    if isinstance(x, F):
        return x
    if type(x) is int:
        return F(x)
    if isinstance(x, str) and (m := re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", x)):
        num, den = m[1], m[2] or 1
    elif isinstance(x, (tuple, list)) and len(x) == 2:
        num, den = x
    else:
        raise ValueError(f"not an exact rational: {x!r}")
    try:
        return F(int_in(num), int_in(den))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {x!r}") from None


LONG = "1" * (sys.get_int_max_str_digits() + 1)


class TestFracReader:
    """``frac_in`` matches "a/b" once and reads each part as decimal text:
    the same value, or the same error, as reading each part with int_in."""

    @pytest.mark.parametrize("x", [
        "3/4", "-3/4", "7", "-0", "0/1", "0007/0010", "6/4", "-12/8", str(2**80) + "/3",
        "3/0", "0/0", "-3/00", "1e5", "1.5", "3/-4", "+3", "3/", "/4", " 3/4", "3/4 ", "",
        "x", "1_0/3", LONG, "1/" + LONG, "-" + LONG + "/2",
        [3, 4], ["-3", "4"], [3, 0], ["1", "0"], [True, 1], [1, 2.0], ["1e3", 1], [LONG, 1],
        [1, 2, 3], 5, F(5, 3), True, 1.5, None,
    ], ids=lambda x: repr(x)[:24])
    def test_same_value_or_error_as_reading_each_part(self, x):
        got = read(frac_in, x)
        assert got == read(two_pass_frac_in, x)
        assert isinstance(got, tuple) or type(got) is F


class TestSeriesRoundTrip:
    def test_prime_field_bare_ints(self):
        F5 = FiniteField(5)
        s = TruncSeries(F5, (0, 1, 4, 2), 4)
        doc = series_out(s)
        assert doc["coeffs"] == [0, 1, 4, 2]
        assert series_in(json.loads(json.dumps(doc))) == s

    def test_extension_field_vectors(self):
        F4 = FiniteField(2, 2, (1, 1, 1))
        s = TruncSeries(F4, ((0, 0), (1, 1), (0, 1)), 3)
        doc = series_out(s)
        assert doc["modulus"] == [1, 1, 1]
        assert series_in(json.loads(json.dumps(doc))) == s

    def test_integers_past_2_53_are_strings(self):
        # a double-based JSON reader would round bare numbers this large
        p = 2**61 - 1
        s = TruncSeries(FiniteField(p), (0, 1, 2**60, 5), 4)
        doc = series_out(s)
        assert doc["p"] == str(p)
        assert doc["coeffs"] == [0, 1, str(2**60), 5]
        assert series_in(json.loads(json.dumps(doc))) == s

    def test_extension_field_entries_past_2_53_are_strings(self):
        # Y^2 - 3 is irreducible mod 2^61 - 1, since 3 is not a square mod p
        p = 2**61 - 1
        F = FiniteField(p, 2, (p - 3, 0, 1))
        s = TruncSeries(F, ((0, 0), (1, 2**60), (p - 1, 7)), 3)
        doc = series_out(s)
        assert doc["modulus"] == [str(p - 3), 0, 1]
        assert doc["coeffs"] == [[0, 0], [1, str(2**60)], [str(p - 1), 7]]
        assert series_in(json.loads(json.dumps(doc))) == s

    def test_reader_accepts_bare_ints_for_prime_field(self):
        doc = {"p": 5, "w": 1, "trunc": 2, "coeffs": [0, 1]}
        assert series_in(doc) == TruncSeries(FiniteField(5), (0, 1), 2)


def view_series_out(s):
    """The series writer through the ``coeffs`` view of ``FFElem`` values."""
    doc = jsonio.field_out(s.field)
    doc["trunc"] = int_out(s.trunc)
    if s.field.w == 1:
        doc["coeffs"] = [int_out(c.rep[0]) for c in s.coeffs]
    else:
        doc["coeffs"] = [[int_out(x) for x in c.rep] for c in s.coeffs]
    return doc


@pytest.mark.parametrize("field", [FiniteField(2), FiniteField(5), FiniteField(2, 2, (1, 1, 1)),
                                   FiniteField(3, 2, (1, 0, 1)), FiniteField(3, 3, (1, 2, 0, 1))], ids=repr)
@pytest.mark.parametrize("trunc", [1, 2, 17])
def test_packed_writer_matches_the_view(field, trunc):
    # series_out reads the packed residues and builds no FFElem view; its
    # document is the one the view gives, byte for byte
    rng = random.Random(trunc)
    coeffs = [tuple(rng.randrange(field.p) for _ in range(field.w)) for _ in range(trunc)]
    a, b = TruncSeries(field, coeffs, trunc), TruncSeries(field, coeffs[::-1], trunc)
    for s in (a, a * b):
        got = json.dumps(series_out(s), indent=2, sort_keys=True)
        assert s._coeffs is None
        assert got == json.dumps(view_series_out(s), indent=2, sort_keys=True)


def per_coefficient_series_in(doc):
    """The reader with no all-int fast path: every coefficient through
    ``_coeff_in``."""
    field = field_in(doc)
    return TruncSeries(field, [jsonio._coeff_in(c) for c in doc["coeffs"]], int_in(doc["trunc"]))


def read(reader, doc):
    try:
        return reader(doc)
    except ValueError as e:
        return ("ValueError", str(e))


class TestFieldDoor:
    # the extension fields of the tests and of the benchmark's ext-field
    # workload, F_4 to F_27
    FIELDS = [(2, 2, (1, 1, 1)), (2, 3, (1, 1, 0, 1)), (3, 2, (1, 0, 1)), (5, 2, (3, 0, 1)), (3, 3, (1, 2, 0, 1))]

    @pytest.mark.parametrize("p, w, modulus", FIELDS)
    def test_fields_in_use_load(self, p, w, modulus):
        field = {"p": p, "w": w, "modulus": list(modulus)}
        want = FiniteField(p, w, modulus)
        assert series_in({**field, "trunc": 3, "coeffs": [0, 1, 1]}).field == want
        assert jsonio.trunc_object_in({"field": field, "e": 3}).field == want

    def test_every_certifiable_field_of_degree_3_is_within_the_bound(self):
        # a larger p is refused as uncertifiable
        assert 3**3 * _convolve._MR_BOUND.bit_length() <= jsonio._MAX_FIELD_WORK


class TestSeriesReader:
    """``series_in`` takes a list of plain JSON ints as it is; any other
    list gives the same series, or the same error, as reading every
    coefficient."""

    P = str(2**61 - 1)
    F4 = {"p": 2, "w": 2, "modulus": [1, 1, 1]}

    @pytest.mark.parametrize("doc, fails", [
        ({"p": 5, "trunc": 4, "coeffs": [0, 1, 7, -3]}, False),
        ({"p": 5, "trunc": 4, "coeffs": [0, 1, True, 0]}, True),
        ({"p": 5, "trunc": 4, "coeffs": [0, 1, 2.0, 0]}, True),
        ({"p": 5, "trunc": 4, "coeffs": [0, 1, "4", 0]}, False),
        ({"p": P, "trunc": 4, "coeffs": [0, 1, str(2**60), 5]}, False),
        ({"p": P, "trunc": 3, "coeffs": [0, 1, str(2**53 + 1)]}, False),
        ({"p": 5, "trunc": 3, "coeffs": [0, 1, "1e3"]}, True),
        ({"p": 5, "trunc": 3, "coeffs": [0, 1]}, True),
        ({"p": 5, "trunc": 3, "coeffs": [0, 1, 2, 3]}, True),
        ({"p": 5, "trunc": 0, "coeffs": []}, True),
        ({"p": 5, "trunc": 3, "coeffs": [0, 1, 10**30]}, False),
        ({"p": 5, "trunc": 3, "coeffs": [0, 1, None]}, True),
        ({**F4, "trunc": 3, "coeffs": [[0, 0], [1, 1], [0, 1]]}, False),
        ({**F4, "trunc": 3, "coeffs": [[0, 0], 1, [0, 1]]}, False),
        ({**F4, "trunc": 3, "coeffs": [0, 1, 1]}, False),
        ({**F4, "trunc": 3, "coeffs": [[0, 0], [1, False], [0, 1]]}, True),
        # extension-field vectors: short, negative and long ints, digit
        # strings, vectors longer than w, floats, nesting, and a count that
        # misses the truncation
        ({**F4, "trunc": 3, "coeffs": [[], [1], [-1, 10**30]]}, False),
        ({**F4, "trunc": 3, "coeffs": [[0, 0], [1, "1"], [0, 1]]}, False),
        ({**F4, "trunc": 3, "coeffs": [[0, 0], [1, 1, 1], [0, 1]]}, True),
        ({**F4, "trunc": 3, "coeffs": [[0, 0], [1, 1.0], [0, 1]]}, True),
        ({**F4, "trunc": 3, "coeffs": [[0, 0], [[1], 1], [0, 1]]}, True),
        ({**F4, "trunc": 3, "coeffs": [[0, 0], {"1": 1}, [0, 1]]}, True),
        ({**F4, "trunc": 3, "coeffs": [[0, 0], [1, 1]]}, True),
        ({**F4, "trunc": 0, "coeffs": [[]]}, True),
        ({"p": 3, "w": 3, "modulus": [1, 2, 0, 1], "trunc": 2, "coeffs": [[0, 0, 0], [2, -1, 5]]}, False),
    ], ids=lambda x: json.dumps(x["coeffs"]) if isinstance(x, dict) else None)
    def test_same_series_or_error_as_reading_each_coefficient(self, doc, fails):
        doc = json.loads(json.dumps(doc))
        got = read(series_in, doc)
        assert got == read(per_coefficient_series_in, doc)
        assert isinstance(got, tuple) == fails

    def test_budget_refuses_a_list_of_ints(self, monkeypatch):
        monkeypatch.setenv("RAMFORGE_MAX_PRECISION", "10")
        doc = {"p": 5, "trunc": 12, "coeffs": [0, 1] + [2] * 10}
        assert read(series_in, doc) == ("ValueError", "requested precision (12 coefficient-digits) "
                                        "exceeds the RAMFORGE_MAX_PRECISION cap of 10")


class TestMisshapenFields:
    """A nested field of the wrong JSON kind is an input error that names the
    field, by its path, and the kind it must have."""

    FIELD = {"p": 5, "w": 1}
    TARGET = {"field": FIELD, "e": 2}

    @pytest.mark.parametrize("read, doc, reason", [
        (morphism_in, {"source": 5, "target": TARGET, "r": 2, "res_twist": 0, "eta_coeff": [1]},
         'field "source" must be an object, not a number'),
        (morphism_in, {"source": {"field": "F5", "e": 1}, "target": TARGET, "r": 2, "res_twist": 0,
                       "eta_coeff": [1]},
         'field "source.field" must be an object, not a string'),
        (morphism_in, {"source": {"field": {"p": 5, "modulus": 3}, "e": 1}, "target": TARGET, "r": 2,
                       "res_twist": 0, "eta_coeff": [1]},
         'field "source.field.modulus" must be a list, not a number'),
        (morphism_in, {"source": TARGET, "target": TARGET, "r": 1, "res_twist": 0, "eta_coeff": [1],
                       "mu_image": 4},
         'field "mu_image" must be a list, not a number'),
        (series_in, {**FIELD, "trunc": 4, "coeffs": 5}, 'field "coeffs" must be a list, not a number'),
        (series_in, [0, 1], "the document must be an object, not a list"),
        (padic_in, {"p": 5, "prec": 2, "trunc": 4, "coeffs": True}, 'field "coeffs" must be a list, not a boolean'),
        (break_data_in, {"p": 5, "e": 1, "upper": None}, 'field "upper" must be a list, not null'),
        (plfunc_in, {"breakpoints": ["0/1"], "slopes": 1, "value_at_origin": "0/1"},
         'field "slopes" must be a list, not a number'),
        # a string or an object iterates, so each once read as a list
        (break_data_in, {"p": 5, "e": 1, "upper": "123"}, 'field "upper" must be a list, not a string'),
        (series_in, {**FIELD, "trunc": 4, "coeffs": "0110"}, 'field "coeffs" must be a list, not a string'),
        (plfunc_in, {"breakpoints": "0", "slopes": "1", "value_at_origin": "0"},
         'field "breakpoints" must be a list, not a string'),
        (theorem_inputs_in, {"p": 5, "e": 1, "upper": {"1": 1}}, 'field "upper" must be a list, not an object'),
        (morphism_in, {"source": TARGET, "target": TARGET, "r": 1, "res_twist": 0, "eta_coeff": "1"},
         'field "eta_coeff" must be a list, not a string'),
        (morphism_in, {"source": {"field": {"w": 1}, "e": 1}, "target": TARGET, "r": 2, "res_twist": 0,
                       "eta_coeff": [1]},
         'missing field "source.field.p"'),
    ])
    def test_reason_names_the_field(self, read, doc, reason):
        with pytest.raises(ValueError) as info:
            read(json.loads(json.dumps(doc)))
        assert str(info.value) == reason

    def test_null_where_a_reader_allows_it(self):
        # mu_image may be null: the morphism reads as one without it
        doc = {"source": self.TARGET, "target": self.TARGET, "r": 1, "res_twist": 0, "eta_coeff": [1]}
        assert morphism_in({**doc, "mu_image": None}) == morphism_in(doc)


class TestBreakDataRoundTrip:
    def test_pairs(self):
        bd = BreakData(5, F(3, 2), (F(2), F(7, 2)))
        doc = break_data_out(bd)
        assert doc["e"] == [3, 2]
        assert break_data_in(json.loads(json.dumps(doc))) == bd

    def test_liberal_forms(self):
        doc = {"p": 5, "e": "1/1", "upper": [1, "2/1", [3, 1]]}
        assert break_data_in(doc) == BreakData(5, 1, (1, 2, 3))


class TestPLFuncRoundTrip:
    def test_psi(self):
        f = psi_from_breaks(BreakData(5, 1, (1, 2, 3)))
        assert plfunc_in(json.loads(json.dumps(plfunc_out(f)))) == f


class TestMorphismRoundTrip:
    def test_full_cycle(self):
        src = TruncObject(FiniteField(5), 2)
        dst = TruncObject(FiniteField(5), 6)
        f = TruncMorphism(src, dst, 3, 0, dst.element([2, 1, 0, 4, 0, 0]))
        assert morphism_in(json.loads(json.dumps(morphism_out(f)))) == f


class TestPadicRoundTrip:
    def test_cycle(self):
        u = PadicSeries(5, 8, 6, (0, 6, 15, 20, 15, 6))
        assert padic_in(json.loads(json.dumps(padic_out(u)))) == u

    def test_documents_unchanged(self):
        # pinned documents: the p-adic wire format does not depend on how series are stored
        u = PadicSeries(5, 8, 6, (0, 6, 15, -20, 15, 5**8 + 6))
        assert padic_out(u) == {"p": 5, "prec": 8, "trunc": 6, "coeffs": [0, 6, 15, 390605, 15, 6]}
        q = qn_divide(PadicSeries(5, 3, 12, cyclotomic_coeffs(5, 12)), 1)
        assert divided_out(q) == {
            "p": 5, "prec": 3, "trunc": 7, "coeffs": [55, 50, 100, 100, 50, 110, 25],
            "coeff_prec": [2, 2, 2, 1, 1, 1, 1],
        }
        q = qn_divide(PadicSeries(3, 40, 8, (0, 4, 6, 4, 1, 0, 0, 0)), 1)
        assert divided_out(q) == {
            "p": 3, "prec": 40, "trunc": 5,
            "coeffs": [4960059024, "12157665454090302489", 3319854480, "12157665457386247041", 572974488],
            "coeff_prec": [3, 2, 2, 1, 1],
        }

    def test_series_document_refuses_padic_series(self):
        # an F_p document would drop the precision and read back mod p
        with pytest.raises(ValueError, match="padic_out"):
            series_out(PadicSeries(5, 8, 3, (0, 6, 25)))

    def test_big_coefficients_as_strings(self):
        p, prec = 5, 40
        u = PadicSeries(p, prec, 2, (0, p**39 + 1))
        doc = json.loads(json.dumps(padic_out(u)))
        assert isinstance(doc["coeffs"][1], str)
        assert padic_in(doc) == u


class TestPrimePast2_53:
    # every writer puts p through int_out: a double-based JSON reader
    # would round a bare p = 2^61 - 1
    P = 2**61 - 1

    def test_ram_sequence(self):
        rs = lower_breaks(TruncSeries(FiniteField(self.P), [0, 1, 1, 0, 0, 0, 0, 0], 8), 0)
        assert ram_sequence_out(rs)["p"] == str(self.P)

    def test_break_data(self):
        bd = BreakData(self.P, 1, (1,))
        doc = json.loads(json.dumps(break_data_out(bd)))
        assert doc["p"] == str(self.P)
        assert break_data_in(doc) == bd

    def test_padic(self):
        u = PadicSeries(self.P, 1, 4, (0, 1, 1, 0))
        doc = json.loads(json.dumps(padic_out(u)))
        assert doc["p"] == str(self.P)
        assert padic_in(doc) == u

    def test_dynamics_report(self):
        rep = analyze(PadicSeries(self.P, 1, 8, (0, 1, 1, 0, 0, 0, 0, 0)), 0)
        assert dynamics_report_out(rep)["p"] == str(self.P)

    def test_condition_report(self):
        ti = TheoremInputs(BreakData(self.P, 1, (1,)))
        assert condition_report_out(check_conditions(ti))["p"] == str(self.P)


# -- random reports, for the field-driven writer -----------------------------------


def random_int(rng):
    return rng.choice([rng.randrange(-3, 200), 2**53 - 1, 2**53, -(2**53), 2**60 + rng.randrange(99)])


def random_frac(rng):
    return F(random_int(rng), rng.choice([1, rng.randrange(1, 50), 2**55 + 1]))


def random_ints(rng):
    return tuple(random_int(rng) for _ in range(rng.randrange(4)))


def maybe(rng, make):
    return make() if rng.random() < 0.7 else None


def random_polygon(rng):
    k = rng.randrange(1, 4)
    return NewtonPolygon(tuple((random_int(rng), random_frac(rng)) for _ in range(k + 1)),
                         tuple(Segment(random_frac(rng), random_int(rng)) for _ in range(k)))


def random_level(rng, n):
    if rng.random() < 0.25:
        return LevelReport(n, note=f"quotient unavailable: {rng.random()}")
    flag = lambda: rng.choice([None, True, False])  # noqa: E731
    number = lambda: maybe(rng, lambda: random_int(rng))  # noqa: E731
    return LevelReport(
        n, number(), number(), flag(), number(), 1, flag(),
        maybe(rng, lambda: random_polygon(rng)), maybe(rng, lambda: random_frac(rng)),
        flag(), flag(), rng.choice([None, "polygon uncertified: x"]),
    )


def random_dynamics_report(rng):
    levels = []
    for n in range(1, rng.randrange(6)):
        if levels and rng.random() < 0.3:  # two identity links: the last level again
            levels.append(replace(levels[-1], n=n))
        else:
            levels.append(random_level(rng, n))
    index = maybe(rng, lambda: IndexReport(
        maybe(rng, lambda: random_int(rng)), rng.choice(["determined", "candidate", "undetermined"]),
        maybe(rng, lambda: random_int(rng)), tuple(random_frac(rng) for _ in range(3)), random_int(rng)))
    return DynamicsReport(
        random_int(rng), random_int(rng), random_int(rng), random_ints(rng),
        maybe(rng, lambda: random_int(rng)), random_ints(rng), random_ints(rng), index,
        tuple(levels), random_ints(rng),
        maybe(rng, lambda: tuple(rng.random() < 0.5 for _ in range(3))),
        tuple(f"note {i}" for i in range(rng.randrange(3))),
    )


class TestReportWriter:
    """``report_out`` writes each report from its fields, byte for byte as
    the writers that named every key by hand (``helpers.reference_*``)."""

    def test_dynamics_reports(self):
        rng = random.Random(26)
        reports = [random_dynamics_report(rng) for _ in range(300)]
        # real ones: a chain that reaches X, levels without a quotient, and
        # a p past 2^53
        reports += [analyze(cyclotomic_padic(3, 20, 90), 26), analyze(cyclotomic_padic(5, 8, 130), 3),
                    analyze(PadicSeries(5, 3, 10, [0, 6, 5] + [0] * 7), 3),
                    analyze(PadicSeries(2**61 - 1, 1, 8, (0, 1, 1, 0, 0, 0, 0, 0)), 1)]
        for rep in reports:
            doc = dynamics_report_out(rep)
            for level, lv in zip(doc["levels"], rep.levels):
                assert level.pop("prediction_in_scope") == lv.prediction_in_scope
            assert json.dumps(doc) == json.dumps(reference_dynamics_report_out(rep))

    def test_ram_sequences_and_verdicts(self):
        rng = random.Random(27)
        for _ in range(200):
            rs = RamSequence(random_int(rng), random_ints(rng), random_ints(rng), random_int(rng))
            assert json.dumps(ram_sequence_out(rs)) == json.dumps(reference_ram_sequence_out(rs))
            violations = tuple(Violation(f"rule {i}", random_int(rng), "detail") for i in range(rng.randrange(3)))
            v = BreaksVerdict(not violations, violations)
            assert json.dumps(jsonio.verdict_out(v)) == json.dumps(reference_verdict_out(v))

    @pytest.mark.parametrize("field", [FiniteField(5), FiniteField(2**61 - 1), FiniteField(3, 2, (1, 0, 1))])
    def test_trunc_objects(self, field):
        for e in (1, 7, 2**53 + 1):
            obj = TruncObject(field, e)
            assert json.dumps(jsonio.trunc_object_out(obj)) == json.dumps(reference_trunc_object_out(obj))
