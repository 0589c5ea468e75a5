import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ramforge
from ramforge import PrecisionError, jsonio, ramcheck
from ramforge.cli import main

from helpers import cyclotomic_coeffs


SERIES = json.dumps({"p": 5, "w": 1, "trunc": 4, "coeffs": [0, 1, 1, 0]})
PADIC = json.dumps({"p": 5, "prec": 3, "trunc": 4, "coeffs": [0, 1, 1, 0]})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def cyclotomic_series(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"p": 5, "w": 1, "trunc": 130, "coeffs": cyclotomic_coeffs(5, 130)}))
    return str(path)


@pytest.fixture
def break_data(tmp_path):
    path = tmp_path / "bd.json"
    path.write_text(json.dumps({"p": 5, "e": [1, 1], "upper": [[1, 1], [2, 1], [3, 1]]}))
    return str(path)


@pytest.fixture
def theorem_inputs(tmp_path):
    path = tmp_path / "ti.json"
    path.write_text(
        json.dumps(
            {
                "p": 5,
                "e": 1,
                "upper": [1, 2, 3],
                "contained_in_zp": True,
            }
        )
    )
    return str(path)


@pytest.fixture
def padic_series(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"p": 5, "prec": 8, "trunc": 130, "coeffs": cyclotomic_coeffs(5, 130)}))
    return str(path)


class TestSeries:
    def test_depth(self, capsys, cyclotomic_series):
        code, doc = run(capsys, "series", "depth", "--series", cyclotomic_series)
        assert code == 0 and doc == {"depth": 4}

    def test_depth_marker(self, capsys):
        inline = json.dumps({"p": 5, "w": 1, "trunc": 6, "coeffs": [0, 1, 0, 0, 0, 0]})
        code, doc = run(capsys, "series", "depth", "--series", inline)
        assert code == 0 and doc == {"depth": "at_least(5)"}

    def test_compose_round_trip(self, capsys, tmp_path):
        inline = json.dumps({"p": 5, "w": 1, "trunc": 4, "coeffs": [0, 1, 1, 0]})
        code, doc = run(capsys, "series", "compose", "--outer", inline, "--inner", inline)
        assert code == 0
        # emitted documents are accepted unchanged by the reader
        code2, doc2 = run(capsys, "series", "depth", "--series", json.dumps(doc))
        assert code2 == 0 and doc2 == {"depth": 1}

    def test_inverse(self, capsys):
        inline = json.dumps({"p": 5, "w": 1, "trunc": 4, "coeffs": [0, 1, 1, 0]})
        code, doc = run(capsys, "series", "inverse", "--series", inline)
        assert code == 0 and doc["coeffs"] == [0, 1, 4, 2]

    def test_iterate(self, capsys, cyclotomic_series):
        code, doc = run(capsys, "series", "iterate", "--series", cyclotomic_series, "--n", "1")
        assert code == 0 and doc["coeffs"][25] != 0 and not any(doc["coeffs"][2:25])

    @pytest.mark.parametrize("linear", [1, 2])
    def test_iterate_astronomical_level(self, capsys, linear):
        # the chain mod X^40 is eventually periodic: with linear coefficient 1
        # it ends at X, with 2 it keeps 2^(5^n) = 2 mod 5
        coeffs = [0, linear] + [(3 * k + 1) % 5 for k in range(2, 40)]
        inline = json.dumps({"p": 5, "w": 1, "trunc": 40, "coeffs": coeffs})
        started = time.perf_counter()
        code, doc = run(capsys, "series", "iterate", "--series", inline, "--n", str(10**21))
        assert code == 0 and time.perf_counter() - started < 1
        assert doc["coeffs"][:2] == [0, linear]
        if linear == 1:
            assert not any(doc["coeffs"][2:])


class TestRings:
    """Every series document is read in the ring it names, and a command
    that cannot work in that ring refuses it."""

    def test_compose_over_z_mod_p_power(self, capsys):
        # (X + 7X^2) o (X + 7X^2) = X + 14X^2 mod X^3; read over F_5, the
        # document would give 4 at X^2
        inline = json.dumps({"p": 5, "prec": 3, "trunc": 3, "coeffs": [0, 1, 7]})
        code, doc = run(capsys, "series", "compose", "--outer", inline, "--inner", inline)
        assert code == 0 and doc == {"p": 5, "prec": 3, "trunc": 3, "coeffs": [0, 1, 14]}

    def test_inverse_over_z_mod_p_power(self, capsys):
        # X - 7X^2 + 98X^3 inverts X + 7X^2 mod (5^3, X^4)
        inline = json.dumps({"p": 5, "prec": 3, "trunc": 4, "coeffs": [0, 1, 7, 0]})
        code, doc = run(capsys, "series", "inverse", "--series", inline)
        assert code == 0 and doc == {"p": 5, "prec": 3, "trunc": 4, "coeffs": [0, 1, 118, 98]}
        code, doc = run(capsys, "series", "compose", "--outer", inline, "--inner", json.dumps(doc))
        assert code == 0 and doc["coeffs"] == [0, 1, 0, 0]

    @pytest.mark.parametrize("argv", [
        ["series", "depth"], ["series", "iterate", "--n", "1"], ["breaks", "lower", "--n-max", "1"],
    ], ids=["depth", "iterate", "lower"])
    def test_breaks_and_depths_refuse_z_mod_p_power(self, capsys, argv):
        code, doc = run(capsys, *argv, "--series", PADIC)
        assert code == 2 and doc["error"]["type"] == "input"
        assert "reduce a Z/p^P series mod p" in doc["error"]["reason"]

    @pytest.mark.parametrize("field", [
        {"p": 3, "w": 2, "modulus": [1, 0, 1], "prec": 3}, {"p": 3, "w": 2, "modulus": [1, 0, 1]},
    ], ids=["with-prec", "without-prec"])
    def test_newton_refuses_an_extension_field(self, capsys, field):
        inline = json.dumps({**field, "trunc": 3, "coeffs": [3, 0, 1]})
        code, doc = run(capsys, "dynamics", "newton", "--series", inline, "--degree", "2")
        assert code == 2 and doc["error"]["type"] == "input"

    def test_trunc_refuses_z_mod_p_power(self, capsys):
        obj = {"field": {"p": 5, "prec": 3}, "e": 1}
        f = {"source": obj, "target": {**obj, "e": 2}, "r": 2, "res_twist": 0, "eta_coeff": [1]}
        code, doc = run(capsys, "trunc", "extension", "--f", json.dumps(f))
        assert code == 2 and "not the ring Z/5^3" in doc["error"]["reason"]


class TestBreaks:
    def test_lower(self, capsys, cyclotomic_series):
        code, doc = run(capsys, "breaks", "lower", "--series", cyclotomic_series, "--n-max", "2")
        assert code == 0
        assert doc == {"p": 5, "lower": [4, 24, 124], "upper": [4, 8, 12], "certified_to": 130}

    def test_upper(self, capsys):
        code, doc = run(capsys, "breaks", "upper", "--p", "5", "--lower", "4,24,124")
        assert code == 0 and doc == {"upper": [4, 8, 12]}

    def test_index(self, capsys):
        code, doc = run(capsys, "breaks", "index", "--p", "5", "--upper", "4,8,12")
        assert code == 0 and doc["d"] == 4 and doc["status"] == "determined"

    def test_integers_past_2_53_are_strings(self, capsys):
        code, doc = run(capsys, "breaks", "upper", "--p", "2", "--lower", "1,100000000000000001")
        assert code == 0 and doc == {"upper": [1, "50000000000000001"]}
        upper = ",".join(str(k * 10**17) for k in (1, 2, 3))
        code, doc = run(capsys, "breaks", "index", "--p", "5", "--upper", upper)
        assert code == 0 and doc["d"] == "100000000000000000"

    def test_validate(self, capsys, break_data):
        code, doc = run(capsys, "breaks", "validate", "--input", break_data)
        assert code == 0 and doc["valid"]

    def test_negative_n_max_is_input_error(self, capsys, cyclotomic_series):
        code, doc = run(capsys, "breaks", "lower", "--series", cyclotomic_series, "--n-max", "-1")
        assert code == 2 and doc["error"]["type"] == "input"

    def test_sen_violation_is_input_error(self, capsys):
        code, doc = run(capsys, "breaks", "upper", "--p", "5", "--lower", "4,23")
        assert code == 2 and doc["error"]["type"] == "input"

    def test_upper_zero_p_is_input_error(self, capsys):
        code, doc = run(capsys, "breaks", "upper", "--p", "0", "--lower", "1,2")
        assert code == 2 and doc["error"]["type"] == "input"

    def test_index_non_prime_p_is_input_error(self, capsys):
        code, doc = run(capsys, "breaks", "index", "--p", "1", "--upper", "1,2,3")
        assert code == 2 and doc["error"]["type"] == "input"

    def test_precision_document_names_what_failed(self, capsys):
        # mod X^30 the cyclotomic series certifies i_0 = 4 and i_1 = 24, and
        # level 2 needs i_2 = 124
        series = json.dumps({"p": 5, "w": 1, "trunc": 30, "coeffs": cyclotomic_coeffs(5, 30)})
        code, doc = run(capsys, "breaks", "lower", "--series", series, "--n-max", "2")
        assert code == 3 and doc["error"] == {
            "type": "precision",
            "reason": "depth of the p^2-th iterate is uncertified (>= 29) at truncation 30; "
                      "retry with a larger truncation",
            "quantity": "lower_break", "level": 2, "partial": [4, 24],
        }

    def test_precision_document_writes_partial_as_integers(self, capsys, monkeypatch):
        from ramforge import cli

        def uncertified(p, lower):
            raise PrecisionError("uncertified", quantity="q", level=1, partial=(4, 2**60))

        monkeypatch.setattr(cli, "upper_from_lower", uncertified)
        code, doc = run(capsys, "breaks", "upper", "--p", "5", "--lower", "4,24")
        assert code == 3 and doc["error"]["partial"] == [4, str(2**60)]

    @pytest.mark.parametrize("argv", [("breaks", "validate"), ("herbrand", "psi"), ("herbrand", "phi")])
    def test_non_prime_break_data_is_input_error(self, capsys, argv):
        # a ring with p = 4 used to validate, and get a psi and a phi
        code, doc = run(capsys, *argv, "--input", '{"p": 4, "e": 1, "upper": [1]}')
        assert code == 2 and doc["error"]["type"] == "input"
        assert "not prime" in doc["error"]["reason"]


class TestHerbrand:
    def test_psi_and_eval(self, capsys, break_data, tmp_path):
        code, doc = run(capsys, "herbrand", "psi", "--input", break_data)
        assert code == 0 and doc["slopes"] == ["1/1", "5/1", "25/1", "125/1"]
        func = tmp_path / "psi.json"
        func.write_text(json.dumps(doc))
        code, doc = run(capsys, "herbrand", "eval", "--func", str(func), "--x", "13/4")
        assert code == 0 and doc == {"value": "249/4"}

    def test_eval_zero_denominator_is_input_error(self, capsys, break_data, tmp_path):
        _, psi = run(capsys, "herbrand", "psi", "--input", break_data)
        func = tmp_path / "psi.json"
        func.write_text(json.dumps(psi))
        code, doc = run(capsys, "herbrand", "eval", "--func", str(func), "--x", "1/0")
        assert code == 2 and doc["error"]["type"] == "input"

    def test_phi(self, capsys, break_data):
        code, doc = run(capsys, "herbrand", "phi", "--input", break_data)
        assert code == 0 and doc["breakpoints"] == ["0/1", "1/1", "6/1", "31/1"]

    def test_compose_collapses(self, capsys, break_data, tmp_path):
        _, psi = run(capsys, "herbrand", "psi", "--input", break_data)
        _, phi = run(capsys, "herbrand", "phi", "--input", break_data)
        f1 = tmp_path / "f1.json"
        f2 = tmp_path / "f2.json"
        f1.write_text(json.dumps(psi))
        f2.write_text(json.dumps(phi))
        code, doc = run(capsys, "herbrand", "compose", "--outer", str(f1), "--inner", str(f2))
        assert code == 0 and doc["slopes"] == ["1/1"]


class TestTrunc:
    def _morphism(self, r, e1, e2, eta):
        return json.dumps(
            {
                "source": {"field": {"p": 5, "w": 1}, "e": e1},
                "target": {"field": {"p": 5, "w": 1}, "e": e2},
                "r": r,
                "res_twist": 0,
                "eta_coeff": eta,
            }
        )

    def test_extension(self, capsys):
        code, doc = run(capsys, "trunc", "extension", "--f", self._morphism(3, 2, 6, [1, 0, 0, 0, 0, 0]))
        assert code == 0 and doc == {"is_extension": True}

    def test_compose(self, capsys):
        f = self._morphism(2, 1, 2, [3, 1])
        g = self._morphism(3, 2, 6, [2, 0, 1, 0, 0, 0])
        code, doc = run(capsys, "trunc", "compose", "--g", g, "--f", f)
        assert code == 0 and doc["r"] == 6
        # the emitted composite is accepted unchanged by the reader
        code, doc2 = run(capsys, "trunc", "extension", "--f", json.dumps(doc))
        assert code == 0 and doc2 == {"is_extension": True}

    def test_compose_writes_a_large_r_as_a_string(self, capsys):
        # r = 2^30 twice composes to r = 2^60, past the 2^53 of a JSON number
        f = self._morphism(2**30, 1, 2, [3, 1])
        g = self._morphism(2**30, 2, 2, [2, 1])
        code, doc = run(capsys, "trunc", "compose", "--g", g, "--f", f)
        assert code == 0 and doc["r"] == str(2**60) and doc["res_twist"] == 0
        assert jsonio.morphism_in(doc).r == 2**60
        assert jsonio.morphism_out(jsonio.morphism_in(doc)) == doc

    def test_requiv(self, capsys):
        f = self._morphism(1, 4, 4, [1, 0, 0, 0])
        f2 = self._morphism(1, 4, 4, [1, 0, 1, 0])
        code, doc = run(capsys, "trunc", "requiv", "--f", f, "--f2", f2, "--c", "2")
        assert code == 0 and doc == {"r_equivalent": True}
        code, doc = run(capsys, "trunc", "requiv", "--f", f, "--f2", f2, "--c", "3")
        assert code == 0 and doc == {"r_equivalent": False}


class TestCheck:
    def test_m0(self, capsys, theorem_inputs):
        code, doc = run(capsys, "check", "m0", "--input", theorem_inputs)
        assert code == 0 and doc == {"m0": 2}

    def test_main_writes_a_large_e_as_a_string(self, capsys):
        e = 2**60 + 1
        code, doc = run(capsys, "check", "main", "--input", json.dumps({"p": 5, "e": [e, 1], "upper": [[1, 1]]}))
        assert code == 0 and doc["e"] == str(e) and doc["a"] == str(5 * e)
        assert doc["p"] == 5 and doc["n"] == 1 and doc["m"] is None

    def test_main(self, capsys, theorem_inputs):
        code, doc = run(capsys, "check", "main", "--input", theorem_inputs)
        assert code == 0 and doc["guarantee"] == "p^2"
        assert doc["cond1"]["ok"] and doc["cond2"]["ok"] and doc["cond3"]["ok"]

    def test_main_non_integral_e_is_input_error(self, capsys):
        text = json.dumps({"p": 5, "e": "3/2", "upper": [1, "5/2"]})
        code, doc = run(capsys, "check", "main", "--input", text)
        assert code == 2 and doc["error"]["type"] == "input"
        assert doc["error"]["reason"] == "the tame index e must be an integer for condition checks"

    @pytest.mark.parametrize("field, reason", [
        ("a", "cutoff a = 0 outside [1, e*p^n]"),
        ("m", "m = 0 outside [1, n = 3]"),
    ])
    def test_supplied_zero_is_input_error(self, capsys, field, reason):
        # a supplied 0 is read as given, not as the default
        text = json.dumps({"p": 5, "e": 1, "upper": [1, 2, 3], field: 0})
        code, doc = run(capsys, "check", "main", "--input", text)
        assert code == 2 and doc == {"error": {"type": "input", "reason": reason}}

    def test_proot(self, capsys, theorem_inputs):
        code, doc = run(capsys, "check", "proot", "--input", theorem_inputs)
        assert code == 0 and doc["guarantee"] == "p^1 (proot)" and doc["l"] == 25

    def test_fshift(self, capsys):
        code, doc = run(capsys, "check", "fshift", "--p", "5", "--e", "1", "--m", "1", "--t", "9")
        assert code == 0 and doc == {"f": 4}
        code, doc = run(capsys, "check", "fshift", "--p", "5", "--e", "1", "--m", "1", "--sum-check")
        assert code == 0 and doc == {"sum_check": True}
        # t = 25 is at level 2, below m, so its value needs no p^m
        code, doc = run(capsys, "check", "fshift", "--p", "5", "--e", "4", "--m", str(10**9), "--t", "25")
        assert code == 0 and doc == {"f": 124}

    def test_fshift_sum_check_at_large_m(self, capsys):
        started = time.perf_counter()
        code, doc = run(capsys, "check", "fshift", "--p", "5", "--e", "1", "--m", "200", "--sum-check")
        assert code == 0 and doc == {"sum_check": True}
        code, doc = run(capsys, "check", "fshift", "--p", "5", "--e", "4", "--m", "2000", "--sum-check")
        assert code == 0 and doc == {"sum_check": True}
        assert time.perf_counter() - started < 1

    def test_fshift_value_past_2_53_is_a_string(self, capsys):
        code, doc = run(capsys, "check", "fshift", "--p", "5", "--e", "4", "--m", "30")
        assert code == 0 and doc == {"f": "4656612873077392578124"}

    def test_fshift_value_too_long_to_print_is_input_error(self, capsys):
        # f would have about 14,000 digits; it is refused before it is built
        started = time.perf_counter()
        code, doc = run(capsys, "check", "fshift", "--p", "5", "--e", "4", "--m", "20000")
        assert code == 2 and doc["error"]["type"] == "input"
        assert doc["error"]["reason"] == (
            "m = 20000 is too large for the level-m value: p^(m+1) has more than 4300 digits"
        )
        assert time.perf_counter() - started < 1

    def test_fshift_sum_check_past_the_digit_limit_is_input_error(self, capsys):
        # 5^20001 has about 14,000 digits; the sum used to run for seconds
        started = time.perf_counter()
        code, doc = run(capsys, "check", "fshift", "--p", "5", "--e", "4", "--m", "20000", "--sum-check")
        assert code == 2 and doc["error"]["type"] == "input"
        assert doc["error"]["reason"] == (
            "m = 20000 is too large for the sum check: p^(m+1) has more than 4300 digits"
        )
        assert time.perf_counter() - started < 1

    @pytest.mark.parametrize(
        "fields",
        [{"a": '"{}"'}, {"a": "{}"}, {"e": '"{}"'}, {"e": '"1/{}"'}, {"upper": '[1, 2, ["{}", 1]]'}],
        ids=["string", "number", "fraction", "denominator", "pair"],
    )
    def test_integer_too_long_to_read_is_input_error(self, capsys, fields):
        digits = "7" * (sys.get_int_max_str_digits() + 700)
        fields = {"p": "5", "e": "1", "upper": "[1, 2]"} | fields
        doc = "{" + ", ".join(f'"{k}": {v.format(digits)}' for k, v in fields.items()) + "}"
        code, doc = run(capsys, "check", "main", "--input", doc)
        assert code == 2 and doc["error"]["type"] == "input"
        assert doc["error"]["reason"] == (
            f"the input has an integer of more than {sys.get_int_max_str_digits()} digits, "
            "too long to read"
        )

    @pytest.mark.parametrize("m", [10**6, 10**9])
    def test_fshift_level_m_past_the_work_bound_is_input_error(self, capsys, m):
        # t = 0 is at level m; its value is refused before p^m is built
        started = time.perf_counter()
        code, doc = run(capsys, "check", "fshift", "--p", "5", "--e", "4", "--m", str(m))
        assert code == 2 and doc["error"]["reason"] == (
            f"m = {m} is too large for the level-m value: p^(m+1) has more than 4300 digits"
        )
        assert time.perf_counter() - started < 1

    def test_sum_check_past_float_range_is_input_error(self, capsys):
        # m = 10^400 overflowed a float in the bound and ended in exit 4
        code, doc = run(capsys, "check", "fshift", "--p", "5", "--e", "1", "--m", str(10**400), "--sum-check")
        assert code == 2 and "too large for the sum check" in doc["error"]["reason"]

    def test_exponent_form_rational_is_input_error(self, capsys):
        # Fraction read "1e100000" as a 100,001-digit integer
        started = time.perf_counter()
        code, doc = run(capsys, "check", "main", "--input", '{"p": 5, "e": 1, "upper": [1, "1e100000"]}')
        assert code == 2 and doc["error"]["reason"] == "not an exact rational: '1e100000'"
        assert time.perf_counter() - started < 1

    def test_fshift_zero_p_is_input_error(self, capsys):
        code, doc = run(capsys, "check", "fshift", "--p", "0", "--e", "1", "--m", "1")
        assert code == 2 and doc["error"]["type"] == "input"
        assert "not prime" in doc["error"]["reason"]


class TestDynamics:
    def test_analyze(self, capsys, padic_series):
        code, doc = run(capsys, "dynamics", "analyze", "--series", padic_series, "--levels", "1")
        assert code == 0
        assert doc["depths"] == [4, 24] and doc["levels"][0]["weierstrass_degree"] == 20

    def test_negative_levels_is_input_error(self, capsys, padic_series):
        code, doc = run(capsys, "dynamics", "analyze", "--series", padic_series, "--levels", "-1")
        assert code == 2 and doc["error"]["type"] == "input"

    def test_levels_past_any_truncation_are_input_errors(self, capsys):
        # the report lists every level asked for; 10^9 of them would not fit
        # in memory, and none past 64 certifies at any truncation
        inline = json.dumps({"p": 5, "prec": 3, "trunc": 20, "coeffs": cyclotomic_coeffs(5, 20)})
        code, doc = run(capsys, "dynamics", "analyze", "--series", inline, "--levels", "64")
        assert code == 0 and len(doc["levels"]) == 64
        for levels in ("65", str(10**9)):
            started = time.perf_counter()
            code, doc = run(capsys, "dynamics", "analyze", "--series", inline, "--levels", levels)
            assert code == 2 and "past 64" in doc["error"]["reason"]
            assert time.perf_counter() - started < 1

    @pytest.mark.parametrize("linear, exit_code", [(2, 0), (5, 0), (6, 3)])
    def test_qn_reads_a_high_level_off_the_cycle(self, capsys, linear, exit_code):
        # the chain of a series mod (p^P, X^M) is eventually periodic, here
        # from link 4 on at the latest and with period 1, so level 10^30 is
        # level 40; the chain of the 1-unit 6 reaches X, and its level is
        # a zero divisor
        inline = json.dumps({"p": 5, "prec": 3, "trunc": 20, "coeffs": [0, linear, 1] + [0] * 17})

        def qn(n):
            code, doc = run(capsys, "dynamics", "qn", "--series", inline, "--n", str(n))
            if code == 3:
                assert doc["error"].pop("level") == jsonio.int_out(n)
            return code, doc

        started = time.perf_counter()
        huge = qn(10**30)
        assert time.perf_counter() - started < 1
        assert huge == qn(40) and huge[0] == exit_code

    def test_qn_and_newton(self, capsys, padic_series, tmp_path):
        code, doc = run(capsys, "dynamics", "qn", "--series", padic_series, "--n", "1")
        assert code == 0 and doc["coeffs"][0] == 1555
        qpath = tmp_path / "q1.json"
        doc.pop("coeff_prec")
        qpath.write_text(json.dumps(doc))
        code, poly = run(capsys, "dynamics", "newton", "--series", str(qpath), "--degree", "20")
        assert code == 0 and poly["segments"][0]["root_valuation"] == "1/20"

    def test_precision_exit_code(self, capsys):
        inline = json.dumps({"p": 5, "prec": 3, "trunc": 10, "coeffs": [0, 6, 5, 0, 0, 0, 0, 0, 0, 0]})
        code, doc = run(capsys, "dynamics", "qn", "--series", inline, "--n", "1")
        assert code == 3 and doc["error"]["type"] == "precision"
        assert doc["error"]["quantity"] == "qn_divisor" and doc["error"]["level"] == 1
        assert doc["error"]["partial"] is None

    def test_precision_document_without_level(self, capsys):
        inline = json.dumps({"p": 5, "prec": 2, "trunc": 4, "coeffs": [0, 0, 0, 0]})
        code, doc = run(capsys, "dynamics", "newton", "--series", inline, "--degree", "2")
        assert code == 3 and doc["error"] == {
            "type": "precision", "reason": "valuation of an endpoint coefficient is uncertified",
            "quantity": "newton_polygon", "level": None, "partial": None,
        }

    @pytest.mark.parametrize(
        "op, series, flag",
        [
            ("newton", {"p": 0, "prec": 3, "trunc": 4, "coeffs": [5, 1, 0, 1]}, ["--degree", "2"]),
            ("qn", {"p": 4, "prec": 3, "trunc": 8, "coeffs": [0, 5, 1, 0, 0, 0, 0, 0]}, ["--n", "1"]),
            ("newton", {"p": 1, "prec": 3, "trunc": 4, "coeffs": [5, 1, 0, 1]}, ["--degree", "2"]),
        ],
    )
    def test_non_prime_p_is_input_error(self, capsys, op, series, flag):
        code, doc = run(capsys, "dynamics", op, "--series", json.dumps(series), *flag)
        assert code == 2 and doc["error"]["type"] == "input"
        assert "not prime" in doc["error"]["reason"]

    @pytest.mark.parametrize(
        "op, text, flag",
        [
            ("newton", '{"p": 5, "prec": 2.9, "trunc": 3, "coeffs": [5, 0, 1]}', ["--degree", "2"]),
            ("qn", '{"p": 5, "prec": 3, "trunc": 4, "coeffs": [0, 1.9, 1, 0]}', ["--n", "1"]),
            ("newton", '{"p": 5, "prec": 1e400, "trunc": 3, "coeffs": [5, 0, 1]}', ["--degree", "2"]),
        ],
    )
    def test_non_integer_is_input_error(self, capsys, op, text, flag):
        # a float precision or coefficient was truncated by int(), or overflowed
        code, doc = run(capsys, "dynamics", op, "--series", text, *flag)
        assert code == 2 and doc["error"]["type"] == "input"
        assert "expected an integer" in doc["error"]["reason"]

    def test_uncertifiable_p_is_input_error(self, capsys):
        series = {"p": 2**89 - 1, "prec": 2, "trunc": 8, "coeffs": [0, 5, 1, 0, 0, 0, 0, 0]}
        code, doc = run(capsys, "dynamics", "qn", "--series", json.dumps(series), "--n", "1")
        assert code == 2 and doc["error"]["type"] == "input"
        assert "cannot be certified" in doc["error"]["reason"]


class TestContract:
    def test_input_error_exit_code(self, capsys):
        code, doc = run(capsys, "series", "depth", "--series", '{"p": 4, "w": 1, "trunc": 2, "coeffs": [0, 1]}')
        assert code == 2 and doc["error"]["type"] == "input"

    def test_failed_cross_check_exit_code(self, capsys, monkeypatch, theorem_inputs):
        monkeypatch.setattr(ramcheck, "_ces_floor", lambda *args: -1)
        code, doc = run(capsys, "check", "main", "--input", theorem_inputs)
        assert code == 4 and doc["error"]["type"] == "invariant"
        assert "cross-check failed" in doc["error"]["reason"]

    def test_deep_nesting_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, doc = run(capsys, "dynamics", "analyze", "--series", str(path), "--levels", "1")
        assert code == 2 and doc["error"]["type"] == "input"

    def test_one_parser_for_every_call(self, capsys, monkeypatch):
        # the parser tree is built on the first call of main and shared by
        # the later ones, which parse and report usage errors alike
        from ramforge import cli

        cli._build_parser.cache_clear()
        built = []
        init = cli._Parser.__init__
        monkeypatch.setattr(cli._Parser, "__init__",
                            lambda self, *args, **kw: built.append(self) or init(self, *args, **kw))
        ok = run(capsys, "series", "depth", "--series", SERIES)
        count = len(built)
        for argv in (("series", "compose", "--outer", SERIES), ("breaks", "upper", "--p", "5", "--bad", "1")):
            first = run(capsys, *argv)
            assert first[0] == 2 and first[1]["error"]["type"] == "input"
            assert run(capsys, *argv) == first
        assert run(capsys, "series", "depth", "--series", SERIES) == ok and ok[0] == 0
        assert len(built) == count and sum(p.prog == "ramforge" for p in built) == 1

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        from ramforge import cli

        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "upper_from_lower", broken)
        code, doc = run(capsys, "breaks", "upper", "--p", "5", "--lower", "4,24")
        assert code == 4 and doc["error"] == {"type": "internal", "reason": "RuntimeError: boom"}

    @pytest.mark.parametrize("argv, read, code", [
        # 20,000 coefficients print more than a pipe holds, so the reader
        # closes while the command is still writing, as `| head -c 10` does
        (("series", "iterate", "--n", "0", "--series",
          json.dumps({"p": 5, "w": 1, "trunc": 20000, "coeffs": [0, 1, 1] + [0] * 19997})), 10, 0),
        # the reader closes before a short document is written: the flush
        # fails, for a result and for an error document alike
        (("series", "depth", "--series", SERIES), 0, 0),
        (("series", "depth", "--series", '{"p": 5}'), 0, 2),
        (("breaks", "lower", "--n-max", "1", "--series",
          json.dumps({"p": 5, "w": 1, "trunc": 4, "coeffs": [0, 1, 0, 0]})), 0, 3),
    ], ids=["long", "result", "input", "precision"])
    def test_closed_stdout_ends_quietly(self, argv, read, code):
        # a closed pipe used to end in two BrokenPipeError tracebacks and
        # exit 1: the second came from writing the error document to it
        src = str(Path(ramforge.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "ramforge.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == code, err
        assert err == b"" and len(head) == read

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_unprintable_document_is_input_error(self, capsys, monkeypatch, fmt):
        # a document is rendered whole inside the error handling, so an
        # integer past the int-to-decimal limit prints one error document
        from ramforge import cli, jsonio

        monkeypatch.setattr(cli, "upper_from_lower", lambda *args: [1, 10**5000])
        monkeypatch.setattr(jsonio, "int_out", lambda v: v)
        code = main(["--format", fmt, "breaks", "upper", "--p", "5", "--lower", "4,24"])
        out = capsys.readouterr().out
        assert code == 2
        if fmt == "json":
            assert json.loads(out)["error"]["type"] == "input"
        else:
            assert out.splitlines()[-1] == "error.type: input" and "upper" not in out

    def test_cross_checks_run_under_optimize(self, theorem_inputs):
        # python -O strips assert statements; the cross-checks must still run
        script = (
            "import sys\n"
            "from ramforge import cli, ramcheck\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit(5)\n"
            "ramcheck._ces_floor = lambda *args: -1\n"
            f"sys.exit(cli.main(['check', 'main', '--input', {theorem_inputs!r}]))\n"
        )
        src = str(Path(ramforge.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 4, proc.stderr
        assert json.loads(proc.stdout)["error"]["type"] == "invariant"

    def test_same_output_under_optimize(self, padic_series, cyclotomic_series, theorem_inputs):
        # one command of each kind prints the same bytes and exit code with
        # and without python -O
        src = str(Path(ramforge.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        psi = '{"breakpoints": ["0/1", "1/1", "2/1"], "slopes": ["1/1", "5/1", "25/1"], "value_at_origin": "0/1"}'
        commands = [
            ["dynamics", "analyze", "--series", padic_series, "--levels", "2"],
            ["breaks", "lower", "--series", cyclotomic_series, "--n-max", "2"],
            ["check", "main", "--input", theorem_inputs],
            ["herbrand", "eval", "--func", psi, "--x", "13/4"],
        ]
        script = (
            "import sys\n"
            "from ramforge import cli\n"
            "print('optimize', sys.flags.optimize)\n"
            f"for argv in {commands!r}:\n"
            "    print('exit', cli.main(argv), flush=True)\n"
        )
        outputs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                                  text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.split("\n", 1))
        assert [head for head, _ in outputs] == ["optimize 0", "optimize 1"]
        plain, optimized = (body for _, body in outputs)
        assert plain == optimized
        assert [line for line in plain.splitlines() if line.startswith("exit")] == ["exit 0"] * 4

    @pytest.mark.parametrize("argv, reason", [
        (("series", "iterate", "--series", SERIES, "--n", "x"), "expected an integer, got 'x'"),
        (("breaks", "upper", "--p", "5", "--lower", "4,2_4,124"), "expected an integer, got '2_4'"),
        (("breaks", "upper", "--p", "5", "--lower", "4," + "7" * 5000),
         f"the input has an integer of more than {sys.get_int_max_str_digits()} digits, too long to read"),
        (("breaks", "index", "--p", "5", "--upper", "4,1e5"), "not an exact rational: '1e5'"),
        (("check", "fshift", "--p", "5", "--e", "1", "--m", " 1"), "expected an integer, got ' 1'"),
        (("dynamics", "qn", "--series", PADIC, "--n", "1.5"), "expected an integer, got '1.5'"),
    ], ids=["letter", "underscore", "5000-digits", "exponent", "space", "decimal-point"])
    def test_flag_values_are_read_like_document_values(self, capsys, argv, reason):
        code, doc = run(capsys, *argv)
        assert code == 2 and doc["error"] == {"type": "input", "reason": reason}

    @pytest.mark.parametrize("argv, reason", [
        (("check", "main", "--input", '{"p": 5, "e": 1, "upper": [1, 2, 3], "contained_in_zp": "no"}'),
         'field "contained_in_zp" must be a boolean, not a string'),
        (("check", "proot", "--input", '{"p": 5, "e": 1, "upper": [1, 2], "contained_in_zp": null}'),
         'field "contained_in_zp" must be a boolean, not null'),
        (("breaks", "validate", "--input", '{"p": 5, "e": true, "upper": [1]}'), "not an exact rational: True"),
        (("series", "depth", "--series", '{"p": 5}'), 'missing field "trunc"'),
        (("trunc", "iso", "--f", '{"source": {"field": {"p": 5}, "e": 3}}'), 'missing field "target"'),
    ], ids=["zp-string", "zp-null", "bool-rational", "missing-trunc", "missing-target"])
    def test_malformed_document_fields_are_input_errors(self, capsys, argv, reason):
        code, doc = run(capsys, *argv)
        assert code == 2 and doc["error"] == {"type": "input", "reason": reason}

    @pytest.mark.parametrize("argv, reason", [
        ((), "ramforge: the following arguments are required: group"),
        (("breaks",), "ramforge breaks: the following arguments are required: op"),
        (("breaks", "frob"), "ramforge breaks: argument op: invalid choice: 'frob'"),
        (("breaks", "upper", "--p", "5"), "ramforge breaks upper: the following arguments are required: --lower"),
        (("breaks", "upper", "--p", "5", "--lower", "4", "--q", "1"), "unrecognized arguments: --q 1"),
        (("--format", "xml", "breaks", "upper", "--p", "5", "--lower", "4"),
         "ramforge: argument --format: invalid choice: 'xml'"),
    ], ids=["no-group", "no-command", "unknown-command", "missing-flag", "unknown-flag", "bad-format"])
    def test_usage_error_is_input_error(self, capsys, argv, reason):
        code, doc = run(capsys, *argv)
        assert code == 2 and doc["error"]["type"] == "input"
        assert reason in doc["error"]["reason"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["breaks", "upper", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ramforge breaks upper [-h] --p P --lower LOWER")

    def test_determinism(self, capsys, theorem_inputs):
        main(["check", "main", "--input", theorem_inputs])
        first = capsys.readouterr().out
        main(["check", "main", "--input", theorem_inputs])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("argv", [
        ("series", "depth", "--series",
         json.dumps({"p": 5, "w": 1, "trunc": 3 * 10**6, "coeffs": [0, 1]})),
        ("dynamics", "qn", "--n", "1", "--series",
         json.dumps({"p": 5, "prec": 8, "trunc": 3 * 10**5, "coeffs": [0, 1]})),
        ("trunc", "iso", "--f", json.dumps({
            "source": {"field": {"p": 5, "w": 1}, "e": 3 * 10**6},
            "target": {"field": {"p": 5, "w": 1}, "e": 3 * 10**6},
            "r": 1, "res_twist": 0, "eta_coeff": [1]})),
    ], ids=["series", "padic", "morphism"])
    def test_default_precision_cap(self, capsys, monkeypatch, argv):
        # each document is refused before anything of its size is built
        monkeypatch.delenv("RAMFORGE_MAX_PRECISION", raising=False)
        started = time.perf_counter()
        code, doc = run(capsys, *argv)
        assert code == 2 and "RAMFORGE_MAX_PRECISION cap of 1000000" in doc["error"]["reason"]
        assert time.perf_counter() - started < 1

    def test_lowered_cap_on_morphisms(self, capsys, monkeypatch):
        obj = {"field": {"p": 5, "w": 1}, "e": 200}
        f = json.dumps({"source": obj, "target": obj, "r": 1, "res_twist": 0, "eta_coeff": [1]})
        monkeypatch.delenv("RAMFORGE_MAX_PRECISION", raising=False)
        assert run(capsys, "trunc", "iso", "--f", f) == (0, {"is_isomorphism": True})
        monkeypatch.setenv("RAMFORGE_MAX_PRECISION", "100")
        code, doc = run(capsys, "trunc", "iso", "--f", f)
        assert code == 2 and "RAMFORGE_MAX_PRECISION cap of 100" in doc["error"]["reason"]

    def test_precision_budget_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("RAMFORGE_MAX_PRECISION", "100")
        inline = json.dumps({"p": 5, "prec": 8, "trunc": 130, "coeffs": [0] * 130})
        code, doc = run(capsys, "dynamics", "qn", "--series", inline, "--n", "1")
        assert code == 2 and "RAMFORGE_MAX_PRECISION" in doc["error"]["reason"]

    @pytest.mark.parametrize("p, w", [(2, 800), (10007, 80)])
    def test_wide_extension_field_is_refused_at_the_door(self, capsys, p, w):
        # Rabin's test of these moduli, both reducible, took 151 s and 1.3 s
        field = {"p": p, "w": w, "modulus": [1, 1] + [0] * (w - 2) + [1]}
        series = json.dumps({**field, "trunc": 2, "coeffs": [0, 1]})
        f = json.dumps({"source": {"field": field, "e": 1}, "target": {"field": field, "e": 1},
                        "r": 1, "res_twist": 0, "eta_coeff": [1]})
        for argv in (("series", "depth", "--series", series), ("trunc", "iso", "--f", f)):
            started = time.perf_counter()
            code, doc = run(capsys, *argv)
            assert time.perf_counter() - started < 1
            reason = doc["error"]["reason"]
            assert code == 2 and f"w^3*bits(p) = {w**3 * p.bit_length()}" in reason
            assert f"past the bound of {jsonio._MAX_FIELD_WORK}" in reason

    def test_table_format(self, capsys):
        code = main(["--format", "table", "breaks", "upper", "--p", "5", "--lower", "4,24,124"])
        out = capsys.readouterr().out
        assert code == 0 and "upper: [4, 8, 12]" in out
