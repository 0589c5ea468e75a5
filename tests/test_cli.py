import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramforge
from ramforge import ramcheck
from ramforge.cli import main

from helpers import cyclotomic_coeffs


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

    def test_validate(self, capsys, break_data):
        code, doc = run(capsys, "breaks", "validate", "--input", break_data)
        assert code == 0 and doc["valid"]

    def test_sen_violation_is_input_error(self, capsys):
        code, doc = run(capsys, "breaks", "upper", "--p", "5", "--lower", "4,23")
        assert code == 2 and doc["error"]["type"] == "input"

    def test_upper_zero_p_is_input_error(self, capsys):
        code, doc = run(capsys, "breaks", "upper", "--p", "0", "--lower", "1,2")
        assert code == 2 and doc["error"]["type"] == "input"

    def test_index_non_prime_p_is_input_error(self, capsys):
        code, doc = run(capsys, "breaks", "index", "--p", "1", "--upper", "1,2,3")
        assert code == 2 and doc["error"]["type"] == "input"


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

    def test_main(self, capsys, theorem_inputs):
        code, doc = run(capsys, "check", "main", "--input", theorem_inputs)
        assert code == 0 and doc["guarantee"] == "p^2"
        assert doc["cond1"]["ok"] and doc["cond2"]["ok"] and doc["cond3"]["ok"]

    def test_proot(self, capsys, theorem_inputs):
        code, doc = run(capsys, "check", "proot", "--input", theorem_inputs)
        assert code == 0 and doc["guarantee"] == "p^1 (proot)" and doc["l"] == 25

    def test_fshift(self, capsys):
        code, doc = run(capsys, "check", "fshift", "--p", "5", "--e", "1", "--m", "1", "--t", "9")
        assert code == 0 and doc == {"f": 4}
        code, doc = run(capsys, "check", "fshift", "--p", "5", "--e", "1", "--m", "1", "--sum-check")
        assert code == 0 and doc == {"sum_check": True}


class TestDynamics:
    def test_analyze(self, capsys, padic_series):
        code, doc = run(capsys, "dynamics", "analyze", "--series", padic_series, "--levels", "1")
        assert code == 0
        assert doc["depths"] == [4, 24] and doc["levels"][0]["weierstrass_degree"] == 20

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

    def test_determinism(self, capsys, theorem_inputs):
        main(["check", "main", "--input", theorem_inputs])
        first = capsys.readouterr().out
        main(["check", "main", "--input", theorem_inputs])
        second = capsys.readouterr().out
        assert first == second

    def test_precision_budget_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("RAMFORGE_MAX_PRECISION", "100")
        inline = json.dumps({"p": 5, "prec": 8, "trunc": 130, "coeffs": [0] * 130})
        code, doc = run(capsys, "dynamics", "qn", "--series", inline, "--n", "1")
        assert code == 2 and "RAMFORGE_MAX_PRECISION" in doc["error"]["reason"]

    def test_table_format(self, capsys):
        code = main(["--format", "table", "breaks", "upper", "--p", "5", "--lower", "4,24,124"])
        out = capsys.readouterr().out
        assert code == 0 and "upper: [4, 8, 12]" in out
