import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config
from edgewave import angles, cli
from edgewave.cli import main, parse_complex
from edgewave.vanish import closed_det_A


class TestComplexGrammar:
    @pytest.mark.parametrize("text,expect", [
        ("1+0i", 1 + 0j),
        ("1", 1 + 0j),
        ("2.5-1i", 2.5 - 1j),
        ("-0.5+0.25i", -0.5 + 0.25j),
        ("i", 1j),
        ("-i", -1j),
        ("3i", 3j),
        ("1e-2+2e-1i", 0.01 + 0.2j),
    ])
    def test_parse(self, text, expect):
        assert parse_complex(text) == expect

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_complex("1+2j+3")

    @given(st.text(alphabet="0123456789.eE+-ij ", max_size=12))
    @settings(max_examples=3000, deadline=None)
    def test_matches_the_reference_grammar(self, text):
        try:
            expect = _reference_complex(text)
        except ValueError:
            with pytest.raises(ValueError):
                parse_complex(text)
        else:
            assert parse_complex(text) == expect


def _reference_complex(text):
    """The explicit 'a+bi' grammar parse_complex must accept, with its values."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty complex literal")
    m = re.fullmatch(
        r"(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?"
        r"(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)i)?"
        r"|(?P<only_im>[+-]?(?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)i", text)
    if m is None:
        raise ValueError(f"cannot parse complex literal {text!r}")
    if m.group("only_im") is not None:
        part = m.group("only_im")
        if part in ("", "+"):
            return complex(0.0, 1.0)
        if part == "-":
            return complex(0.0, -1.0)
        return complex(0.0, float(part))
    realpart = float(m.group("re")) if m.group("re") else 0.0
    impart = 0.0
    if m.group("im") is not None:
        part = m.group("im")
        impart = 1.0 if part == "+" else -1.0 if part == "-" else float(part)
    return complex(realpart, impart)


class TestAnalyze:
    def test_rational_example(self, capsys):
        code = main(["analyze", "--alpha", "1/3", "--case", "imp-imp",
                     "--eta1", "1+0i", "--eta2", "1+0i", "--k", "1",
                     "--nmax", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "order lower bound (assembled systems): 2" in out
        assert "guaranteed bound (angle grid):         2" in out

    def test_irrational_example(self, capsys):
        code = main(["analyze", "--alpha", "0.6180339887", "--case", "pec-pmc",
                     "--nmax", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert ">= 8" in out
        assert "irrational" in out

    def test_half_gives_zero_bound(self, capsys):
        code = main(["analyze", "--alpha", "1/2", "--case", "imp-imp",
                     "--eta1", "1", "--eta2", "1", "--k", "1", "--nmax", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "order lower bound (assembled systems): 0" in out

    def test_missing_eta_is_usage_error(self, capsys):
        code = main(["analyze", "--alpha", "1/3", "--case", "imp-imp"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("case,given,missing", [
        ("imp-imp", [], "--eta1 and --eta2"),
        ("imp-imp", ["--eta2", "1"], "--eta1"),
        ("imp-imp", ["--eta1", "1"], "--eta2"),
        ("imp-pec", ["--eta1", "1"], "--eta2"),
        ("imp-pmc", [], "--eta2"),
    ])
    def test_missing_eta_names_the_flag(self, capsys, case, given, missing):
        code = main(["analyze", "--alpha", "1/3", "--case", case] + given)
        assert code == 1
        assert capsys.readouterr().err == f"error: {case} requires {missing}\n"

    def test_bad_angle_is_usage_error(self, capsys):
        code = main(["analyze", "--alpha", "1/1", "--case", "pec-pmc"])
        assert code == 1

    def test_json_output(self, capsys):
        code = main(["analyze", "--alpha", "1/3", "--case", "imp-imp",
                     "--eta1", "1", "--eta2", "1", "--nmax", "3", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["alpha"]["rational"] == [1, 3]
        assert data["case"] == "imp-imp"
        assert data["order_lower_bound"] == 2
        assert data["theorem_bound"] == 2

    def test_json_round_trips(self, capsys):
        from edgewave.vanish import VanishReport
        main(["analyze", "--alpha", "2/5", "--case", "imp-pec", "--eta2",
              "1-1i", "--nmax", "4", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert VanishReport.from_json_dict(data).to_json_dict() == data


class TestTable:
    def test_impimp_bounds(self, capsys):
        code = main(["table", "--case", "imp-imp",
                     "--alphas", "1/2", "1/3", "1/4", "2/5", "--nmax", "6"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [ln.split() for ln in out.strip().splitlines()[1:]]
        assert [ln[3] for ln in lines] == ["0", "2", "3", "4"]

    def test_pecpmc_bounds(self, capsys):
        code = main(["table", "--case", "pec-pmc", "--alphas", "1/2", "1/4"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [ln.split() for ln in out.strip().splitlines()[1:]]
        assert [ln[3] for ln in lines] == ["0", "1"]

    def test_empty_list(self, capsys):
        code = main(["table", "--case", "imp-imp", "--alphas"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_json_mode(self, capsys):
        code = main(["table", "--case", "imp-imp", "--alphas", "1/3",
                     "--nmax", "4", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 1 and data[0]["theorem_bound"] == 2


class TestDecimalAngles:
    """A decimal --alpha is classified like the reduced fraction it spells."""

    def _report(self, capsys, argv):
        assert main(argv + ["--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_quarter_is_one_fourth(self, capsys):
        report = self._report(capsys, ["analyze", "--alpha", "0.25", "--case",
                                       "imp-imp", "--eta1", "1", "--eta2", "1"])
        assert report["alpha"]["rational"] == [1, 4]
        assert report["theorem_bound"] == 3

    def test_reflected_decimal_bounds_agree(self, capsys):
        # 0.37 = 37/100 reflects to 37/50, which first hits the grid at n = 50
        report = self._report(capsys, ["analyze", "--alpha", "0.37", "--case",
                                       "imp-pec", "--eta2", "0.7+0.2i",
                                       "--nmax", "52"])
        assert report["order_lower_bound"] == report["theorem_bound"] == 49

    def test_half_has_zero_guaranteed_bound(self, capsys):
        code = main(["analyze", "--alpha", "0.5", "--case", "imp-imp",
                     "--eta1", "1", "--eta2", "1", "--nmax", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "guaranteed bound (angle grid):         0\n" in out

    def test_irrational_decimal_stays_irrational(self, capsys):
        report = self._report(capsys, ["table", "--case", "imp-imp",
                                       "--alphas", "0.6180339887"])
        assert report[0]["alpha"]["rational"] is None
        assert report[0]["theorem_bound"] == "infinite"


class TestParser:
    def test_built_once_and_not_at_import(self):
        code = ("import edgewave.cli as cli; "
                "print(cli.build_parser.cache_info().misses); "
                "cli.main(['verify', '--suite', 'nonsuch']); "
                "cli.main(['verify', '--suite', 'nonsuch']); "
                "print(cli.build_parser.cache_info().misses)")
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1"]


class TestEtaSpelling:
    SEPARATE = ["--eta1", "-1.2+0.3i", "--eta2", "-0.4-1i"]
    ATTACHED = ["--eta1=-1.2+0.3i", "--eta2=-0.4-1i"]

    @pytest.mark.parametrize("command", [
        ["analyze", "--alpha", "1/3", "--case", "imp-imp", "--nmax", "3"],
        ["table", "--case", "imp-imp", "--alphas", "1/3", "0.37", "--nmax", "3"],
    ])
    def test_negative_values_both_spellings(self, capsys, command):
        outs = []
        for etas in (self.SEPARATE, self.ATTACHED):
            assert main(command + etas + ["--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        report = json.loads(outs[0])
        report = report[0] if isinstance(report, list) else report
        config = make_config("1/3", eta1=-1.2 + 0.3j, eta2=-0.4 - 1j)
        assert complex(*report["per_order"][0]["det_A"]) == closed_det_A(1, config)

    def test_missing_value_is_usage_error(self):
        assert main(["analyze", "--alpha", "1/3", "--case", "imp-imp",
                     "--eta1", "--eta2", "1"]) == 1


class TestExitCodes:
    def test_rank_ambiguity_exits_two(self, capsys):
        # a tolerance placed inside the spectrum triggers the ambiguity guard
        code = main(["analyze", "--alpha", "1/3", "--case", "imp-imp",
                     "--eta1", "1", "--eta2", "1", "--nmax", "2",
                     "--tol", "0.1"])
        assert code == 2
        assert "rank ambiguity" in capsys.readouterr().err

    def test_rank_ambiguity_names_the_order(self, capsys):
        code = main(["analyze", "--alpha", "1/3", "--case", "imp-imp",
                     "--eta1", "1", "--eta2", "1", "--nmax", "1",
                     "--tol", "0.3"])
        assert code == 2
        assert "rank ambiguity at order 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command,message", [
        (["analyze", "--alpha", "0.37", "--case", "imp-pec"],
         "bound invariant violated: assembled bound 49"),
        (["table", "--case", "imp-pec", "--alphas", "1/3", "0.37"],
         "bound invariant violated for alpha=0.37: assembled bound 49"),
    ])
    def test_bound_invariant_exits_four(self, capsys, monkeypatch, command,
                                        message):
        # without its fraction, 0.37 claims no grid hit up to n = 52
        monkeypatch.setattr(cli, "parse_angle", lambda text: angles.Angle(0.37)
                            if text == "0.37" else angles.parse_angle(text))
        code = main(command + ["--eta2", "0.7+0.2i", "--nmax", "52"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith(message)

    @pytest.mark.parametrize("command", [
        ["analyze", "--alpha", "0.6180339887", "--case", "imp-imp",
         "--eta1", "1", "--eta2", "1"],
        ["table", "--case", "imp-imp", "--alphas", "0.6180339887"],
    ])
    def test_nmax_range(self, capsys, command):
        assert main(command + ["--nmax", "85", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        report = report[0] if isinstance(report, list) else report
        assert report["order_lower_bound"] == "gte_nmax"
        assert main(command + ["--nmax", "86"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_max must be in 1..85, got 86\n"


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code = main(["verify", "--suite", "specfun"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 6

    def test_seed_reproducible_json(self, capsys, monkeypatch):
        monkeypatch.setenv("EDGEWAVE_SEED", "123")
        main(["verify", "--suite", "specfun", "--json"])
        first = capsys.readouterr().out
        main(["verify", "--suite", "specfun", "--json"])
        second = capsys.readouterr().out
        assert first == second
