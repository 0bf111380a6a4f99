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
from edgewave import angles, cli, verify
from edgewave.cli import main, parse_complex
from edgewave.vanish import closed_dets


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
        # the grammar's digits are ASCII: complex() would read the fullwidth
        # and Arabic-Indic ones as 1 and 2
        for text in ("1+2j+3", "\uff11", "\u0661", "1+\u0662i"):
            with pytest.raises(ValueError):
                parse_complex(text)

    @given(st.text(alphabet="0123456789.eE+-ij \uff11\u0661", max_size=12))
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
        r"|(?P<only_im>[+-]?(?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)i", text, re.ASCII)
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
        # 1e-13 off the flat angle is refused before any rank, not a bound
        # invariant violation (exit 4) at order 1
        code = main(["analyze", "--alpha", "1.0000000000001", "--case", "imp-imp",
                     "--eta1", "1", "--eta2", "1"])
        assert code == 1
        assert "outside (0,2)" in capsys.readouterr().err

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
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and "--alphas: expected at least one argument" in err

    def test_no_alphas_is_usage_error(self, capsys):
        code = main(["table", "--case", "imp-imp"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and "required: --alphas" in err

    def test_json_mode(self, capsys):
        code = main(["table", "--case", "imp-imp", "--alphas", "1/3",
                     "--nmax", "4", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 1 and data[0]["theorem_bound"] == 2

    AMBIGUOUS = "0.3333333333"   # 1e-10 off 1/3, untagged: order 6 is ambiguous

    @pytest.mark.parametrize("json_mode", [False, True])
    def test_ambiguous_row_keeps_the_table(self, capsys, json_mode):
        # the bad row is marked in place, the good rows are as alone, and
        # the ambiguity message still goes to stderr
        angles_ = ["1/3", self.AMBIGUOUS, "1/4"]
        flags = ["--json"] if json_mode else []
        expect = []
        for alpha in ("1/3", "1/4"):
            assert main(["table", "--case", "imp-imp", "--alphas", alpha,
                         "--nmax", "12"] + flags) == 0
            expect.append(capsys.readouterr().out)
        code = main(["table", "--case", "imp-imp", "--alphas", *angles_,
                     "--nmax", "12"] + flags)
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith(f"rank ambiguity at order 6 for alpha={self.AMBIGUOUS}: ")
        message = err.rstrip("\n")
        if json_mode:
            rows = json.loads(out)
            assert rows[1] == {"alpha_input": self.AMBIGUOUS, "error": message,
                               "exit_code": 2}
            assert [json.dumps(r) for r in rows[::2]] == [
                json.dumps(json.loads(e)[0]) for e in expect]
        else:
            head, first, bad, last = out.splitlines()
            assert [head, first, last] == [expect[0].splitlines()[0],
                                           expect[0].splitlines()[1],
                                           expect[1].splitlines()[1]]
            assert bad.split() == [self.AMBIGUOUS, "irrational", ">=", "12",
                                   "ambiguous"]

    def test_worst_row_sets_the_exit_code(self, capsys, monkeypatch):
        # one ambiguous and one violating row, in either order: exit 4
        monkeypatch.setattr(cli, "parse_angle", lambda text: angles.Angle(0.37)
                            if text == "0.37" else angles.parse_angle(text))
        for alphas in ([self.AMBIGUOUS, "0.37"], ["0.37", self.AMBIGUOUS]):
            code = main(["table", "--case", "imp-pec", "--alphas", *alphas,
                         "--eta2", "0.7+0.2i", "--nmax", "52", "--json"])
            out, err = capsys.readouterr()
            assert code == 4
            assert sorted(r["exit_code"] for r in json.loads(out)) == [2, 4]
            assert len(err.splitlines()) == 2

    def test_json_rows_are_json_dumps_of_the_list(self, capsys, monkeypatch):
        # each report row is written by VanishReport.to_json, each error row
        # by json.dumps; the whole is what json.dumps writes of the list
        monkeypatch.setattr(cli, "parse_angle", lambda text: angles.Angle(0.37)
                            if text == "0.37" else angles.parse_angle(text))
        code = main(["table", "--case", "imp-pec", "--alphas", "1/5", self.AMBIGUOUS,
                     "0.37", "0.6180339887", "--eta2", "0.7+0.2i", "--nmax", "52",
                     "--json"])
        out = capsys.readouterr().out
        rows = json.loads(out)
        assert code == 4
        assert [r.get("exit_code") for r in rows] == [None, 2, 4, None]
        assert out == json.dumps(rows) + "\n"


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

    @pytest.mark.parametrize("case,alpha", [
        ("imp-pec", "0.200000000001"), ("imp-pmc", "0.200000000001"),
        ("imp-pec", "0.2000000000009"), ("imp-pmc", "0.7999999999991"),
        ("imp-pec", "0.0500000000006"), ("imp-pec", "1.2000000000009"),
        ("imp-pec", "0.4999999999993")])
    def test_reflected_decimal_near_its_fraction(self, capsys, case, alpha):
        # the decimal misses its fraction by 5e-13..1e-12, the doubled angle
        # by twice that, past the tag tolerance: still a report
        report = self._report(capsys, ["analyze", "--alpha", alpha, "--case",
                                       case, "--eta2", "1"])
        assert report["alpha"]["rational"] == list(
            angles.parse_angle(alpha).rational)

    def test_irrational_decimal_stays_irrational(self, capsys):
        report = self._report(capsys, ["table", "--case", "imp-imp",
                                       "--alphas", "0.6180339887"])
        assert report[0]["alpha"]["rational"] is None
        assert report[0]["theorem_bound"] == "infinite"


class TestNearFraction:
    """analyze --nmax 12 at the decimal repr(f + delta) a distance delta off
    a fraction f.  parse_angle tags it within 1e-12; from 1e-11 to 1e-9 or
    1e-8 a singular value falls inside the ambiguity band (exit 2, at the
    order named), and beyond that the decimal is decided as irrational.  The
    rank certificate proves no ambiguous order, so the SVD decides these.
    TABLE samples whole decades; golden/near_fraction.json holds each
    pairing's rows [sign, k, exit code, order or bound] at
    delta = sign 10^(k/10), k = -120..-70.  No row pins the stderr: its
    singular values end in digits that depend on the BLAS.  The exit-4
    rows, a nullspace read at an untagged angle, are the open defect of
    ROADMAP.md item 1: a fix changes them on purpose."""

    FRACTIONS = {"imp-imp": (1 / 3, ["--eta1", "1", "--eta2", "1"]),
                 "pec-pmc": (1 / 4, []), "imp-pec": (1 / 5, ["--eta2", "1"]),
                 "imp-pmc": (1 / 5, ["--eta2", "1"])}
    GRID = json.loads((pathlib.Path(__file__).with_name("golden")
                       / "near_fraction.json").read_text())
    # (case, delta, exit code, then the order lower bound for exit 0, the
    # ambiguous order for exit 2, the assembled bound for exit 4)
    TABLE = [
        ("imp-imp", 1e-12, 0, 2), ("imp-imp", -1e-12, 0, 2),
        ("imp-imp", 1e-11, 2, 12), ("imp-imp", -1e-11, 2, 12),
        ("imp-imp", 1e-10, 2, 3), ("imp-imp", -1e-10, 2, 3),
        ("imp-imp", 1e-9, 2, 3), ("imp-imp", -1e-9, 2, 3),
        ("imp-imp", 1e-8, 2, 7), ("imp-imp", -1e-8, 2, 7),
        ("imp-imp", 1e-7, 0, "gte_nmax"), ("imp-imp", -1e-7, 0, "gte_nmax"),
        ("imp-imp", 1e-6, 0, "gte_nmax"), ("imp-imp", -1e-6, 0, "gte_nmax"),
        ("pec-pmc", 1e-12, 0, 1), ("pec-pmc", -1e-12, 4, 1),
        ("pec-pmc", 1e-11, 2, 10), ("pec-pmc", -1e-11, 2, 10),
        ("pec-pmc", 1e-10, 2, 2), ("pec-pmc", -1e-10, 2, 2),
        ("pec-pmc", 1e-9, 2, 2), ("pec-pmc", -1e-9, 2, 2),
        ("pec-pmc", 1e-8, 0, "gte_nmax"), ("pec-pmc", -1e-8, 0, "gte_nmax"),
        ("pec-pmc", 1e-7, 0, "gte_nmax"), ("pec-pmc", -1e-7, 0, "gte_nmax"),
        ("pec-pmc", 1e-6, 0, "gte_nmax"), ("pec-pmc", -1e-6, 0, "gte_nmax"),
        ("imp-pec", 1e-12, 4, 4), ("imp-pec", -1e-12, 4, 4),
        ("imp-pec", 1e-11, 2, 10), ("imp-pec", -1e-11, 2, 10),
        ("imp-pec", 1e-10, 2, 5), ("imp-pec", -1e-10, 2, 5),
        ("imp-pec", 1e-9, 2, 5), ("imp-pec", -1e-9, 2, 5),
        ("imp-pec", 1e-8, 0, "gte_nmax"), ("imp-pec", -1e-8, 0, "gte_nmax"),
        ("imp-pec", 1e-7, 0, "gte_nmax"), ("imp-pec", -1e-7, 0, "gte_nmax"),
        ("imp-pec", 1e-6, 0, "gte_nmax"), ("imp-pec", -1e-6, 0, "gte_nmax"),
    ]

    def answer(self, capsys, case, delta):
        """The exit code and, as in TABLE, the bound or order it names."""
        fraction, etas = self.FRACTIONS[case]
        code = main(["analyze", "--alpha", repr(fraction + delta), "--case", case,
                     "--nmax", "12", "--json", *etas])
        out, err = capsys.readouterr()
        if code == 0:
            return code, json.loads(out)["order_lower_bound"]
        pattern = "rank ambiguity at order" if code == 2 else "assembled bound"
        assert out == "", out
        return code, int(re.search(rf"{pattern} (\d+)\b", err).group(1))

    @pytest.mark.parametrize("case,delta,code,detail", TABLE)
    def test_answer(self, capsys, case, delta, code, detail):
        assert self.answer(capsys, case, delta) == (code, detail)

    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc", "imp-pec", "imp-pmc"])
    def test_tenth_decades(self, capsys, case):
        rows = self.GRID[case]
        assert [row[:2] for row in rows] == [[sign, k] for k in range(-120, -69)
                                             for sign in (1, -1)]
        wrong = []
        for sign, k, code, detail in rows:
            got = self.answer(capsys, case, sign * 10 ** (k / 10))
            if got != (code, detail):
                wrong.append((sign, k, got))
        assert not wrong, wrong


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
        assert complex(*report["per_order"][0]["det_A"]) == closed_dets(1, config)[0]

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
        # table keeps the other rows and marks the bad one in place
        assert captured.out == ("" if command[0] == "analyze" else
                                f"{'alpha':>12} {'rationality':>12} "
                                f"{'grid bound':>12} {'assembled':>12}\n"
                                f"{'1/3':>12} {'1/3':>12} {'2':>12} {'2':>12}\n"
                                f"{'0.37':>12} {'irrational':>12} {'>= 52':>12} "
                                f"{'violated':>12}\n")
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


    @pytest.mark.parametrize("flag,text,kind", [
        ("--k", "1_0", "float"), ("--k", "\u0661", "float"), ("--k", "\uff11", "float"),
        ("--tol", "1e-9_0", "float"), ("--tol", "\u0661e-9", "float"),
        ("--nmax", "1_2", "int"), ("--nmax", "\u0661\u0662", "int"),
        ("--nmax", "\uff11\uff12", "int"), ("--seed", "\u0667", "int"),
        ("--seed", "1_0", "int"), ("--seed", "\uff17", "int")])
    def test_numeric_flags_read_ascii_without_underscores(self, capsys, monkeypatch,
                                                          flag, text, kind):
        # float() and int() alone also read other scripts' digits and '_',
        # which --alpha and --eta refuse: each of these was a number
        monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: pytest.fail("ran"))
        commands = [["verify", "--suite", "vanish"]] if flag == "--seed" else [
            ["analyze", "--alpha", "1/3", "--case", "imp-imp", "--eta1", "1", "--eta2", "1"],
            ["table", "--case", "imp-imp", "--alphas", "1/3"]]
        for command in commands:
            assert main(command + [flag, text]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(
                f"error: argument {flag}: invalid {kind} value: {text!r}\n")

    @pytest.mark.parametrize("flags, message", [
        (["--k", "nan"], "wavenumber must be finite and positive, got nan"),
        (["--k", "inf"], "wavenumber must be finite and positive, got inf"),
        (["--k", "0"], "wavenumber must be finite and positive, got 0.0"),
        (["--eta1=1e400"],
         "series impedance requires a finite nonzero constant term, got (inf+0j)"),
        (["--tol", "0"], "tol must be in (0, 1), got 0.0"),
        (["--tol", "-1"], "tol must be in (0, 1), got -1.0"),
        (["--tol", "nan"], "tol must be in (0, 1), got nan"),
        (["--eta1=1", "--eta2=1", "--k", "1e160"],
         "k = 1e+160 with eta = (1+0j), (1+0j) overflows the boundary system"),
        (["--eta1=1e300", "--eta2=1e300", "--k", "1e10"],
         "k = 10000000000.0 with eta = (1e+300+0j), (1e+300+0j) overflows the "
         "boundary system"),
        (["--eta1=1e110", "--eta2=1e110", "--k", "1e110"],
         "k = 1e+110 with eta = (1e+110+0j), (1e+110+0j) overflows the "
         "boundary system"),
        (["--eta1=1e-9"],
         "|eta1/eta2| = 1e-09 is outside [1e-08, 1e+08], where the rank is "
         "decided"),
        (["--eta1=2e8"],
         "|eta1/eta2| = 2e+08 is outside [1e-08, 1e+08], where the rank is "
         "decided"),
        (["--eta1=1e300", "--eta2=1e-10"],
         "|eta1/eta2| = inf is outside [1e-08, 1e+08], where the rank is "
         "decided"),
    ])
    @pytest.mark.parametrize("command", [
        ["analyze", "--alpha", "1/3", "--case", "imp-imp", "--eta2", "1"],
        ["table", "--case", "imp-imp", "--alphas", "1/3", "--eta2", "1"],
    ])
    def test_non_finite_or_out_of_range_values_exit_one(self, capsys, command,
                                                        flags, message):
        # earlier, NaN reached the SVD, tol <= 0 printed a bound of >= 6, a
        # huge k or eta overflowed into a traceback or NaN determinants, and
        # an |eta1/eta2| past about 1e10 gave wrong dims
        eta1 = [] if any(f.startswith("--eta1") for f in flags) else ["--eta1", "1"]
        assert main(command + eta1 + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code = main(["verify", "--suite", "vanish"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 4

    def test_failing_check_exits_3(self, capsys, monkeypatch):
        # a check that raises is reported and named, the checks after it
        # still run, and the command exits 3
        def broken():
            raise RuntimeError("boom")
        monkeypatch.setitem(verify.SUITES, "vanish",
                            [("broken", broken)] + verify.SUITES["vanish"])
        assert main(["verify", "--suite", "vanish"]) == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "[FAIL] vanish:broken  RuntimeError: boom"
        assert len(lines) == 5
        assert all(line.startswith("[PASS] vanish:") for line in lines[1:])
        assert captured.err == "1 failing check(s): broken\n"

    def test_module_suite_is_an_invalid_choice(self, capsys):
        # module self-checks run under pytest only
        assert main(["verify", "--suite", "specfun"]) == 1
        assert "invalid choice: 'specfun'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,env,message", [
        (["--seed", "-5"], None, "--seed must be a non-negative integer, got -5"),
        ([], "-1", "EDGEWAVE_SEED must be a non-negative integer, got -1"),
        ([], "abc", "EDGEWAVE_SEED must be a non-negative integer, got 'abc'"),
        ([], "\u0667", "EDGEWAVE_SEED must be a non-negative integer, got '\u0667'"),
        ([], "1_0", "EDGEWAVE_SEED must be a non-negative integer, got '1_0'"),
        ([], "", "EDGEWAVE_SEED must be a non-negative integer, got ''")],
        ids=["flag", "variable", "variable-text", "variable-digit",
             "variable-underscore", "variable-empty"])
    def test_negative_seed_is_usage_error(self, capsys, monkeypatch, flags, env,
                                          message):
        # refused before any check runs: the seeded checks would each fail
        # on it and report a healthy product as broken (exit 3); int() alone
        # read '1_0' and Arabic-Indic 7, and named no variable for 'abc'
        if env is not None:
            monkeypatch.setenv("EDGEWAVE_SEED", env)
        monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: pytest.fail("ran"))
        assert main(["verify", "--suite", "all", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_seed_reproducible_json(self, capsys, monkeypatch):
        monkeypatch.setenv("EDGEWAVE_SEED", "123")
        main(["verify", "--suite", "vanish", "--json"])
        first = capsys.readouterr().out
        main(["verify", "--suite", "vanish", "--json"])
        second = capsys.readouterr().out
        assert first == second
