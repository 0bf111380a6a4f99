"""Byte-for-byte golden outputs of the command line.

Each golden file holds the exact stdout of one CLI call; exit codes and any
stderr are in ``exit_codes.json`` and ``<name>.stderr.txt``.  For ``verify``
only the status/check-name column is pinned, since the detail strings carry
measured errors.  After an intended change of output, re-record with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from edgewave.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")

_ETAS = {
    "imp-imp": ["--eta1", "1+0.5i", "--eta2", "0.7-0.2i"],
    "pec-pmc": [],
    "imp-pec": ["--eta2", "0.7-0.2i"],
    "imp-pmc": ["--eta2", "0.7-0.2i"],
}
_ANGLES = {"frac": "2/7", "dec": "0.25", "irr": "0.6180339887"}
_TABLE = ["table", "--case", "imp-imp", "--alphas", "1/3", "2/7", "0.25",
          "0.6180339887", "3/2", "--nmax", "6"]


def _calls():
    calls = {}
    for case, etas in _ETAS.items():
        for label, alpha in _ANGLES.items():
            for nmax in (6, 12):
                argv = (["analyze", "--alpha", alpha, "--case", case]
                        + etas + ["--nmax", str(nmax)])
                stem = f"analyze_{case}_{label}_n{nmax}"
                calls[f"{stem}.txt"] = argv
                calls[f"{stem}.json"] = argv + ["--json"]
            # the orders where the slowest benchmark queries run
            calls[f"analyze_{case}_{label}_n24.json"] = (
                ["analyze", "--alpha", alpha, "--case", case] + etas
                + ["--nmax", "24", "--json"])
    calls["table.txt"] = _TABLE
    calls["table.json"] = _TABLE + ["--json"]
    calls["verify_all_seed7.txt"] = ["verify", "--suite", "all", "--seed", "7"]
    return calls


CALLS = _calls()


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout = out.getvalue()
    if argv[0] == "verify":
        stdout = "".join(line.split("  ", 1)[0] + "\n"
                         for line in stdout.splitlines())
    return code, stdout, err.getvalue()


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CALLS))
def test_golden_output(name, exit_codes):
    code, stdout, stderr = run_cli(CALLS[name])
    assert code == exit_codes[name]
    assert stdout.encode() == (GOLDEN / name).read_bytes()
    err_file = GOLDEN / f"{name}.stderr.txt"
    expected_err = err_file.read_bytes() if err_file.exists() else b""
    assert stderr.encode() == expected_err


def test_golden_reports_round_trip():
    # every report the goldens hold is read back by from_json_dict, which
    # derives its bounds and each order's block determinants, and written
    # again byte for byte
    from edgewave.vanish import VanishReport
    reports = []
    for path in sorted(GOLDEN.glob("*.json")):
        data = json.loads(path.read_text())
        reports += [d for d in (data if isinstance(data, list) else [data])
                    if "per_order" in d]
    assert reports
    for data in reports:
        assert VanishReport.from_json_dict(data).to_json() == json.dumps(data)


def record():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CALLS.items()):
        code, stdout, stderr = run_cli(argv)
        codes[name] = code
        (GOLDEN / name).write_bytes(stdout.encode())
        err_file = GOLDEN / f"{name}.stderr.txt"
        if stderr:
            err_file.write_bytes(stderr.encode())
        else:
            err_file.unlink(missing_ok=True)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    record()
