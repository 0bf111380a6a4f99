"""Command line front end.

Subcommands:

    analyze  --alpha A --case C [--eta1 Z] [--eta2 Z] [--k K] [--nmax N]
             [--tol T] [--json]
    verify   --suite {vanish|oracle|all} [--seed S]
    table    --case C --alphas A1 [A2 ...] [--nmax N] [--json] ...

Exit codes: 0 ok, 1 usage error, 2 numerical rank ambiguity,
3 verification failure, 4 bound invariant violated (the assembled bound fell
below min(grid bound, n_max)).  EDGEWAVE_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .angles import AngleError, parse_angle
from .vanish import (INFINITE, MAX_ORDER, BoundInvariantError, CaseKind,
                     RankAmbiguityError, config_for_case, theorem_bound,
                     vanishing_order)
from .verify import SUITES, run_suite

def parse_complex(text):
    """Parse 'a+bi' / 'a-bi' with optional parts ('2', '1.5-0.5i', 'i', '-i')."""
    text = text.strip().replace(" ", "")
    # complex() alone would also take 'j', 'nan', 'inf', '_', parentheses and
    # other scripts' digits
    if re.fullmatch(r"[0-9.eE+-]*i?", text):
        try:
            return complex(text[:-1] + "j" if text.endswith("i") else text)
        except ValueError:
            pass
    raise ValueError(f"cannot parse complex literal {text!r}")


def _number(kind):
    """kind (int or float) of ASCII text without '_'; bears kind's name for argparse."""
    def read(text):
        if not text.isascii() or "_" in text:
            raise ValueError(f"invalid {kind.__name__} value: {text!r}")
        return kind(text)
    read.__name__ = kind.__name__
    return read


def _seed(args):
    """verify's seed: --seed, else EDGEWAVE_SEED, else 42.  A negative or
    non-integer seed raises ValueError naming where it was given."""
    name, text = ("--seed", str(args.seed)) if args.seed is not None else (
        "EDGEWAVE_SEED", os.environ.get("EDGEWAVE_SEED", "42"))
    try:
        seed = _number(int)(text)
    except ValueError:
        raise ValueError(f"{name} must be a non-negative integer, got {text!r}")
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed}")
    return seed


def _build_config(args, alpha_text):
    """Config of the parsed arguments."""
    alpha = parse_angle(alpha_text)
    eta1, eta2 = (parse_complex(e) if e else None for e in (args.eta1, args.eta2))
    return config_for_case(CaseKind(args.case), alpha, eta1, eta2, args.k)


def _report(args, config, where=""):
    """(report, None) for the parsed arguments at config, or (None, (label,
    exit code, message)) where its rank is ambiguous (2) or it breaks the
    bound invariant (4); where names the input in the message."""
    try:
        return vanishing_order(config, args.nmax, tol=args.tol), None
    except RankAmbiguityError as exc:
        return None, ("ambiguous", 2,
                      f"rank ambiguity at order {exc.order}{where}: {exc}")
    except BoundInvariantError as exc:
        return None, ("violated", 4, f"bound invariant violated{where}: {exc}")


def cmd_analyze(args):
    report, failure = _report(args, _build_config(args, args.alpha))
    if failure:
        print(failure[2], file=sys.stderr)
        return failure[1]
    print(report.to_json() if args.json else report.render())
    return 0


def cmd_table(args):
    """One row per angle.  An angle whose rank is ambiguous, or whose report
    breaks the bound invariant, keeps its row, marked in the assembled
    column (JSON: its input, message and exit code); its message goes to
    stderr, and the exit code is that of the worst row: 4, else 2."""
    case, rows = CaseKind(args.case), []
    for text in args.alphas:
        config = _build_config(args, text)
        report, failure = _report(args, config, f" for alpha={text}")
        if failure:
            print(failure[2], file=sys.stderr)
        rows.append((text, config.alpha, report, failure))
    code = max((failure[1] for *_, failure in rows if failure), default=0)
    if args.json:
        print("[" + ", ".join(
            report.to_json() if report else json.dumps(
                {"alpha_input": text, "error": failure[2], "exit_code": failure[1]})
            for text, _, report, failure in rows) + "]")
        return code
    print(f"{'alpha':>12} {'rationality':>12} {'grid bound':>12} {'assembled':>12}")
    for text, alpha, report, failure in rows:
        rat = "%d/%d" % alpha.rational if alpha.rational else "irrational"
        grid = theorem_bound(alpha, case, args.nmax)
        tb = f">= {args.nmax}" if grid == INFINITE else str(int(grid))
        ob = failure[0] if failure else f">= {args.nmax}" if report.at_nmax \
            else str(report.order_lower_bound)
        print(f"{text:>12} {rat:>12} {tb:>12} {ob:>12}")
    return code


def cmd_verify(args):
    results = run_suite(args.suite, seed=_seed(args))
    if args.json:
        print(json.dumps([
            {"suite": s, "check": c, "passed": ok, "detail": d}
            for s, c, ok, d in results]))
    else:
        for suite, check, ok, detail in results:
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] {suite}:{check}  {detail}")
    failed = [c for _, c, ok, _ in results if not ok]
    if failed:
        print(f"{len(failed)} failing check(s): {', '.join(failed)}",
              file=sys.stderr)
        return 3
    return 0


def _shared_flags():
    """A parent parser of the flags analyze and table share.  Each
    subcommand takes a fresh one: set_defaults on a subcommand writes into
    the actions it inherits."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--case", required=True,
                       choices=[c.value for c in CaseKind])
    flags.add_argument("--eta1", help="face-1 impedance constant, 'a+bi'")
    flags.add_argument("--eta2", help="face-2 impedance constant, 'a+bi'")
    flags.add_argument("--k", type=_number(float), default=1.0, help="wavenumber")
    flags.add_argument("--nmax", type=_number(int), default=6, help=f"1..{MAX_ORDER}")
    flags.add_argument("--tol", type=_number(float), default=1e-9)
    flags.add_argument("--json", action="store_true")
    return flags


@functools.lru_cache(maxsize=None)
def build_parser():
    ap = argparse.ArgumentParser(
        prog="edgewave",
        description="Vanishing-order analysis of Maxwell fields at an "
                    "impedance edge-corner")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[_shared_flags()],
                        help="per-order nullspace analysis of one corner")
    pa.add_argument("--alpha", required=True,
                    help="dihedral angle in units of pi: 'q/p' or a decimal")
    pa.set_defaults(func=cmd_analyze)

    pt = sub.add_parser("table", parents=[_shared_flags()],
                        help="angle-vs-bound table over several angles")
    pt.add_argument("--alphas", nargs="+", required=True)
    pt.set_defaults(func=cmd_table, eta1="1", eta2="1")

    pv = sub.add_parser("verify", help="run a product invariant suite")
    pv.add_argument("--suite", required=True, choices=[*SUITES, "all"])
    pv.add_argument("--seed", type=_number(int))
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify)
    return ap


def _attach_eta_values(argv):
    """Rewrite '--eta1 VALUE' as '--eta1=VALUE', so that argparse does not
    read a value such as '-1.2+0.3i' as an option."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--eta1", "--eta2") and not tok.startswith("--"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_attach_eta_values(argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (AngleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
