"""Command line front end.

Subcommands:

    analyze  --alpha A --case C [--eta1 Z] [--eta2 Z] [--k K] [--nmax N]
             [--tol T] [--json]
    verify   --suite {specfun|swe|corner|vanish|oracle|all} [--seed S]
    table    --case C [--alphas A1 A2 ...] [--nmax N] [--json] ...

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
                     RankAmbiguityError, config_for_case, vanishing_order)
from .verify import run_suite

def parse_complex(text):
    """Parse 'a+bi' / 'a-bi' with optional parts ('2', '1.5-0.5i', 'i', '-i')."""
    text = text.strip().replace(" ", "")
    # complex() alone would also take 'j', 'nan', 'inf', '_' and parentheses
    if re.fullmatch(r"[\d.eE+-]*i?", text):
        try:
            return complex(text[:-1] + "j" if text.endswith("i") else text)
        except ValueError:
            pass
    raise ValueError(f"cannot parse complex literal {text!r}")


def _seed(args):
    return int(os.environ.get("EDGEWAVE_SEED", 42)) if args.seed is None \
        else args.seed


def _build_config(args, alpha_text):
    """Config of the parsed arguments."""
    alpha = parse_angle(alpha_text)
    eta1, eta2 = (parse_complex(e) if e else None for e in (args.eta1, args.eta2))
    return config_for_case(CaseKind.parse(args.case), alpha, eta1, eta2, args.k)


def cmd_analyze(args):
    config = _build_config(args, args.alpha)
    try:
        report = vanishing_order(config, args.nmax, tol=args.tol)
    except RankAmbiguityError as exc:
        print(f"rank ambiguity at order {exc.order}: {exc}", file=sys.stderr)
        return 2
    except BoundInvariantError as exc:
        print(f"bound invariant violated: {exc}", file=sys.stderr)
        return 4
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(report.render())
    return 0


def cmd_table(args):
    rows = []
    for text in args.alphas:
        config = _build_config(args, text)
        try:
            report = vanishing_order(config, args.nmax, tol=args.tol)
        except RankAmbiguityError as exc:
            print(f"rank ambiguity at order {exc.order} for alpha={text}: {exc}",
                  file=sys.stderr)
            return 2
        except BoundInvariantError as exc:
            print(f"bound invariant violated for alpha={text}: {exc}",
                  file=sys.stderr)
            return 4
        rows.append((text, report))
    if args.json:
        print(json.dumps([r.to_json_dict() for _, r in rows]))
        return 0
    print(f"{'alpha':>12} {'rationality':>12} {'grid bound':>12} {'assembled':>12}")
    for text, report in rows:
        alpha = report.alpha
        rat = f"{alpha.rational[0]}/{alpha.rational[1]}" if alpha.rational \
            else "irrational"
        tb = f">= {args.nmax}" if report.theorem_bound == INFINITE \
            else str(int(report.theorem_bound))
        ob = f">= {args.nmax}" if report.at_nmax else str(report.order_lower_bound)
        print(f"{text:>12} {rat:>12} {tb:>12} {ob:>12}")
    return 0


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


@functools.lru_cache(maxsize=None)
def build_parser():
    ap = argparse.ArgumentParser(
        prog="edgewave",
        description="Vanishing-order analysis of Maxwell fields at an "
                    "impedance edge-corner")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="per-order nullspace analysis of one corner")
    pa.add_argument("--alpha", required=True,
                    help="dihedral angle in units of pi: 'q/p' or a decimal")
    pa.add_argument("--case", required=True,
                    choices=[c.value for c in CaseKind])
    pa.add_argument("--eta1", help="face-1 impedance constant, 'a+bi'")
    pa.add_argument("--eta2", help="face-2 impedance constant, 'a+bi'")
    pa.add_argument("--k", type=float, default=1.0, help="wavenumber")
    pa.add_argument("--nmax", type=int, default=6, help=f"1..{MAX_ORDER}")
    pa.add_argument("--tol", type=float, default=1e-9)
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pt = sub.add_parser("table", help="angle-vs-bound table over several angles")
    pt.add_argument("--case", required=True,
                    choices=[c.value for c in CaseKind])
    pt.add_argument("--alphas", nargs="*", default=[])
    pt.add_argument("--eta1", default="1")
    pt.add_argument("--eta2", default="1")
    pt.add_argument("--k", type=float, default=1.0)
    pt.add_argument("--nmax", type=int, default=6, help=f"1..{MAX_ORDER}")
    pt.add_argument("--tol", type=float, default=1e-9)
    pt.add_argument("--json", action="store_true")
    pt.set_defaults(func=cmd_table)

    pv = sub.add_parser("verify", help="run a module invariant suite")
    pv.add_argument("--suite", required=True,
                    choices=["specfun", "swe", "corner", "vanish", "oracle", "all"])
    pv.add_argument("--seed", type=int)
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
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = ap.parse_args(_attach_eta_values(argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (AngleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
