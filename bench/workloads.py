"""Seeded workloads: input generators, timed calls and output checks.

A round is a fixed list of strata (case, angle kind, order, ...) whose
random parts (angle, impedance, wavenumber, coefficients) are drawn from
``(seed, stream, round)``, so every round has the same mix whatever the
seed.  A measured run replays the queries of a fixed number of rounds, so
one seed always gives the same queries and the same failures.

A query is checked against a reference computed independently of the code
under test:

* ``sweep``: the paper's exclusion-grid rule, in closed form, applied to
  the exact fraction the generator drew;
* ``crosscheck``: the collocation oracle against the structured rank;
* ``decay``: the known vanishing order l0 - 1 of the generated field.

``known_defect`` names the documented defect regime a query's inputs fall
in, if any.  Failures outside these regimes make the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

CASES = ("imp-imp", "pec-pmc", "imp-pec", "imp-pmc")
MEASURE, WARMUP = 0, 1   # rng streams: measured rounds and warm-up rounds

# fractions with a short exact decimal spelling ("0.5", "0.25", ...)
DECIMAL_FRACTIONS = tuple(Fraction(q, p) for q, p in (
    (1, 2), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5), (1, 8), (3, 8),
    (5, 8), (7, 8), (1, 10), (3, 10), (7, 10), (9, 10), (5, 4), (3, 2),
    (7, 4), (6, 5), (7, 5), (9, 5), (13, 10)))
SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13)
# n_max per stratum, most at the CLI default of 6
SWEEP_NMAX = {"fraction": (6, 6, 6, 6, 6, 12, 24), "decimal": (6, 12),
              "irrational": (6, 6, 6, 6, 6, 12, 24)}
CROSS_ORDERS = tuple(range(1, 11))
DECAY_DEGREES = (1, 2, 3, 4, 5)


def _rng(seed, stream, index):
    return np.random.default_rng([seed, stream, index])


def _upper(case):
    # the PMC-impedance pairing is defined for alpha in (0, 1) only
    return 1 if case == "imp-pmc" else 2


def _fraction(rng, case, max_den):
    upper = _upper(case)
    while True:
        p = int(rng.integers(2, max_den + 1))
        q = int(rng.integers(1, upper * p))
        if q != p:
            return q, p


def _irrational(rng, case):
    """A quadratic irrational b sqrt(d) / c reduced into (0, upper)."""
    upper = _upper(case)
    while True:
        d = int(rng.choice(SQUAREFREE))
        b, c = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        x = math.fmod(b * math.sqrt(d) / c, upper)
        if 0.05 < x < upper - 0.05 and abs(x - 1.0) > 0.05:
            return x


def _eta(rng):
    re, im = rng.uniform(0.3, 2.0, 2) * rng.choice((-1.0, 1.0), 2)
    return complex(round(float(re), 4), round(float(im), 4))


def _k(rng):
    return round(float(rng.uniform(0.5, 2.0)), 4)


def _complex_text(z):
    return f"{z.real:.4f}{z.imag:+.4f}i"


def _shuffled(rng, items):
    return [items[i] for i in rng.permutation(len(items))]


# ---------------------------------------------------------------------------
# sweep: one `edgewave analyze ... --json` per query
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepQuery:
    argv: tuple
    case: str
    kind: str                    # "fraction", "decimal" or "irrational"
    exact: Optional[Fraction]    # the fraction drawn; None when irrational
    nmax: int


def sweep_round(seed, index, stream=MEASURE):
    rng = _rng(seed, stream, index)
    queries = []
    for case in CASES:
        for kind, orders in SWEEP_NMAX.items():
            for nmax in orders:
                if kind == "fraction":
                    q, p = _fraction(rng, case, 30)
                    text, exact = f"{q}/{p}", Fraction(q, p)
                elif kind == "decimal":
                    choices = [f for f in DECIMAL_FRACTIONS if f < _upper(case)]
                    exact = choices[int(rng.integers(len(choices)))]
                    text = repr(float(exact))
                else:
                    text, exact = repr(_irrational(rng, case)), None
                argv = ["analyze", "--alpha", text, "--case", case, "--json",
                        "--k", repr(_k(rng))]
                if nmax != 6:
                    argv += ["--nmax", str(nmax)]
                # "--eta1=-1.2+0.3i": a separate "-1.2+0.3i" reads as a flag
                if case == "imp-imp":
                    argv.append("--eta1=" + _complex_text(_eta(rng)))
                if case != "pec-pmc":
                    argv.append("--eta2=" + _complex_text(_eta(rng)))
                queries.append(SweepQuery(tuple(argv), case, kind, exact, nmax))
    return _shuffled(rng, queries)


def sweep_prepare(query):
    from edgewave import cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(query.argv))
        return code, out.getvalue(), err.getvalue()
    return call


def grid_bound(exact, case):
    """The paper's exclusion-grid bound T for the reduced fraction `exact`.

    imp-imp excludes alpha = q/p, so the first hit is p = den and T = den - 1;
    the other pairings exclude alpha = q/(2p), first hit p = den / gcd(den, 2).
    The first-order exceptions (1/2, 3/2 for imp-imp; 1/4, 3/4, 5/4, 7/4 for
    the mixed pairings) give T = 0.
    """
    den = exact.denominator
    if case == "imp-imp":
        return 0 if exact in (Fraction(1, 2), Fraction(3, 2)) else den - 1
    if case != "pec-pmc" and exact.denominator == 4:
        return 0
    return den // math.gcd(den, 2) - 1


def check_report(query, report):
    """(ok, reason) for one analyze JSON report against the grid rule."""
    nmax, exact = query.nmax, query.exact
    if report.get("case") != query.case:
        return False, "wrong case"
    per = report.get("per_order", [])
    if [e["n"] for e in per] != list(range(1, nmax + 1)):
        return False, "orders are not 1..nmax"
    dims = [e["nullspace_dim"] for e in per]
    assembled = next((n - 1 for n, d in zip(range(1, nmax + 1), dims) if d > 0),
                     nmax)
    lower, theorem = report.get("order_lower_bound"), report.get("theorem_bound")
    if lower == "gte_nmax":
        if assembled != nmax:
            return False, "gte_nmax next to a nontrivial nullspace"
    elif lower != assembled or not isinstance(lower, int):
        return False, f"order_lower_bound {lower!r} != assembled {assembled}"
    if theorem == "infinite" and lower != "gte_nmax":
        return False, f"theorem bound infinite but assembled bound {lower}"
    if exact is None:
        if theorem != "infinite":
            return False, f"irrational angle with grid bound {theorem!r}"
        return True, "ok"
    rational = report.get("alpha", {}).get("rational")
    if rational != [exact.numerator, exact.denominator]:
        return False, f"angle labelled {rational!r}, drawn {exact}"
    expected = min(grid_bound(exact, query.case), nmax)
    if theorem != expected:
        return False, f"theorem bound {theorem!r} != grid rule {expected}"
    if assembled < expected:
        return False, f"assembled bound {assembled} < grid bound {expected}"
    return True, "ok"


def sweep_check(query, output):
    code, out, err = output
    if code != 0:
        return False, f"exit {code}: {err.strip()[:120]}"
    try:
        report = json.loads(out)
    except ValueError:
        return False, "stdout is not JSON"
    return check_report(query, report)


def sweep_defect(query):
    if query.kind == "decimal":
        return "decimal-label"
    if query.case == "pec-pmc" and query.nmax >= 7:
        return "pec-pmc-rank-ambiguity"
    if query.case != "pec-pmc" and query.nmax > 12 and (
            query.exact is None or grid_bound(query.exact, query.case) > 12):
        return "rank-above-12"
    return None


# ---------------------------------------------------------------------------
# crosscheck: structured rank against collocation, one (config, n) per query
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossQuery:
    case: str
    alpha: str
    n: int
    eta1: complex
    eta2: complex
    k: float
    colloc_seed: int


def crosscheck_round(seed, index, stream=MEASURE):
    rng = _rng(seed, stream, index)
    queries = []
    for ci, case in enumerate(CASES):
        for n in CROSS_ORDERS:
            if (ci + n) % 2 == 0:
                q, p = _fraction(rng, case, 12)
                alpha = f"{q}/{p}"
            else:
                alpha = repr(_irrational(rng, case))
            queries.append(CrossQuery(case, alpha, n, _eta(rng), _eta(rng),
                                      _k(rng), int(rng.integers(2 ** 31))))
    return _shuffled(rng, queries)


def make_config(case, alpha, eta1, eta2, k):
    from edgewave import EdgeCornerConfig, ImpedanceSpec, parse_angle
    specs = {
        "imp-imp": (ImpedanceSpec.series(eta1), ImpedanceSpec.series(eta2)),
        "pec-pmc": (ImpedanceSpec.infinite(), ImpedanceSpec.zero()),
        "imp-pec": (ImpedanceSpec.infinite(), ImpedanceSpec.series(eta2)),
        "imp-pmc": (ImpedanceSpec.zero(), ImpedanceSpec.series(eta2)),
    }
    return EdgeCornerConfig(parse_angle(alpha), *specs[case], k)


def crosscheck_prepare(query):
    from edgewave import oracle, vanish
    config = make_config(query.case, query.alpha, query.eta1, query.eta2, query.k)

    def call():
        structured = vanish.nullspace_dim(
            vanish.assemble_order_system(query.n, config))
        return structured, oracle.collocation_nullspace(
            query.n, config, seed=query.colloc_seed)
    return call


def crosscheck_check(query, output):
    structured, collocated = output
    if structured != collocated:
        return False, f"structured {structured} != collocation {collocated}"
    return True, "ok"


def crosscheck_defect(query):
    if query.case == "pec-pmc" and query.n >= 7:
        return "pec-pmc-rank-ambiguity"
    if query.case in ("imp-pec", "imp-pmc") and "/" in query.alpha and (
            Fraction(query.alpha) in (Fraction(1, 2), Fraction(3, 2))):
        return "mixed-reflected-to-1"
    return None


# ---------------------------------------------------------------------------
# decay: vanishing order of an explicit field from ball integrals of |E|
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayQuery:
    l0: int
    k: float
    a: tuple    # ((l, m, coefficient), ...) for l0 <= l <= l0 + 2
    b: tuple


def decay_round(seed, index, stream=MEASURE):
    rng = _rng(seed, stream, index)
    queries = []
    for l0 in DECAY_DEGREES:
        k = _k(rng)
        modes = [(l, m) for l in range(l0, l0 + 3) for m in range(-l, l + 1)]
        a, b = (tuple((l, m, complex(*rng.standard_normal(2))) for l, m in modes)
                for _ in range(2))
        queries.append(DecayQuery(l0, k, a, b))
    return _shuffled(rng, queries)


def decay_prepare(query):
    from edgewave import ModeCoefficients, oracle
    coeffs = ModeCoefficients(query.l0 + 2, query.k,
                              a={(l, m): z for l, m, z in query.a},
                              b={(l, m): z for l, m, z in query.b})
    return lambda: oracle.vani_estimate(coeffs)


def decay_check(query, output):
    if output.estimated_order != query.l0 - 1:
        return False, (f"estimated order {output.estimated_order} != "
                       f"{query.l0 - 1} (slope {output.slope:.3f})")
    return True, "ok"


class Workload(NamedTuple):
    round: Callable       # (seed, index, stream) -> list of queries
    prepare: Callable     # query -> zero-argument call, the timed part
    check: Callable       # (query, output) -> (ok, reason)
    known_defect: Callable = lambda query: None
    rounds: int = 1          # rounds in the query list a measured run replays
    traced_rounds: int = 1   # rounds replayed by the traced run

    def queries(self, seed, rounds, stream=MEASURE):
        """The queries of rounds 0..rounds-1, round after round."""
        return [q for index in range(rounds)
                for q in self.round(seed, index, stream)]


# `rounds` keeps one pass over the list near half of a 25 s run
WORKLOADS = {
    "sweep": Workload(sweep_round, sweep_prepare, sweep_check, sweep_defect,
                      rounds=16, traced_rounds=2),
    "crosscheck": Workload(crosscheck_round, crosscheck_prepare,
                           crosscheck_check, crosscheck_defect,
                           rounds=4, traced_rounds=1),
    "decay": Workload(decay_round, decay_prepare, decay_check,
                      rounds=8, traced_rounds=2),
}
