"""Guards for tooling that reaches into the library by name."""

import importlib
import importlib.util
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


_TRACING = _bench_module("tracing")
_WORKLOADS = _bench_module("workloads")


@pytest.mark.parametrize("module,attr", _TRACING.SPANNED
                         + tuple(("corner", name) for name in _TRACING.EXPANSIONS))
def test_traced_function_resolves(module, attr):
    # `bench/run.py --trace 1` rebinds these by name
    assert callable(getattr(importlib.import_module(f"edgewave.{module}"), attr))


def _loaded_after(code, prefix):
    """Modules starting with prefix loaded once code ran in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"{code}\nimport sys; print(sorted(m for m in sys.modules"
         f" if m.startswith({prefix!r})))"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_does_not_load_scipy_integrate():
    assert _loaded_after("import edgewave", "scipy.integrate") == "[]"


def test_runtime_loads_no_scipy():
    # the package runs on numpy alone, collocation and ball integrals
    # included; scipy is a test dependency only
    code = ("import edgewave, edgewave.cli, edgewave.verify\n"
            "results = edgewave.verify.run_suite('all')\n"
            "assert results and all(r[2] for r in results), results")
    assert _loaded_after(code, "scipy") == "[]"


@pytest.mark.parametrize("case", ["imp-imp", "pec-pmc", "imp-pec", "imp-pmc"])
def test_theorem_bound_matches_benchmark_grid_rule(case):
    # the sweep workload checks reports against its own copy of the grid rule
    from edgewave.angles import parse_angle
    from edgewave.vanish import CaseKind, theorem_bound
    upper = 1 if case == "imp-pmc" else 2
    for p in range(2, 41):
        for q in range(1, upper * p):
            if math.gcd(q, p) != 1:
                continue
            alpha = parse_angle(f"{q}/{p}")
            for n_max in (1, 6, 12, 24, 85):
                assert (min(_WORKLOADS.grid_bound(Fraction(q, p), case), n_max)
                        == theorem_bound(alpha, CaseKind(case), n_max)), \
                    (q, p, n_max)


def test_vanishing_order_calls_traced_names_once_per_order(monkeypatch):
    # `--trace 1` counts vanish.assemble_calls and vanish.rank_calls through
    # these module globals, and times the rank layer as nullspace_dim's self
    # time; a report fills every order in one pass, without assembling it,
    # and ranks all its orders in one nullspace_dim call, which makes one
    # certificate call on all of them; the certificate, and the SVD of a
    # degenerate order-1 head, run only inside nullspace_dim
    import numpy as np
    from edgewave import vanish
    from edgewave.angles import parse_angle
    calls = {"nullspace_dim": 0, "assemble_order_system": 0}
    inside = []
    for name in calls:
        inner = getattr(vanish, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            inside.append(_name)
            try:
                return _inner(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(vanish, name, counted)
    certify, certified, decomposed = vanish._certified_nullities, [], []

    def spy(systems, tol):
        dims = certify(systems, tol)
        certified.append((inside == ["nullspace_dim"], [s.n for s in systems],
                          [d is None for d in dims]))
        return dims
    monkeypatch.setattr(vanish, "_certified_nullities", spy)
    refused = _spy_refusals(monkeypatch)
    svd = np.linalg.svd

    def svd_spy(*args, **kwargs):
        decomposed.append(list(inside))
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    # at 1/2 (imp-pec 1/4 assembles there) the certificate factors order 1
    # as the identity and answers None, and the SVD decides it inside the same
    # nullspace_dim call
    for alpha, case, head in (("1/3", "imp-imp", 0), ("0.6180339887", "imp-imp", 0),
                              ("1/2", "imp-imp", 1), ("1/4", "imp-pec", 1)):
        cfg = vanish.config_for_case(vanish.CaseKind(case), parse_angle(alpha),
                                     1.0, 1.0, 1.0)
        for n_max in (7, 24):
            vanish.vanishing_order(cfg, n_max)
            assert calls == {"nullspace_dim": 1, "assemble_order_system": 0}
            assert certified == [(True, list(range(1, n_max + 1)),
                                  [True] * head + [False] * (n_max - head))]
            assert decomposed == [["nullspace_dim"]] * head
            calls["nullspace_dim"], certified[:], decomposed[:] = 0, [], []
    assert not refused


def test_sweep_round_certifies_once_per_rank_call(monkeypatch):
    # an order the certificate refuses goes to the SVD, so one refused
    # order would cost an SVD: on the sweep's traffic no lane is
    # refused, the certificate runs at most once per nullspace_dim call,
    # and it leaves undecided, and the SVD decides, only the order-1 heads
    # it leaves out: impedance systems with cos(alpha' pi) exactly 0
    import numpy as np
    from edgewave import vanish
    rank, certify, decide = (vanish.nullspace_dim, vanish._certified_nullities,
                             vanish._svd_nullity)
    svd, certified, deciding, decided = np.linalg.svd, [], [], []

    def ranked(*args, **kwargs):
        certified.append([])
        return rank(*args, **kwargs)

    def certificate(systems, tol):
        dims = certify(systems, tol)
        certified[-1].append([d is None for d in dims]
                             == [_is_masked_head(s) for s in systems])
        return dims

    def svd_nullity(system, tol):
        deciding.append(system)
        try:
            return decide(system, tol)
        finally:
            deciding.pop()

    def decomposed(*args, **kwargs):
        decided.append(deciding[-1] if deciding else None)
        return svd(*args, **kwargs)
    monkeypatch.setattr(vanish, "nullspace_dim", ranked)
    monkeypatch.setattr(vanish, "_certified_nullities", certificate)
    monkeypatch.setattr(vanish, "_svd_nullity", svd_nullity)
    monkeypatch.setattr(np.linalg, "svd", decomposed)
    refused = _spy_refusals(monkeypatch)
    sweep = _WORKLOADS.WORKLOADS["sweep"]
    for query in sweep.round(1, 0):
        ok, reason = sweep.check(query, sweep.prepare(query)())
        assert ok, (query.argv, reason)
    assert certified and all(calls in ([], [True]) for calls in certified)
    assert not refused
    assert decided, "no order-1 head drawn"
    assert all(_is_masked_head(system) for system in decided)


def test_sweep_round_builds_no_dense_blocks(monkeypatch):
    # the certificate reads each order's Gram band, formed from the entry
    # values, so on the sweep's traffic the dense parity blocks are built
    # only for the order-1 heads it leaves out for the SVD, and for no
    # order it refuses
    from edgewave import vanish
    blocks, built = vanish.ConstraintSystem.blocks, []

    def spy(system):
        built.append(system)
        return blocks.fget(system)
    monkeypatch.setattr(vanish.ConstraintSystem, "blocks", property(spy))
    refused = _spy_refusals(monkeypatch)
    sweep = _WORKLOADS.WORKLOADS["sweep"]
    for query in sweep.round(1, 0):
        ok, reason = sweep.check(query, sweep.prepare(query)())
        assert ok, (query.argv, reason)
    assert not refused
    assert built, "no order-1 head drawn"
    assert all(_is_masked_head(system) for system in built)


def test_sweep_reports_round_trip():
    # every report a sweep round writes is one from_json_dict reads back
    # and writes again byte for byte
    import json
    from edgewave.vanish import VanishReport
    sweep = _WORKLOADS.WORKLOADS["sweep"]
    for query in sweep.round(1, 0):
        code, out, _ = sweep.prepare(query)()
        assert code == 0, query.argv
        text = out.rstrip("\n")
        assert VanishReport.from_json_dict(json.loads(text)).to_json() == text, \
            query.argv


def _is_masked_head(system):
    """system is an order-1 impedance head whose cos(alpha' pi) is exactly 0
    by sincos_pi: the certificate leaves it out for the SVD."""
    from edgewave import vanish
    from edgewave.angles import sincos_pi
    return (isinstance(system, vanish.ConstraintSystem) and system.n == 1
            and system.case != vanish.CaseKind.PEC_PMC
            and sincos_pi(system.config.alpha.value)[1] == 0.0)


def _spy_refusals(monkeypatch):
    """The lanes, per call of vanish._factor_windows, that it refused; the
    list stays empty while every lane is proven."""
    from edgewave import vanish
    refused, factor = [], vanish._factor_windows

    def spy(band, plan):
        lanes = factor(band, plan)
        if not lanes.all():
            refused.append((~lanes).nonzero()[0].tolist())
        return lanes
    monkeypatch.setattr(vanish, "_factor_windows", spy)
    return refused


def test_json_output_encodes_no_report_dict(monkeypatch, capsys):
    # analyze --json and table --json write a report with
    # VanishReport.to_json, which formats each block determinant once; json's
    # encoder, given the report's dict, formats order n_max's determinants
    # once per order.  Only table's error row goes through the encoder
    import json
    from edgewave.cli import main
    encode, encoded = json.JSONEncoder.encode, []

    def spy(self, o):
        encoded.append(o)
        return encode(self, o)
    monkeypatch.setattr(json.JSONEncoder, "encode", spy)
    assert main(["analyze", "--alpha", "1/3", "--case", "imp-imp", "--eta1", "1",
                 "--eta2", "1", "--nmax", "12", "--json"]) == 0
    assert main(["table", "--case", "imp-imp", "--alphas", "1/3", "0.3333333333",
                 "0.6180339887", "--nmax", "12", "--json"]) == 2
    capsys.readouterr()
    assert [sorted(o) for o in encoded] == [["alpha_input", "error", "exit_code"]]


def test_crosscheck_structured_rank_is_the_report_rank():
    # crosscheck referees the rank of assemble_order_system against
    # collocation; that rank must be the one the report decides
    from edgewave import vanish
    for query in _WORKLOADS.WORKLOADS["crosscheck"].queries(1, 1):
        config = _WORKLOADS.make_config(query.case, query.alpha, query.eta1,
                                        query.eta2, query.k)
        report = vanish.vanishing_order(config, query.n)
        assert (_WORKLOADS.crosscheck_prepare(query)()[0]
                == report.per_order[-1].nullspace_dim), query


def test_decimal_fractions_are_detected():
    # the sweep spells each DECIMAL_FRACTIONS entry as repr(float(f)) and
    # expects the CLI to label it f
    from edgewave.angles import detect_rational, parse_angle
    for f in _WORKLOADS.DECIMAL_FRACTIONS:
        angle = detect_rational(parse_angle(repr(float(f))))
        assert angle.rational == (f.numerator, f.denominator), f


def test_ball_integrals_build_no_cartesian_vectors(monkeypatch):
    # |E| over the ball is reduced in the spherical frame; the Cartesian frame
    # is not needed anywhere on that path
    from edgewave import ModeCoefficients, oracle, swe

    def refuse(*args, **kwargs):
        raise AssertionError("unit_frame called on the ball-integral path")
    original = swe.unit_frame
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] == "edgewave":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)
    coeffs = ModeCoefficients(4, 1.1, a={(3, 1): 1.0, (4, -2): 0.5j},
                              b={(3, -3): 0.7, (4, 0): 1.0})
    assert oracle.vani_estimate(coeffs).estimated_order == 2


def test_vani_estimate_tabulates_once(monkeypatch):
    # the modes are tabulated once, on the radial nodes of every ball,
    # whatever the number of radii
    import numpy as np
    from edgewave import ModeCoefficients, oracle, swe
    calls = {"bessel_table": 0, "legendre_table": 0}
    for name in calls:
        inner = getattr(swe, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(swe, name, counted)
    coeffs = ModeCoefficients(4, 1.1, a={(3, 1): 1.0, (4, -2): 0.5j},
                              b={(3, -3): 0.7, (4, 0): 1.0})
    for radii in (oracle.DEFAULT_RADII, np.geomspace(1e-1, 1e-3, 4),
                  np.geomspace(1e-1, 1e-4, 9)):
        calls.update(bessel_table=0, legendre_table=0)
        assert oracle.vani_estimate(coeffs, radii).estimated_order == 2
        assert calls == {"bessel_table": 1, "legendre_table": 1}
