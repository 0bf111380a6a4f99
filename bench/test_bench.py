"""Tests of the benchmark's own logic: output checks, percentiles, inputs."""

import json
import math
from collections import Counter
from fractions import Fraction

import pytest

import child
import run
import tracing
import workloads


def _report(dims, lower, theorem, rational=None, case="imp-imp"):
    return {"alpha": {"value": 0.3, "rational": rational}, "case": case,
            "per_order": [{"n": n, "nullspace_dim": d, "det_A": None,
                           "det_B": None, "block_dets": []}
                          for n, d in enumerate(dims, 1)],
            "order_lower_bound": lower, "theorem_bound": theorem}


def _query(exact, nmax=6, case="imp-imp"):
    kind = "irrational" if exact is None else "fraction"
    return workloads.SweepQuery((), case, kind, exact, nmax)


def test_self_contradicting_report_counts_as_failed():
    report = _report([1, 0, 0, 0, 0, 0], 0, "infinite")
    ok, reason = workloads.sweep_check(_query(None), (0, json.dumps(report), ""))
    assert not ok
    assert "infinite" in reason


@pytest.mark.parametrize("query,report", [
    (_query(None), _report([0] * 6, "gte_nmax", "infinite")),
    (_query(Fraction(2, 7), nmax=12),
     _report([0] * 6 + [2] * 6, 6, 6, rational=[2, 7])),
    (_query(Fraction(1, 4), case="imp-pec"),
     _report([2] * 6, 0, 0, rational=[1, 4], case="imp-pec")),
])
def test_consistent_reports_pass(query, report):
    assert workloads.check_report(query, report) == (True, "ok")


@pytest.mark.parametrize("query,report", [
    # a decimal spelling of 1/2 reported as irrational
    (_query(Fraction(1, 2)), _report([2] * 6, 0, "infinite")),
    # assembled bound below the grid bound
    (_query(Fraction(2, 7), nmax=12),
     _report([0] * 3 + [2] * 9, 3, 6, rational=[2, 7])),
    # irrational angle whose bound stops short of n_max
    (_query(None, nmax=24), _report([0] * 12 + [4] * 12, 12, "infinite")),
    # bound that disagrees with its own per-order dimensions
    (_query(None), _report([0, 0, 2, 0, 0, 0], "gte_nmax", "infinite")),
])
def test_wrong_reports_fail(query, report):
    assert not workloads.check_report(query, report)[0]


@pytest.mark.parametrize("exact,case,bound", [
    (Fraction(1, 3), "imp-imp", 2), (Fraction(1, 13), "imp-imp", 12),
    (Fraction(1, 2), "imp-imp", 0), (Fraction(2, 7), "pec-pmc", 6),
    (Fraction(1, 2), "pec-pmc", 0), (Fraction(3, 10), "pec-pmc", 4),
    (Fraction(1, 4), "imp-pec", 0), (Fraction(1, 6), "imp-pmc", 2),
])
def test_grid_rule(exact, case, bound):
    assert workloads.grid_bound(exact, case) == bound


def test_failures_sort_above_every_latency():
    inf = math.inf
    assert run.nearest_rank(sorted([inf, 0.5, 0.1, inf]), 0.75) == inf
    assert run.nearest_rank(sorted([inf, 0.5, 0.1, inf]), 0.5) == 0.5
    # fast failures still rank above slow successes
    stats = run.end_to_end([0.2, 0.2, 1e-4, 1e-4, 1e-4], [True, True] + [False] * 3)
    assert stats["query_p50_ms"] == inf
    stats = run.end_to_end([0.2, 0.3, 0.4, 1e-4], [True, True, True, False])
    assert stats["query_p50_ms"] == pytest.approx(300.0)
    assert stats["pass_frac"] == 0.75


def test_tail_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values) == (90.0, 90.0)
    assert run.tail(values[:8]) == (8.0, 100.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_generates_the_same_inputs(name):
    make = workloads.WORKLOADS[name].round
    assert make(7, 0) == make(7, 0)
    assert make(7, 3) == make(7, 3)
    assert make(7, 0) != make(8, 0)
    assert make(7, 0, workloads.WARMUP) != make(7, 0)


def test_sweep_mix_does_not_depend_on_the_seed():
    def mix(seed):
        return Counter((q.case, q.kind, q.nmax)
                       for q in workloads.sweep_round(seed, 0))
    assert mix(1) == mix(2)


def test_scaling_cancels_a_uniform_slowdown():
    latencies, reference = [0.01, 0.02, 0.03, 0.04], [0.003] * 4
    slow = run.scaled([1.6 * x for x in latencies], [1.6 * r for r in reference],
                      nominal=0.003)
    assert slow == pytest.approx(latencies)
    # one slow reference sample among its neighbours does not move the scale
    assert run.scaled(latencies, [0.003, 0.003, 0.009, 0.003],
                      nominal=0.003) == pytest.approx(latencies)


def _fake_workload():
    return workloads.Workload(
        round=lambda seed, index, stream=0: [seed + 3 * index + j for j in range(3)],
        prepare=lambda query: (lambda: query),
        check=lambda query, out: (out % 2 == 0, "odd"),
        known_defect=lambda query: None if query == 5 else "odd")


@pytest.mark.parametrize("seconds", [0.0, 0.05])
def test_failures_count_once_per_query_whatever_the_passes(seconds):
    spec = _fake_workload()
    queries = spec.queries(1, 2)
    assert queries == [1, 2, 3, 4, 5, 6]
    records = child.run_list(spec, queries, seconds=seconds)
    assert len(records) >= len(queries)
    summary = child.summarize(records, len(queries))
    assert (summary["attempted"], summary["failed"]) == (6, 3)
    assert summary["failures_by_regime"] == {"odd": 2, "unexpected": 1}
    assert summary["inconsistent_queries"] == 0
    assert len(summary["latencies_s"]) == len(records)


def test_self_time_subtracts_children():
    spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 1.0, 4.0, 0, 0],
             ["leaf", 2.0, 3.0, 1, 0], ["inner", 5.0, 6.0, 0, 0]]
    calls, own = tracing.self_times(spans)
    assert calls["inner"] == 2
    assert own["outer"] == pytest.approx(6.0)
    assert own["inner"] == pytest.approx(3.0)
    assert own["leaf"] == pytest.approx(1.0)
