"""One workload in one fresh process: a closed loop with a single client.

Started by run.py with the checkout's ``src`` on PYTHONPATH and the BLAS
thread count fixed; writes its raw measurements as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

WARMUP_S = 1.0


class Reference:
    """Fixed work that uses no edgewave code, timed after every query.

    The host's speed swings by up to 1.6x over minutes.  Small complex SVDs
    and spherical Bessel functions, the LAPACK and scipy.special work the
    library leans on, slow down with it in step with all three workloads,
    so run.py divides each query's latency by the reference time measured
    next to it.
    """

    def __init__(self):
        import numpy as np
        from scipy import special
        rng = np.random.default_rng(20050635)
        self.np = np
        self.jn = special.spherical_jn
        self.matrix = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        self.points = np.linspace(0.3, 9.0, 64)

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(2):
            self.np.linalg.svd(self.matrix)
        for order in range(10):
            self.jn(order, self.points)
        return time.perf_counter() - t0


def run_list(spec, queries, passes=1, seconds=0.0, tracer=None, reference=None):
    """Replay `queries` for `passes` whole passes, then until `seconds` have
    passed.

    Returns one [query index, latency_s, ok, reason, defect, reference_s]
    per execution.  A query that raises counts as failed with the exception
    as its reason.
    """
    records = []
    start = time.perf_counter()
    done = 0
    while True:
        for index, query in enumerate(queries):
            if done >= passes and time.perf_counter() - start >= seconds:
                return records
            call = spec.prepare(query)
            if tracer is not None:
                tracer.query = len(records)
            t0 = time.perf_counter()
            try:
                output = call()
            except Exception as exc:  # noqa: BLE001 - a failed query is data
                latency = time.perf_counter() - t0
                ok, reason = False, f"{type(exc).__name__}: {exc}"[:160]
            else:
                latency = time.perf_counter() - t0
                try:
                    ok, reason = spec.check(query, output)
                except (AttributeError, KeyError, TypeError) as exc:
                    ok, reason = False, f"malformed output: {exc!r}"[:160]
            defect = None
            if not ok:
                defect = spec.known_defect(query)
                reason = f"{reason} <- {query!r}"[:400]
            ref = reference() if reference is not None else None
            records.append([index, latency, ok, reason, defect, ref])
        done += 1


def summarize(records, n_queries):
    """Per-execution timings, and failures counted once per distinct query.

    A query fails if any of its executions failed, so `attempted` and
    `failed` depend on the seed alone, not on how many passes fit the run.
    """
    failed = {}
    for index, _, ok, reason, defect, _ in records:
        if not ok and index not in failed:
            failed[index] = (reason, defect)
    flips = {r[0] for r in records if r[2]} & set(failed)
    return {"latencies_s": [r[1] for r in records],
            "passed": [bool(r[2]) for r in records],
            "reference_s": [r[5] for r in records],
            "attempted": n_queries,
            "failed": len(failed),
            "executions": len(records),
            "passes": len(records) / n_queries,
            "failures_by_regime": dict(Counter(d or "unexpected"
                                               for _, d in failed.values())),
            "unexpected_failures": [r for r, d in failed.values()
                                    if d is None][:5],
            "inconsistent_queries": len(flips)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    import edgewave
    if Path(edgewave.__file__).resolve().parent != root / "src" / "edgewave":
        print(f"imported edgewave from {edgewave.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import numpy
    import scipy
    import tracing
    from workloads import MEASURE, WARMUP, WORKLOADS

    spec = WORKLOADS[args.workload]
    result = {"versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    reference = Reference()
    run_list(spec, spec.queries(args.seed, 1, WARMUP), passes=0,
             seconds=WARMUP_S, reference=reference)
    if not args.trace:
        queries = spec.queries(args.seed, spec.rounds, MEASURE)
        records = run_list(spec, queries, seconds=args.seconds,
                           reference=reference)
        result.update(summarize(records, len(queries)))
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                 / 1024.0)
    else:
        # the same queries untraced, then traced: the difference is the
        # tracing overhead, and the counts repeat exactly for one seed
        queries = spec.queries(args.seed, spec.traced_rounds, MEASURE)
        untraced = run_list(spec, queries)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_list(spec, queries, tracer=tracer)
        metrics = tracing.layer_metrics(tracer)
        passed = sum(1 for r in traced if r[2])
        metrics["oracle.agree_ratio"] = (passed / len(traced)
                                         if args.workload == "crosscheck" else 0.0)
        metrics["trace.overhead_s"] = (sum(r[1] for r in traced)
                                       - sum(r[1] for r in untraced))
        result["layers"] = metrics
        result.update(summarize(traced, len(queries)))
        spans_path = Path(args.out).with_suffix(".spans.jsonl")
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result["spans_file"] = spans_path.name
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
