"""edgewave benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the code under test is the checkout's
``src/edgewave``.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1``
replays a fixed number of rounds with spans around each layer and reports the
per-layer metrics.  Times of the end-to-end metrics are scaled to a fixed
machine speed by a reference kernel timed next to them.  Human-readable
lines come first; the last line of standard output is one JSON object.  Raw
results (and the spans of a traced run) are written under ``.bench_out/``
in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "crosscheck", "decay")
DEADLINE_S = 175.0
SETUP_SAMPLES = 7
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# reference times at which scaled times equal wall-clock times: roughly what
# child.Reference and the probe's reference take on a quiet 2-vCPU VM
REFERENCE_NOMINAL_S = 2.5e-3
PROBE_NOMINAL_S = 0.05
NEIGHBOURS = 2   # reference samples on each side of a query in its scale
# compiling and running generated classes and functions is the same kind of
# work as an import, so it is timed first, in the same fresh interpreter
IMPORT_PROBE = """\
import time
source = "".join(f"def f{i}(a, b=1):\\n    return [a * b + j for j in range(3)]\\n"
                 f"class C{i}:\\n    x = {i}\\n    def m(self):\\n"
                 f"        return self.x\\n" for i in range(150))
t = time.perf_counter()
for _ in range(3):
    names = {}
    exec(compile(source, "<reference>", "exec"), names)
    text = {k: str(v) for k, v in names.items()}
reference = time.perf_counter() - t
t = time.perf_counter()
import edgewave
print(time.perf_counter() - t, reference, edgewave.__file__)
"""


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# statistics (failed queries enter latency distributions as +inf)
# ---------------------------------------------------------------------------

def nearest_rank(sorted_values, fraction):
    """Value at the nearest-rank percentile `fraction` of a sorted list."""
    index = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[index]


def tail(sorted_values, beyond=10):
    """(value, percentile) of the highest percentile with at least `beyond`
    samples above it; the maximum when there are too few samples."""
    n = len(sorted_values)
    if n <= beyond:
        return sorted_values[-1], 100.0
    return sorted_values[n - beyond - 1], 100.0 * (n - beyond) / n


def scaled(latencies_s, reference_s, nominal=REFERENCE_NOMINAL_S,
           neighbours=NEIGHBOURS):
    """Each latency times nominal / (median reference time next to it).

    The reference of a query is the median of the reference samples of the
    `neighbours` executions on each side of it and of its own.
    """
    out = []
    for i, latency in enumerate(latencies_s):
        window = reference_s[max(0, i - neighbours): i + neighbours + 1]
        out.append(latency * nominal / statistics.median(window))
    return out


def end_to_end(latencies_s, passed):
    """p50 over every query (failures as +inf), tail over passed queries."""
    everything = sorted(lat if ok else math.inf
                        for lat, ok in zip(latencies_s, passed))
    finite = [v for v in everything if v != math.inf]
    n_pass = len(finite)
    p50 = nearest_rank(everything, 0.5)
    tail_s, tail_pct = tail(finite) if finite else (math.inf, 100.0)
    return {
        "query_p50_ms": p50 * 1e3,
        "query_tail_ms": tail_s * 1e3,
        "tail_percentile": tail_pct,
        "queries_per_s": n_pass / sum(latencies_s),
        "pass_frac": n_pass / len(everything),
        "failed_frac": 1.0 - n_pass / len(everything),
    }


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "edgewave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(seed, versions):
    return {
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def measure_setup(env, deadline):
    """(scaled, wall-clock) median time of `import edgewave` over fresh
    interpreters; each import is scaled by the probe's reference.

    One unmeasured import first, so bytecode caches exist as they do for a
    user who has run the tool before.
    """
    wall, scaled_times = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"import edgewave failed:\n{proc.stderr}")
        seconds, reference, path = proc.stdout.split(maxsplit=2)
        if Path(path.strip()).resolve().parent != ROOT / "src" / "edgewave":
            raise BenchError(f"imported edgewave from {path.strip()}")
        if i:
            wall.append(float(seconds))
            scaled_times.append(float(seconds) * PROBE_NOMINAL_S
                                / float(reference))
    return statistics.median(scaled_times), statistics.median(wall)


def run_child(args, env, out_path, deadline):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_path)]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("workload process timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n"
                         f"{stderr[-2000:]}")
    return json.loads(out_path.read_text())


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

E2E_UNITS = {"setup_s": "s", "query_p50_ms": "ms", "query_tail_ms": "ms",
             "queries_per_s": "1/s", "pass_frac": "ratio", "peak_rss_mb": "MB"}
SCALED = ("setup_s", "query_p50_ms", "query_tail_ms", "queries_per_s")


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_residual")):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "edgewave" / "__init__.py").is_file():
        print(f"error: no src/edgewave in {ROOT}; run from an edgewave checkout",
              file=sys.stderr)
        return 2

    env = child_env()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    try:
        setup_s, setup_wall_s = ((None, None) if args.trace
                                 else measure_setup(env, deadline))
        raw = run_child(args, env, out_path, deadline)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = raw["attempted"], raw["failed"]
    wall = end_to_end(raw["latencies_s"], raw["passed"])
    stats = wall if args.trace else end_to_end(
        scaled(raw["latencies_s"], raw["reference_s"]), raw["passed"])
    for summary in (wall, stats):
        # over the distinct queries, not the executions of every pass
        summary["failed_frac"] = failed / attempted
        summary["pass_frac"] = 1.0 - failed / attempted
    unexpected = raw["failures_by_regime"].get("unexpected", 0)
    correct = unexpected == 0 and raw["inconsistent_queries"] == 0
    if args.trace:
        values = raw["layers"]
    else:
        values = {"setup_s": setup_s, "peak_rss_mb": raw["peak_rss_mb"],
                  **{k: stats[k] for k in E2E_UNITS if k in stats}}
    metrics = {name: {"value": float(v),
                      "unit": E2E_UNITS.get(name) or layer_unit(name)}
               for name, v in values.items()}

    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint(args.seed,
                                                              raw["versions"]),
              "attempted": attempted, "failed": failed,
              "failed_frac": stats["failed_frac"],
              "wall_clock": {**wall, "setup_s": setup_wall_s},
              "tail_percentile": stats["tail_percentile"],
              "failures_by_regime": raw["failures_by_regime"],
              "unexpected_failures": raw["unexpected_failures"],
              "metrics": metrics}
    out_path.write_text(json.dumps({**raw, **record}, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced replay' if args.trace else f'{args.seconds} s closed loop'}"
          f"  queries {attempted}  failed {failed}  "
          f"executions {raw['executions']}")
    for name, m in metrics.items():
        note = (f"  (wall clock {record['wall_clock'][name]:.6g})"
                if name in SCALED else "")
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':<32} {stats['failed_frac']:>14.6g} ratio")
    print(f"  query_tail_ms is p{stats['tail_percentile']:.2f} of passed queries")
    if raw["inconsistent_queries"]:
        print(f"  queries that passed and failed in different passes: "
              f"{raw['inconsistent_queries']}")
    for regime, count in sorted(raw["failures_by_regime"].items()):
        print(f"  failures in {regime}: {count}")
    for reason in raw["unexpected_failures"]:
        print(f"  unexpected failure: {reason}")
    print("fingerprint " + json.dumps(record["fingerprint"]))
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        print("error: more than half of the queries failed, so the median "
              "latency is +inf; no result", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
