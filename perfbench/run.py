"""arcring benchmark: runs one workload for a fixed time and reports the
metrics declared in BENCHMARK.json.

    python3 perfbench/run.py --workload verify3 --seed 1 --seconds 45 --trace 0

Run it from the root of the repository.  Each iteration is a fresh
interpreter (see worker.py) started with ``src`` on ``PYTHONPATH``; the
iterations run back to back until ``--seconds`` have passed, and the last
one finishes.  With ``--trace 0`` the run reports every end-to-end metric;
its times are in reference seconds, which take out the drift of a shared
host's speed (see speed.py).  With
``--trace 1`` the run reports every per-layer metric, from a separate traced
run that alternates untraced and traced iterations.  The last line of stdout
is the JSON result; the lines before it name each metric with its unit, the
check base and the run's metadata, which is also written to
``perfbench/out/``.  Exit code 0 on a completed run (checks may still fail:
see ``correct``), 1 if the run could not be made.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

EXTRA_SETUPS = 2          # set-up-only workers after each verdict worker
MIN_WORKERS = 2           # verdict workers of an untraced run
MIN_TRACED = 2            # traced iterations, so exact counts can be compared
RUN_LIMIT_S = 150         # start no iteration that would end after this
ITERATION_TIMEOUT_S = 170


class RunError(Exception):
    """The run could not be made; no result is printed."""


def git_commit(root):
    """HEAD of the checkout, read without git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(workload, seed, *mode):
    """Start one worker with the extra arguments `mode` (see worker.py);
    returns (wall seconds of its set-up, its result dict)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *map(str, mode)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # A fixed hash seed makes set iteration, and so the sequence of product
    # calls, the same in every worker, so that calls can be compared.
    env["PYTHONHASHSEED"] = "0"
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=env, cwd=ROOT) as proc:
        watchdog = threading.Timer(ITERATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RunError(f"worker failed (exit {proc.returncode}): "
                       f"{' '.join(cmd)}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def iterate(seconds, min_count, step):
    """Call step() back to back until `seconds` have passed and it ran
    `min_count` times; start none that would end past RUN_LIMIT_S."""
    start = time.perf_counter()
    results, last = [], 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(results) >= min_count and elapsed >= seconds:
            break
        if results and elapsed + last > RUN_LIMIT_S:
            break
        t0 = time.perf_counter()
        results.append(step(len(results)))
        last = time.perf_counter() - t0
    return results


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- end-to-end metrics (tracing off) ---------------------------------------

def run_untraced(workload, seed, seconds):
    """Untraced workers back to back, at least MIN_WORKERS, each followed by
    EXTRA_SETUPS set-up-only workers.  Times are in reference seconds (see
    speed.py); every metric is the median over the workers, except the
    latency percentiles, which are taken over the odd multiplies, each at
    its fastest over the workers."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"stream-{workload}-seed{seed}.bin"
    to_reference = speed.REFERENCE_S

    def one(k):
        setups = [spawn(workload, seed, "--stream", path)]
        setups += [spawn(workload, seed, "--setup-only")
                   for _ in range(EXTRA_SETUPS)]
        result = setups[0][1]
        try:
            stream = speed.read_stream(path)
        finally:
            path.unlink()
        verdict_s, kinds, latencies = speed.convert(*stream)
        result.update(verdict_ref_s=verdict_s, calls=len(kinds))
        setup_s = [s * to_reference / r["kernel_s"] for s, r in setups]
        return result, (kinds, latencies), setup_s, [s for s, _ in setups]

    runs = iterate(seconds, MIN_WORKERS, one)
    results = [r for r, _, _, _ in runs]
    kinds = runs[0][1][0]
    if any(k != kinds for _, (k, _), _, _ in runs):
        raise RunError("the workers made different sequences of product "
                       "calls, so their calls cannot be compared")
    latencies = speed.fastest_per_call([lat for _, (_, lat), _, _ in runs])
    setups = [s for _, _, ss, _ in runs for s in ss]
    metrics = {
        "verdict_s": statistics.median(r["verdict_ref_s"] for r in results),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024
                                         for r in results),
        "products_per_s": statistics.median(r["calls"] / r["verdict_ref_s"]
                                            for r in results),
        "product_p50_us": percentile(latencies, 0.50) * 1e6,
        "product_p99_us": percentile(latencies, 0.99) * 1e6,
    }
    detail = {"iterations": len(results),
              "product_calls_each": results[0]["calls"],
              "odd_latency_samples": len(latencies),
              "verdict_s_each": [r["verdict_ref_s"] for r in results],
              "wall_verdict_s_each": [r["verdict_s"] for r in results],
              "kernel_ms_each": [r["kernel_s"] * 1e3 for r in results],
              "setup_s_each": setups,
              "wall_setup_s_each": [s for _, _, _, ws in runs for s in ws],
              "peak_rss_mb_each": [r["peak_rss_kb"] / 1024 for r in results]}
    return metrics, results, detail


# -- per-layer metrics (tracing on) -----------------------------------------

EXACT_COUNT_SECTIONS = ("calls", "raised", "max_cells", "counters")


def exact_counts(trace):
    """Every count of a trace that must repeat exactly for the same seed."""
    return {f"{section}:{key}": value
            for section in EXACT_COUNT_SECTIONS
            for key, value in trace[section].items()}


def count_differences(first, second):
    """Names of the exact counts that differ between two traces."""
    a, b = exact_counts(first), exact_counts(second)
    return sorted(k for k in set(a) | set(b) if a.get(k, 0) != b.get(k, 0))


def layer_metric(name, traces, overhead):
    """Value of per-layer metric `name`: counts from the first trace (they
    repeat exactly), times as the median over the traces."""
    first = traces[0]
    counters = first["counters"]
    if name == "trace_overhead_ratio":
        return overhead
    if name == "arc_rings.resolution_useful_ratio":
        done = counters.get("arc_rings.resolutions", 0)
        return counters["arc_rings.resolutions_distinct"] / done if done \
            else 0.0
    if name == "associator.phi0.undefined_cells":
        return first["raised"].get("associator.phi0:UndefinedSign", 0)
    if name in ("arc_rings.resolutions", "arc_rings.resolutions_distinct",
                "centers.constraint_rows"):
        return counters.get(name, 0)
    base, _, field = name.rpartition(".")
    if field == "calls":
        return first["calls"].get(base, 0)
    if field == "max_cells":
        return first["max_cells"].get(base, 0)
    if field == "self_s":
        if "." not in base:
            return statistics.median(t["module_self_s"][base] for t in traces)
        return statistics.median(t["self_s"].get(base, 0.0) for t in traces)
    raise RunError(f"no rule to measure per-layer metric {name!r}")


def run_traced(workload, seed, seconds):
    """Pairs of one untraced and one traced iteration, so that the overhead
    ratio compares medians taken over the same stretch of time."""
    OUT.mkdir(exist_ok=True)

    def pair(k):
        path = OUT / f"spans-{workload}-seed{seed}-{k}.tsv"
        return (spawn(workload, seed)[1],
                spawn(workload, seed, "--trace", path)[1])

    pairs = iterate(seconds, MIN_TRACED, pair)
    untraced = [u for u, _ in pairs]
    results = [t for _, t in pairs]
    traces = [r["trace"] for r in results]
    mismatches = [count_differences(traces[0], t) for t in traces[1:]]
    overhead = (statistics.median(r["verdict_s"] for r in results)
                / statistics.median(r["verdict_s"] for r in untraced))
    detail = {"iterations": len(results),
              "untraced_verdict_s_each": [r["verdict_s"] for r in untraced],
              "traced_verdict_s_each": [r["verdict_s"] for r in results],
              "spans": [t["spans"] for t in traces],
              "count_mismatches": mismatches}
    return overhead, untraced + results, traces, mismatches, detail


# -- command line -----------------------------------------------------------

def load_definition():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise RunError(f"cannot read {path}: {exc}") from exc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        definition = load_definition()
        why = {w["name"]: w["why"] for w in definition["workloads"]}
        if args.workload not in why:
            raise RunError(f"unknown workload {args.workload!r}; "
                           f"choose from {sorted(why)}")
        if not (SRC / "arcring" / "__init__.py").is_file():
            raise RunError(f"no arcring sources under {SRC}")
        if args.trace:
            declared = definition["per_layer"]
            overhead, results, traces, mismatches, detail = run_traced(
                args.workload, args.seed, args.seconds)
            values = {m["name"]: layer_metric(m["name"], traces, overhead)
                      for m in declared}
        else:
            declared = definition["end_to_end"]
            values, results, detail = run_untraced(
                args.workload, args.seed, args.seconds)
            mismatches = []
            missing = [m["name"] for m in declared if m["name"] not in values]
            if missing:
                raise RunError(f"no rule to measure {missing}")
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results) + len(mismatches)
    failed = sum(r["failed"] for r in results) + sum(1 for m in mismatches
                                                     if m)
    failures = [f for r in results for f in r["failures"]]
    failures += [f"trace.exact_counts_repeat: {m[:5]}" for m in mismatches
                 if m]
    meta = {"workload": args.workload, "why": why[args.workload],
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "python": f"{platform.python_implementation()} "
                      f"{platform.python_version()}",
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(ROOT),
            "products4_sample": workloads.PRODUCTS4_SAMPLE,
            "check_base": "failed correctness checks / checks attempted",
            **detail}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "metrics": metrics,
                                  "attempted": attempted, "failed": failed,
                                  "failures": failures}, indent=1))

    print(f"# meta {json.dumps(meta)}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:16.6f} {m['unit']}")
    print(f"{'check_fail_ratio':40s} {failed / attempted:16.6f} "
          f"({failed} failed / {attempted} checks)")
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
