"""Self-test of the benchmark's checkers, exact-count comparison and
conversion to reference seconds.

    python3 perfbench/selftest.py                      # forced failures
    python3 perfbench/selftest.py --repeat products4   # + two traced runs

Each workload's checker gets one corrupted output (a non-zero exit code for
verify3, a flipped sign in a product for products4, a wrong slice rank for
lattice4) and must count it and name it as a failure; the uncorrupted output
must pass.  ``--repeat`` makes
two traced runs of each named workload with the same seed and requires every
exact count to repeat.  Exit code 0 when every expectation holds.
"""

import argparse
import json
import math
import subprocess
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from worker import import_arcring  # noqa: E402

SEED = 1

RESULTS = []


def expect(label, checks, failures_named):
    """The checks failed exactly once per entry of `failures_named`, and
    each failure message starts with the matching name."""
    got = [f.split("[")[0].split(":")[0] for f in checks.failures]
    ok = checks.failed == len(failures_named) and got == failures_named
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {label}: {checks.failed} of "
          f"{checks.attempted} checks failed {checks.failures}")


def fake_cli_main(exit_code):
    def main(argv):
        print("\n".join(workloads.VERIFY3_LINES))
        return exit_code
    return main


def verify3_cases(mods):
    cli = mods["cli"]
    real = cli.main
    try:
        for code, named in ((0, []), (1, ["verify3.exit_code"])):
            cli.main = fake_cli_main(code)
            checks = workloads.Checks()
            workloads.run_verify3(mods, checks)
            expect(f"verify3 exit code {code}", checks, named)
    finally:
        cli.main = real


def products4_cases(mods):
    ar = mods["arc_rings"]
    pairs = workloads.products4_sample(ar, 0)[:40]
    checks = workloads.Checks()
    workloads.run_products(mods, pairs, checks)
    expect("products4 uncorrupted", checks, [])

    real = ar.multiply
    flipped = []

    def multiply(rule, x, y, theory="odd"):
        out = real(rule, x, y, theory)
        if theory == "odd" and out.terms and not flipped:
            mono = next(iter(out.terms))
            out.terms[mono] = -out.terms[mono]
            flipped.append(mono)
        return out

    ar.multiply = multiply
    try:
        checks = workloads.Checks()
        workloads.run_products(mods, pairs, checks)
    finally:
        ar.multiply = real
    expect("products4 flipped sign", checks,
           ["products.odd_equals_diagrammatic"])


def lattice4_cases():
    ranks = workloads.LATTICE4_CENTER_RANKS
    for label, rank, named in (("lattice4 uncorrupted", 92, []),
                               ("lattice4 wrong rank", 91,
                                ["lattice4.slice_rank"])):
        checks = workloads.Checks()
        workloads.check_lattice4_centers(checks, ranks, ranks)
        workloads.check_lattice4_slice(checks, 3, rank, [1] * rank)
        expect(label, checks, named)


def count_cases():
    trace = {"calls": {"arc_rings.multiply": 10}, "raised": {},
             "max_cells": {}, "counters": {"arc_rings.resolutions": 7}}
    other = json.loads(json.dumps(trace))
    other["counters"]["arc_rings.resolutions"] = 8
    same = run.count_differences(trace, trace) == []
    named = run.count_differences(trace, other) == \
        ["counters:arc_rings.resolutions"]
    RESULTS.append(same and named)
    print(f"{'PASS' if same and named else 'FAIL'} exact-count comparison "
          f"names a changed count")


def speed_cases():
    """Conversion to reference seconds: every interval is scaled by
    REFERENCE_S over the kernel time, kernel runs are left out of the
    verdict, only odd multiplies that no kernel run interrupted give
    latencies, and each call counts at its fastest over the workers."""
    k = 2 * speed.REFERENCE_S          # a host at half the reference speed
    codes = array("d", [4, -4, 0, 1, -1, 4, -4, 2, -2, 1, 4, -4, -1, 0,
                        4, -4])
    times = array("d", [0, k, 1, 2, 3, 3.5, 3.5 + k, 4, 5, 5.2, 5.4, 5.4 + k,
                        5.6, 6, 7, 7 + k])
    verdict, kinds, latencies = speed.convert(codes, times)
    fastest = speed.fastest_per_call([latencies, [0.25, 0.75]])
    ok = (math.isclose(verdict, (5 - 2 * k) / 2) and list(kinds) == [1, 2, 1]
          and latencies[1] is None and math.isclose(latencies[0], 0.5)
          and fastest == [0.25, 0.75])
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} reference seconds: {verdict:.6f} s "
          f"verdict, calls {list(kinds)}, latencies {latencies}, fastest "
          f"per call {fastest}")


def traced_counts(workload):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True, timeout=600).stdout
    result = json.loads(out.strip().splitlines()[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items()
              if m["unit"] == "count"}
    return result, counts


def repeat_cases(names):
    for workload in names:
        first, a = traced_counts(workload)
        second, b = traced_counts(workload)
        ok = a == b and first["correct"] and second["correct"]
        RESULTS.append(ok)
        diff = sorted(k for k in a if a[k] != b.get(k))
        print(f"{'PASS' if ok else 'FAIL'} {workload}: {len(a)} exact counts "
              f"repeat over two traced runs (seed {SEED}); differing: {diff}")
        for k in ("associator.phi0.undefined_cells",
                  "arc_rings.resolutions", "arc_rings.resolutions_distinct"):
            print(f"    {k} = {a.get(k)}")
        ratio = first["metrics"]["arc_rings.resolution_useful_ratio"]["value"]
        print(f"    arc_rings.resolution_useful_ratio = {ratio}")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", nargs="*", default=[],
                        choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    mods = import_arcring()
    verify3_cases(mods)
    products4_cases(mods)
    lattice4_cases()
    count_cases()
    speed_cases()
    repeat_cases(args.repeat)
    print("selftest:", "pass" if all(RESULTS) else "FAIL")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
