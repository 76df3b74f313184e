"""One iteration of a workload in a fresh interpreter, so arcring's caches
start cold, as they do for a CLI user.

Protocol on stdout: the line ``ready`` once set-up (imports and input
generation) is done, then one JSON line with the iteration's results, among
them ``kernel_s``, the time of the reference kernel measured right after
set-up (see speed.py).  ``run.py`` starts this script with ``src`` on
``PYTHONPATH``.

    python3 perfbench/worker.py --workload products4 --seed 1 \
        [--stream STREAM_PATH | --trace SPANS_PATH | --setup-only]

``--stream`` writes the verdict's time stamps for the conversion to
reference seconds, ``--trace`` traces the verdict and writes its spans,
``--setup-only`` stops after set-up and the kernel timing.
"""

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

import speed
import workloads
from tracer import MODULES, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def import_arcring():
    """The arcring modules, which must come from this checkout's ``src``."""
    mods = {m: importlib.import_module(f"arcring.{m}") for m in MODULES}
    home = Path(mods["cli"].__file__).resolve()
    if SRC not in home.parents:
        raise RuntimeError(f"arcring imported from {home}, not from {SRC}")
    return mods


def peak_rss_kb():
    """Peak resident memory of this process image, in KiB.  ``VmHWM``
    rather than ``ru_maxrss``, which on Linux keeps the peak of the forking
    parent from before ``exec``."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--stream", metavar="STREAM_PATH",
                      help="write the verdict's time stamps here")
    mode.add_argument("--trace", metavar="SPANS_PATH",
                      help="trace the verdict and write its spans here")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    mods = import_arcring()
    inputs = workloads.make_inputs(args.workload, mods, args.seed)
    print("ready", flush=True)
    kernel_s = speed.kernel_seconds()
    if args.setup_only:
        print(json.dumps({"kernel_s": kernel_s}), flush=True)
        return 0

    checks = workloads.Checks()
    clock = time.perf_counter
    tracer = stream = None
    if args.trace:
        tracer = Tracer()
        tracer.install(mods)
    elif args.stream:
        stream = speed.ProductClock(args.stream)
        stream.install(mods)
        stream.start()
    t0 = clock()
    workloads.run_verdict(args.workload, mods, inputs, checks)
    verdict_s = clock() - t0
    if stream is not None:
        stream.stop()
    result = {"verdict_s": verdict_s, "kernel_s": kernel_s,
              "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.stats()
        tracer.write_spans(args.trace)
    result.update(attempted=checks.attempted, failed=checks.failed,
                  failures=checks.failures)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
