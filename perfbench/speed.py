"""Timing of untraced runs, in reference seconds.

The benchmark runs on a shared virtual machine whose speed drifts by 15 to
50 % within minutes, with the load of other tenants.  A run therefore times
a fixed pure-Python reference kernel, in the same process, at the start and
end of the verdict and every ``CALIBRATE_S`` seconds during it (from a
``SIGALRM`` handler, so whatever the verdict is doing), and scales every
interval by the speed of the host at that moment:

    reference seconds = seconds * REFERENCE_S / (kernel time near then)

"Kernel time near then" is the median of the ``SMOOTH`` kernel runs nearest
to the interval.  A reference second is a second of a host on which the
kernel takes ``REFERENCE_S``; on an idle 2-vCPU Xeon (Sapphire Rapids) with
CPython 3.11 the kernel takes about that long, so reference seconds are
close to wall seconds there.  The kernel's own time is left out.

``ProductClock`` records the stream the conversion needs: time stamps at the
entry and exit of every product call (``multiply`` and
``multiply_diagrammatic``, through every binding of them), at the start and
end of the verdict, and around every kernel run.
"""

import bisect
import gc
import signal
import statistics
import time
from array import array

from tracer import bindings, restore

REFERENCE_S = 0.002
CALIBRATE_S = 0.05          # seconds between two kernel runs
SMOOTH = 5                  # kernel runs per speed estimate

# Event codes of a stream: a call of kind k opens with +k and closes with -k;
# VERDICT marks the start and the end of the verdict.
VERDICT, ODD, EVEN, DIAGRAMMATIC, KERNEL = 0, 1, 2, 3, 4
PRODUCT_KINDS = {"arc_rings.multiply": None,   # ODD or EVEN, by theory
                 "arc_rings.multiply_diagrammatic": DIAGRAMMATIC}


def reference_kernel():
    """Fixed pure-Python work of the kind arcring does (small frozensets,
    dict updates, a sort): about 2 ms.  The cyclic garbage collector is off
    while it runs; its objects are all freed when it returns, so it leaves
    the collector's counts, and the program's collections, where they were.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = {}
        for i in range(3000):
            key = frozenset((i % 7, i % 11, i % 13))
            acc[key] = acc.get(key, 0) + (1 if i & 1 else -1)
        return sorted(acc.values())
    finally:
        if enabled:
            gc.enable()


def kernel_seconds():
    """Median time of SMOOTH kernel runs, back to back."""
    clock = time.perf_counter
    times = []
    for _ in range(SMOOTH):
        t0 = clock()
        reference_kernel()
        times.append(clock() - t0)
    return statistics.median(times)


class ProductClock:
    """Writes the stream of one verdict to a file, as (code, perf_counter)
    pairs in blocks, so that its memory stays a few hundred kilobytes.  A
    product call costs two clock reads and two array extends, about 1.5 us on
    the host above.

    The alarm handler can run between a wrapper's clock read and its
    append, so the stream is in time order only once sorted."""

    BLOCK = 1 << 15

    def __init__(self, path):
        self._fh = open(path, "wb")
        self._buf = array("d")
        self._patched = []

    def _flush(self):
        self._buf.tofile(self._fh)
        del self._buf[:]

    def calibrate(self, *_):
        """One timed kernel run; also the SIGALRM handler."""
        clock = time.perf_counter
        t0 = clock()
        reference_kernel()
        t1 = clock()
        self._buf.extend((KERNEL, t0, -KERNEL, t1))

    def start(self):
        self.calibrate()
        signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_S, CALIBRATE_S)
        self._buf.extend((VERDICT, time.perf_counter()))

    def stop(self):
        """End the verdict, unwrap the product functions and write out the
        rest of the stream."""
        self._buf.extend((VERDICT, time.perf_counter()))
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.calibrate()
        restore(self._patched)
        self._flush()
        self._fh.close()

    def _wrapper(self, fn, kind):
        buf, flush, block = self._buf, self._flush, self.BLOCK
        extend, clock = buf.extend, time.perf_counter

        def wrapper(*args, **kwargs):
            code = kind
            if code is None:
                theory = args[3] if len(args) > 3 else \
                    kwargs.get("theory", "odd")
                code = EVEN if theory == "even" else ODD
            extend((code, clock()))
            try:
                return fn(*args, **kwargs)
            finally:
                extend((-code, clock()))
                if len(buf) >= block:
                    flush()
        return wrapper

    def install(self, modules):
        for _, module, attr, obj, name in bindings(modules):
            if name in PRODUCT_KINDS:
                self._patched.append((module, attr, obj))
                setattr(module, attr,
                        self._wrapper(obj, PRODUCT_KINDS[name]))


def read_stream(path):
    """(codes, times) of a stream file."""
    stream = array("d")
    with open(path, "rb") as fh:
        stream.frombytes(fh.read())
    return stream[0::2], stream[1::2]


def convert(codes, times):
    """(verdict reference seconds, the kinds of the product calls in call
    order, the latency of each odd multiply in reference seconds) of one
    stream.  The latency is None for a call that a kernel run interrupted,
    since the kernel's cache traffic would lengthen it."""
    order = sorted(range(len(times)), key=times.__getitem__)
    codes = [codes[i] for i in order]
    times = [times[i] for i in order]
    kernels = [(times[i], times[i + 1] - times[i])
               for i, code in enumerate(codes) if code == KERNEL]
    at = [t for t, _ in kernels]
    durations = [d for _, d in kernels]
    half = SMOOTH // 2
    scale = [REFERENCE_S / statistics.median(
        durations[max(0, j - half):j + half + 1]) for j in range(len(kernels))]

    def factor(t):
        j = bisect.bisect(at, t) - 1
        return scale[min(max(j, 0), len(scale) - 1)]

    marks = [i for i, code in enumerate(codes) if code == VERDICT]
    elapsed, kinds, latencies, opened, kernel_runs = 0.0, bytearray(), [], \
        [], 0
    for i in range(marks[0], marks[-1]):
        code = codes[i]
        if code == KERNEL:
            kernel_runs += 1
        elif code > 0:
            kinds.append(int(code))
            opened.append((elapsed, kernel_runs, code))
        elif code < 0 and code != -KERNEL:
            start, kernels_before, kind = opened.pop()
            if kind == ODD:
                latencies.append(elapsed - start
                                 if kernel_runs == kernels_before else None)
        if code != KERNEL:      # a kernel start: the next event is its end
            elapsed += (times[i + 1] - times[i]) * factor(times[i])
    return elapsed, kinds, latencies


def fastest_per_call(latency_lists):
    """Each odd multiply's fastest latency over the workers, which made the
    same calls in the same order; a latency of None does not count."""
    best = []
    for column in zip(*latency_lists):
        times = [t for t in column if t is not None]
        if times:
            best.append(min(times))
    return best
