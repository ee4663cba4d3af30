"""One measurement in a fresh interpreter; prints one JSON object.

    python3 perfbench/child.py --workload NAME --seed N --spawned-at T
        [--setup-only] [--trace-out FILE] [--tiny]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so set-up covers interpreter start, importing
gwprofile, resolving models and constructing samplers.  The timed phase
is the workload with its output checks.  Every real CLI run starts cold
(memos, ``lru_cache``, the lazy sympy import), so each measurement is
its own process and nothing is warmed up beforehand.

Times are reported twice: ``*_raw_s`` as measured, and ``*_s`` scaled to
the host's nominal speed (see :class:`SpeedProbe`).
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def reference_kernel():
    """Tuples, dict lookups and a keyed sort, like the workloads' inner loops."""
    d = {}
    xs = []
    for i in range(150):
        t = (i, i * 7 % 13, -i)
        xs.append(t)
        d[t[:2]] = d.get(t[1:], 0) + len(xs)
    xs.sort(key=lambda t: t[1])
    return len(d)


class SpeedProbe:
    """Tracks the host's speed while a measurement runs.

    The benchmark host is shared: for seconds to minutes the same code runs
    up to 2.5x slower and back (the interpreter's CPU time slows with it,
    so it is not preemption).  Every PERIOD seconds of wall time a SIGALRM
    handler times a fixed pure-Python kernel in this process, on this
    core.  If the kernel takes r_i, the host ran at speed
    NOMINAL_KERNEL_S / r_i, and an interval of ``raw`` seconds did
    ``raw * mean(NOMINAL_KERNEL_S / r_i)`` seconds of work at nominal
    speed.  Time spent in the handler (about 1%) is taken out first.
    NOMINAL_KERNEL_S is close to the kernel's time on the unloaded 2-core
    host the benchmark was written on; the scale cancels when two commits
    are compared on one host.

    Over ten seeds this cut the spread of the scaled wall time to 2-5% on
    mc-trees, mc-census and maps (10-30% measured).  exact-tables, mostly
    big-integer arithmetic, tracks the kernel less well (about 9%).  A
    kernel of Fraction arithmetic, a mix of both, and a probe in the parent
    process (on the other core) all did worse overall.
    """

    PERIOD = 0.01
    NOMINAL_KERNEL_S = 8e-5

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def lap(self, raw_s):
        """``raw_s`` (measured since the last lap) at nominal speed, and the speed factor."""
        samples, spent = self.samples, self.spent
        self.samples, self.spent = [], 0.0
        if not samples:
            return raw_s, 1.0
        speed = sum(self.NOMINAL_KERNEL_S / r for r in samples) / len(samples)
        return (raw_s - spent) * speed, (raw_s - spent) * speed / raw_s


def scaled(metrics, factor):
    """Per-layer metrics with times multiplied and rates divided by ``factor``."""
    out = {}
    for name, m in metrics.items():
        value = m["value"]
        if m["unit"] == "s":
            value *= factor
        elif m["unit"].endswith("/s"):
            value /= factor
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    probe = SpeedProbe()
    probe.start()

    sys.path.insert(0, str(ROOT / "src"))
    import gwprofile

    import layers
    import workloads

    sizes = workloads.WORKLOADS[args.workload]["tiny" if args.tiny else "sizes"]
    ctx = workloads.setup(args.workload, sizes, args.seed)
    tracer = layers.Tracer()
    api = layers.api(tracer if args.trace_out else None)
    setup_raw_s = time.monotonic() - args.spawned_at
    setup_s, _ = probe.lap(setup_raw_s)
    out = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "gwprofile": gwprofile.__file__}
    if not args.setup_only:
        checks = workloads.Checks()
        counters = Counter()
        t0 = time.perf_counter()
        vertices = workloads.RUN[args.workload](
            api, sizes, args.seed, ctx, tracer, checks, counters)
        wall_raw_s = time.perf_counter() - t0
        wall_s, factor = probe.lap(wall_raw_s)
        out.update({
            "wall_s": wall_s,
            "wall_raw_s": wall_raw_s,
            "vertices": vertices,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "failures": checks.failures[:20],
            "counters": dict(counters),
        })
        if args.trace_out:
            tracer.write(args.trace_out)
            out["per_layer"] = scaled(layers.per_layer_metrics(tracer.spans, counters), factor)
    probe.stop()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
