"""gwprofile benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload {mc-trees,mc-census,exact-tables,maps,all}
        [--seed 2026] [--seconds 20] [--trace 0|1] [--tiny]

Run from the root of a source checkout; gwprofile is imported from its
``src/``.  Load is a closed loop with one caller: the measured children
run one after another, each a fresh interpreter that runs the workload
once at its fixed size (see ``workloads.WORKLOADS``).  Children are
started until ``--seconds`` is used up (at least one), and the reported
times are medians over them.  ``setup_s`` is the median over
``SETUP_RUNS`` set-up-only children plus the measured ones.  Times are
scaled to the host's nominal speed (``child.SpeedProbe``); the measured
times are in the metadata.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` one more child runs with every library call wrapped in a
span; the result holds the per-layer metrics and the tracing overhead
(traced ``wall_s`` minus the untraced median), and the spans are written
to ``.perfbench-out/``.

The last line of standard output is the JSON result; the line before it
is run metadata (sizes, rationale, checks, work counters, git sha).
``--workload all`` measures every workload in turn, printing each one's
metadata and result, and ends with one result whose metrics are named
``<workload>.<metric>``.

Exit code 0 on a completed run, whether or not checks failed; 1 when a
child fails; 2 when the checkout has no gwprofile sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_RUNS = 5
# Slack on --seconds when deciding whether one more child fits.
OVERRUN = 1.1
# A child that takes longer than this is a failure (the run must end in 180 s).
CHILD_TIMEOUT_S = 150


class ChildError(RuntimeError):
    pass


def run_child(workload, seed, tiny, *extra):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    if tiny:
        cmd.append("--tiny")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(t0)], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {' '.join(cmd[1:])} took over {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise ChildError(f"child {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["elapsed_s"] = time.monotonic() - t0
    expected = ROOT / "src" / "gwprofile" / "__init__.py"
    if Path(out["gwprofile"]).resolve() != expected.resolve():
        raise ChildError(f"child imported gwprofile from {out['gwprofile']}, not {expected}")
    return out


def measure(workload, seed, seconds, tiny):
    """Untraced children until ``seconds`` are used; returns their results."""
    runs = []
    start = time.monotonic()
    while True:
        runs.append(run_child(workload, seed, tiny))
        elapsed = time.monotonic() - start
        if elapsed + runs[-1]["elapsed_s"] > seconds * OVERRUN:
            return runs


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name, seed, seconds, trace, tiny):
    """Measure one workload; returns (metadata, result) or raises ChildError."""
    setups = [run_child(name, seed, tiny, "--setup-only") for _ in range(SETUP_RUNS)]
    runs = measure(name, seed, seconds, tiny)
    traced = None
    if trace:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{name}-seed{seed}.jsonl"
        traced = run_child(name, seed, tiny, "--trace-out", str(spans))

    measured = runs + ([traced] if traced else [])
    counters = [r["counters"] for r in measured]
    repeatable = all(c == counters[0] for c in counters)
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    wall_s = statistics.median(r["wall_s"] for r in runs)
    vertices = runs[0]["vertices"]

    if traced:
        metrics = traced["per_layer"]
        overhead = traced["wall_s"] - wall_s
        metrics["trace.overhead_s"] = metric(overhead, "s")
        metrics["trace.overhead_share"] = metric(overhead / wall_s, "1")
    else:
        metrics = {
            "setup_s": metric(statistics.median(r["setup_s"] for r in setups + runs), "s"),
            "wall_s": metric(wall_s, "s"),
            "vertices_per_s": metric(statistics.median(vertices / r["wall_s"] for r in runs),
                                     "vertices/s"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        }
    spec = workloads.WORKLOADS[name]
    meta = {
        "workload": name,
        "why": spec["why"],
        "sizes": spec["tiny" if tiny else "sizes"],
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "children": len(runs),
        "wall_s_runs": [r["wall_s"] for r in runs],
        "wall_raw_s_runs": [r["wall_raw_s"] for r in runs],
        "setup_raw_s_median": statistics.median(r["setup_raw_s"] for r in setups + runs),
        "counters": counters[0],
        "counters_repeat": repeatable,
        "fail_ratio": failed / max(attempted, 1),
        "failures": [f for r in measured for f in r["failures"]][:20],
        "known_defect_probes": {
            k: counters[0].get(k, "not run")
            for k in ("tree.decode.deep_path_failures", "stats.chi_square.sparse_pool_failures")
        },
    }
    if traced:
        meta["traced_wall_s"] = traced["wall_s"]
    result = {
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return meta, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gwprofile" / "__init__.py").is_file():
        print(f"perfbench: no gwprofile sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            meta, results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                               args.tiny)
        except ChildError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"meta": meta}))
        if len(names) > 1:
            print(json.dumps({name: results[name]}))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
