"""planebody benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from ./src.
One client runs the items of a seeded pool back to back in this process
(a closed loop), times each item, checks every output and prints, as the
last line, {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 untraced
and traced cycles of the pool alternate, and the metrics are per layer,
per cycle, plus trace.overhead_frac.  Earlier lines record the
environment and every end-to-end figure, failures included.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

# pin BLAS / OpenMP pools before numpy loads: one client, one thread
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import collections  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("demo-pipeline", "spectrum-sweep", "period-confirm")
SETUP_REPEATS = 11
TAIL_BEYOND = 10


def _import_package():
    """Import planebody from this checkout's src/, never from elsewhere."""
    if not (SRC / "planebody" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC / 'planebody'}")
    sys.path.insert(0, str(SRC))
    import planebody

    if Path(planebody.__file__).resolve().parent != (SRC / "planebody").resolve():
        raise SystemExit(f"perfbench: imported planebody from {planebody.__file__}, not {SRC}")
    return planebody


def measure_setup() -> float:
    """Median wall time of a fresh `python -c "import planebody"`."""
    cmd = [sys.executable, "-c", "import planebody"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:  # the first start also warms the file cache
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(cycles):
    """Highest percentile with at least ten samples beyond it, with its rank.

    cycles holds the item times of each cycle.  Below 2 * 10 samples no
    percentile above the median has ten beyond it; the median, across
    cycles, of each cycle's slowest item is reported instead (rank 100),
    so that one stalled item does not set the figure alone.
    """
    xs = sorted(t for c in cycles for t in c)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(max(c) for c in cycles), 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Runner:
    def __init__(self, workload, instrumentation):
        self.workload = workload
        self.instr = instrumentation
        self.records = []  # (item id, seconds, failure reasons, known defect)
        self.route_rel_dev = 0.0
        self.digests = {}
        self.nondeterministic = set()
        self.clock = time.perf_counter

    def run_item(self, item, tracing=False):
        from planebody import PlanebodyError

        api = self.instr.api
        self.instr.tracer.item = item.id
        t0 = self.clock()
        try:
            res = item.run(api)
            reasons = None
        except PlanebodyError as exc:
            res, reasons = None, [exc.code]
        except Exception as exc:
            res, reasons = None, [f"python.{type(exc).__name__}"]
        seconds = self.clock() - t0
        known = False
        if reasons is None:
            try:
                reasons = item.check(res)
                digest = item.digest(res)
                known = bool(reasons) and item.known_defect(res, reasons)
            except Exception as exc:  # a check that cannot read the outputs fails the item
                reasons = [f"check.{type(exc).__name__}"]
                digest = tuple(reasons)
            self.route_rel_dev = max(self.route_rel_dev, res.get("route_rel_dev", 0.0))
        else:
            digest = tuple(reasons)
        if self.digests.setdefault(item.id, digest) != digest:
            self.nondeterministic.add(item.id)
        if tracing:
            self.instr.tracer.counts["classify.mismatch"] += any(r.startswith("classify.") for r in reasons)
        self.records.append((item.id, seconds, reasons, known))
        return seconds

    def failed(self):
        """Items that failed a check, known defects aside."""
        return sum(1 for _, _, r, known in self.records if r and not known)

    def known_defects(self):
        return sum(1 for *_, known in self.records if known)

    def warm_up(self):
        for item in self.workload.warmup:
            self.run_item(item)
        self.records.clear()

    def timed(self, seconds):
        """Closed loop over the pool; stops after the cycle that crosses the limit.

        Returns the item times of each cycle.
        """
        start = self.clock()
        while self.clock() - start < seconds:
            self.cycle(False)
        k = len(self.workload.pool)
        times = [s for _, s, *_ in self.records]
        return [times[i:i + k] for i in range(0, len(times), k)]

    def cycle(self, tracing):
        return sum(self.run_item(item, tracing) for item in self.workload.pool)

    def traced(self, seconds):
        """Alternate untraced and traced cycles; returns (plain, traced) cycle times."""
        plain, traced = [], []
        start = self.clock()
        while True:
            plain.append(self.cycle(False))
            self.instr.install()
            try:
                traced.append(self.cycle(True))
            finally:
                self.instr.remove()
            if self.clock() - start + plain[-1] + traced[-1] > seconds:
                return plain, traced


def _result(runner, metrics):
    return {
        "correct": not runner.nondeterministic,
        "attempted": len(runner.records),
        "failed": runner.failed(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _failure_report(runner):
    """Failures and known defects, each by reason and by item."""
    reasons = {False: collections.Counter(), True: collections.Counter()}
    items = {False: {}, True: {}}
    for item_id, _, rs, known in runner.records:
        reasons[known].update(rs)
        if rs:
            items[known][item_id] = rs
    return {
        "by_reason": dict(sorted(reasons[False].items())),
        "items": dict(sorted(items[False].items())),
        "known_defect_by_reason": dict(sorted(reasons[True].items())),
        "known_defect_items": dict(sorted(items[True].items())),
        "nondeterministic": sorted(runner.nondeterministic),
    }


def run_workload(args) -> int:
    planebody = _import_package()
    import numpy as np

    import tracing
    import workloads

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "planebody": planebody.__version__,
        "machine": platform.machine(),
    }
    print(json.dumps({"env": env}), flush=True)

    setup_s = measure_setup()
    work_dir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(work_dir), args.tiny)
        tracer = tracing.Tracer()
        runner = Runner(workload, tracing.Instrumentation(tracer))
        runner.warm_up()
        if args.trace:
            plain, traced = runner.traced(args.seconds)
            metrics = tracing.layer_metrics(tracer, len(traced))
            metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1.0, "ratio")
            spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(str(spans))
            print(json.dumps({"trace": {"cycles": len(traced), "spans": len(tracer.spans), "file": str(spans.relative_to(ROOT))}}))
        else:
            cycles = runner.timed(args.seconds)
            times = [t for c in cycles for t in c]
            tail_s, tail_pct = tail(cycles)
            metrics = {
                "items_per_s": (len(workload.pool) / statistics.median(sum(c) for c in cycles), "1/s"),
                # each item's median across cycles, then the median item: the pool
                # mixes item kinds, and the plain median fell on either side of
                # the boundary between two kinds from run to run
                "item_p50_ms": (1e3 * statistics.median(statistics.median(per_item) for per_item in zip(*cycles)), "ms"),
                "item_tail_ms": (1e3 * tail_s, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "setup_s": (setup_s, "s"),
            }
            summary = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            summary["failed_frac"] = {"value": runner.failed() / len(times), "unit": "ratio"}
            summary["known_defect_frac"] = {"value": runner.known_defects() / len(times), "unit": "ratio"}
            if args.workload == "demo-pipeline":
                summary["route_rel_dev"] = {"value": runner.route_rel_dev, "unit": "ratio"}
            summary["item_tail_ms"]["percentile"] = tail_pct
            summary["item_tail_ms"]["samples"] = len(times)
            print(json.dumps({"end_to_end": summary}))
        print(json.dumps({"failures": _failure_report(runner)}))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(_result(runner, metrics)))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        status = status or proc.returncode
        print(f"== {name} (exit {proc.returncode})")
        recs = [json.loads(line) for line in proc.stdout.splitlines()]
        shown = next((r["end_to_end"] for r in recs if "end_to_end" in r), recs[-1]["metrics"] if recs else {})
        for metric, m in shown.items():
            extra = {k: v for k, v in m.items() if k not in ("value", "unit")}
            print(f"  {metric:30s} {m['value']:.6g} {m['unit']}" + (f"  {extra}" if extra else ""))
        for r in recs:
            for key, label in (("by_reason", "failures"), ("known_defect_by_reason", "known defects")):
                if r.get("failures", {}).get(key):
                    print(f"  {label}: {r['failures'][key]}")
        if proc.returncode:
            sys.stderr.write(proc.stderr)
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
