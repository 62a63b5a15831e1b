"""The equiconf benchmark: one seeded workload, timed, checked and reported.

    python3 bench/run.py --workload pages --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from `src/`. One
process, one thread, closed loop: each operation starts when the previous
one ends. Whole passes over the workload's operations repeat until the
timed time reaches `--seconds` and at least ten passes ran. An
operation's latency is its fastest execution in the run.

With `--trace 0` the last stdout line is a JSON object whose metrics are
the end-to-end ones (see BENCHMARK.json). With `--trace 1` the same loop runs
first, then one more pass with layer tracing installed; the metrics are then
the per-layer ones of that pass, and the tracing overhead is its time minus
the mean untraced pass time. Each run writes a record
(input sizes, machine note, tracing overhead, failures) to
`bench/out/<workload>-seed<seed>-trace<t>.json`; traced runs also write
their spans next to it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MODULES = ("errors", "exactalg", "confring", "charclasses", "equiodd", "equieven",
           "specseq", "oracles", "verify", "cli")
SETUP_REPEATS = (3, 25)  # fewest and most set-ups in a run
SETUP_SECONDS = 2.0      # set up again until this much time is spent
MIN_PASSES = 10
TRACE_PASSES = 1  # per-layer figures are per pass; one traced pass gives them

END_TO_END = (  # (name, unit)
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_rate", "ratio"),
)


def fresh_import():
    """Import every equiconf module anew, as a first import would."""
    for name in [k for k in sys.modules if k == "equiconf" or k.startswith("equiconf.")]:
        del sys.modules[name]
    return {short: importlib.import_module(f"equiconf.{short}") for short in MODULES}


def setup(workload, seed, workdir, tiny):
    """Median time of several fresh set-ups, and the last one.

    Set-up repeats until SETUP_SECONDS are spent, within SETUP_REPEATS, so
    that a cheap set-up is measured often enough for a steady median.
    """
    from workloads import BUILDERS

    fewest, most = SETUP_REPEATS
    times = []
    while len(times) < fewest or (len(times) < most and sum(times) < SETUP_SECONDS):
        modules = wl = None
        gc.collect()  # the previous set-up's memory is reused, not added to the peak
        t0 = time.perf_counter()
        modules = fresh_import()
        wl = BUILDERS[workload](modules, seed, workdir, tiny)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), modules, wl


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class Loop:
    """Closed-loop passes over the workload's operations."""

    def __init__(self, wl):
        self.wl = wl
        self.best = [float("inf")] * len(wl.ops)  # op index -> fastest execution
        self.timed_s = 0.0     # sum of all execution times
        self.first = {}        # op index -> output of the first pass, until checked
        self.errors = {}       # op index -> why its output failed the check
        self.summaries = {}    # op index -> summary of that output
        self.failures = {}     # op index -> first reason it failed
        self.failed = 0
        self.attempted = 0
        self.passes = 0

    def run_pass(self, tracer=None):
        clock = time.perf_counter
        record_first = self.passes == 0 and tracer is None
        for i, op in enumerate(self.wl.ops):
            if tracer is not None:
                tracer.current_op = i
            self.attempted += 1
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:  # noqa: BLE001 - an operation that raised failed
                self._timed(i, clock() - t0)
                self.failed += 1
                self.failures.setdefault(i, f"{op.label}: raised {exc!r}")
                continue
            self._timed(i, clock() - t0)
            if tracer is not None:
                continue
            summary = op.summary(out)
            if record_first:
                self.first[i] = out
                self.summaries[i] = summary
            elif summary != self.summaries.get(i):
                self.failed += 1
                self.failures.setdefault(i, f"{op.label}: output changed between passes")
        self.passes += 1

    def _timed(self, i, seconds):
        """Keep only the fastest time and the total, so memory stays flat.

        The machine is shared: contention from elsewhere comes and goes in
        waves of seconds that slow every operation caught in them. The
        fastest of an operation's executions (at least MIN_PASSES of them,
        spread over the run) is its cost outside such waves, and it repeats
        from run to run.
        """
        self.timed_s += seconds
        if seconds < self.best[i]:
            self.best[i] = seconds

    def run_for(self, seconds):
        """Whole passes until `seconds` of timed time; outputs checked after the first.

        The first pass's outputs are checked and then dropped, so that the
        heap the garbage collector walks does not grow with them.
        """
        self.run_pass()
        self.errors = self.wl.check(self.first)
        self.first = {}
        while self.passes < MIN_PASSES or self.timed_s < seconds:
            self.run_pass()


def run_trace(modules, wl, passes):
    from tracing import LAYERS, Tracer

    traced = Loop(wl)
    tracer = Tracer()
    gc.collect()
    tracer.install({name: modules[name] for name in LAYERS})
    try:
        for _ in range(passes):
            traced.run_pass(tracer)
    finally:
        tracer.uninstall()
    return traced, tracer


def machine_note(load_start):
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "loadavg_start": list(load_start), "loadavg_end": list(os.getloadavg())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pages", "dense", "models", "rewrite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "equiconf" / "__init__.py").is_file():
        print(f"error: no equiconf package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    load_start = os.getloadavg()
    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE)
    try:
        return measure(args, workdir, load_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir, load_start):
    setup_s, modules, wl = setup(args.workload, args.seed, workdir, args.tiny)
    # the inputs live for the whole run: keep them out of the collector's walks
    gc.collect()
    gc.freeze()
    loop = Loop(wl)
    loop.run_for(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed_s = loop.timed_s
    best = sorted(loop.best)
    ops_per_s = (len(wl.ops) - len(loop.failures)) / sum(best)

    trace_record = None
    per_layer = None
    if args.trace:
        traced, tracer = run_trace(modules, wl, TRACE_PASSES)
        traced_s = traced.timed_s
        untraced_s = timed_s * TRACE_PASSES / loop.passes
        per_layer = tracer.summary(TRACE_PASSES)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.bin"
        tracer.write(spans_path)
        loop.attempted += traced.attempted
        loop.failed += traced.failed
        for i, why in traced.failures.items():
            loop.failures.setdefault(i, why)
        rref_s = per_layer["exactalg.rref.self_s"] * TRACE_PASSES
        trace_record = {"passes": TRACE_PASSES, "untraced_s": untraced_s,
                        "traced_s": traced_s, "overhead_s": traced_s - untraced_s,
                        "overhead_ratio": traced_s / untraced_s - 1,
                        "spans": tracer.span_count(), "spans_file": str(spans_path.relative_to(ROOT)),
                        "rref_share": rref_s / traced_s if traced_s else 0.0,
                        "rref_shapes": dict(sorted(tracer.rref_shapes.items()))}

    errors = loop.errors
    extra_failures = []
    for extra in wl.extra_checks:
        why = extra()
        if why:
            extra_failures.append(why)
    execs_per_op = loop.passes + (TRACE_PASSES if args.trace else 0)
    failed = loop.failed + len(extra_failures) + sum(
        execs_per_op for i in errors if i not in loop.failures)
    attempted = loop.attempted + len(wl.extra_checks)
    reasons = [f"{wl.ops[i].label}: {why}" for i, why in sorted(errors.items())]
    reasons += list(loop.failures.values()) + extra_failures

    e2e = {"ops_per_s": ops_per_s,
           "op_s.p50": percentile(best, 50),
           "op_s.p90": percentile(best, 90),
           "setup_s": setup_s,
           "peak_rss_mb": peak_rss_mb,
           "pass_rate": 1 - failed / attempted}
    units = dict(END_TO_END)
    if per_layer is None:
        metrics = {name: {"value": e2e[name], "unit": units[name]} for name, _ in END_TO_END}
    else:
        from tracing import PER_LAYER_METRICS
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _ in PER_LAYER_METRICS}

    run_record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "passes": loop.passes,
                  "ops_per_pass": len(wl.ops), "latency_samples": len(best),
                  "executions": loop.passes * len(wl.ops),
                  "timed_s": timed_s, "end_to_end": e2e, "per_layer": per_layer,
                  "input_sizes": wl.sizes, "tracing": trace_record,
                  "attempted": attempted, "failed": failed, "failures": reasons[:50],
                  "machine": machine_note(load_start)}
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(run_record, fh, indent=1, default=str)

    print(f"{args.workload}: {len(best)} operations timed {loop.passes} times each "
          f"({timed_s:.3f} s timed); latencies are each operation's fastest time; "
          f"record {record_path.relative_to(ROOT)}")
    for name, unit in END_TO_END:
        print(f"  {name} = {e2e[name]:.6g} {unit}")
    if trace_record:
        print(f"  tracing overhead = {trace_record['overhead_s']:.3f} s "
              f"({100 * trace_record['overhead_ratio']:.0f} %), {trace_record['spans']} spans")
    for why in reasons[:10]:
        print(f"  FAILED {why}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
