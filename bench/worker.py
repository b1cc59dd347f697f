"""In-process workload process of the nh3econ benchmark.

Started by run.py, never by hand. It imports nh3econ, loads and verifies
the bundled dataset, builds the workload's inputs and warms up (set-up),
then runs whole cycles of ops until the time is up, timing each op alone
and checking its output outside the timed region. The result, as JSON,
goes to the file named by --out.

    worker.py --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR --out FILE
    worker.py --setup-only ...   # stop after set-up
    worker.py --census ...       # three traced default reports, no timing loop

With --trace 1 every op runs twice, untraced and then traced, so the
tracing overhead is measured on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import time
from array import array
from pathlib import Path

import workloads as wl
from tracer import Tracer

class ReportWarm:
    """report_warm: one in-process `report` per op."""

    def __init__(self, mods, refs, tmp: Path):
        self.cli = mods["cli"]
        self.refs = refs
        self.tmp = tmp
        self.pool_size = 0

    def prepare(self, op, index):
        _, fmt, override = op
        out = self.tmp / f"r{index}"
        argv = wl.report_argv(fmt, override, out)
        return lambda: self.cli.run(argv), out

    def check(self, op, result, out):
        _, fmt, override = op
        try:
            if result != 0:
                return f"report {fmt}/{override}: exit {result}"
            return wl.check_report_tree(self.refs, fmt, override, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)


class SweepCarrier:
    """sweep_carrier: one sensitivity draw from the fixed pool per op."""

    def __init__(self, mods, refs, tmp: Path):
        self.carriers = mods["carriers"]
        self.pool = wl.carrier_pool(mods["data_io"])
        self.refs = refs["carrier_pool"]
        self.input_ok = [wl.digest_json(entry) == ref["input_sha256"]
                         for entry, ref in zip(self.pool, self.refs)]
        self.pool_size = len(self.pool)

    def prepare(self, op, index):
        volume, params = self.pool[op[1]]
        return lambda: wl.carrier_op(self.carriers, volume, params), None

    def check(self, op, result, _):
        if not self.input_ok[op[1]]:
            return f"carrier draw {op[1]}: input differs from the recorded pool"
        problem = wl.check_carrier(self.refs[op[1]], wl.carrier_values(result))
        return problem and f"carrier draw {op[1]}: {problem}"


class SweepDea:
    """sweep_dea: one region set from the fixed pool scored per op."""

    def __init__(self, mods, refs, tmp: Path):
        self.gtfp = mods["gtfp"]
        self.lp = mods["lp"]
        rows = wl.dea_pool(mods["data_io"])
        self.refs = refs["dea_pool"]
        self.input_ok = [wl.digest_json(entry) == ref["input_sha256"]
                         for entry, ref in zip(rows, self.refs)]
        self.pool = [[self.gtfp.RegionRecord(**row) for row in entry] for entry in rows]
        self.pool_size = len(self.pool)

    def prepare(self, op, index):
        records = self.pool[op[1]]
        return lambda: self.gtfp.gtfp_scores(records), None

    def check(self, op, result, _):
        if not self.input_ok[op[1]]:
            return f"region set {op[1]}: input differs from the recorded pool"
        records = self.pool[op[1]]
        residual = max(self.lp.solve(self.gtfp.build_dea_lp(records, i)).residual
                       for i in range(len(records)))
        problem = wl.check_dea(self.refs[op[1]], wl.dea_values(result), residual)
        return problem and f"region set {op[1]}: {problem}"


WORKLOAD_CLASSES = {"report_warm": ReportWarm, "sweep_carrier": SweepCarrier,
                    "sweep_dea": SweepDea}


def execute(workload, op, index, tracer=None):
    """Run one op, timing only the call into the program. Returns
    (elapsed ns, failure message or None).

    `prepare` gives a function that looks the program's entry point up on
    its module when called, so that it reaches the tracer's wrapper."""
    call, out = workload.prepare(op, index)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter_ns()
    try:
        result, raised = call(), None
    except (Exception, SystemExit) as exc:
        result, raised = None, exc
    elapsed = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.uninstall()
        tracer.end_op(repr(op))
    if raised is not None:
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        return elapsed, f"{op!r} raised {type(raised).__name__}: {raised}"
    return elapsed, workload.check(op, result, out)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--census", action="store_true")
    args = parser.parse_args()

    # ---- set-up: import, load and verify the dataset, inputs, warm-up
    from nh3econ import carriers, cli, cofiring, data_io, gtfp, lp, scenarios
    mods = {"cli": cli, "data_io": data_io, "lp": lp, "gtfp": gtfp,
            "carriers": carriers, "cofiring": cofiring, "scenarios": scenarios}
    data_io.load_manifest()
    refs = wl.load_refs()
    workload = WORKLOAD_CLASSES[args.workload](mods, refs, args.tmp)
    rng = random.Random(args.seed)
    failures = []
    attempted = 0
    for index, op in enumerate(wl.warmup_ops(args.workload)):
        attempted += 1
        _, problem = execute(workload, op, f"w{index}")
        if problem:
            failures.append(f"warm-up: {problem}")
    ready_ns = time.monotonic_ns()

    result = {"ready_ns": ready_ns, "numpy": _numpy_version()}
    untraced, traced = {}, {}     # op key -> latencies in ns
    tracer = Tracer(mods) if args.trace or args.census else None
    if args.census:
        for index, fmt in enumerate(("csv", "json", "csv")):
            attempted += 1
            op = ("report", fmt, None)
            ns, problem = execute(workload, op, f"c{index}", tracer)
            traced.setdefault(wl.op_key(op), array("q")).append(ns)
            if problem:
                failures.append(problem)
    elif not args.setup_only:
        deadline = time.perf_counter_ns() + int(args.seconds * 1e9)
        index = 0
        while True:
            for op in wl.cycle(args.workload, rng, workload.pool_size):
                runs = ((untraced, None), (traced, tracer)) if tracer else ((untraced, None),)
                for samples, active in runs:
                    attempted += 1
                    ns, problem = execute(workload, op, index, active)
                    index += 1
                    samples.setdefault(wl.op_key(op), array("q")).append(ns)
                    if problem:
                        failures.append(problem)
            if time.perf_counter_ns() >= deadline:
                break
    result.update(attempted=attempted, failures=failures,
                  untraced=wl.summarize(untraced), traced=wl.summarize(traced))
    if tracer is not None:
        result.update(layers=tracer.metrics(), self_time=tracer.self_time_table(),
                      spans=tracer.raw)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


def _numpy_version() -> str:
    numpy = sys.modules.get("numpy")
    return getattr(numpy, "__version__", "not imported")


if __name__ == "__main__":
    sys.exit(main())
