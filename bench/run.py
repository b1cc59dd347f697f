"""nh3econ benchmark: one command per workload, outputs checked every op.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding src/ and bench/).
Workloads (why each exists is in BENCHMARK.json and bench/README.md):

    cli_cold       a fresh interpreter per command, as a desk user runs it
    report_warm    in-process `report`, the import paid once in set-up
    sweep_carrier  carrier-chain sensitivity draws (carriers only)
    sweep_dea      DEA region sets of 6 to 100 units (lp and gtfp only)

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics instead. Lines
before it give every metric by name with its unit and sample count, and
a JSON record of the run (environment, metrics, failures, spans) is
written under .bench_results/.

The benchmark writes only inside the checkout (.bench_tmp/ while it runs,
.bench_results/ after) and waits for every process it starts.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads as wl

ROOT = wl.BENCH_DIR.parent
COLD_LAUNCHER = wl.BENCH_DIR / "cold.py"
WORKER = wl.BENCH_DIR / "worker.py"

SETUP_REPS = 5          # set-ups measured per run; setup_s is their median
BARE_PROBES = 7         # `python -c pass` starts for interp.bare_ms_p50
OP_TIMEOUT_S = 60       # a cold op that takes longer is killed
WORKER_GRACE_S = 60     # a worker may overrun --seconds by this much

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
)
COLD_PHASES = ("spawn", "import_numpy", "import_nh3econ", "run", "exit")
PER_LAYER = (
    *((f"cold.{kind}.{phase}_ms_p50", "ms") for kind in ("report", "cmd")
      for phase in COLD_PHASES),
    ("interp.bare_ms_p50", "ms"),
    *tracer.LAYER_METRICS,
    ("trace.overhead_pct", "%"),
)
# Metric prefixes each workload's own ops exercise. In a traced run the
# other per-layer metrics come from the census (three traced default
# reports in a fresh process, and a traced cli_cold cycle), so every
# metric is measured on every workload.
OWN_LAYERS = {
    "cli_cold": ("cold.",),
    "report_warm": ("cli.", "data_io.", "lp.", "gtfp.", "carriers.", "cofiring.",
                    "scenarios."),
    "sweep_carrier": ("carriers.",),
    "sweep_dea": ("lp.", "gtfp."),
}

# Environment of every process the benchmark starts: one thread per
# numeric library (the machine has two cores), fixed hashing, the package
# from src/ and the bundled dataset.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
UNSET = ("NH3ECON_DATA", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP",
         "PYTHONWARNINGS", "PYTHONDEVMODE", "PYTHONPROFILEIMPORTTIME",
         "PYTHONOPTIMIZE", "PYTHONMALLOC", "PYTHONINSPECT")


def pinned_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(PINNED, PYTHONPATH=str(ROOT / "src"))
    return env


@dataclass
class Spawned:
    start_ns: int
    end_ns: int
    code: int
    max_rss_bytes: int
    stdout: bytes
    stderr: bytes


def spawn(cmd: list[str], env: dict, tmp: Path, timeout_s: float) -> Spawned:
    """Run a process to completion, stdout and stderr into files; the time
    is from just before the start to just after the exit is reaped."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(start, end, proc.returncode, usage.ru_maxrss * 1024,
                   out_path.read_bytes(), err_path.read_bytes())


# ---------------------------------------------------------------- cli_cold

@dataclass
class ColdOp:
    kind: str               # "report" or "cmd"
    key: str                # workloads.op_key of the op
    ns: int
    problem: str | None
    max_rss_bytes: int
    phases: dict | None     # traced ops: ns per phase in COLD_PHASES


def _split_stderr(stderr: bytes):
    """Program lines, stamps and numpy's cumulative import ns (with the phase
    it was imported in) from a cold op's stderr."""
    lines, stamps = [], {}
    numpy_ns, numpy_phase, phase = 0, None, "import"
    for line in stderr.decode("utf-8", "replace").splitlines():
        if line.startswith("bench-stamp "):
            _, name, ns = line.split()
            stamps[name] = int(ns)
            phase = "run" if name == "imported" else phase
        elif line.startswith("import time:"):
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                numpy_ns, numpy_phase = int(parts[1]) * 1000, phase
        else:
            lines.append(line)
    return lines, stamps, numpy_ns, numpy_phase


def cold_op(op: tuple, traced: bool, refs: dict, env: dict, tmp: Path,
            index) -> ColdOp:
    if op[0] == "report":
        out_dir = tmp / f"cold{index}"
        argv = wl.report_argv(op[1], op[2], out_dir)
    else:
        out_dir = None
        argv = list(wl.COLD_COMMANDS[op[1]])
    prefix = ["-X", "importtime", str(COLD_LAUNCHER), "--stamps"] if traced else [str(COLD_LAUNCHER)]
    run = spawn([sys.executable, *prefix, *argv], env, tmp, OP_TIMEOUT_S)
    lines, stamps, numpy_ns, numpy_phase = _split_stderr(run.stderr)
    if op[0] == "report":
        if run.code != 0 or run.stdout or lines:
            problem = (f"report {op[1]}/{op[2]}: exit {run.code}, "
                       f"{len(run.stdout)} stdout bytes, stderr {lines[:1]}")
        else:
            problem = wl.check_report_tree(refs, op[1], op[2], out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
    else:
        problem = wl.check_command(refs, op[1], run.code, run.stdout, lines)
    phases = None
    if traced and not problem:
        if set(stamps) != {"start", "imported", "ran"}:
            problem = f"{op!r}: missing stamps in traced run"
        else:
            import_ns = stamps["imported"] - stamps["start"]
            run_ns = stamps["ran"] - stamps["imported"]
            phases = {
                "spawn": stamps["start"] - run.start_ns,
                "import_numpy": numpy_ns,
                "import_nh3econ": import_ns - (numpy_ns if numpy_phase == "import" else 0),
                "run": run_ns - (numpy_ns if numpy_phase == "run" else 0),
                "exit": run.end_ns - stamps["ran"],
            }
    return ColdOp("report" if op[0] == "report" else "cmd", wl.op_key(op),
                  run.end_ns - run.start_ns, problem, run.max_rss_bytes, phases)


def cold_phase_metrics(ops: list[ColdOp]) -> dict[str, float]:
    out = {}
    for kind in ("report", "cmd"):
        traced = [op.phases for op in ops if op.kind == kind and op.phases]
        for phase in COLD_PHASES:
            values = [p[phase] for p in traced]
            out[f"cold.{kind}.{phase}_ms_p50"] = statistics.median(values) / 1e6 if values else 0.0
    return out


def run_cli_cold(args, refs, env, tmp) -> dict:
    setup_s, all_ops = [], []
    for _ in range(SETUP_REPS):
        start = time.monotonic_ns()
        all_ops.append(cold_op(("report", "csv", None), False, refs, env, tmp, "w"))
        setup_s.append((time.monotonic_ns() - start) / 1e9)
    setup_failures = [op.problem for op in all_ops if op.problem]
    rng = random.Random(args.seed)
    untraced, traced = [], []
    deadline = time.monotonic_ns() + int(args.seconds * 1e9)
    index = 0
    while True:
        for op in wl.cycle("cli_cold", rng):
            untraced.append(cold_op(op, False, refs, env, tmp, index))
            if args.trace:
                traced.append(cold_op(op, True, refs, env, tmp, index))
            index += 1
        if time.monotonic_ns() >= deadline:
            break
    timed = untraced + traced
    return {
        "setup_s": setup_s,
        "ops": _summary([op for op in untraced if op.kind == "report"]),
        "traced_ops": _summary([op for op in traced if op.kind == "report"]),
        "cmds": _summary([op for op in untraced if op.kind == "cmd"]),
        "all": _summary(untraced),
        "attempted": len(all_ops) + len(timed),
        "failures": setup_failures + [op.problem for op in timed if op.problem],
        "peak_rss_bytes": max(op.max_rss_bytes for op in all_ops + timed),
        "cold_ops": traced,
        "numpy": _installed_version("numpy"),
    }


# ---------------------------------------------------------------- in-process

def run_worker(args, env, tmp: Path, workload: str, *flags: str) -> tuple[Spawned, dict]:
    out = tmp / "worker.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp), "--out", str(out), *flags]
    proc = spawn(cmd, env, tmp, args.seconds + WORKER_GRACE_S)
    if proc.code != 0 or not out.exists():
        raise RuntimeError(f"worker {' '.join(cmd[2:])} exited {proc.code}: "
                           f"{proc.stderr.decode('utf-8', 'replace')[-2000:]}")
    return proc, json.loads(out.read_text(encoding="utf-8"))


def run_in_process(args, env, tmp) -> dict:
    setup_s, attempted, failures = [], 0, []
    for _ in range(SETUP_REPS):
        proc, res = run_worker(args, env, tmp, args.workload, "--setup-only")
        setup_s.append((res["ready_ns"] - proc.start_ns) / 1e9)
        attempted += res["attempted"]
        failures += res["failures"]
    proc, res = run_worker(args, env, tmp, args.workload)
    setup_s.append((res["ready_ns"] - proc.start_ns) / 1e9)
    return {
        "setup_s": setup_s,
        "ops": res["untraced"],
        "traced_ops": res["traced"],
        "all": res["untraced"],
        "attempted": attempted + res["attempted"],
        "failures": failures + res["failures"],
        "peak_rss_bytes": proc.max_rss_bytes,
        "layers": res.get("layers"),
        "self_time": res.get("self_time"),
        "spans": res.get("spans"),
        "numpy": res["numpy"],
    }


# ---------------------------------------------------------------- metrics

def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def op_latencies_ms(summary: dict) -> list[float]:
    """Every op of a workloads.summarize summary, at its key's fastest."""
    return [v["best_ns"] / 1e6 for v in summary.values() for _ in range(v["n"])]


def _summary(ops: list[ColdOp]) -> dict:
    by_key: dict[str, list[int]] = {}
    for op in ops:
        by_key.setdefault(op.key, []).append(op.ns)
    return wl.summarize(by_key)


def end_to_end(run: dict) -> tuple[dict, dict]:
    """End-to-end metric values and their sample counts."""
    ops_ms = op_latencies_ms(run["ops"])
    all_ms = op_latencies_ms(run["all"])
    metrics = {
        "setup_s": statistics.median(run["setup_s"]),
        "ops_per_s": len(all_ms) / (sum(all_ms) / 1e3),
        "op_ms_p50": statistics.median(ops_ms),
        "op_ms_p90": p90(ops_ms),
        "peak_rss_mb": run["peak_rss_bytes"] / 2 ** 20,
    }
    samples = {"setup_s": f"n={len(run['setup_s'])}", "peak_rss_mb": "n=1",
               "ops_per_s": _count(run["all"]), "op_ms_p50": _count(run["ops"]),
               "op_ms_p90": _count(run["ops"], beyond=True)}
    if "cmds" in run:
        cmd_ms = op_latencies_ms(run["cmds"])
        metrics.update(cmd_cold_ms_p50=statistics.median(cmd_ms), cmd_cold_ms_p90=p90(cmd_ms))
        samples.update(cmd_cold_ms_p50=_count(run["cmds"]),
                       cmd_cold_ms_p90=_count(run["cmds"], beyond=True))
    return metrics, samples


def _count(summary: dict, beyond: bool = False) -> str:
    n = sum(v["n"] for v in summary.values())
    text = f"n={n} ops of {len(summary)} distinct"
    return text + (f", {n - int(0.9 * n)} beyond p90" if beyond else "")


def per_layer(args, run, refs, env, tmp) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and the census record."""
    own = OWN_LAYERS[args.workload]
    _, census = run_worker(args, env, tmp, "report_warm", "--census")
    run["attempted"] += census["attempted"]
    run["failures"] += census["failures"]
    cold_ops = run.get("cold_ops")
    if args.workload != "cli_cold":
        cold_ops = [cold_op(op, True, refs, env, tmp, f"census{i}")
                    for i, op in enumerate(wl.cycle("cli_cold", random.Random(args.seed)))]
        run["attempted"] += len(cold_ops)
        run["failures"] += [op.problem for op in cold_ops if op.problem]
    bare = [spawn([sys.executable, "-c", "pass"], env, tmp, OP_TIMEOUT_S)
            for _ in range(BARE_PROBES)]
    metrics = {**cold_phase_metrics(cold_ops),
               "interp.bare_ms_p50": statistics.median(b.end_ns - b.start_ns for b in bare) / 1e6}
    for name, _ in tracer.LAYER_METRICS:
        from_own = run.get("layers") and name.startswith(own)
        metrics[name] = (run["layers"] if from_own else census["layers"])[name]
    untraced = statistics.median(op_latencies_ms(run["ops"]))
    traced = statistics.median(op_latencies_ms(run["traced_ops"]))
    metrics["trace.overhead_pct"] = (traced - untraced) / untraced * 100
    return metrics, {"census": {"self_time": census["self_time"], "spans": census["spans"]}}


# ---------------------------------------------------------------- records

def _installed_version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package's sources and data, to tie results to code."""
    digest = hashlib.sha256()
    package = ROOT / "src" / "nh3econ"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            digest.update(str(path.relative_to(package)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, numpy_version: str) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pinned_env": PINNED,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")
    missing = [str(p.relative_to(ROOT)) for p in
               (ROOT / "src" / "nh3econ" / "cli.py", wl.REFS_PATH) if not p.is_file()]
    if missing:
        print(f"error: run from a checkout of the repository; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    refs = wl.load_refs()
    env = pinned_env()
    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        if args.workload == "cli_cold":
            run = run_cli_cold(args, refs, env, tmp)
        else:
            run = run_in_process(args, env, tmp)
        e2e, samples = end_to_end(run)
        layers, census = per_layer(args, run, refs, env, tmp) if args.trace else ({}, {})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    attempted, failures = run["attempted"], run["failures"]
    env_record = environment(args, run["numpy"])
    print("# env: " + " ".join(f"{k}={v}" for k, v in env_record.items() if k != "pinned_env"))
    units = dict(END_TO_END, cmd_cold_ms_p50="ms", cmd_cold_ms_p90="ms")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {units[name]} ({samples[name]})")
    print(f"fail_ratio = {len(failures) / attempted:.6g} fraction ({len(failures)} of {attempted})")
    for name, unit in PER_LAYER if args.trace else ():
        print(f"{name} = {layers[name]:.6g} {unit}")
    for problem in failures[:10]:
        print(f"# failed: {problem}")

    reported = layers if args.trace else e2e
    metric_units = dict(PER_LAYER) if args.trace else dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": reported[name], "unit": unit}
                    for name, unit in metric_units.items()},
    }
    record = {"env": env_record, "result": result, "end_to_end": e2e, "samples": samples,
              "per_layer": layers, "failures": failures,
              "self_time": run.get("self_time"), "spans": run.get("spans"), **census}
    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
