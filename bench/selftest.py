"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

(a) corrupted output is counted as a failed op, (b) the same seed gives
the same inputs, (c) the metric names printed match BENCHMARK.json, and
(d) a traced default report reproduces the exact per-report counts.
Takes about a minute: (a) and (c) run the benchmark for real.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest

import run
import workloads as wl
from tracer import Tracer

sys.path.insert(0, str(run.ROOT / "src"))

from nh3econ import carriers, cli, cofiring, data_io, gtfp, lp, scenarios  # noqa: E402

MODULES = {"cli": cli, "data_io": data_io, "lp": lp, "gtfp": gtfp,
           "carriers": carriers, "cofiring": cofiring, "scenarios": scenarios}

# Counts per default report at the commit that defined the benchmark.
DEFAULT_REPORT_COUNTS = {
    "data_io.load_manifest.calls": 9,
    "data_io.manifest_files_hashed": 40,
    "data_io.manifest_useful_ratio": 0.2,
    "data_io.load_bundled_params.calls": 4,
    "data_io.params_useful_ratio": 0.75,
    "carriers.levelized_cost.calls": 201,
    "scenarios.demand_breakdown_mt.calls": 20,
    "scenarios.demand_useful_ratio": 0.25,
    "lp.solve.calls": 6,
    "lp.solve.iterations": 38,
}

# Source edits that change outputs slightly: (file, old text, new text).
MUTATIONS = (
    ("cli.py", 'f"{float(value):.4f}"', 'f"{float(value):.5f}"'),
    ("carriers.py", "return disc_exp / disc_energy", "return disc_exp / disc_energy * 1.000001"),
    ("gtfp.py", "gtfp=theta,", "gtfp=theta * 0.999999,"),
)


def run_bench(root, workload, trace, seconds="1"):
    out = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=root, timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {out.returncode}: {out.stderr[-2000:]}")
    return out.stdout.splitlines(), json.loads(out.stdout.splitlines()[-1])


class Tmp(unittest.TestCase):
    def setUp(self):
        self.tmp = run.ROOT / ".bench_tmp" / f"selftest-{self.id().rsplit('.', 1)[-1]}"
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


class CorruptedOutputFails(Tmp):
    """(a) Every check rejects a corrupted output; a mutated program fails
    every op of every workload."""

    def setUp(self):
        super().setUp()
        self.refs = wl.load_refs()

    def test_report_tree(self):
        out = self.tmp / "report"
        self.assertEqual(cli.run(wl.report_argv("csv", None, out)), 0)
        self.assertIsNone(wl.check_report_tree(self.refs, "csv", None, out))
        path = out / "cofiring_ladder.csv"
        path.write_bytes(path.read_bytes().replace(b"838", b"839", 1))
        self.assertIsNotNone(wl.check_report_tree(self.refs, "csv", None, out))
        path.unlink()
        self.assertIsNotNone(wl.check_report_tree(self.refs, "csv", None, out))

    def test_command(self):
        ref = self.refs["commands"]["bad_rate"]
        self.assertIsNone(wl.check_command(self.refs, "bad_rate", 2, b"", ["error: x"]))
        self.assertIsNotNone(wl.check_command(self.refs, "bad_rate", 1, b"", ["error: x"]))
        self.assertIsNotNone(wl.check_command(self.refs, "bad_rate", 2, b"", ["a", "b"]))
        self.assertIsNotNone(wl.check_command(self.refs, "bad_rate", 2, b"",
                                              ["Traceback (most recent call last):"]))
        self.assertIsNotNone(wl.check_command(self.refs, "bad_rate", 2, b"x", ["error: x"]))
        self.assertEqual(ref["exit"], 2)
        self.assertIsNotNone(wl.check_command(self.refs, "gtfp", 0, b"changed", []))

    def test_carrier(self):
        ref = self.refs["carrier_pool"][0]
        values = wl.carrier_values(wl.carrier_op(carriers, *wl.carrier_pool(data_io)[0]))
        self.assertIsNone(wl.check_carrier(ref, values))
        nudged = [row[:] for row in values]
        nudged[3][0] *= 1 + 1e-12            # last-bit noise is tolerated
        nudged[3][-1] = sum(nudged[3][:-1])
        self.assertIsNone(wl.check_carrier(ref, nudged))
        nudged[3][0] *= 1 + 1e-6
        nudged[3][-1] = sum(nudged[3][:-1])
        self.assertIsNotNone(wl.check_carrier(ref, nudged))
        broken_sum = [row[:] for row in values]
        broken_sum[0][-1] *= 1.01
        self.assertIsNotNone(wl.check_carrier(ref, broken_sum))

    def test_dea(self):
        ref = self.refs["dea_pool"][0]
        records = [gtfp.RegionRecord(**row) for row in wl.dea_pool(data_io)[0]]
        values = wl.dea_values(gtfp.gtfp_scores(records))
        self.assertIsNone(wl.check_dea(ref, values, 0.0))
        self.assertIsNotNone(wl.check_dea(ref, values, 1e-6))
        nudged = {k: list(v) for k, v in values.items()}
        nudged["gtfp"][1] *= 1 - 1e-6
        self.assertIsNotNone(wl.check_dea(ref, nudged, 0.0))
        nudged["gtfp"][1] = 1.01
        self.assertIsNotNone(wl.check_dea(ref, nudged, 0.0))

    def test_mutated_program_fails_every_workload(self):
        copy = self.tmp / "checkout"
        shutil.copytree(run.ROOT / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(wl.BENCH_DIR, copy / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        for name, old, new in MUTATIONS:
            path = copy / "src" / "nh3econ" / name
            text = path.read_text()
            self.assertIn(old, text)
            path.write_text(text.replace(old, new))
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                _, result = run_bench(copy, workload, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                if workload != "cli_cold":    # cli_cold's bad-input op still passes
                    self.assertEqual(result["failed"], result["attempted"])


class SeedDeterminesInputs(unittest.TestCase):
    """(b) The same seed gives the same op sequence; the pools are fixed and
    match the ones the references were recorded from."""

    def test_sequences(self):
        sizes = {"cli_cold": 0, "report_warm": 0,
                 "sweep_carrier": wl.CARRIER_POOL_SIZE,
                 "sweep_dea": len(wl.DEA_SET_SIZES) * wl.DEA_SETS_PER_SIZE}
        for workload, size in sizes.items():
            def ops(seed):
                rng = random.Random(seed)
                return [wl.cycle(workload, rng, size) for _ in range(3)]
            self.assertEqual(ops(11), ops(11), workload)
            self.assertNotEqual(ops(11), ops(12), workload)

    def test_pools(self):
        refs = wl.load_refs()
        for pool, recorded in ((wl.carrier_pool(data_io), refs["carrier_pool"]),
                               (wl.dea_pool(data_io), refs["dea_pool"])):
            self.assertEqual([wl.digest_json(entry) for entry in pool],
                             [r["input_sha256"] for r in recorded])


class MetricNamesMatchBenchmarkJson(unittest.TestCase):
    """(c) Every workload prints exactly the metrics BENCHMARK.json names,
    with the same units, in its result line and in its readable lines."""

    def test_names(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(wl.WORKLOADS))
        for trace, key, declared in ((0, "end_to_end", run.END_TO_END),
                                     (1, "per_layer", run.PER_LAYER)):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(dict(declared), expected)
            for workload in wl.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    lines, result = run_bench(run.ROOT, workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     expected)
                    printed = {line.split(" = ")[0] for line in lines if " = " in line}
                    self.assertLessEqual(set(expected), printed)


class TracedReportCounts(Tmp):
    """(d) A traced default report reproduces the counts named in advance."""

    def test_counts(self):
        tracer = Tracer(MODULES)
        for fmt in ("csv", "json"):
            tracer.install()
            try:
                code = cli.run(wl.report_argv(fmt, None, self.tmp / fmt))
            finally:
                tracer.uninstall()
            tracer.end_op(fmt)
            self.assertEqual(code, 0)
        metrics = tracer.metrics()
        for name, expected in DEFAULT_REPORT_COUNTS.items():
            self.assertEqual(metrics[name], expected, name)
        self.assertLessEqual(metrics["lp.solve.max_residual"], wl.MAX_RESIDUAL)
        self.assertFalse(hasattr(cli.run, "__wrapped__"))    # originals restored


if __name__ == "__main__":
    unittest.main(verbosity=2)
