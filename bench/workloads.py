"""Workloads of the nh3econ benchmark: seeded op sequences, fixed input
pools, the op bodies, and the checks against the recorded references.

Every workload is a closed loop with one client: an op starts only when
the previous one has finished. A run is a whole number of cycles; each
cycle is a seeded arrangement of one fixed multiset of ops, so runs with
different seeds do the same work in a different order, and no op is left
half-counted when the clock runs out.

This module imports nothing from nh3econ at module level: the cli_cold
orchestrator uses the sequences and the checks without importing the
package under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFS_PATH = BENCH_DIR / "refs.json"
OVERRIDE_DIR = BENCH_DIR / "overrides"
OVERRIDES = ("cheap_power", "high_coal", "fast_buildout")

WORKLOADS = ("cli_cold", "report_warm", "sweep_carrier", "sweep_dea")

# cli_cold: single-analysis commands run between cold reports. The last
# one is invalid input and must exit 2 with a one-line message.
COLD_COMMANDS = {
    "gtfp": ("gtfp",),
    "carrier_delivery": ("carrier", "delivery"),
    "carrier_storage": ("carrier", "storage"),
    "cofire_all": ("cofire", "--all"),
    "scenario_balance": ("scenario", "balance"),
    "bad_rate": ("cofire", "--rate", "0.07"),
}

# sweep_carrier: the grid each draw is costed over.
CARRIER_VOLUMES_KT = (10.0, 30.0, 50.0, 100.0)
CARRIER_CHAINS = ("NH3_with_crack", "NH3_direct", "LH2", "pipeline")
CARRIER_DISTANCES_KM = (500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
STORAGE_CHAINS = ("NH3_with_crack", "LH2")
STORAGE_DAYS = (30.0, 150.0, 365.0, 1000.0, 2000.0)
CARRIER_POOL_SIZE = 32
CARRIER_SPREAD = 0.20

# sweep_dea: region-set sizes from the paper's six regions to roughly
# provincial scale; four sets per size. Set 0 is the bundled table.
DEA_SET_SIZES = (6, 12, 25, 50, 100)
DEA_SETS_PER_SIZE = 4
DEA_SCALE_RANGE = (0.6, 1.6)
REGION_FIELDS = ("energy_mtce", "labour_m", "capital_busd", "co2_mt", "gdp_busd")

REL_TOL = 1e-9          # reference comparison for floating results
SCORE_SLACK = 1e-9      # a DEA score may exceed 1 by this much
MAX_RESIDUAL = 1e-7     # largest constraint violation an LP may leave


# ---------------------------------------------------------------- sequences

def cycle(workload: str, rng, pool_size: int = 0) -> list[tuple]:
    """One cycle of ops for a workload, arranged by `rng`.

    Ops are tuples: ("report", fmt, override_or_None), ("cmd", name),
    ("carrier", pool_index) or ("dea", pool_index).
    """
    if workload == "cli_cold":
        names = sorted(COLD_COMMANDS)
        rng.shuffle(names)
        ops = []
        for i, name in enumerate(names):
            ops.append(("report", "csv" if i % 2 == 0 else "json", None))
            ops.append(("cmd", name))
        return ops
    if workload == "report_warm":
        overrides = [None] * (3 * len(OVERRIDES)) + list(OVERRIDES)   # a quarter override
        rng.shuffle(overrides)
        return [("report", "csv" if i % 2 == 0 else "json", name)
                for i, name in enumerate(overrides)]
    if workload in ("sweep_carrier", "sweep_dea"):
        kind = "carrier" if workload == "sweep_carrier" else "dea"
        order = list(range(pool_size))
        rng.shuffle(order)
        return [(kind, index) for index in order]
    raise ValueError(f"unknown workload {workload!r}")


def op_key(op: tuple) -> str:
    """Ops with the same key do the same work; latency is summarized per key."""
    return "/".join(str(part) for part in op)


def summarize(by_key: dict) -> dict:
    """{key: [ns, ...]} to {key: {"n": count, "best_ns": fastest}}.

    Each op's latency is taken as the fastest of the ops with its key in
    the run (best of n, as timeit reports). The shared 2-core VM this was
    tuned on runs the same op at 11 ms in short quiet windows and at 18 to
    24 ms in spells of seconds to minutes, and the share of a run spent in
    spells differs from run to run; a median or a low percentile follows
    that share, the fastest repeat does not. Every key recurs in every
    cycle, hundreds of times in a run, so percentiles over the per-key
    latencies tell the workload's inputs apart rather than the host's
    load. Keeping only the summary also keeps the workload process's
    memory independent of how many ops it ran."""
    return {key: {"n": len(values), "best_ns": min(values)}
            for key, values in by_key.items()}


def warmup_ops(workload: str) -> list[tuple]:
    """The untimed ops of set-up: the same for every seed, so that set-up
    time does not depend on it."""
    if workload == "report_warm":
        return [("report", "csv", None), ("report", "json", None),
                ("report", "csv", OVERRIDES[0])]
    kind = "carrier" if workload == "sweep_carrier" else "dea"
    return [(kind, index) for index in range(3)]


def report_argv(fmt: str, override: str | None, output_dir: Path) -> list[str]:
    argv = ["report", "--output", str(output_dir), "--format", fmt]
    if override is not None:
        argv += ["--params", str(OVERRIDE_DIR / f"{override}.csv")]
    return argv


# ---------------------------------------------------------------- pools

def _unit_hash(*parts) -> float:
    """A number in [0, 1) fixed by `parts`, independent of Python's RNG and
    of which other keys the dataset holds."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def digest_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def carrier_pool(data_io) -> list[tuple[float, dict[str, float]]]:
    """Sensitivity draws: every bundled carrier parameter scaled by a factor
    in [1 - spread, 1 + spread]; the lifetime stays whole years and a
    fraction stays at most 1. Each draw is (volume in kt/yr, parameters)."""
    base = data_io.load_bundled_params("carriers")
    units = data_io.CARRIER_SCHEMA
    pool = []
    for i in range(CARRIER_POOL_SIZE):
        params = {}
        for key in sorted(base):
            factor = 1.0 - CARRIER_SPREAD + 2.0 * CARRIER_SPREAD * _unit_hash("carrier", i, key)
            value = base[key] * factor
            if key == "lifetime_years":
                value = float(round(value))
            elif units.get(key) == "fraction":
                value = min(value, 1.0)
            params[key] = float(f"{value:.6g}")
        pool.append((CARRIER_VOLUMES_KT[i % len(CARRIER_VOLUMES_KT)], params))
    return pool


def dea_pool(data_io) -> list[list[dict]]:
    """Region sets as rows of RegionRecord fields: set 0 is the bundled
    table; the others scale every field of the bundled regions, cycled, by
    a factor in DEA_SCALE_RANGE."""
    base_rows = [{"name": r.name, **{f: getattr(r, f) for f in REGION_FIELDS}}
                 for r in data_io.load_regions(data_io.bundled_regions_path())]
    lo, hi = DEA_SCALE_RANGE
    pool = []
    for s in range(len(DEA_SET_SIZES) * DEA_SETS_PER_SIZE):
        size = DEA_SET_SIZES[s // DEA_SETS_PER_SIZE]
        if s == 0:
            pool.append([dict(row) for row in base_rows])
            continue
        rows = []
        for k in range(size):
            src = base_rows[k % len(base_rows)]
            row = {"name": f"S{s:02d}R{k:03d}"}
            for field in REGION_FIELDS:
                factor = lo + (hi - lo) * _unit_hash("dea", s, k, field)
                row[field] = round(src[field] * factor, 2)
            rows.append(row)
        pool.append(rows)
    return pool


# ---------------------------------------------------------------- op bodies

def carrier_op(carriers, volume: float, params) -> list:
    """One sensitivity draw: build the chains, cost delivery over the
    distance grid and storage over the duration grid."""
    chains = carriers.builtin_chains(params, volume)
    out = []
    for name in CARRIER_CHAINS:
        for distance in CARRIER_DISTANCES_KM:
            query = carriers.default_query(params, volume, distance)
            out.append(carriers.delivery_cost(chains[name], query))
    for name in STORAGE_CHAINS:
        for days in STORAGE_DAYS:
            query = carriers.default_query(params, volume, 0.0, days)
            out.append(carriers.storage_cost(chains[name], query))
    return out


def carrier_values(breakdowns) -> list[list[float]]:
    """Stage costs then the total, per breakdown."""
    return [[s.usd_per_kg for s in b.stages] + [b.total_usd_per_kg] for b in breakdowns]


def dea_values(scores) -> dict[str, list]:
    return {
        "gtfp": [r.gtfp for r in scores],
        "energy_intensity": [r.energy_intensity_kbtu_per_usd for r in scores],
        "carbon_intensity": [r.carbon_intensity_kg_per_usd for r in scores],
        "efficient": [bool(r.efficient) for r in scores],
    }


# ---------------------------------------------------------------- references

def load_refs(path: Path = REFS_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def tree_digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def check_report_tree(refs: dict, fmt: str, override: str | None,
                      directory: Path) -> str | None:
    """None if the report tree matches its reference byte for byte."""
    expected = refs["report"][override or "default"][fmt]
    if not directory.is_dir():
        return f"report {fmt}/{override}: no output directory"
    actual = tree_digests(directory)
    if actual != expected:
        wrong = sorted(set(actual) ^ set(expected)
                       | {k for k in actual if k in expected and actual[k] != expected[k]})
        return f"report {fmt}/{override}: files differ from reference: {', '.join(wrong)}"
    return None


def check_command(refs: dict, name: str, code: int, stdout: bytes,
                  stderr_lines: list[str]) -> str | None:
    """None if a command's exit code, stdout and stderr are as recorded.

    A successful command writes nothing to stderr. A bad-input command
    exits with its recorded code and writes exactly one line, which is
    not a traceback."""
    ref = refs["commands"][name]
    if code != ref["exit"]:
        return f"{name}: exit {code}, expected {ref['exit']}"
    if any("Traceback" in line for line in stderr_lines):
        return f"{name}: traceback on stderr"
    if ref["exit"] == 0 and stderr_lines:
        return f"{name}: unexpected stderr: {stderr_lines[0][:120]}"
    if ref["exit"] != 0 and len(stderr_lines) != 1:
        return f"{name}: expected one stderr line, got {len(stderr_lines)}"
    if hashlib.sha256(stdout).hexdigest() != ref["stdout_sha256"]:
        return f"{name}: stdout differs from reference"
    return None


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _first_mismatch(actual: list[float], expected: list[float]) -> int | None:
    if len(actual) != len(expected):
        return -1
    for i, (a, b) in enumerate(zip(actual, expected)):
        if not close(a, b):
            return i
    return None


def check_carrier(ref: dict, values: list[list[float]]) -> str | None:
    """Invariants, then the recorded values at REL_TOL."""
    for k, row in enumerate(values):
        if not all(math.isfinite(v) and v > 0 for v in row):
            return f"breakdown {k}: a cost is not finite and positive: {row}"
        if not close(math.fsum(row[:-1]), row[-1]):
            return f"breakdown {k}: stage costs {math.fsum(row[:-1])!r} do not sum to total {row[-1]!r}"
    expected = ref["values"]
    if len(values) != len(expected):
        return f"{len(values)} breakdowns, reference has {len(expected)}"
    for k, (row, ref_row) in enumerate(zip(values, expected)):
        bad = _first_mismatch(row, ref_row)
        if bad is not None:
            return f"breakdown {k}: differs from reference at entry {bad}"
    return None


def check_dea(ref: dict, values: dict[str, list], max_residual: float) -> str | None:
    """Invariants (scores in (0, 1], an efficient unit, small residual),
    then the recorded values at REL_TOL."""
    scores = values["gtfp"]
    if not all(math.isfinite(s) and 0.0 < s <= 1.0 + SCORE_SLACK for s in scores):
        return f"a score is outside (0, 1]: {min(scores)!r}..{max(scores)!r}"
    if not any(values["efficient"]):
        return "no efficient unit in the set"
    if not max_residual <= MAX_RESIDUAL:
        return f"LP residual {max_residual!r} above {MAX_RESIDUAL}"
    for key in ("gtfp", "energy_intensity", "carbon_intensity"):
        bad = _first_mismatch(values[key], ref[key])
        if bad is not None:
            return f"{key}: differs from reference at unit {bad}"
    if values["efficient"] != ref["efficient"]:
        return "efficient flags differ from reference"
    return None
