"""Record the benchmark's references from the current source tree.

    python3 bench/record_refs.py

Writes bench/refs.json: SHA-256 digests of every report tree (CSV and
JSON, default and with each override file), the exit code and stdout
digest of each cli_cold command, and the values of every sweep_carrier
draw and sweep_dea region set. Run it only on a commit whose outputs are
known to be right; the benchmark then counts any op whose output differs
as failed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run
import workloads as wl

sys.path.insert(0, str(run.ROOT / "src"))

from nh3econ import carriers, cli, data_io, gtfp  # noqa: E402


def main() -> int:
    tmp = run.ROOT / ".bench_tmp" / "record"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        refs = {"source_sha256": run.source_digest(), "report": {}, "commands": {}}
        for override in (None, *wl.OVERRIDES):
            trees = {}
            for fmt in ("csv", "json"):
                out = tmp / f"{override}-{fmt}"
                code = cli.run(wl.report_argv(fmt, override, out))
                if code != 0:
                    raise SystemExit(f"report {fmt}/{override} exited {code}")
                trees[fmt] = wl.tree_digests(out)
            refs["report"][override or "default"] = trees

        env = run.pinned_env()
        for name, argv in wl.COLD_COMMANDS.items():
            proc = run.spawn([sys.executable, str(run.COLD_LAUNCHER), *argv], env, tmp, 60)
            refs["commands"][name] = {
                "argv": list(argv),
                "exit": proc.code,
                "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
                "stderr": proc.stderr.decode("utf-8", "replace"),
            }

        refs["carrier_pool"] = [
            {"input_sha256": wl.digest_json(entry),
             "values": wl.carrier_values(wl.carrier_op(carriers, *entry))}
            for entry in wl.carrier_pool(data_io)]
        refs["dea_pool"] = [
            {"input_sha256": wl.digest_json(rows),
             "size": len(rows),
             **wl.dea_values(gtfp.gtfp_scores([gtfp.RegionRecord(**r) for r in rows]))}
            for rows in wl.dea_pool(data_io)]
    finally:
        shutil.rmtree(tmp.parent, ignore_errors=True)
    wl.REFS_PATH.write_text(_format(refs), encoding="utf-8")
    print(f"wrote {wl.REFS_PATH}")
    return 0


def _format(refs: dict) -> str:
    """JSON with one line per pool entry, so the file stays readable."""
    parts = []
    for key, value in sorted(refs.items()):
        if isinstance(value, list):
            text = "[\n" + ",\n".join(json.dumps(v, sort_keys=True) for v in value) + "\n]"
        else:
            text = json.dumps(value, sort_keys=True, indent=1)
        parts.append(f"{json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
