"""Golden report trees: `report` output compared byte for byte with trees
recorded under tests/golden/.

default_csv and default_json are the default report; override_csv and
override_json are the report with tests/golden/overrides.csv, which
overrides one key in each of the carriers, cofiring and scenarios
namespaces. tests/golden/stdout/ holds what each analysis command prints,
in CSV and JSON, and tests/golden/stderr/ what a command writes to stderr
where that is not empty. tests/golden/help/ holds what the commands of HELP
print with COLUMNS=80: a `--help` text on stdout, or a usage error on
stderr. A change that is meant to move an output byte re-records the
affected files in the same change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nh3econ
from nh3econ import cli

GOLDEN = Path(__file__).parent / "golden"

TREES = {
    "default_csv": [],
    "default_json": ["--format", "json"],
    "override_csv": ["--params", str(GOLDEN / "overrides.csv")],
    "override_json": ["--params", str(GOLDEN / "overrides.csv"), "--format", "json"],
}

# tests/golden/stdout/<name>.<format>: the stdout of each command.
COMMANDS = {
    "gtfp": ["gtfp"],
    "carrier_delivery": ["carrier", "delivery"],
    "carrier_storage": ["carrier", "storage"],
    "cofire_all": ["cofire", "--all"],
    "cofire_rate_0.03": ["cofire", "--rate", "0.03"],
    "scenario_supply": ["scenario", "supply"],
    "scenario_demand": ["scenario", "demand"],
    "scenario_balance": ["scenario", "balance"],
    "scenario_supply_share_0.5": ["scenario", "supply", "--share", "0.5"],
    "cofire_rate_0.07_interpolate": ["cofire", "--rate", "0.07", "--interpolate"],
    # both volumes are clamped, and 1e16 is a JSON number longer than 15 characters
    "carrier_delivery_clamped": ["carrier", "delivery", "--volume", "5,1e16",
                                 "--distance", "500"],
}


# tests/golden/help/<name>.txt: each command's --help on stdout (exit 0), or
# its usage error on stderr (exit 2), at COLUMNS=80
HELP = {
    "nh3econ": ["--help"],
    "carrier": ["carrier", "--help"],
    "scenario": ["scenario", "--help"],
    "gtfp": ["gtfp", "--help"],
    "carrier_delivery": ["carrier", "delivery", "--help"],
    "carrier_storage": ["carrier", "storage", "--help"],
    "cofire": ["cofire", "--help"],
    "scenario_supply": ["scenario", "supply", "--help"],
    "scenario_demand": ["scenario", "demand", "--help"],
    "scenario_balance": ["scenario", "balance", "--help"],
    "report": ["report", "--help"],
    "report_format_xml": ["report", "--format", "xml"],
    "report_without_output": ["report"],
    "cofire_all_with_rate": ["cofire", "--all", "--rate", "0.03"],
    "transmute": ["transmute"],
    "carrier_delivery_volume_1_x": ["carrier", "delivery", "--volume", "1,x"],
}


def golden_help(name: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of a command of HELP."""
    text = (GOLDEN / "help" / f"{name}.txt").read_bytes().decode("utf-8")
    return (0, text, "") if "--help" in HELP[name] else (2, "", text)


def golden_stderr(name: str) -> bytes:
    """What a command of COMMANDS writes to stderr, in either format."""
    path = GOLDEN / "stderr" / f"{name}.txt"
    return path.read_bytes() if path.exists() else b""


def _assert_matches_golden(out: Path, tree: str) -> None:
    expected = GOLDEN / tree
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in expected.iterdir())
    for path in sorted(expected.iterdir()):
        assert (out / path.name).read_bytes() == path.read_bytes(), f"{tree}/{path.name}"


@pytest.mark.parametrize("tree", sorted(TREES))
def test_report_tree_matches_golden(tree, tmp_path, capsys):
    out = tmp_path / tree
    assert cli.run(["report", "--output", str(out), *TREES[tree]]) == 0
    _assert_matches_golden(out, tree)
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_stdout_matches_golden(name, output_format, capsys):
    assert cli.run([*COMMANDS[name], "--format", output_format]) == 0
    expected = (GOLDEN / "stdout" / f"{name}.{output_format}").read_bytes().decode("utf-8")
    assert capsys.readouterr() == (expected, golden_stderr(name).decode("utf-8"))


@pytest.mark.parametrize("name", sorted(HELP))
def test_help_and_usage_errors_match_golden(name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        cli.run(HELP[name])
    assert (excinfo.value.code, *capsys.readouterr()) == golden_help(name)


def test_each_command_has_its_goldens_and_report_writes_the_golden_files():
    # a command added to cli.COMMANDS without its golden files fails here
    leaves = [path for path, (_, table, *_) in cli.COMMANDS.items() if table is not None]
    for path in leaves:
        names = [name for name, argv in COMMANDS.items()
                 if argv[:len(path.split())] == path.split()]
        assert names, f"no golden stdout runs {path!r}"
        for name in names:
            for output_format in ("csv", "json"):
                assert (GOLDEN / "stdout" / f"{name}.{output_format}").is_file()
    for path in [*cli.COMMANDS, "report"]:
        assert HELP[path.replace(" ", "_")] == [*path.split(), "--help"], path
    assert {path for _, path, _ in cli.REPORT} <= set(leaves)
    assert sorted(f"{name}.csv" for name, _, _ in cli.REPORT) == sorted(
        path.name for path in (GOLDEN / "default_csv").iterdir())


NO_NUMPY_REPORT = """
import sys
import nh3econ.cli
assert "numpy" not in sys.modules, "importing nh3econ imported numpy"
for name in ("dataclasses", "inspect"):
    assert name not in sys.modules, f"importing nh3econ.cli imported {name}"
sys.modules["numpy"] = None   # any later import of numpy raises ImportError
sys.exit(nh3econ.cli.run(["report", "--output", sys.argv[1]]))
"""


def test_report_without_numpy_matches_golden(tmp_path):
    out = tmp_path / "default_csv"
    env = {**os.environ, "PYTHONPATH": str(Path(nh3econ.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", NO_NUMPY_REPORT, str(out)], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    _assert_matches_golden(out, "default_csv")
