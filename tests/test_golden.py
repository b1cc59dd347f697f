"""Golden report trees: `report` output compared byte for byte with trees
recorded under tests/golden/.

default_csv and default_json are the default report; override_csv is the
report with tests/golden/overrides.csv, which overrides one key in each of
the carriers, cofiring and scenarios namespaces. A change that is meant to
move an output byte re-records the affected tree in the same change.
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
}


def _assert_matches_golden(out: Path, tree: str) -> None:
    expected = GOLDEN / tree
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in expected.iterdir())
    for path in sorted(expected.iterdir()):
        assert (out / path.name).read_bytes() == path.read_bytes(), f"{tree}/{path.name}"


@pytest.mark.parametrize("tree", sorted(TREES))
def test_report_tree_matches_golden(tree, tmp_path):
    out = tmp_path / tree
    assert cli.run(["report", "--output", str(out), *TREES[tree]]) == 0
    _assert_matches_golden(out, tree)


NO_NUMPY_REPORT = """
import sys
import nh3econ.cli
assert "numpy" not in sys.modules, "importing nh3econ imported numpy"
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
