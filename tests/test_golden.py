"""Golden report trees: `report` output compared byte for byte with trees
recorded under tests/golden/.

default_csv and default_json are the default report; override_csv is the
report with tests/golden/overrides.csv, which overrides one key in each of
the carriers, cofiring and scenarios namespaces. A change that is meant to
move an output byte re-records the affected tree in the same change.
"""

from pathlib import Path

import pytest

from nh3econ import cli

GOLDEN = Path(__file__).parent / "golden"

TREES = {
    "default_csv": [],
    "default_json": ["--format", "json"],
    "override_csv": ["--params", str(GOLDEN / "overrides.csv")],
}


@pytest.mark.parametrize("tree", sorted(TREES))
def test_report_tree_matches_golden(tree, tmp_path):
    out = tmp_path / tree
    assert cli.run(["report", "--output", str(out), *TREES[tree]]) == 0
    expected = GOLDEN / tree
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in expected.iterdir())
    for path in sorted(expected.iterdir()):
        assert (out / path.name).read_bytes() == path.read_bytes(), f"{tree}/{path.name}"
