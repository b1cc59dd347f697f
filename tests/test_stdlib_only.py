"""Every command run with the standard library only, as a user without
the test extras runs it: `python -S -m nh3econ`, with PYTHONPATH=src.

-S skips `site`, so no installed package can be imported: each report
tree, each command's stdout and each `--help` text and usage error (at
COLUMNS=80) must come from src alone and match the golden files byte for
byte. The same checks run in CI on every supported interpreter; one
`python -m pytest tests/test_stdlib_only.py` under an interpreter
reproduces them there.
"""

import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import (COMMANDS, GOLDEN, HELP, TREES, _assert_matches_golden, golden_help,
                         golden_stderr)

SRC = Path(__file__).parents[1] / "src"


def _run(*args, umask=-1, **environ):
    env = {**os.environ, "PYTHONPATH": str(SRC), **environ}
    return subprocess.run([sys.executable, "-S", "-m", "nh3econ", *args], env=env,
                          capture_output=True, timeout=60, umask=umask)


@pytest.mark.parametrize("tree", sorted(TREES))
def test_report_tree_matches_golden_and_again_over_itself(tree, tmp_path):
    out = tmp_path / tree
    result = _run("report", "--output", str(out), *TREES[tree], umask=0o022)
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
    _assert_matches_golden(out, tree)
    # new files get mode 0o666 less the umask, as open() gives them
    assert {stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()} == {0o644}
    # a second run over the same tree replaces every file through a staged
    # temporary and must leave the same bytes, and nothing else: the tree
    # holds the golden file names only
    result = _run("report", "--output", str(out), *TREES[tree])
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
    _assert_matches_golden(out, tree)


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, output_format):
    result = _run(*COMMANDS[name], "--format", output_format)
    assert (result.returncode, result.stderr) == (0, golden_stderr(name))
    assert result.stdout == (GOLDEN / "stdout" / f"{name}.{output_format}").read_bytes()


@pytest.mark.parametrize("name", sorted(HELP))
def test_help_and_usage_errors_match_golden(name):
    result = _run(*HELP[name], COLUMNS="80")
    assert (result.returncode, result.stdout.decode(), result.stderr.decode()) == golden_help(name)


def test_cli_imports_without_pathlib():
    # data_io and cli join, read and name files with os.path
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", "import nh3econ.cli, sys; print('pathlib' in sys.modules)"],
        env=env, capture_output=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, b"False\n", b"")
