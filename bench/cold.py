"""Cold-start launcher: one fresh interpreter runs one nh3econ command.

    python bench/cold.py <nh3econ arguments...>
    python -X importtime bench/cold.py --stamps <nh3econ arguments...>

The package is found through PYTHONPATH (run.py sets it to src). With
--stamps the launcher writes "bench-stamp <phase> <ns>" lines to stderr, in
CLOCK_MONOTONIC nanoseconds, as each phase ends: its first line ("start"),
the end of `from nh3econ import cli` ("imported") and the return of
`cli.run` ("ran"). Written as they happen, they interleave with
-X importtime's lines, so run.py can tell in which phase numpy was
imported.
"""

import sys
import time


def _stamp(phase):
    sys.stderr.write(f"bench-stamp {phase} {time.monotonic_ns()}\n")


if sys.argv[1:2] == ["--stamps"]:
    _stamp("start")
    from nh3econ import cli
    _stamp("imported")
    code = cli.run(sys.argv[2:])
    sys.stdout.flush()
    _stamp("ran")
    sys.exit(code)

from nh3econ import cli

sys.exit(cli.run(sys.argv[1:]))
