"""Every statement inside a function of the package runs from the command
line, or is on the allow-list below with the reason it stays.

The test runs one fixed corpus in-process under `sys.settrace`: every
golden command of test_golden in CSV and JSON, the four golden report
trees (each twice, the second run over the first's tree) and every
`--help` text and usage error of `HELP`, then test_cli's `GUARDS` and
`EDGES` and this module's `ERRORS` and `WRITES`. Each case must exit 0, or
2 or 3 with one line on stderr. Then the test lists each statement inside a
function of `src/nh3econ` that no line event reached, and fails on any that
`ALLOWED` does not name, and on any entry of `ALLOWED` that the corpus
reaches or that no longer exists.

A statement is named by `module.qualname` and the stripped text of its
first line, so the allow-list does not move with line numbers; where
statements of one function share that text, each name ends in its place
among them in line order, " #1", " #2" and so on. A compound
statement (if, for, while, with, try, except) counts as reached when a
line of its header is, or a statement of its body: an interpreter may
emit no event for `while True:` or `try:`. The standard library's trace
hook is used because no coverage package is a dependency.
"""

import ast
import sys
from collections import namedtuple
from pathlib import Path

import pytest

import nh3econ
from nh3econ import cli, data_io
from test_cli import EDGES, GUARDS, REGIONS_HEADER, _dataset, _file, _params, cli_argv
from test_golden import COMMANDS, HELP, TREES, golden_help

PACKAGE = Path(nh3econ.__file__).parent

# the manifest row of cofiring.csv, "cofiring.csv,<digest>"
_LISTED = next(line for line in (Path(data_io.data_dir()) / "manifest.csv").read_text().split()
               if line.startswith("cofiring.csv,"))


def _report_target_is_a_directory(directory):
    (directory / "out" / "regional_efficiency.csv").mkdir(parents=True)
    return str(directory / "out")


# Every other input error that a command reports, with its one line.
ERRORS = [
    (["carrier", "delivery", "--output", lambda d: str(d / "missing" / "out.csv")],
     "cannot write output: [Errno 2] No such file or directory: '{tmp}/missing/out.csv'"),
    (["report", "--output", _report_target_is_a_directory],
     "cannot write output: {tmp}/out/regional_efficiency.csv exists and is not a regular file"),
    (["report", "--output", lambda d: _file("file", "")(d) + "/out"],
     "cannot write output: [Errno 20] Not a directory: '{tmp}/file/out'"),
    (["gtfp", "--regions", lambda d: str(d / "missing.csv")],
     "dataset file not found: {tmp}/missing.csv"),
    (["carrier", "delivery", "--params", str], "cannot read {tmp}: Is a directory"),
    (["carrier", "delivery", "--params", _file("params.csv", b"\xff")],
     "{tmp}/params.csv: not UTF-8 text: invalid start byte at byte 0"),
    (["carrier", "delivery", "--params", ""], "cannot read '': empty path"),
    (["carrier", "delivery", "--params", _file("params.csv", "KEY,value,unit,provenance\n")],
     "{tmp}/params.csv: expected header key,value,unit,provenance, "
     "got KEY,value,unit,provenance"),
    (["carrier", "delivery", "--params", _params("wacc,0.08,fraction")],
     "{tmp}/params.csv: line 2: expected 4 cells, got 3"),
    (["carrier", "delivery", "--params", _params("wacc,x,fraction,x")],
     "{tmp}/params.csv: line 2, column 'value': cannot parse 'x' as a finite number"),
    (["carrier", "delivery", "--params", _params("wacc,0.08,fraction,x", "wacc,0.08,fraction,x")],
     "{tmp}/params.csv: line 3: duplicate key 'wacc'"),
    (["carrier", "delivery", "--params", _params("wacc,0.08,fraction,")],
     "{tmp}/params.csv: line 2: empty provenance for 'wacc'"),
    (["carrier", "delivery", "--params", _params("lifetime_years,2.5,yr,x")],
     "{tmp}/params.csv: line 2: key 'lifetime_years' must be a whole number of years, got 2.5"),
    (["carrier", "delivery", "--params", _params("mystery,1,x,x")],
     "{tmp}/params.csv: unknown parameter key 'mystery': no analysis reads it"),
    (["carrier", "delivery", "--params", _params("wacc,8,percent,x")],
     "{tmp}/params.csv: key 'wacc' has unit 'percent', schema expects 'fraction'"),
    (["--data-dir", _dataset({"carriers.csv": ("wacc,0.08,fraction", "wacc,0.08,percent")}),
      "carrier", "delivery"],
     "{tmp}/data/carriers.csv: line 5: key 'wacc' has unit 'percent', schema expects 'fraction'"),
    (["--data-dir", _dataset({"carriers.csv": ("\nwacc,", "\n#wacc,")}), "carrier", "delivery"],
     "{tmp}/data/carriers.csv: missing required keys: wacc"),
    (["--data-dir", _dataset({"manifest.csv": ("regions_2019.csv,", "#")}), "gtfp"],
     "{tmp}/data/manifest.csv: does not list 'regions_2019.csv', which this run parses"),
    (["--data-dir", _dataset({"manifest.csv": (_LISTED, f"{_LISTED}\n{_LISTED}")}), "cofire"],
     "{tmp}/data/manifest.csv: line 6: 'cofiring.csv' is listed twice"),
    (["--data-dir", _dataset({"manifest.csv": (_LISTED, "cofiring.csv," + "0" * 64)}), "cofire"],
     f"dataset file 'cofiring.csv' digest mismatch: manifest has 000000000000..., "
     f"file has {_LISTED.split(',')[1][:12]}..."),
    (["gtfp", "--regions", _file("regions.csv", REGIONS_HEADER + "North,1e-307,1,1,1,1\n"
                                 "East,1000,1,1,1,1\n")],
     "regions 'North' and 'East': an input or GDP ratio between them "
     "is outside the floating-point range"),
    (["scenario", "supply", "--share", "1.5"], "renewable_share must be in [0, 1], got 1.5"),
    (["--data-dir", _dataset({"demand_levels.csv": ("Level 1,0.10,0.01,0.03,0.10",
                                                    "Level 1,0,0,0,0")}),
      "scenario", "balance"],
     "demand level 'Level 1' has a total demand of 0.0 Mt; "
     "supply coverage needs a positive demand"),
    (["cofire", "--rate", "0.07"],
     "no efficiency-loss entry for rate 0.07; known rates: 0, 0.03, 0.05, 0.1, 0.15, 0.2 "
     "(pass interpolate_loss=True for linear interpolation)"),
    (["scenario", "supply", "--params", _params("wind_gw,1e308,GW,x")],
     "green ammonia supply capacity by scenario level; dataset cn-2019-v1: "
     "column 'supply_mt' is inf, not a finite number"),
]

# Commands that write their output to a file, or a report under missing parents.
WRITES = [
    ["carrier", "delivery", "--output", lambda d: str(d / "out.csv")],
    ["report", "--output", lambda d: str(d / "missing" / "out")],
]

_LP = ("lp's general paths: phase 1, equality rows, negative right-hand sides, "
       "unbounded and infeasible programs and malformed input. No analysis builds such a "
       "program; acceptance criterion 6 checks them on random programs (ROADMAP standing "
       "constraint)")
_EXIT_3 = ("a solver failure: the ratio-form program is always feasible and bounded, so "
           "only the pivot limit ends one (ROADMAP item 3)")
_RENDER = ("a table of no columns, or a column of mixed types: test_render's property "
           "oracles draw such tables, and no command builds one")

# {module.qualname: (reason, first line of each statement no command reaches)}
ALLOWED = {
    "carriers.levelized_cost": (
        "the schedule oracle of _levelize, kept in the package because bench/ names it "
        "(ROADMAP item 1)",
        "exp = list(annual_expense_schedule)",
        "energy = list(annual_energy_schedule)",
        "if not exp or len(exp) != len(energy):",
        'raise InputError("expense and energy schedules must have equal, nonzero length")',
        "if not any(e > 0 for e in energy):",
        'raise InputError("energy schedule must contain at least one positive entry")',
        "if not 0.0 <= dr < 1.0:",
        'raise InputError(f"discount rate must be in [0, 1), got {dr}")',
        "disc_exp = sum(v / (1.0 + dr) ** n for n, v in enumerate(exp))",
        "disc_energy = sum(v / (1.0 + dr) ** n for n, v in enumerate(energy))",
        "return disc_exp / disc_energy"),
    "data_io.load_bundled_params": (
        "bench/ names it (ROADMAP item 1)",
        "return Dataset().params(namespace)"),
    "data_io.bundled_regions_path": (
        "bench/ names it (ROADMAP item 1)",
        "return os.path.join(data_dir(), REGIONS_FILE)"),
    "data_io.ParameterSet.__missing__": (
        "the one message for a missing key, which a direct caller of an analysis meets: "
        "every file the commands read is checked against its schema first",
        'raise InputError(f"parameter set {self.namespace!r} has no key {key!r}")'),
    "cli.main": (
        "the console entry point: test_stdlib_only runs it in subprocesses",
        "sys.exit(run())"),
    "cli.run": (
        _EXIT_3,
        "except SolverError as exc:",
        'print(f"solver failure: {exc}", file=sys.stderr)',
        "return 3"),
    "gtfp.dea_score": (_EXIT_3, "raise SolverError("),
    "gtfp.gtfp_scores": (
        _EXIT_3,
        "except SolverError as exc:",
        'raise SolverError(f"region {record.name!r}: {exc}") from exc'),
    "cli._column_texts": (
        _RENDER,
        "return [_column_texts((cell,), strings, numbers)[0] for cell in column]"),
    "cli.Table._cell_texts": (_RENDER, "return [()] * len(self.rows)", "raise"),
    "lp._floats": (
        _LP,
        "raise TypeError",
        "except (TypeError, ValueError):",
        "raise InputError(shape_error) from None",
        'raise InputError(f"{name} contains non-finite entries")'),
    "lp._as_matrix": (
        _LP,
        "except TypeError:",
        "raise InputError(error) from None",
        "raise InputError(error)"),
    "lp._as_vector": (
        _LP,
        'raise InputError(f"{name} length {len(values)} does not match {m} rows")'),
    "lp.LinearProgram.__init__": (
        _LP,
        'raise InputError("objective must have at least one coefficient")'),
    "lp._run_simplex": (
        _LP,
        'raise SolverError(f"pivot limit {MAX_PIVOTS} exceeded (cycling guard)")',
        "return iterations, False"),
    "lp.solve": (
        _LP,
        "if all(v >= -TOL for v in lp.c):",
        "return LpSolution(LpStatus.OPTIMAL, (0.0,) * n, 0.0, 0.0, 0)",
        "return LpSolution(LpStatus.UNBOUNDED)",
        "a[i] = [-v for v in a[i]]",
        "b[i] = -b[i]",
        "needs_artificial.append(i) #1",
        "needs_artificial.append(i) #2",
        "basis[i] = n_slack + k",
        "for i in needs_artificial:",
        "tableau[-1] = [o - v for o, v in zip(tableau[-1], tableau[i])]",
        "iterations, _ = _run_simplex(tableau, basis, 0)",
        "phase1_obj = -tableau[-1][-1]",
        "if phase1_obj > TOL * max(1.0, *map(abs, b)):",
        "return LpSolution(LpStatus.INFEASIBLE, iterations=iterations)",
        "keep_rows = [True] * m",
        "for i in range(m): #2",
        "if basis[i] >= n_slack:",
        "j = next((j for j in range(n_slack) if abs(tableau[i][j]) > TOL), -1)",
        "if j >= 0:",
        "_pivot(tableau, basis, i, j)",
        "keep_rows[i] = False  # redundant constraint",
        "tableau = [r for r, keep in zip(tableau, keep_rows) if keep] + tableau[-1:]",
        "basis = [col for col, keep in zip(basis, keep_rows) if keep]",
        "m = len(basis)",
        "tableau[-1] = [o - f * v for o, v in zip(tableau[-1], tableau[i])]",
        "return LpSolution(LpStatus.UNBOUNDED, iterations=iterations)"),
    "lp._max_violation": (_LP, "worst = max(worst, abs(_dot(row, x) - b))"),
}


# name: (module.qualname, first line); header: the lines whose events reach
# it; children: the statements of its bodies
_Statement = namedtuple("_Statement", "name line header children")


def _statements(path: Path) -> list[_Statement]:
    """Each statement inside a function of one module, docstrings left out,
    every statement after those of its bodies."""
    lines = path.read_text(encoding="utf-8").splitlines()
    found = []

    def walk(nodes, qualname, in_function) -> list[_Statement]:
        """The statements of one body that lie inside a function."""
        inside = []
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                function = not isinstance(node, ast.ClassDef)
                body = node.body
                if function and ast.get_docstring(node) is not None:
                    body = body[1:]     # a docstring compiles to no instruction
                walk(body, f"{qualname}{'.<locals>' * in_function}.{node.name}",
                     in_function or function)
                children = []     # a nested function's body runs when it is called
            else:
                children = [s for field in ("body", "orelse", "finalbody", "handlers")
                            for s in walk(getattr(node, field, ()), qualname, in_function)]
            if in_function:
                # a compound statement's header ends where its body starts
                end = node.body[0].lineno if hasattr(node, "body") else node.end_lineno + 1
                name = (f"{path.stem}{qualname}", lines[node.lineno - 1].strip())
                inside.append(_Statement(name, node.lineno, range(node.lineno, end), children))
        found.extend(inside)
        return inside

    walk(ast.parse("\n".join(lines)).body, "", False)
    return found


def _numbered(statements: list[_Statement]) -> dict[int, tuple[str, str]]:
    """The name of each statement by its id: where statements of one
    function share a first line, each name ends in " #k", k its place among
    them in line order."""
    lines = {}
    for s in statements:
        lines.setdefault(s.name, []).append(s.line)
    return {id(s): s.name if len(lines[s.name]) == 1 else
            (s.name[0], f"{s.name[1]} #{sorted(lines[s.name]).index(s.line) + 1}")
            for s in statements}


def _unreached(events: set[tuple[str, int]]) -> dict[tuple[str, str], str]:
    """{(module.qualname, name): "file:line"} of each statement of the
    package that no line event reached."""
    unreached = {}
    for path in sorted(PACKAGE.glob("*.py")):
        hit = {line for name, line in events if name == str(path)}
        reached = set()
        statements = _statements(path)
        names = _numbered(statements)
        for s in statements:     # a body's statements come first
            if any(line in hit for line in s.header) or any(id(c) in reached for c in s.children):
                reached.add(id(s))
            else:
                unreached.setdefault(names[id(s)], f"{path.name}:{s.line}")
    return unreached


def _run_corpus(tmp_path, monkeypatch, capsys) -> None:
    """Every case of the corpus through `cli.run`, each checked against the
    exit-code contract: 0, or 2 or 3 with exactly one line on stderr."""
    def run(argv, case):
        directory = tmp_path / f"case{case}"
        directory.mkdir()
        code = cli.run(cli_argv(argv, directory))
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (argv, code)
        if code:
            assert (out, len(err.splitlines())) == ("", 1), (argv, err)
            assert "Traceback" not in err
        return directory, code, out, err

    cases = iter(range(10_000))
    for name, argv in sorted(COMMANDS.items()):
        for output_format in ("csv", "json"):
            assert run([*argv, "--format", output_format], next(cases))[1] == 0, name
    for tree, argv in sorted(TREES.items()):
        for _ in range(2):    # the second run replaces the tree that the first wrote
            assert run(["report", "--output", str(tmp_path / tree), *argv], next(cases))[1] == 0
    for argv in WRITES:
        assert run(argv, next(cases))[1:3] == (0, ""), argv
    monkeypatch.setenv("COLUMNS", "80")
    for name, argv in sorted(HELP.items()):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert (exc.value.code, *capsys.readouterr()) == golden_help(name), name
    monkeypatch.delenv("COLUMNS")
    for argv, message in GUARDS + ERRORS:
        directory, code, out, err = run(argv, next(cases))
        assert (code, err) == (2, f"error: {message.format(tmp=directory)}\n"), argv
    for argv, expected in EDGES:
        assert run(argv, next(cases))[1:3] == (0, expected), argv


def test_every_statement_runs_from_the_command_line_or_is_allowed(tmp_path, monkeypatch,
                                                                  capsys):
    files = {str(path) for path in PACKAGE.glob("*.py")}
    events = set()

    def line(frame, event, arg):
        if event == "line":
            events.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        cli._parser.cache_clear()     # so that build_parser runs under the trace
        data_io._verified.cache_clear()     # and the dataset's values are derived under it
        _run_corpus(tmp_path, monkeypatch, capsys)
    finally:
        sys.settrace(previous)
    unreached = _unreached(events)
    allowed = {(qualname, text) for qualname, (_, *texts) in ALLOWED.items() for text in texts}
    assert sorted(f"{where} {key}" for key, where in unreached.items()
                  if key not in allowed) == [], "statements that no command reaches"
    assert sorted(allowed - set(unreached)) == [], (
        "allowed statements that a command reaches, or that are gone")


def test_statements_with_one_text_are_numbered_in_line_order():
    # lp.solve's three `for i in range(m):` loops have a name each, and
    # the allow-list names the phase-1 loop, the second, alone
    statements = _statements(PACKAGE / "lp.py")
    names = _numbered(statements)
    loops = sorted((s.line, names[id(s)][1]) for s in statements
                   if s.name == ("lp.solve", "for i in range(m):"))
    assert [name for _, name in loops] == [f"for i in range(m): #{k}" for k in (1, 2, 3)]
    assert [name for _, name in loops if name in ALLOWED["lp.solve"]] == ["for i in range(m): #2"]
