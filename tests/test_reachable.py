"""Every statement inside a function of the package runs from the command
line, or is on the allow-list below with the reason it stays.

The module runs one fixed corpus in-process under `sys.settrace`, once
for both of its traced tests: every golden command of test_golden in CSV
and JSON, the four golden report trees (each twice, the second run over
the first's tree) and every `--help` text and usage error of `HELP`, then
test_cli's `GUARDS` and `EDGES` and this module's `ERRORS`, `WRITES` and
`BOUND`, each case in its own directory. Each case must exit 0, or 2 or 3
with one line on stderr. Then the first test lists each statement inside a
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

A line event covers a whole statement, so it cannot tell which half of a
conditional expression ran. From Python 3.11 on, the same run also turns
on opcode events in each code object with an instruction inside a half of
one, and maps each event to its source span through `co_positions()`;
the second test fails on each half that no instruction of the run lies
inside, unless `ALLOWED` names it, as `<then> if ...` or `... else
<else>` with the half's text as `ast.unparse` writes it (numbered as
statements are).
"""

import ast
import io
import sys
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
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
    (["gtfp", "--regions", lambda d: "/" + str(d / "missing.csv")],
     "dataset file not found: /{tmp}/missing.csv"),
    (["carrier", "delivery", "--params", str], "cannot read {tmp}: Is a directory"),
    (["carrier", "delivery", "--params", _file("params.csv", b"\xff")],
     "{tmp}/params.csv: not UTF-8 text: invalid start byte at byte 0"),
    (["carrier", "delivery", "--params", ""], "cannot read '': empty path"),
    (["--data-dir", "", "cofire"], "cannot read '': empty path"),
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
     "(pass --interpolate, or interpolate_loss=True, for linear interpolation)"),
    (["scenario", "supply", "--params", _params("wind_gw,1e308,GW,x")],
     "green ammonia supply capacity by scenario level; dataset cn-2019-v1: "
     "column 'supply_mt' is inf, not a finite number"),
]

# Commands that write their output to a file, or a report under missing
# parents or into the directory a case runs in.
WRITES = [
    ["carrier", "delivery", "--output", lambda d: str(d / "out.csv")],
    ["report", "--output", lambda d: str(d / "missing" / "out")],
    ["report", "--output", "."],
    ["report", "--output", ".", "--regions", _file("regions.csv", REGIONS_HEADER +
                                                   "North,10,1,1,1,5\nSouth,5,1,1,1,5\n")],
]

# Reports over more distinct co-firing values than a manifest keeps texts
# for, so that it forgets the least recently used.
BOUND = [["report", "--output", ".",
          "--params", _params(f"coal_price_usd_per_tce,{100 + k},USD_per_tce,x")]
         for k in range(data_io.KEPT_TEXTS + 1)]

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
# it; children: the statements of its bodies; node: its syntax tree
_Statement = namedtuple("_Statement", "name line header children node")

# name: (module.qualname, "<then> if ..." or "... else <else>"); line: its
# first line and column; span: (first line, last line, first column, end
# column), as co_positions() gives an instruction's
_Half = namedtuple("_Half", "name line span")

_BODIES = ("body", "orelse", "finalbody", "handlers")


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
                children = [s for field in _BODIES
                            for s in walk(getattr(node, field, ()), qualname, in_function)]
            if in_function:
                # a compound statement's header ends where its body starts
                end = node.body[0].lineno if hasattr(node, "body") else node.end_lineno + 1
                name = (f"{path.stem}{qualname}", lines[node.lineno - 1].strip())
                inside.append(_Statement(name, node.lineno, range(node.lineno, end), children,
                                         node))
        found.extend(inside)
        return inside

    walk(ast.parse("\n".join(lines)).body, "", False)
    return found


def _halves(path: Path) -> list[_Half]:
    """Both halves of each conditional expression in a statement inside a
    function of one module."""
    halves = []
    for s in _statements(path):
        own = [item for field, value in ast.iter_fields(s.node) if field not in _BODIES
               for item in (value if isinstance(value, list) else [value])
               if isinstance(item, ast.AST)]     # what the statement's bodies do not hold
        for node in (n for item in own for n in ast.walk(item)):
            if isinstance(node, ast.IfExp):
                for half, form in ((node.body, "{} if ..."), (node.orelse, "... else {}")):
                    halves.append(_Half((s.name[0], form.format(ast.unparse(half))),
                                        (half.lineno, half.col_offset),
                                        (half.lineno, half.end_lineno,
                                         half.col_offset, half.end_col_offset)))
    return halves


def _numbered(statements: list) -> dict[int, tuple[str, str]]:
    """The name of each statement, or half, by its id: where statements of
    one function share a first line, each name ends in " #k", k its place
    among them in line order."""
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
        monkeypatch.chdir(directory)     # where a relative path names a file
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
    for argv in WRITES + BOUND:
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


def _inside(position, span) -> bool:
    """Whether an instruction's position lies inside a span, each given as
    (first line, last line, first column, end column)."""
    line, end_line, column, end_column = position
    return None not in position and (line, column) >= (span[0], span[2]) and (
        end_line, end_column) <= (span[1], span[3])


def _unreached_halves(positions: set[tuple[str, tuple]]) -> dict[tuple[str, str], str]:
    """{(module.qualname, name): "file:line"} of each half of a conditional
    expression of the package that no instruction of the run lies inside."""
    unreached = {}
    for path in sorted(PACKAGE.glob("*.py")):
        ran = [position for name, position in positions if name == str(path)]
        halves = _halves(path)
        names = _numbered(halves)
        for h in halves:
            if not any(_inside(position, h.span) for position in ran):
                unreached[names[id(h)]] = f"{path.name}:{h.line[0]}"
    return unreached


class _Captured:
    """What the commands write to sys.stdout and sys.stderr, read as capsys reads it."""

    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self) -> tuple[str, str]:
        texts = self.out.getvalue(), self.err.getvalue()
        for stream in (self.out, self.err):
            stream.seek(0)
            stream.truncate()
        return texts


# co_positions(), an instruction's source span, is new in Python 3.11
POSITIONS = sys.version_info >= (3, 11)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """(line events, positions of the instructions that ran) of one run of
    the corpus under the trace: opcode events only in the code objects with
    an instruction inside a half of a conditional expression, and only
    where the interpreter gives positions."""
    spans = {str(path): [h.span for h in _halves(path)] for path in PACKAGE.glob("*.py")}
    opcodes = {}     # code object -> whether it gets opcode events
    lines, instructions = set(), set()

    def trace(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        elif event == "opcode":
            instructions.add((frame.f_code, frame.f_lasti))
        return trace

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in spans:
            return None
        if code not in opcodes:
            opcodes[code] = POSITIONS and any(_inside(position, span)
                                              for position in code.co_positions()
                                              for span in spans[code.co_filename])
        # CPython 3.13 turns a frame's opcode events on only when the flag is
        # set on a frame that already has its trace function
        frame.f_trace = trace
        frame.f_trace_opcodes = opcodes[code]
        return trace

    captured = _Captured()
    previous = sys.gettrace()
    # CPython 3.12 turns opcode events on in sys.settrace, and only once a
    # frame has asked for them; on other versions this flag of the fixture's
    # own, untraced frame changes nothing
    sys._getframe().f_trace_opcodes = POSITIONS
    sys.settrace(call)
    try:
        cli._parser.cache_clear()     # so that build_parser runs under the trace
        data_io._shared.cache_clear()     # and the dataset's values are derived under it
        with pytest.MonkeyPatch.context() as monkeypatch, redirect_stdout(captured.out), \
                redirect_stderr(captured.err):
            _run_corpus(tmp_path_factory.mktemp("corpus"), monkeypatch, captured)
    finally:
        sys.settrace(previous)
        sys._getframe().f_trace_opcodes = False
    table = {code: list(code.co_positions()) for code, _ in instructions}
    return lines, {(code.co_filename, table[code][lasti // 2]) for code, lasti in instructions}


def _allowed(halves: bool) -> set[tuple[str, str]]:
    """The statements, or else the halves, that `ALLOWED` names."""
    return {(qualname, text) for qualname, (_, *texts) in ALLOWED.items() for text in texts
            if (text.endswith(" if ...") or text.startswith("... else ")) == halves}


def test_every_statement_runs_from_the_command_line_or_is_allowed(traced):
    unreached = _unreached(traced[0])
    allowed = _allowed(halves=False)
    assert sorted(f"{where} {key}" for key, where in unreached.items()
                  if key not in allowed) == [], "statements that no command reaches"
    assert sorted(allowed - set(unreached)) == [], (
        "allowed statements that a command reaches, or that are gone")


@pytest.mark.skipif(not POSITIONS, reason="co_positions(), which maps an instruction to "
                    "its sub-expression, is new in Python 3.11")
def test_both_halves_of_every_conditional_expression_run_or_are_allowed(traced):
    unreached = _unreached_halves(traced[1])
    allowed = _allowed(halves=True)
    assert sorted(f"{where} {key}" for key, where in unreached.items()
                  if key not in allowed) == [], "halves that no command reaches"
    assert sorted(allowed - set(unreached)) == [], (
        "allowed halves that a command reaches, or that are gone")


def test_statements_with_one_text_are_numbered_in_line_order():
    # lp.solve's three `for i in range(m):` loops have a name each, and
    # the allow-list names the phase-1 loop, the second, alone
    statements = _statements(PACKAGE / "lp.py")
    names = _numbered(statements)
    loops = sorted((s.line, names[id(s)][1]) for s in statements
                   if s.name == ("lp.solve", "for i in range(m):"))
    assert [name for _, name in loops] == [f"for i in range(m): #{k}" for k in (1, 2, 3)]
    assert [name for _, name in loops if name in ALLOWED["lp.solve"]] == ["for i in range(m): #2"]
