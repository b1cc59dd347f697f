"""Command-line front end: run each analysis and emit plot-ready tables.

`COMMANDS` is the one place a command is declared: its path, help, own
arguments, table function, from (dataset, args) to a `Table`, and the one
input that table reads. `build_parser` and `run` read it, and so does
`report`, through `REPORT`.

`report` takes the text of a table from the texts the dataset manifest
keeps by the value of each table's input, once it keeps one; it computes
every other table, then renders each, and once every file is written the
manifest keeps the new texts. So a report that repeats the inputs of an
earlier one over the same verified content computes and renders no table,
unless it names a `--regions` table, whose table it computes on every run.

Every subcommand computes and renders every table before its first write, so
a failing run leaves no partial output. Output is deterministic: fixed row
ordering and a fixed float format (four decimals, trailing zeros trimmed),
which makes runs byte-comparable. No NaN or infinity becomes text: rendering
a table that holds one is an input error naming the first, in row order.

JSON output is the text of `json.dumps(payload, indent=2, sort_keys=True)`
plus a newline, written directly: 2-space indent, keys `columns`,
`description`, `rows` in that order, strings with ASCII escapes, booleans
as `true`/`false`, and every other cell as the shortest repr of the value
rounded to four decimals (`0.65`, `1.0`, never `-0.0`).

Both writers turn cells into text a column at a time, through one
converter, `_column_texts`, that converts each distinct value once: a str
column as text, a bool column as `true`/`false`, and any other column as
numbers, by `_number_texts` for CSV and `_json_number_texts` for JSON. A
column that mixes str or bool with another type goes through the same
converter one cell at a time.

Exit codes: 0 success, 2 input error (including usage), 3 solver failure.
An `--output` path that cannot be written (a `report` directory that is
an existing file, a `report` file name taken by a directory, a file in a
missing directory) is an input error, and so is `cofire --all` together
with `--rate`. `report` checks every target before its first write; if a
write still fails, it removes the files and directories it created and
leaves every file that was there before unchanged. `_write` writes a file
with one `os.open` and, unless the kernel takes less, one `os.write`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import stat
import sys
from json.encoder import encode_basestring_ascii
from math import isfinite, nan

from . import carriers, cofiring, data_io, scenarios
from .errors import InputError, SolverError, number_text

DELIVERY_DISTANCES_KM = (500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
STORAGE_DAYS = (30.0, 150.0, 365.0, 1000.0, 2000.0)
COST_COLUMNS = ("medium", "volume_kt", "distance_km", "days", "stage", "usd_per_kg")


_BOOL_TEXT = {True: "true", False: "false"}


def _number_texts(column) -> list[str]:
    """Each number of a column to four decimals, trailing zeros trimmed and
    "-0" written "0"; a cell that is not finite raises ValueError."""
    if not all(map(isfinite, column)):
        raise ValueError("not a finite number")
    texts = [f"{float(value):.4f}".rstrip("0").rstrip(".") for value in column]
    if "-0" in texts:
        texts = ["0" if text == "-0" else text for text in texts]
    return texts


def _json_number_texts(column) -> list[str]:
    """Each number of a column as json.dumps writes the float of its
    `_number_texts` text: distinct decimals of up to 15 significant digits
    are distinct doubles, so a text of at most 15 characters is already the
    shortest repr, short of the ".0" that repr gives a whole number."""
    return [repr(float(text)) if len(text) > 15 else text if "." in text else text + ".0"
            for text in _number_texts(column)]


def _column_texts(column, strings, numbers) -> list[str] | tuple[str, ...]:
    """The text of every cell of a column, each distinct value converted
    once: a str column by `strings` (None keeps it as it is), a bool column
    by `_BOOL_TEXT` and any other column by `numbers`, which formats
    float(value), so equal numbers of different types print alike. A column
    that mixes str or bool with another type is converted cell by cell."""
    kinds = set(map(type, column))
    if len(kinds) > 1 and (str in kinds or bool in kinds):
        return [_column_texts((cell,), strings, numbers)[0] for cell in column]
    if bool in kinds:
        return list(map(_BOOL_TEXT.__getitem__, column))
    convert = strings if str in kinds else numbers
    if convert is None:
        return column
    texts = dict.fromkeys(column)
    texts = dict(zip(texts, convert(list(texts))))
    return list(map(texts.__getitem__, column))


def _json_list(items: list[str] | tuple[str, ...], indent: str) -> str:
    """A JSON array of already encoded items, laid out as json.dumps(indent=2)."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


class Table:
    """An ordered table with a descriptive header comment."""

    def __init__(self, description: str, columns: tuple[str, ...]):
        self.description = description
        self.columns = columns
        self.rows: list[tuple] = []

    def add(self, *row) -> None:
        """Append a row, one cell per column; rendering checks its floats."""
        self.rows.append(row)

    def _cell_texts(self, strings, numbers) -> list[tuple[str, ...]]:
        """Each row's cell texts, by `_column_texts` a column at a time; a
        float cell that is not finite is an input error naming the first one."""
        if not self.columns:
            return [()] * len(self.rows)
        try:
            return list(zip(*(_column_texts(column, strings, numbers)
                              for column in zip(*self.rows))))
        except ValueError:
            for row in self.rows:
                for column, cell in zip(self.columns, row):
                    if isinstance(cell, float) and not isfinite(cell):
                        raise InputError(f"{self.description}: column {column!r} is "
                                         f"{cell}, not a finite number") from None
            raise

    def to_csv(self) -> str:
        lines = [f"# {self.description}", ",".join(self.columns)]
        lines += map(",".join, self._cell_texts(None, _number_texts))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        rows = self._cell_texts(functools.partial(map, encode_basestring_ascii),
                                _json_number_texts)
        # every row laid out as _json_list(row, "    ") would, in two joins
        rows = (["[\n      " + "\n    ],\n    [\n      ".join(map(",\n      ".join, rows))
                 + "\n    ]"] if rows and self.columns else ["[]"] * len(rows))
        return (
            '{\n  "columns": '
            + _json_list(list(map(encode_basestring_ascii, self.columns)), "  ")
            + ',\n  "description": ' + encode_basestring_ascii(self.description)
            + ',\n  "rows": ' + _json_list(rows, "  ")
            + "\n}\n")

    def render(self, output_format: str) -> str:
        return self.to_json() if output_format == "json" else self.to_csv()


def _write(path, text: str) -> None:
    """Write text to path as UTF-8, creating it as open(path, "w") would."""
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _gtfp_table(dataset: data_io.Dataset, args) -> Table:
    table = Table(
        f"regional efficiency scores and intensity metrics; dataset {dataset.version}",
        ("region", "gtfp", "energy_intensity_kbtu_per_usd",
         "carbon_intensity_kg_per_usd", "efficient"),
    )
    for row in dataset.scores():
        table.add(row.name, row.gtfp, row.energy_intensity_kbtu_per_usd,
                  row.carbon_intensity_kg_per_usd, row.efficient)
    return table


def _delivery_table(dataset: data_io.Dataset, args) -> Table:
    params = dataset.params("carriers")
    description = getattr(args, "description", "hydrogen delivery cost breakdown by carrier")
    table = Table(f"{description}; dataset {dataset.version}", COST_COLUMNS)
    for volume in args.volume:
        chains = dataset.chains(volume)
        queries = [(distance, carriers.default_query(params, volume, distance))
                   for distance in args.distance]
        for name in ("NH3_with_crack", "NH3_direct", "LH2", "pipeline"):
            chain = chains[name]
            for distance, query in queries:
                breakdown = carriers.delivery_cost(chain, query)
                for stage in breakdown.stages:
                    table.add(name, volume, distance, 0, stage.name, stage.usd_per_kg)
                table.add(name, volume, distance, 0, "total", breakdown.total_usd_per_kg)
    return table


def _storage_table(dataset: data_io.Dataset, args) -> Table:
    params = dataset.params("carriers")
    table = Table(
        f"hydrogen storage cost breakdown by carrier and duration; dataset {dataset.version}",
        COST_COLUMNS,
    )
    for volume in args.volume:
        chains = dataset.chains(volume)
        queries = [(days, carriers.default_query(params, volume, 0.0, days))
                   for days in args.days]
        for name in ("NH3_with_crack", "LH2"):
            chain = chains[name]
            for days, query in queries:
                breakdown = carriers.storage_cost(chain, query)
                for stage in breakdown.stages:
                    table.add(chain.medium, volume, 0, days, stage.name, stage.usd_per_kg)
                table.add(chain.medium, volume, 0, days, "total", breakdown.total_usd_per_kg)
    return table


def _cofire_table(dataset: data_io.Dataset, args) -> Table:
    params = cofiring.CofiringParams.from_mapping(dataset.params("cofiring"))
    table = Table(
        f"coal/ammonia co-firing costs and emission intensity; dataset {dataset.version}",
        ("rate", "mixed_fuel_cost_usd_per_tce", "fuel_cost_delta_pct",
         "lcoe_usd_per_mwh", "lcoe_delta_pct", "emission_kg_per_mwh",
         "emission_delta_kg_per_mwh"),
    )
    for rate in cofiring.STANDARD_RATES if args.rate is None else (args.rate,):
        result = cofiring.evaluate(params, rate, interpolate_loss=args.interpolate)
        table.add(result.rate, result.mixed_fuel_cost_usd_per_tce,
                  result.fuel_cost_delta * 100.0, result.lcoe_usd_per_mwh,
                  result.lcoe_delta * 100.0, result.emission_kg_per_mwh,
                  result.emission_delta_kg_per_mwh)
    return table


def _supply_table(dataset: data_io.Dataset, args) -> Table:
    supply = scenarios.SupplyAssumptions.from_mapping(dataset.params("scenarios"))
    table = Table(
        f"green ammonia supply capacity by scenario level; dataset {dataset.version}",
        ("level", "renewable_share", "supply_mt"),
    )
    levels = ([("custom", args.share)] if args.share is not None else
              [(level.name, level.renewable_share) for level in dataset.manifest.supply_levels])
    for name, renewable_share in levels:
        table.add(name, renewable_share, scenarios.supply_capacity_mt(supply, renewable_share))
    return table


def _demand_table(dataset: data_io.Dataset, args) -> Table:
    demand = scenarios.DemandAssumptions.from_mapping(dataset.params("scenarios"))
    table = Table(
        f"green ammonia demand by scenario level and sector; dataset {dataset.version}",
        ("level", "sector", "demand_mt"),
    )
    for level in dataset.manifest.demand_levels:
        breakdown = scenarios.demand_breakdown_mt(demand, level)
        for sector in scenarios.SECTORS:
            table.add(level.name, sector, breakdown[sector])
        table.add(level.name, "total", sum(breakdown.values()))
    return table


def _balance_table(dataset: data_io.Dataset, args) -> Table:
    params = dataset.params("scenarios")
    table = Table(
        f"green ammonia supply vs demand balance; dataset {dataset.version}",
        ("supply_level", "demand_level", "supply_mt", "demand_mt", "coverage", "covered"),
    )
    for row in scenarios.balance_report(scenarios.SupplyAssumptions.from_mapping(params),
                                        scenarios.DemandAssumptions.from_mapping(params),
                                        dataset.manifest.supply_levels,
                                        dataset.manifest.demand_levels):
        table.add(row.supply_level, row.demand_level, row.supply_mt,
                  row.demand_mt, row.coverage, row.covered)
    return table


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        values = (nan,)
    if not all(map(isfinite, values)):
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of finite numbers, got {text!r}")
    return values


# Each command, declared once: its path, its help (None: no help line), its
# table function (None: a group of commands), the one input its table reads
# ("regions" or a parameter namespace; see Dataset.input_value) and its own
# arguments, each a flag with its add_argument options; a list of them is a
# group of flags that exclude each other.
COMMANDS = {
    "gtfp": ("regional efficiency scores and intensities", _gtfp_table, "regions",
             ("--regions", dict(help="regions table (CSV)"))),
    "carrier": ("hydrogen carrier chain costs", None),
    "carrier delivery": (
        "delivery cost sweeps", _delivery_table, "carriers",
        ("--volume", dict(type=_float_list, default=carriers.VOLUME_BRACKETS_KT,
                          help="kt H2 per year, comma list")),
        ("--distance", dict(type=_float_list, default=DELIVERY_DISTANCES_KM,
                            help="km, comma list"))),
    "carrier storage": (
        "storage cost sweeps", _storage_table, "carriers",
        ("--volume", dict(type=_float_list, default=(100.0,), help="kt H2 per year, comma list")),
        ("--days", dict(type=_float_list, default=STORAGE_DAYS,
                        help="storage duration in days, comma list"))),
    "cofire": (
        "co-firing cost and emission ladder", _cofire_table, "cofiring",
        [("--rate", dict(type=float, help="single co-firing rate, e.g. 0.03")),
         ("--all", dict(action="store_true",
                        help="evaluate the whole standard ladder (the default)"))],
        ("--interpolate", dict(action="store_true", help="linearly interpolate efficiency "
                                                          "loss between tabulated rates"))),
    "scenario": ("2030 supply/demand scenarios", None),
    "scenario supply": (None, _supply_table, "scenarios",
                        ("--share", dict(type=float, help="custom renewable-generation share"))),
    "scenario demand": (None, _demand_table, "scenarios"),
    "scenario balance": (None, _balance_table, "scenarios"),
}

# Every table command takes these before its own arguments.
_COMMON = (("--format", dict(choices=("csv", "json"), default="csv")),
           ("--output", dict(help="output file (default: stdout)")),
           ("--params", dict(help="parameter override file (key,value,unit,provenance)")))

# `report` writes one file per entry: its name, and the command and arguments
# whose table it holds.
REPORT = (
    ("regional_efficiency", "gtfp", {}),
    ("delivery_by_volume", "carrier delivery",
     dict(description="delivery cost by volume at 500 km",
          volume=carriers.VOLUME_BRACKETS_KT, distance=(500.0,))),
    ("delivery_by_distance", "carrier delivery",
     dict(description="delivery cost by distance at 50 and 100 kt/yr",
          volume=(50.0, 100.0), distance=DELIVERY_DISTANCES_KM)),
    ("storage_by_duration", "carrier storage", dict(volume=(100.0,), days=STORAGE_DAYS)),
    ("cofiring_ladder", "cofire", dict(rate=None, interpolate=False)),
    ("scenario_supply", "scenario supply", dict(share=None)),
    ("scenario_demand", "scenario demand", {}),
    ("supply_demand_balance", "scenario balance", {}),
)


def _add_arguments(parser, arguments) -> None:
    for argument in arguments:
        if isinstance(argument, list):
            _add_arguments(parser.add_mutually_exclusive_group(), argument)
        else:
            parser.add_argument(argument[0], **argument[1])


def _print_table(table, dataset: data_io.Dataset, args) -> None:
    """A table command: its table to --output or stdout, then a note on
    stderr for each --volume outside the tabulated brackets."""
    text = table(dataset, args).render(args.format)
    if args.output:
        try:
            _write(args.output, text)
        except OSError as exc:
            raise InputError(f"cannot write output: {exc}") from None
    else:
        sys.stdout.write(text)
    for volume in getattr(args, "volume", ()):
        bracket, clamped = carriers.volume_bracket(volume)
        if clamped:
            print(f"note: volume {number_text(volume)} kt/yr is outside the tabulated "
                  f"brackets; capex uses the {bracket:g} kt/yr bracket", file=sys.stderr)


def _report(dataset: data_io.Dataset, args) -> None:
    # A table takes the text the manifest keeps for its input's value, once
    # there is one. Every other table is computed, then each is rendered,
    # before anything is checked, created or written.
    fmt = args.format
    kept = dataset.manifest.report_texts
    keys = {name: (name, fmt, dataset.input_value(COMMANDS[path][2])) for name, path, _ in REPORT}
    tables = {name: COMMANDS[path][1](dataset, argparse.Namespace(**fixed))
              for name, path, fixed in REPORT if keys[name] not in kept}
    texts = {name: tables[name].render(fmt) if name in tables else kept[keys[name]]
             for name in keys}
    used = {key: texts[name] for name, key in keys.items() if key[2] is not None}
    texts = {f"{name}.{fmt}": text for name, text in texts.items()}
    output_dir = data_io.path_text(args.output)
    base = "" if output_dir == "." else output_dir    # as pathlib joins onto "."
    missing = []    # output_dir and its missing parents, deepest first
    directory = output_dir
    while directory and not os.path.exists(directory):
        missing.append(directory)
        directory = os.path.dirname(directory)
    modes = {}    # the mode of each target that exists; a new directory has none
    for name in () if missing else texts:
        with contextlib.suppress(OSError):
            modes[name] = os.stat(os.path.join(base, name)).st_mode
            if not stat.S_ISREG(modes[name]):
                raise InputError(f"cannot write output: {os.path.join(base, name)} "
                                 "exists and is not a regular file")
    # A table whose file exists is written to a temporary name beside it and
    # renamed over it, with its permissions, only once every table is
    # written, so a failed run leaves an existing tree as it was; a new file
    # is written in place. If a write fails, undo runs in order: temporaries
    # and new files, then new directories, deepest first.
    temporaries = {name: os.path.join(base, f".{name}.{os.getpid()}.tmp") for name in modes}
    undo = [functools.partial(os.rmdir, directory) for directory in missing]
    try:
        try:    # as pathlib's mkdir(parents=True, exist_ok=True)
            os.mkdir(output_dir)
        except FileNotFoundError:
            os.makedirs(output_dir, exist_ok=True)
        except OSError:
            if not os.path.isdir(output_dir):
                raise
        for name, text in texts.items():
            path = temporaries.get(name) or os.path.join(base, name)
            undo.insert(0, functools.partial(os.unlink, path))
            _write(path, text)
        for name, temporary in temporaries.items():
            os.chmod(temporary, stat.S_IMODE(modes[name]))
            os.replace(temporary, os.path.join(base, name))
    except OSError as exc:
        for step in undo:
            with contextlib.suppress(OSError):
                step()
        raise InputError(f"cannot write output: {exc}") from None
    dataset.manifest.keep_texts(used)    # a run that fails keeps nothing


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the command line, a subcommand for each entry of
    COMMANDS and one for report; `run` builds one per process."""
    parser = argparse.ArgumentParser(
        prog="nh3econ",
        description="Green-ammonia techno-economic analyses over the bundled datasets.",
    )
    parser.add_argument("--data-dir", default=None,
                        help="dataset directory (default: bundled, or NH3ECON_DATA)")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, (help, table, *arguments) in COMMANDS.items():
        group, _, name = path.rpartition(" ")
        # help=None would list the command with an empty help line
        command = groups[group].add_parser(name, **{"help": help} if help else {})
        if table is None:
            groups[path] = command.add_subparsers(dest=f"{name}_command", required=True)
        else:
            _add_arguments(command, _COMMON + tuple(arguments[1:]))
            command.set_defaults(emit=functools.partial(_print_table, table))
    report = groups[""].add_parser("report", help="write every analysis table to a directory")
    _add_arguments(report, (_COMMON[0], ("--output", dict(required=True, help="output directory")),
                            ("--params", {}), ("--regions", {})))
    report.set_defaults(emit=_report)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `run` uses, built on first use and kept for the process:
    parse_args leaves a parser as it found it."""
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.emit(data_io.Dataset(args.data_dir, args.params, getattr(args, "regions", None)),
                  args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
