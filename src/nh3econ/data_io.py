"""Bundled parameter datasets: loading, validation, provenance, overrides.

All datasets are plain UTF-8 comma-delimited text with a mandatory header
row, '#' comment lines, '.' decimal points and no thousands separators.
Every parameter row carries a provenance label so the numbers stay
auditable; back-solved constants are additionally listed in the
calibration ledger together with the recipe that produced them.

`SCHEMAS` maps each parameter namespace to the keys its analysis reads
and their units: `CARRIER_SCHEMA`, and the `UNITS` that the co-firing and
scenario classes declare. Other keys in a file (all of gapfill.csv) are
reference values that no analysis reads, and an override of one is an error.

One reader parses every file: it keeps the raw cell text, the comment
lines and the line number of each row, drops one leading byte-order mark
and checks the header with one message, `<path>: expected header
<columns>, got <cells>`. Bundled files are parsed only from the bytes whose
digests `load_manifest` verified; only `--params` and `--regions` files are
read by path. A `ParameterSet` is a read-only `dict` of floats, with each
key's unit and provenance kept beside it. Paths are `str`, and messages
name files as pathlib would.

What is kept in-process, and what is not: every run reads and hashes every
listed file. What is derived from the verified bytes (each namespace's
base parameters, the bundled regions and their scores, the scenario levels,
the calibration ledger and the carrier chains over the base parameters) is
computed at most once per process for each verified content of a
directory, and only the most recent content's values are kept. A value
whose computation fails is not kept, so the same bad bytes fail the same
way on every run. The `--params` and `--regions` files are read and parsed
on every run, and so is whatever depends on them.
"""

from __future__ import annotations

import hashlib
import math
import os
from functools import cached_property, lru_cache
from types import MappingProxyType

from . import carriers, gtfp
from .carriers import VOLUME_BRACKETS_KT
from .cofiring import CofiringParams
from .errors import InputError
from .gtfp import RegionRecord
from .scenarios import DemandAssumptions, DemandLevel, SupplyAssumptions, SupplyLevel

ENV_DATA_DIR = "NH3ECON_DATA"
REGIONS_FILE = "regions_2019.csv"

REGION_COLUMNS = ("region", "energy_mtce", "labour_m", "capital_busd",
                  "co2_mt", "gdp_busd")
PARAM_COLUMNS = ("key", "value", "unit", "provenance")
MANIFEST_COLUMNS = ("file", "sha256")
CALIBRATION_COLUMNS = ("constant", "value", "unit", "oracle")
SUPPLY_COLUMNS = ("level", "renewable_share")
DEMAND_COLUMNS = ("level", "pr_ammonia", "pr_power", "pr_shipping", "pr_mobility")

CARRIER_SCHEMA: dict[str, str] = {
    "wacc": "fraction",
    "lifetime_years": "yr",
    "fixed_opex_rate": "fraction_per_yr",
    "electricity_usd_per_mwh": "USD_per_MWh",
    "nh3_plant_capex_usd_per_t": "USD_per_t_yr",
    "nh3_synthesis_energy_mwh_per_t": "MWh_per_t",
    "nh3_synthesis_conversion": "fraction",
    "nh3_reform_energy_mwh_per_t": "MWh_per_t",
    "nh3_reform_conversion": "fraction",
    "nh3_cooling_energy_mwh_per_t": "MWh_per_t",
    "nh3_storage_energy_kwh_per_t_day": "kWh_per_t_day",
    "nh3_vessel_capex_usd_per_t": "USD_per_t",
    "nh3_boiloff_per_day": "fraction_per_day",
    **{f"reformer_capex_{int(b)}kt": "USD_per_t_yr" for b in VOLUME_BRACKETS_KT},
    "truck_capex_usd": "USD",
    "truck_payload_t": "t",
    "truck_daily_range_km": "km_per_day",
    "truck_opex_rate": "fraction_per_yr",
    "delivery_buffer_days": "days",
    **{f"liquefier_capex_{int(b)}kt": "USD_per_t_yr" for b in VOLUME_BRACKETS_KT},
    "lh2_liquefaction_energy_mwh_per_t": "MWh_per_t",
    "lh2_regas_energy_kwh_per_t": "kWh_per_t",
    "lh2_boiloff_per_day": "fraction_per_day",
    "lh2_density_t_per_m3": "t_per_m3",
    "lh2_truck_tank_m3": "m3",
    "cryo_tank_capex_usd_per_m3": "USD_per_m3",
    "vaporizer_capex_kusd_per_10kt": "kUSD_per_10kt_yr",
    **{f"pipeline_capex_kusd_per_km_{int(b)}kt": "kUSD_per_km" for b in VOLUME_BRACKETS_KT},
    "pipeline_energy_mwh_per_t_100km": "MWh_per_t_100km",
    "pipeline_leakage_per_1000km": "fraction_per_1000km",
    "stored_share": "fraction",
}

SCHEMAS: dict[str, dict[str, str]] = {
    "carriers": CARRIER_SCHEMA,
    "cofiring": CofiringParams.UNITS,
    "scenarios": {**SupplyAssumptions.UNITS, **DemandAssumptions.UNITS},
}


def data_dir() -> str:
    """Bundled data directory, overridable via the environment."""
    return os.environ.get(ENV_DATA_DIR) or os.path.join(os.path.dirname(__file__), "data")


def path_text(path) -> str:
    """`path` as pathlib writes it: no empty or "." parts, "." if nothing is
    left, and a leading "//" kept only as exactly two slashes."""
    path = os.fspath(path)
    root = "//" if path[:2] == "//" and path[2:3] != "/" else "/" * path.startswith("/")
    return root + "/".join(part for part in path.split("/") if part not in ("", ".")) or "."


class _Table:
    """Raw parsed file: comment lines, row cells and the line number of
    each row."""

    __slots__ = ("path", "comments", "rows", "row_lines")

    def __init__(self, path: str, comments: tuple[str, ...],
                 rows: tuple[tuple[str, ...], ...], row_lines: tuple[int, ...]):
        self.path = path
        self.comments = comments
        self.rows = rows
        self.row_lines = row_lines


def _read_error(path: str, exc: OSError | UnicodeDecodeError) -> InputError:
    """One-line input error for a file that cannot be read as UTF-8 text."""
    if isinstance(exc, FileNotFoundError):
        return InputError(f"dataset file not found: {path}")
    if isinstance(exc, OSError):
        return InputError(f"cannot read {path}: {exc.strerror}")
    return InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb", buffering=0) as file:
            return file.readall()
    except OSError as exc:
        raise _read_error(path_text(path), exc) from None


def _read_table(path: str, columns: tuple[str, ...], data: bytes | None = None) -> _Table:
    """Parse a dataset file whose header row must be `columns`: `data`, its
    bytes already read, or else the file at `path`, which error messages
    name either way. One leading byte-order mark is dropped after decoding."""
    if not path:    # path_text, as pathlib, would name it "."
        raise InputError("cannot read '': empty path")
    path = path_text(path)
    if data is None:
        data = _read_bytes(path)
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise _read_error(path, exc) from None
    comments: list[str] = []
    header: tuple[str, ...] | None = None
    rows: list[tuple[str, ...]] = []
    row_lines: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            if header is None:
                comments.append(line)
            continue
        cells = tuple(map(str.strip, line.split(",")))
        if header is None:
            if cells != columns:
                raise InputError(
                    f"{path}: expected header {','.join(columns)}, got {','.join(cells)}")
            header = cells
        elif len(cells) != len(header):
            raise InputError(
                f"{path}: line {lineno}: expected {len(header)} cells, got {len(cells)}")
        else:
            rows.append(cells)
            row_lines.append(lineno)
    if header is None:
        raise InputError(f"{path}: no header row found")
    return _Table(path, tuple(comments), tuple(rows), tuple(row_lines))


def _parse_float(cell: str, path: str, lineno: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InputError(
            f"{path}: line {lineno}, column {column!r}: "
            f"cannot parse {cell!r} as a finite number")
    return value


class ParamEntry:
    __slots__ = ("key", "value", "unit", "provenance")

    def __init__(self, key: str, value: float, unit: str, provenance: str):
        self.key = key
        self.value = value
        self.unit = unit
        self.provenance = provenance


class ParameterSet(dict):
    """Namespaced key -> float value from one file, each key's `ParamEntry`
    (value, unit, provenance) kept beside it; a missing key is an input error.
    A set is read-only, as the bundled ones are shared between runs."""

    # None marks an operation as unsupported: calling it raises TypeError
    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = None

    def __init__(self, namespace: str, entries: dict[str, ParamEntry]):
        super().__init__((key, entry.value) for key, entry in entries.items())
        self.namespace = namespace
        self._entries = entries

    def __missing__(self, key: str):
        raise InputError(f"parameter set {self.namespace!r} has no key {key!r}")

    def rows(self) -> list[tuple[str, float, str, str]]:
        """Effective entries as (key, value, unit, provenance) rows."""
        return [(e.key, e.value, e.unit, e.provenance)
                for e in self._entries.values()]

    def with_overrides(self, other: "ParameterSet") -> "ParameterSet":
        """New set where `other`'s entries replace this one's, for the keys
        that this set's namespace declares."""
        schema = SCHEMAS[self.namespace]
        merged = dict(self._entries)
        merged.update((key, entry) for key, entry in other._entries.items() if key in schema)
        return ParameterSet(self.namespace, merged)


def load_params(path: str, namespace: str,
                schema: dict[str, str] | None = None,
                data: bytes | None = None) -> ParameterSet:
    """Load a key/value/unit/provenance file and validate it.

    With a schema, every schema key must be present with the expected unit
    label; missing keys are reported together. Duplicate keys, empty
    provenance and a value in years (unit `yr`) that is not a whole number
    are rejected. `data`, when given, is the file's content, already read.
    """
    table = _read_table(path, PARAM_COLUMNS, data)
    entries: dict[str, ParamEntry] = {}
    for cells, lineno in zip(table.rows, table.row_lines):
        key, raw_value, unit, provenance = cells
        if key in entries:
            raise InputError(f"{table.path}: line {lineno}: duplicate key {key!r}")
        if not provenance:
            raise InputError(f"{table.path}: line {lineno}: empty provenance for {key!r}")
        value = _parse_float(raw_value, table.path, lineno, "value")
        if schema and key in schema and unit != schema[key]:
            raise InputError(
                f"{table.path}: line {lineno}: key {key!r} has unit {unit!r}, "
                f"schema expects {schema[key]!r}")
        if unit == "yr" and not value.is_integer():
            raise InputError(
                f"{table.path}: line {lineno}: key {key!r} must be a whole "
                f"number of years, got {raw_value}")
        entries[key] = ParamEntry(key, value, unit, provenance)
    if schema:
        missing = sorted(set(schema) - set(entries))
        if missing:
            raise InputError(
                f"{table.path}: missing required keys: " + ", ".join(missing))
    return ParameterSet(namespace, entries)


def load_overrides(path: str) -> ParameterSet:
    """A user override file, each key checked against every schema, so
    that one file can serve every namespace: a key that no schema declares
    (a misspelling, or a reference value that no analysis reads), or a unit
    other than the declaring schema's, is an input error."""
    overrides = load_params(path, "overrides")
    for key, _, unit, _ in overrides.rows():
        expected = {schema[key] for schema in SCHEMAS.values() if key in schema}
        if not expected:
            raise InputError(f"{path}: unknown parameter key {key!r}: no analysis reads it")
        if expected != {unit}:
            raise InputError(
                f"{path}: key {key!r} has unit {unit!r}, schema expects "
                + " and ".join(map(repr, sorted(expected))))
    return overrides


def load_bundled_params(namespace: str) -> ParameterSet:
    """Bundled parameters for a namespace, from a verified `Dataset()`."""
    return Dataset().params(namespace)


def load_regions(path: str, data: bytes | None = None) -> tuple[RegionRecord, ...]:
    """Regional input/output records, validated strictly positive; `data`,
    when given, is the file's content, already read."""
    table = _read_table(path, REGION_COLUMNS, data)
    if not table.rows:
        raise InputError(f"{table.path}: no records")
    records = []
    for cells, lineno in zip(table.rows, table.row_lines):
        name = cells[0]
        values = {}
        for column, cell in zip(REGION_COLUMNS[1:], cells[1:]):
            value = _parse_float(cell, table.path, lineno, column)
            if value <= 0:
                raise InputError(
                    f"{table.path}: line {lineno} (region {name!r}), column "
                    f"{column!r}: value must be positive, got {cell}")
            values[column] = value
        records.append(RegionRecord(name=name, **values))
    return tuple(records)


def bundled_regions_path() -> str:
    return os.path.join(data_dir(), REGIONS_FILE)


class CalibrationEntry:
    """A back-solved constant and the recipe that reproduces it."""

    __slots__ = ("constant", "value", "unit", "oracle")

    def __init__(self, constant: str, value: float, unit: str, oracle: str):
        self.constant = constant
        self.value = value
        self.unit = unit
        self.oracle = oracle


class DatasetManifest:
    """The verified content of each listed file (filename -> bytes) of one
    dataset directory, and the calibration ledger, which `Dataset` fills.
    Two manifests are equal when they name the same directory and version
    and verified the same bytes of the same files."""

    __slots__ = ("directory", "path", "version", "files", "calibration")

    def __init__(self, directory: str, path: str, version: str, files: dict[str, bytes]):
        self.directory = directory
        self.path = path
        self.version = version
        self.files = files
        self.calibration: tuple[CalibrationEntry, ...] = ()

    def __eq__(self, other) -> bool:
        return ((self.directory, self.version, self.files)
                == (other.directory, other.version, other.files))

    def __hash__(self) -> int:
        return hash((self.directory, self.version, *self.files))

    def content(self, name: str) -> bytes:
        """The verified bytes of a file; one the manifest does not list is an input error."""
        if name not in self.files:
            raise InputError(f"{self.path}: does not list {name!r}, which this run parses")
        return self.files[name]

    def table(self, name: str, columns: tuple[str, ...]) -> _Table:
        """A listed file parsed from its verified bytes."""
        return _read_table(os.path.join(self.directory, name), columns, self.content(name))


def load_manifest(directory: str | None = None) -> DatasetManifest:
    """Read manifest.csv and every listed file, once, verifying its digest:
    the only reads of a bundled file. A file listed twice is an input error."""
    base_dir = data_dir() if directory is None else directory
    table = _read_table(os.path.join(base_dir, "manifest.csv"), MANIFEST_COLUMNS)
    version = ""
    for comment in table.comments:
        text = comment.lstrip("# ").strip()
        if text.startswith("version:"):
            version = text.split(":", 1)[1].strip()
    digests = {}
    for (name, digest), lineno in zip(table.rows, table.row_lines):
        if name in digests:
            raise InputError(f"{table.path}: line {lineno}: {name!r} is listed twice")
        digests[name] = digest
    files = {}
    for name, digest in digests.items():
        data = _read_bytes(os.path.join(base_dir, name))
        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            raise InputError(
                f"dataset file {name!r} digest mismatch: manifest has "
                f"{digest[:12]}..., file has {actual[:12]}...")
        files[name] = data
    return DatasetManifest(base_dir, table.path, version, files)


class _Verified:
    """What runs derive from one verified content of a dataset directory
    (see the module docstring): the ledger, parsed on construction, and the
    rest on first use, each value immutable or a read-only view. The
    analyses are called through their modules."""

    def __init__(self, manifest: DatasetManifest):
        self.manifest = manifest
        ledger = manifest.table("calibration.csv", CALIBRATION_COLUMNS)
        self.calibration = tuple(
            CalibrationEntry(row[0], _parse_float(row[1], ledger.path, ln, "value"), row[2], row[3])
            for row, ln in zip(ledger.rows, ledger.row_lines))
        self.params: dict[str, ParameterSet] = {}
        self.chains: dict[float, MappingProxyType] = {}

    def base_params(self, namespace: str) -> ParameterSet:
        """`<namespace>.csv`, checked against its schema."""
        if namespace not in self.params:
            name = f"{namespace}.csv"
            self.params[namespace] = load_params(
                os.path.join(self.manifest.directory, name), namespace, SCHEMAS[namespace],
                self.manifest.content(name))
        return self.params[namespace]

    @cached_property
    def regions(self) -> tuple[RegionRecord, ...]:
        return load_regions(os.path.join(self.manifest.directory, REGIONS_FILE),
                            self.manifest.content(REGIONS_FILE))

    @cached_property
    def scores(self) -> tuple[gtfp.RegionEfficiency, ...]:
        return tuple(gtfp.gtfp_scores(self.regions))

    @cached_property
    def supply_levels(self) -> tuple[SupplyLevel, ...]:
        table = self.manifest.table("supply_levels.csv", SUPPLY_COLUMNS)
        return tuple(SupplyLevel(row[0], _parse_float(row[1], table.path, ln, "renewable_share"))
                     for row, ln in zip(table.rows, table.row_lines))

    @cached_property
    def demand_levels(self) -> tuple[DemandLevel, ...]:
        table = self.manifest.table("demand_levels.csv", DEMAND_COLUMNS)
        return tuple(DemandLevel(row[0], *(_parse_float(cell, table.path, ln, column)
                                           for column, cell in zip(DEMAND_COLUMNS[1:], row[1:])))
                     for row, ln in zip(table.rows, table.row_lines))


@lru_cache(maxsize=1)
def _verified(manifest: DatasetManifest) -> _Verified:
    """The values derived from a manifest's verified content, kept for the
    most recent content only; `_verified.cache_clear()` forgets them."""
    return _Verified(manifest)


class Dataset:
    """One run's view of a dataset directory, and the one way to parse a
    bundled file.

    Construction reads manifest.csv and every file it lists, once, and
    verifies their digests, on every run, so a tampered dataset fails
    before anything is computed from it; then it takes the calibration
    ledger and reads and checks the override file, if one is given. Each
    verified content is parsed and scored once per process, and runs over
    the same content share the values: each namespace's parameters, the
    bundled regions and their scores, the scenario levels and the carrier
    chains. A namespace that the overrides touch gets its declared keys
    layered over the shared set, and its own chains, for this run only; a
    given regions table is read from its file and scored for this run
    only. A dataset file that a run parses must be listed in the manifest;
    only the override and regions files given by path are read from
    outside it.
    """

    def __init__(self, directory: str | None = None, params_path: str | None = None,
                 regions_path: str | None = None):
        self.manifest = load_manifest(directory)
        self.version = self.manifest.version
        self._shared = _verified(self.manifest)
        self.manifest.calibration = self._shared.calibration
        self.overrides = None if params_path is None else load_overrides(params_path)
        self._regions_path = regions_path
        self._params: dict[str, ParameterSet] = {}

    def params(self, namespace: str) -> ParameterSet:
        """Effective parameters of one namespace of `SCHEMAS` (every caller
        passes a literal): the shared set, or, where the overrides touch
        its declared keys, a set with those keys replaced."""
        if namespace not in self._params:
            params = self._shared.base_params(namespace)
            if self.overrides is not None and not self.overrides.keys().isdisjoint(
                    SCHEMAS[namespace]):
                params = params.with_overrides(self.overrides)
            self._params[namespace] = params
        return self._params[namespace]

    @cached_property
    def _chains(self) -> dict[float, MappingProxyType]:
        shared = self._shared
        return shared.chains if self.params("carriers") is shared.base_params("carriers") else {}

    def chains(self, volume: float) -> MappingProxyType:
        """`builtin_chains` over the carrier parameters at one volume, built
        once per volume: once per process for the shared parameters."""
        if volume not in self._chains:
            self._chains[volume] = MappingProxyType(
                carriers.builtin_chains(self.params("carriers"), volume))
        return self._chains[volume]

    @cached_property
    def regions(self) -> tuple[RegionRecord, ...]:
        """The given regions table, or the bundled one."""
        return self._shared.regions if self._regions_path is None else load_regions(
            self._regions_path)

    def scores(self) -> tuple[gtfp.RegionEfficiency, ...]:
        """`gtfp_scores` of the regions: once per process for the bundled table."""
        return self._shared.scores if self._regions_path is None else tuple(
            gtfp.gtfp_scores(self.regions))

    @property
    def supply_levels(self) -> tuple[SupplyLevel, ...]:
        return self._shared.supply_levels

    @property
    def demand_levels(self) -> tuple[DemandLevel, ...]:
        return self._shared.demand_levels
