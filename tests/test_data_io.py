"""Dataset loading, validation, provenance and manifest checks."""

import ast
import shutil
from pathlib import Path

import pytest

from nh3econ import cli, data_io
from nh3econ.errors import InputError

GOLDEN = Path(__file__).parent / "golden"


def test_bundled_regions():
    records = data_io.load_regions(data_io.bundled_regions_path())
    assert len(records) == 6
    east = next(r for r in records if r.name == "East")
    assert east.gdp_busd == pytest.approx(5363.89)
    assert east.energy_mtce == pytest.approx(1452.58)


def test_regions_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("region,energy_mtce,labour_m,capital_busd,co2_mt,gdp_busd\n")
    with pytest.raises(InputError, match="no records"):
        data_io.load_regions(path)


def test_regions_missing_file(tmp_path):
    with pytest.raises(InputError, match="not found"):
        data_io.load_regions(tmp_path / "nope.csv")


def test_regions_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("region,energy\nNorth,1\n")
    with pytest.raises(InputError, match="header"):
        data_io.load_regions(path)


def test_regions_negative_value_names_location(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text(
        "region,energy_mtce,labour_m,capital_busd,co2_mt,gdp_busd\n"
        "North,943.5,87.28,2290.21,2521.59,1697.42\n"
        "Broken,100,1,1,1,-5\n")
    with pytest.raises(InputError) as excinfo:
        data_io.load_regions(path)
    message = str(excinfo.value)
    assert "Broken" in message and "gdp_busd" in message and "line 3" in message


def test_regions_nonnumeric_cell(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text(
        "region,energy_mtce,labour_m,capital_busd,co2_mt,gdp_busd\n"
        "North,abc,87.28,2290.21,2521.59,1697.42\n")
    with pytest.raises(InputError, match="energy_mtce"):
        data_io.load_regions(path)


def test_bundled_params_values():
    carriers = data_io.load_bundled_params("carriers")
    assert carriers["reformer_capex_10kt"] == 354.0
    units = {key: unit for key, _, unit, _ in carriers.rows()}
    assert units["reformer_capex_10kt"] == "USD_per_t_yr"
    cofiring = data_io.load_bundled_params("cofiring")
    assert cofiring["base_emission_kg_per_mwh"] == 838.0


PARAMETER_FILES = ("carriers.csv", "cofiring.csv", "scenarios.csv", "gapfill.csv")
# (file, key): the rows of the parameter files that no analysis reads
REFERENCE_KEYS = (
    *(("cofiring.csv", key) for key in (
        "coal_price_min_usd_per_tce", "coal_price_max_usd_per_tce",
        "lng_price_min_usd_per_tce", "lng_price_max_usd_per_tce",
        "gas_reference_price_usd_per_tce", "lhv_coal_kcal_per_kg")),
    *(("gapfill.csv", key) for key in (
        "national_co2_2014_mt", "national_co2_2019_mt", "tibet_co2_2014_mt")),
)


def test_provenance_nonempty_everywhere():
    for name in PARAMETER_FILES:
        params = data_io.load_params(Path(data_io.data_dir()) / name, name[:-4])
        for key, _, _, provenance in params.rows():
            assert provenance.strip(), key


def test_reference_keys_are_the_keys_no_schema_declares():
    declared = {key for schema in data_io.SCHEMAS.values() for key in schema}
    undeclared = {(name, key) for name in PARAMETER_FILES
                  for key in data_io.load_params(Path(data_io.data_dir()) / name, name[:-4])
                  if key not in declared}
    assert undeclared == set(REFERENCE_KEYS)


@pytest.mark.parametrize("name, key", REFERENCE_KEYS)
def test_override_of_a_reference_key_exits_2_without_output(name, key, tmp_path, capsys):
    row = next(line for line in (Path(data_io.data_dir()) / name).read_text().splitlines()
               if line.startswith(f"{key},"))
    params = tmp_path / "params.csv"
    params.write_text(f"key,value,unit,provenance\n{row}\n")
    out = tmp_path / "out"
    assert cli.run(["report", "--params", str(params), "--output", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {params}: unknown parameter key {key!r}: no analysis reads it\n")
    assert not out.exists()


def test_missing_key_listed(tmp_path):
    source = (Path(data_io.data_dir()) / "cofiring.csv").read_text()
    lines = [line for line in source.splitlines()
             if not line.startswith("coal_consumption_tce_per_mwh")]
    path = tmp_path / "cofiring.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="coal_consumption_tce_per_mwh"):
        data_io.load_params(path, "cofiring", data_io.SCHEMAS["cofiring"])


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("key,value,unit,provenance\n"
                    "a,1,x,src\n"
                    "a,2,x,src\n")
    with pytest.raises(InputError, match="duplicate"):
        data_io.load_params(path, "test")


def test_unit_mismatch_rejected(tmp_path):
    path = tmp_path / "units.csv"
    path.write_text("key,value,unit,provenance\n"
                    "wacc,0.08,percent,src\n")
    with pytest.raises(InputError, match="unit"):
        data_io.load_params(path, "carriers", {"wacc": "fraction"})


def test_fractional_lifetime_rejected(tmp_path):
    source = (Path(data_io.data_dir()) / "carriers.csv").read_text()
    path = tmp_path / "carriers.csv"
    path.write_text(source.replace("lifetime_years,20,", "lifetime_years,20.5,"))
    with pytest.raises(InputError, match="key 'lifetime_years' must be a whole number "
                                         "of years, got 20.5"):
        data_io.load_params(path, "carriers", data_io.CARRIER_SCHEMA)


def test_empty_provenance_rejected(tmp_path):
    path = tmp_path / "noprov.csv"
    path.write_text("key,value,unit,provenance\n"
                    "a,1,x,\n")
    with pytest.raises(InputError, match="provenance"):
        data_io.load_params(path, "test")


def test_unknown_key_lookup_raises():
    params = data_io.load_bundled_params("carriers")
    with pytest.raises(InputError, match="no key"):
        params["does_not_exist"]


# the header each bundled file must have; the others are parameter files
FILE_COLUMNS = {
    "calibration.csv": data_io.CALIBRATION_COLUMNS,
    "demand_levels.csv": data_io.DEMAND_COLUMNS,
    "manifest.csv": data_io.MANIFEST_COLUMNS,
    "regions_2019.csv": data_io.REGION_COLUMNS,
    "supply_levels.csv": data_io.SUPPLY_COLUMNS,
}


def _serialize(table, columns) -> str:
    """A parsed file as text: its comment lines, its header and its rows."""
    lines = [*table.comments, ",".join(columns), *map(",".join, table.rows)]
    return "\n".join(lines) + "\n"


def test_round_trip_is_byte_identical():
    # the reader keeps each file's raw cell text, so every bundled file can
    # be written back from its parse byte for byte
    paths = sorted(Path(data_io.data_dir()).glob("*.csv"))
    assert len(paths) == 9
    for path in paths:
        columns = FILE_COLUMNS.get(path.name, data_io.PARAM_COLUMNS)
        table = data_io._read_table(path, columns)
        assert _serialize(table, columns) == path.read_text(encoding="utf-8"), path


def test_overrides_layering(tmp_path):
    override = tmp_path / "override.csv"
    override.write_text("key,value,unit,provenance\n"
                        "electricity_usd_per_mwh,40.0,USD_per_MWh,user override\n")
    params = data_io.Dataset(params_path=override).params("carriers")
    assert params["electricity_usd_per_mwh"] == 40.0
    assert params["wacc"] == 0.08
    rows = dict((k, v) for k, v, _, _ in params.rows())
    assert rows["electricity_usd_per_mwh"] == 40.0


def test_manifest_verifies():
    manifest = data_io.Dataset().manifest
    assert manifest.version == "cn-2019-v1"
    assert "regions_2019.csv" in manifest.files
    assert len(manifest.calibration) >= 3


def test_manifest_detects_tampering(tmp_path):
    target = tmp_path / "data"
    shutil.copytree(data_io.data_dir(), target)
    regions = target / "regions_2019.csv"
    regions.write_text(regions.read_text().replace("5363.89", "5363.88"))
    with pytest.raises(InputError, match="digest"):
        data_io.load_manifest(target)


def test_bundled_params_verify_the_manifest(tmp_path, monkeypatch):
    target = tmp_path / "data"
    shutil.copytree(data_io.data_dir(), target)
    carriers_csv = target / "carriers.csv"
    carriers_csv.write_text(carriers_csv.read_text().replace("wacc,0.08,", "wacc,0.09,"))
    monkeypatch.setenv(data_io.ENV_DATA_DIR, str(target))
    with pytest.raises(InputError, match="'carriers.csv' digest mismatch"):
        data_io.load_bundled_params("carriers")


def test_calibration_ledger_contents():
    ledger = {e.constant: e for e in data_io.Dataset().manifest.calibration}
    assert "coal_price_usd_per_tce" in ledger
    assert "electricity_per_t_nh3_mwh" in ledger
    for entry in ledger.values():
        assert entry.oracle.strip()
    # the ledgered coal price matches the bundled co-firing dataset
    cofiring = data_io.load_bundled_params("cofiring")
    assert ledger["coal_price_usd_per_tce"].value == pytest.approx(
        cofiring["coal_price_usd_per_tce"], rel=1e-12)
    # and sits inside the observed trading range
    assert (cofiring["coal_price_min_usd_per_tce"]
            <= ledger["coal_price_usd_per_tce"].value
            <= cofiring["coal_price_max_usd_per_tce"])


def test_calibrated_carrier_knobs_match_dataset():
    ledger = {e.constant: e.value for e in data_io.Dataset().manifest.calibration}
    carriers = data_io.load_bundled_params("carriers")
    for key in ("electricity_usd_per_mwh", "delivery_buffer_days", "truck_opex_rate"):
        assert carriers[key] == pytest.approx(ledger[key], rel=1e-12)


def test_completeness_consumers_vs_providers():
    # loading checks every schema key, so each namespace that loads provides
    # every key its consumers read
    for namespace, schema in data_io.SCHEMAS.items():
        params = data_io.load_bundled_params(namespace)
        assert set(schema) <= set(params), namespace


def test_one_report_reads_exactly_the_declared_keys(tmp_path, monkeypatch):
    # every key a schema declares is read by a default report, and the
    # report reads no key that a schema does not declare
    served = set()
    getitem = data_io.ParameterSet.__getitem__

    def recording(self, key):
        served.add((self.namespace, key))
        return getitem(self, key)

    monkeypatch.setattr(data_io.ParameterSet, "__getitem__", recording)
    assert cli.run(["report", "--output", str(tmp_path / "out")]) == 0
    assert served == {(namespace, key) for namespace, schema in data_io.SCHEMAS.items()
                      for key in schema}


def test_overrides_replace_only_the_keys_a_namespace_declares():
    dataset = data_io.Dataset(params_path=GOLDEN / "overrides.csv")
    for namespace in data_io.SCHEMAS:
        bundled = data_io.load_bundled_params(namespace)
        params = dataset.params(namespace)
        assert list(params) == list(bundled), namespace
    assert dataset.params("carriers")["wacc"] == 0.06
    assert dataset.params("cofiring")["coal_price_usd_per_tce"] == 150.0
    assert dataset.params("scenarios")["wind_gw"] == 800.0


def test_levels_loaders():
    dataset = data_io.Dataset()
    supply = dataset.manifest.supply_levels
    assert [lvl.renewable_share for lvl in supply] == [0.15, 0.35, 0.65]
    demand = dataset.manifest.demand_levels
    assert len(demand) == 5
    assert demand[4].pr_mobility == 0.80


def test_unknown_namespace():
    # Dataset.params does not check its namespace: every call names a
    # namespace of SCHEMAS as a literal, in the package and in bench/
    root = Path(data_io.__file__).parents[2]
    named = []
    for path in [*(root / "src" / "nh3econ").glob("*.py"), *(root / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "attr", getattr(node.func, "id", None)) in (
                    "params", "load_bundled_params"):
                if ast.unparse(node) == "Dataset().params(namespace)":
                    continue    # load_bundled_params passes on what its callers name
                assert [type(arg) for arg in node.args] == [ast.Constant], ast.unparse(node)
                named.append(node.args[0].value)
    assert set(named) == set(data_io.SCHEMAS)


def test_dataset_parses_the_bytes_the_manifest_verified(tmp_path):
    target = tmp_path / "data"
    shutil.copytree(data_io.data_dir(), target)
    dataset = data_io.Dataset(target)
    carriers_csv = target / "carriers.csv"
    carriers_csv.write_text(carriers_csv.read_text().replace(
        "wacc,0.08,", "wacc,0.09,"))
    assert dataset.params("carriers")["wacc"] == 0.08
    assert data_io.load_params(carriers_csv, "carriers")["wacc"] == 0.09


def test_verified_bytes_keep_the_utf8_error(tmp_path):
    path = tmp_path / "carriers.csv"
    path.write_bytes(b"key,value,unit,provenance\nk,1,x,caf\xe9\n")
    message = f"{path}: not UTF-8 text: invalid continuation byte at byte 35"
    with pytest.raises(InputError) as from_file:
        data_io.load_params(path, "carriers")
    with pytest.raises(InputError) as from_bytes:
        data_io.load_params(path, "carriers", data=path.read_bytes())
    assert str(from_file.value) == str(from_bytes.value) == message


# The keys of SCHEMAS on which no byte of a report depends, each with the
# reason. Like test_reachable's ALLOWED, the list only shrinks: an entry
# whose key moves a byte fails.
INERT_KEYS = {
    "nh3_synthesis_conversion": (
        "cancels: every stage of an ammonia chain costs in proportion to the ammonia "
        "mass that synthesis sets, and the delivered hydrogen is proportional to that "
        "mass too, so the factor drops out of USD/kg (1.1 times it exceeds 1 and exits 2)"),
    "stored_share": "cancels: the storage cost is linear in the stored mass",
    "lh2_regas_energy_kwh_per_t": (
        "below the print precision: 0.06 kWh/t at 56 USD/MWh is about 3e-6 USD per "
        "tonne, under the four printed decimals"),
}


def _tree(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _bundled_values() -> dict[str, tuple[float, str]]:
    """Each distinct key of SCHEMAS with its bundled value and unit."""
    bundled = {}
    for namespace, schema in data_io.SCHEMAS.items():
        params = data_io.load_bundled_params(namespace)
        for key, unit in schema.items():
            bundled.setdefault(key, (params[key], unit))
    return bundled


def _override(path: Path, key: str, value: float, unit: str, factor: float) -> Path:
    """A --params file holding `key` alone at `factor` times `value`, whole
    years for a year key."""
    scaled = float(round(value * factor)) if unit == "yr" else value * factor
    path.write_text(f"key,value,unit,provenance\n{key},{scaled!r},{unit},x\n")
    return path


def test_every_declared_parameter_moves_a_report_byte_or_is_listed(tmp_path):
    # each key, overridden alone at 0.9 and 1.1 times its bundled value
    # (whole years for a year key), must change some byte of the report
    # tree in CSV or JSON; a run that exits 2 moves nothing
    defaults = {}
    for fmt in ("csv", "json"):
        assert cli.run(["report", "--output", str(tmp_path / fmt), "--format", fmt]) == 0
        defaults[fmt] = _tree(tmp_path / fmt)
    bundled = _bundled_values()
    moved = set()
    for case, (key, (value, unit)) in enumerate(bundled.items()):
        for factor in (0.9, 1.1):
            path = _override(tmp_path / f"{case}-{factor}.csv", key, value, unit, factor)
            for fmt, default in defaults.items():
                out = tmp_path / f"{case}-{factor}-{fmt}"
                code = cli.run(["report", "--output", str(out), "--params", str(path),
                                "--format", fmt])
                assert code in (0, 2), (key, factor)
                if code == 0 and _tree(out) != default:
                    moved.add(key)
    assert sorted(set(bundled) - moved - set(INERT_KEYS)) == [], "keys that move no byte"
    assert sorted(set(INERT_KEYS) - (set(bundled) - moved)) == [], (
        "listed keys that move a byte, or that no schema declares")


def _counted_renders(monkeypatch) -> list[str]:
    """The format of each table rendered from now on, in order."""
    renders = []
    render = cli.Table.render
    monkeypatch.setattr(cli.Table, "render", lambda table, fmt: renders.append(fmt) or
                        render(table, fmt))
    return renders


def test_kept_report_texts_serve_only_the_runs_they_were_made_for(tmp_path, capsys,
                                                                 monkeypatch):
    # in one process, after default reports in both formats: a report with
    # each key of SCHEMAS alone at 1.1 times its bundled value, with wacc at
    # 0.9 times it, with electricity_usd_per_mwh at 0 and at -0.0, and with
    # a --regions table (the bundled one less its last region), each in both
    # formats and each twice, must print and write what the same run does
    # from an emptied manifest, which keeps no text; every second run takes
    # the texts that its first kept, and renders no table but that of the
    # regions table, which no kept text stands for
    text = Path(data_io.bundled_regions_path()).read_text()
    regions = tmp_path / "regions.csv"
    regions.write_text(text[:text.rstrip("\n").rindex("\n") + 1])
    cases = {"regions": ["--regions", str(regions)]}
    bundled = _bundled_values()
    for case, (key, (value, unit)) in enumerate(bundled.items()):
        cases[key] = ["--params", str(_override(tmp_path / f"{case}.csv", key, value, unit, 1.1))]
    cases["wacc at 0.9"] = ["--params", str(_override(tmp_path / "wacc.csv", "wacc",
                                                      *bundled["wacc"], 0.9))]
    for value in ("0", "-0.0"):
        path = tmp_path / f"electricity{value}.csv"
        path.write_text(f"key,value,unit,provenance\n"
                        f"electricity_usd_per_mwh,{value},USD_per_MWh,x\n")
        cases[f"electricity at {value}"] = ["--params", str(path)]
    renders = _counted_renders(monkeypatch)

    def report(name, fmt, kind):
        out = tmp_path / f"{kind}-{name}-{fmt}"
        code = cli.run(["report", "--output", str(out), "--format", fmt, *cases.get(name, [])])
        return code, capsys.readouterr(), _tree(out)

    runs = [(name, fmt) for name in ["default", *cases] for fmt in ("csv", "json")]
    warm = {}
    for run in runs:
        warm[run] = report(*run, "warm")
        renders.clear()
        assert report(*run, "again") == warm[run], run
        assert len(renders) == (run[0] == "regions"), run
    for run in runs[2:]:
        data_io._shared.cache_clear()
        assert report(*run, "cold") == warm[run], run
    # not vacuous: the regions table, and a key of each namespace, move a
    # byte, and so does a second value of a key; a key that two namespaces
    # declare moves the tables of both; 0 and -0.0 are two values
    moved = {name for name, fmt in runs if warm[name, fmt][2] != warm["default", fmt][2]}
    assert "regions" in moved
    assert all(moved.intersection(schema) for schema in data_io.SCHEMAS.values())
    for fmt in ("csv", "json"):
        assert warm["wacc at 0.9", fmt][2] != warm["wacc", fmt][2]
        tree, default = warm["coal_consumption_tce_per_mwh", fmt][2], warm["default", fmt][2]
        assert {f"cofiring_ladder.{fmt}", f"scenario_demand.{fmt}"} <= {
            name for name in tree if tree[name] != default[name]}
    assert len({data_io.Dataset(params_path=cases[f"electricity at {value}"][1])
                .input_value("carriers") for value in ("0", "-0.0")}) == 2


def test_kept_report_texts_stay_within_their_bound(tmp_path, capsys, monkeypatch):
    # in one process, reports with more distinct override values than a
    # manifest keeps texts for, each keeping one co-firing text, and a
    # default report after every tenth: the manifest keeps at most
    # KEPT_TEXTS texts and forgets the least recently used first, so a
    # default report still takes every text, and so does a repeat of the
    # last override, while a repeat of the first renders its table again;
    # every run prints and writes what it does from an emptied manifest
    renders = _counted_renders(monkeypatch)
    overrides = []
    for k in range(data_io.KEPT_TEXTS + 8):
        path = tmp_path / f"{k}.csv"
        path.write_text(f"key,value,unit,provenance\n"
                        f"coal_price_usd_per_tce,{100 + k},USD_per_tce,x\n")
        overrides.append(["--params", str(path)])
    runs = []
    for k, argv in enumerate(overrides):
        runs += [argv, []] if k % 10 == 9 else [argv]
    runs += [overrides[-1], overrides[0]]

    def report(k, argv, kind):
        out = tmp_path / f"{kind}-{k}"
        code = cli.run(["report", "--output", str(out), *argv])
        return code, capsys.readouterr(), _tree(out)

    warm, rendered = [], []
    for k, argv in enumerate(runs):
        renders.clear()
        warm.append(report(k, argv, "warm"))
        rendered.append(len(renders))
        assert len(data_io.load_manifest().report_texts) <= data_io.KEPT_TEXTS
    assert len(data_io.load_manifest().report_texts) == data_io.KEPT_TEXTS
    # the first default report renders the bundled ladder, which no run before it needed
    assert [n for n, argv in zip(rendered, runs) if not argv] == [1] + [0] * 6
    assert rendered[-2:] == [0, 1]
    for k, argv in enumerate(runs):
        data_io._shared.cache_clear()
        assert report(k, argv, "cold") == warm[k], argv
