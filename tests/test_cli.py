"""Command-line behaviour: table contents, error exit codes, determinism."""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nh3econ
from nh3econ import cli, data_io
from nh3econ.errors import SolverError
from test_golden import COMMANDS, GOLDEN, TREES, _assert_matches_golden, golden_stderr


def _csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_gtfp_table(capsys):
    assert cli.run(["gtfp"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    northwest = next(r for r in rows if r["region"] == "Northwest")
    assert float(northwest["gtfp"]) == pytest.approx(0.65, abs=0.01)
    assert float(northwest["energy_intensity_kbtu_per_usd"]) == pytest.approx(18.51, abs=0.02)
    assert float(northwest["carbon_intensity_kg_per_usd"]) == pytest.approx(1.51, abs=0.02)
    assert northwest["efficient"] == "false"


def test_gtfp_missing_file_exits_2_without_output(capsys):
    assert cli.run(["gtfp", "--regions", "missing.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "missing.csv" in captured.err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        cli.run(["transmute"])
    assert excinfo.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        cli.run(["gtfp", "--frobnicate"])
    assert excinfo.value.code == 2


def test_solver_failure_exits_3(monkeypatch, capsys):
    def boom(records):
        raise SolverError("synthetic failure")

    monkeypatch.setattr("nh3econ.gtfp.gtfp_scores", boom)
    assert cli.run(["gtfp"]) == 3
    assert "synthetic failure" in capsys.readouterr().err


def test_cofire_single_rate(capsys):
    assert cli.run(["cofire", "--rate", "0.03"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 1
    assert float(rows[0]["lcoe_delta_pct"]) == pytest.approx(17.3, abs=0.1)
    assert float(rows[0]["emission_delta_kg_per_mwh"]) == pytest.approx(-25.14, abs=0.01)


def test_cofire_rejects_untabulated_rate(capsys):
    assert cli.run(["cofire", "--rate", "0.07"]) == 2
    assert "efficiency-loss" in capsys.readouterr().err


def test_carrier_delivery_json(capsys):
    assert cli.run(["carrier", "delivery", "--volume", "100", "--distance", "500",
                    "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"] == ["medium", "volume_kt", "distance_km",
                                  "days", "stage", "usd_per_kg"]
    totals = {row[0]: row[5] for row in payload["rows"] if row[4] == "total"}
    assert 1.2 <= totals["NH3_with_crack"] <= 1.6
    assert 0.8 <= totals["NH3_direct"] <= 1.2


def test_scenario_supply_custom_share(capsys):
    assert cli.run(["scenario", "supply", "--share", "0.15"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 1
    assert float(rows[0]["supply_mt"]) == pytest.approx(39.16, abs=0.01)


def test_scenario_demand_sector_rows(capsys):
    assert cli.run(["scenario", "demand"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    level5_total = next(r for r in rows
                        if r["level"] == "Level 5" and r["sector"] == "total")
    sectors = [r for r in rows if r["level"] == "Level 5" and r["sector"] != "total"]
    assert float(level5_total["demand_mt"]) == pytest.approx(
        sum(float(r["demand_mt"]) for r in sectors), abs=2e-4)


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "gtfp.csv"
    assert cli.run(["gtfp", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert "Northwest" in target.read_text()


def test_report_into_an_existing_file_exits_2_without_output(tmp_path, capsys):
    target = tmp_path / "F"
    target.write_text("kept\n")
    assert cli.run(["report", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: cannot write output: ")
    assert str(target) in captured.err
    assert target.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["F"]


def test_output_in_a_missing_directory_exits_2_without_output(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    assert cli.run(["gtfp", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: cannot write output: ")
    assert str(target) in captured.err
    assert not (tmp_path / "missing").exists()


def test_report_onto_a_directory_target_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "OUT"
    (out / "supply_demand_balance.csv").mkdir(parents=True)
    assert cli.run(["report", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert str(out / "supply_demand_balance.csv") in captured.err
    assert [p.name for p in out.iterdir()] == ["supply_demand_balance.csv"]


def test_report_failing_mid_write_removes_what_it_created(tmp_path, monkeypatch, capsys):
    out = tmp_path / "new" / "OUT"
    (tmp_path / "kept").mkdir()
    original = cli._write

    def failing(path, *args, **kwargs):
        if Path(path).name == "cofiring_ladder.csv":
            raise OSError(28, "No space left on device")
        return original(path, *args, **kwargs)

    monkeypatch.setattr(cli, "_write", failing)
    assert cli.run(["report", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert "No space left on device" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]


def test_report_over_an_existing_tree_replaces_it_whole_or_not_at_all(tmp_path, monkeypatch,
                                                                       capsys):
    out = tmp_path / "OUT"
    assert cli.run(["report", "--output", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    params = tmp_path / "wacc.csv"
    params.write_text("key,value,unit,provenance\nwacc,0.10,fraction,x\n")
    original = cli._write

    def failing(path, *args, **kwargs):
        if "cofiring_ladder" in Path(path).name:
            raise OSError(28, "No space left on device")
        return original(path, *args, **kwargs)

    monkeypatch.setattr(cli, "_write", failing)
    assert cli.run(["report", "--output", str(out), "--params", str(params)]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert "No space left on device" in captured.err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # the same run without the failure replaces every file, keeping its mode
    monkeypatch.setattr(cli, "_write", original)
    (out / "cofiring_ladder.csv").chmod(0o600)
    assert cli.run(["report", "--output", str(out), "--params", str(params)]) == 0
    assert (out / "cofiring_ladder.csv").stat().st_mode & 0o777 == 0o600
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert after.keys() == before.keys()
    assert after["delivery_by_distance.csv"] != before["delivery_by_distance.csv"]
    assert cli.run(["report", "--output", str(tmp_path / "fresh"), "--params", str(params)]) == 0
    assert after == {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}


def test_report_written_a_few_bytes_per_call_matches_golden(tmp_path, monkeypatch):
    # os.write may write less than it is given: _write carries on from there
    original = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: original(fd, data[:7]))
    out = tmp_path / "OUT"
    assert cli.run(["report", "--output", str(out)]) == 0
    golden = GOLDEN / "default_csv"
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
    for path in golden.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_new_output_files_take_the_umask(umask, tmp_path, capsys):
    previous = os.umask(umask)
    try:
        assert cli.run(["report", "--output", str(tmp_path / "OUT")]) == 0
        assert cli.run(["gtfp", "--output", str(tmp_path / "gtfp.csv")]) == 0
    finally:
        os.umask(previous)
    for path in [tmp_path / "gtfp.csv", *(tmp_path / "OUT").iterdir()]:
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask


def test_report_converts_each_distinct_number_once_and_writes_each_file_once(
        tmp_path, monkeypatch):
    # the default CSV tree's 1,236 number cells hold 292 values distinct
    # within their column, and each of its eight files takes one os.write
    cells, writes = [], []
    number_texts, write = cli._number_texts, os.write

    def counting_texts(column):
        cells.append(len(column))
        return number_texts(column)

    def counting_write(fd, data):
        writes.append(len(data))
        return write(fd, data)

    monkeypatch.setattr(cli, "_number_texts", counting_texts)
    monkeypatch.setattr(os, "write", counting_write)
    assert cli.run(["report", "--output", str(tmp_path / "out")]) == 0
    assert sum(cells) == 292
    assert len(writes) == 8


@pytest.mark.parametrize("argv", [
    ["carrier", "delivery", "--distance", "500"],
    ["carrier", "storage", "--days", "30"],
])
def test_clamped_volume_is_noted_on_stderr(argv, capsys):
    assert cli.run([*argv, "--volume", "1000,50,7.5"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "note: volume 1000 kt/yr is outside the tabulated brackets; "
        "capex uses the 100 kt/yr bracket",
        "note: volume 7.5 kt/yr is outside the tabulated brackets; "
        "capex uses the 10 kt/yr bracket",
    ]
    assert captured.out.startswith("# hydrogen ")


def test_fractional_lifetime_override_exits_2(tmp_path, capsys):
    params = tmp_path / "params.csv"
    params.write_text("key,value,unit,provenance\nlifetime_years,20.9,yr,x\n")
    assert cli.run(["carrier", "delivery", "--params", str(params)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {params}: line 2: key 'lifetime_years' must be a whole number "
        "of years, got 20.9"]


def test_cofire_all_with_rate_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.run(["cofire", "--all", "--rate", "0.03"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --rate: not allowed with argument --all" in captured.err


@pytest.mark.parametrize("output", ["", ".", "out/", "./out", "out//", "./out/./", "x/../out"])
def test_report_output_spellings_write_the_report(output, tmp_path, monkeypatch, capsys):
    # "" is the current directory, as "." is; "x/.." is made on the way
    monkeypatch.chdir(tmp_path)
    assert cli.run(["report", "--output", output]) == 0
    assert capsys.readouterr() == ("", "")
    _assert_matches_golden(tmp_path / output, "default_csv")


def test_report_failing_under_missing_parents_removes_each_of_them(tmp_path, monkeypatch,
                                                                    capsys):
    monkeypatch.chdir(tmp_path)
    original = cli._write

    def failing(path, *args):
        if os.path.basename(path) == "cofiring_ladder.csv":
            raise OSError(28, "No space left on device")
        return original(path, *args)

    monkeypatch.setattr(cli, "_write", failing)
    assert cli.run(["report", "--output", "a/b/c"]) == 2
    assert capsys.readouterr() == (
        "", "error: cannot write output: [Errno 28] No space left on device\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("output, named", [
    ("", "supply_demand_balance.csv"), (".", "supply_demand_balance.csv"),
    ("./OUT/", "OUT/supply_demand_balance.csv"), ("OUT//.", "OUT/supply_demand_balance.csv"),
])
def test_directory_target_is_named_as_the_output_spelling_gives_it(output, named, tmp_path,
                                                                   monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / named).mkdir(parents=True)
    assert cli.run(["report", "--output", output]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output: {named} exists and is not a regular file\n")


@pytest.mark.parametrize("output, error", [
    ("F", "[Errno 17] File exists: 'F'"),
    ("F/x", "[Errno 20] Not a directory: 'F/x'"),
    ("./F/x/y/", "[Errno 20] Not a directory: 'F/x/y'"),
])
def test_output_at_or_under_a_file_is_named_as_pathlib_names_it(output, error, tmp_path,
                                                                monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text("kept\n")
    assert cli.run(["report", "--output", output]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write output: {error}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["F"]


@pytest.mark.parametrize("spelling", ["./data", "data/", "data//.", "absolute"])
def test_missing_dataset_file_is_named_alike_for_each_data_dir_spelling(
        spelling, tmp_path, monkeypatch, capsys):
    shutil.copytree(data_io.data_dir(), tmp_path / "data")
    (tmp_path / "data" / "gapfill.csv").unlink()
    monkeypatch.chdir(tmp_path)
    absolute = spelling == "absolute"
    data = str(tmp_path / "data") if absolute else spelling
    assert cli.run(["--data-dir", data, "report", "--output", "out"]) == 2
    named = f"{tmp_path}/data/gapfill.csv" if absolute else "data/gapfill.csv"
    assert capsys.readouterr() == ("", f"error: dataset file not found: {named}\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "data"]


@pytest.mark.parametrize("row, message", [
    ("wacc,0.08,fraction,", "sub/p.csv: line 2: empty provenance for 'wacc'"),
    ("wac,0.08,fraction,x", "./sub//p.csv: unknown parameter key 'wac': no analysis reads it"),
])
def test_params_file_is_named_as_each_message_names_it(row, message, tmp_path, monkeypatch,
                                                       capsys):
    # a parse error names the file as pathlib writes it; a key error names
    # it as it was given
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "p.csv").write_text(f"key,value,unit,provenance\n{row}\n")
    monkeypatch.chdir(tmp_path)
    assert cli.run(["report", "--output", "out", "--params", "./sub//p.csv"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_non_finite_cell_in_the_last_table_exits_2_before_any_write(
        output_format, tmp_path, monkeypatch, capsys):
    # every table is rendered, and so checked, before the first directory
    # or file is made: no new tree, and an existing one keeps every byte
    from nh3econ import scenarios
    original = scenarios.balance_report

    def infinite_coverage(*args):
        rows = original(*args)
        rows[-1].coverage = float("inf")
        return rows

    tree = tmp_path / "tree"
    argv = ["report", "--format", output_format, "--output"]
    assert cli.run([*argv, str(tree)]) == 0
    before = {p.name: p.read_bytes() for p in tree.iterdir()}
    monkeypatch.setattr(scenarios, "balance_report", infinite_coverage)
    for out in (tmp_path / "new" / "out", tree):
        assert cli.run([*argv, str(out)]) == 2
        assert capsys.readouterr() == ("", (
            "error: green ammonia supply vs demand balance; dataset cn-2019-v1: "
            "column 'coverage' is inf, not a finite number\n"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tree"]
    assert {p.name: p.read_bytes() for p in tree.iterdir()} == before


def test_report_tree_is_deterministic(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert cli.run(["report", "--output", str(first)]) == 0
    assert cli.run(["report", "--output", str(second)]) == 0
    first_files = sorted(p.name for p in first.iterdir())
    second_files = sorted(p.name for p in second.iterdir())
    assert first_files == second_files
    assert len(first_files) == 8
    for name in first_files:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_float_format_is_trimmed():
    def csv_text(value):    # one cell, through the column converter
        return cli._column_texts((value,), None, cli._number_texts)[0]
    assert csv_text(1.0) == "1"
    assert csv_text(0.65) == "0.65"
    assert csv_text(0.65304) == "0.653"
    assert csv_text(-0.00001) == "0"
    assert csv_text(True) == "true"
    assert csv_text("NH3") == "NH3"


def test_report_hashes_each_manifest_file_once(tmp_path, monkeypatch):
    # every dataset file is read once, hashed and then parsed from those
    # bytes, by a report and by load_bundled_params alike
    manifest = data_io.load_manifest()
    expected = {"manifest.csv": 1, **{name: 1 for name in manifest.files}}
    read = []
    original = data_io._read_bytes

    def counting(path):
        read.append(Path(path).name)
        return original(path)

    monkeypatch.setattr(data_io, "_read_bytes", counting)
    assert cli.run(["report", "--output", str(tmp_path / "out")]) == 0
    assert Counter(read) == expected
    read.clear()
    data_io.load_bundled_params("carriers")
    assert Counter(read) == expected


def test_report_does_each_piece_of_work_once(tmp_path, monkeypatch):
    # chains once per distinct volume (10, 30, 50 and 100 kt/yr), each
    # demand level's breakdown once for its table and once for the balance,
    # and a program only for the four regions off the ratio frontier; a
    # second report over the same content builds no chain and solves no
    # program, and one with a carriers override builds its own chains
    from nh3econ import carriers, lp, scenarios
    calls = Counter()
    for module, name in ((carriers, "builtin_chains"), (scenarios, "demand_breakdown_mt"),
                         (lp, "solve")):
        def counting(*args, _original=getattr(module, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counting)
    override = _params("wacc,0.06,fraction,x")(tmp_path)
    for extra, expected in (([], {"builtin_chains": 4, "demand_breakdown_mt": 10, "solve": 4}),
                            ([], {"demand_breakdown_mt": 10}),
                            (["--params", override],
                             {"builtin_chains": 4, "demand_breakdown_mt": 10})):
        calls.clear()
        assert cli.run(["report", "--output", str(tmp_path / "out"), *extra]) == 0
        assert calls == expected, extra


def _printed(argv, capsys) -> str:
    """What a run that exits 0 prints: its stdout, then its stderr."""
    assert cli.run(argv) == 0, argv
    out, err = capsys.readouterr()
    return out + err


def test_runs_in_one_process_match_their_goldens_cold_and_warm(tmp_path, capsys):
    # every golden tree and stdout, run twice in one process, the first
    # time from no derived values; after each, a run over other content:
    # a copy of the dataset whose carriers.csv holds another wacc, a
    # --regions table, a --params file with another truck capex (a chain
    # parameter), or the override tree; each of the first three gives its
    # own numbers
    copy = _dataset({"carriers.csv": ("wacc,0.08,", "wacc,0.09,")})(tmp_path)
    regions = _file("regions.csv", REGIONS_HEADER + "North,10,1,1,1,5\n"
                    "South,5,1,1,1,5\nWest,5,2,1,1,4\n")(tmp_path)
    truck = _params("truck_capex_usd,300000,USD,x")(tmp_path)
    others = [["--data-dir", copy, "carrier", "delivery"], ["gtfp", "--regions", regions],
              ["carrier", "delivery", "--params", truck]]
    own = []     # what each of those prints, each from no derived values
    for argv in others:
        data_io._verified.cache_clear()
        own.append(_printed(argv, capsys))
    for text, name in zip(own, ("carrier_delivery", "gtfp", "carrier_delivery")):
        assert text != (GOLDEN / "stdout" / f"{name}.csv").read_text()
    data_io._verified.cache_clear()
    goldens = [(tree, None) for tree in sorted(TREES)] + [
        (name, output_format) for name in sorted(COMMANDS) for output_format in ("csv", "json")]
    for warm in (False, True):
        for k, (name, output_format) in enumerate(goldens):
            if output_format is None:
                out = tmp_path / f"{name}_{warm}"
                assert cli.run(["report", "--output", str(out), *TREES[name]]) == 0
                _assert_matches_golden(out, name)
                assert capsys.readouterr() == ("", "")
            else:
                expected = (GOLDEN / "stdout" / f"{name}.{output_format}").read_bytes()
                assert _printed([*COMMANDS[name], "--format", output_format], capsys) == (
                    expected + golden_stderr(name)).decode(), (name, output_format, warm)
            if k % 4 == 3:
                out = tmp_path / f"override_{warm}_{k}"
                assert cli.run(["report", "--output", str(out), *TREES["override_csv"]]) == 0
                _assert_matches_golden(out, "override_csv")
            else:
                assert _printed(others[k % 4], capsys) == own[k % 4], (warm, k)


def test_file_changed_after_a_warm_run_fails_its_digest(tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(data_io.data_dir(), data)
    assert cli.run(["--data-dir", str(data), "report", "--output", str(tmp_path / "first")]) == 0
    carriers_csv = data / "carriers.csv"
    carriers_csv.write_text(carriers_csv.read_text().replace("wacc,0.08,", "wacc,0.09,"))
    for _ in range(2):
        out = tmp_path / "out"
        assert cli.run(["--data-dir", str(data), "report", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert "error: dataset file 'carriers.csv' digest mismatch" in captured.err
        assert not out.exists()


def test_a_run_over_other_content_names_its_own_files(tmp_path, capsys):
    # two directories with the same content, whose carriers.csv cannot be
    # parsed: cofire on the first does not parse it, carrier delivery on
    # the second fails naming the second's file, and fails the same way again
    broken = _dataset({"carriers.csv": ("wacc,0.08,fraction", "wacc,0.08")})
    first, second = broken(tmp_path / "a"), broken(tmp_path / "b")
    assert cli.run(["--data-dir", first, "cofire"]) == 0
    capsys.readouterr()
    for _ in range(2):
        assert cli.run(["--data-dir", second, "carrier", "delivery"]) == 2
        assert capsys.readouterr() == (
            "", f"error: {second}/carriers.csv: line 5: expected 4 cells, got 3\n")


def test_malformed_ledger_exits_2_on_every_run(tmp_path, capsys):
    # the ledger is parsed where a run's dataset is set up, before any
    # table, and a ledger that fails to parse is not kept
    data = _dataset({"calibration.csv": ("coal_price_usd_per_tce,153.4681287403,",
                                         "coal_price_usd_per_tce,x,")})(tmp_path)
    assert cli.run(["cofire"]) == 0
    capsys.readouterr()
    for _ in range(2):
        assert cli.run(["--data-dir", data, "cofire"]) == 2
        assert capsys.readouterr() == ("", f"error: {data}/calibration.csv: line 3, "
                                           "column 'value': cannot parse 'x' as a finite number\n")


def test_shared_values_cannot_be_changed_by_a_caller():
    dataset = data_io.Dataset()
    assert data_io.Dataset().scores() is dataset.scores()     # shared between runs
    for values in (dataset.regions, dataset.scores(), dataset.supply_levels,
                   dataset.demand_levels, dataset.manifest.calibration,
                   dataset.chains(100.0)["LH2"].stages):
        assert type(values) is tuple
    chains = dataset.chains(100.0)
    assert data_io.Dataset().chains(100.0) is chains
    with pytest.raises(TypeError):
        chains["LH2"] = None
    params = dataset.params("carriers")
    assert data_io.Dataset().params("carriers") is params
    for change in (lambda: params.__setitem__("wacc", 0.5), lambda: params.__delitem__("wacc"),
                   lambda: params.update(wacc=0.5), lambda: params.pop("wacc"),
                   params.popitem, params.clear, lambda: params.setdefault("x", 1.0)):
        with pytest.raises(TypeError):
            change()
    with pytest.raises(TypeError):
        params |= {"wacc": 0.5}
    assert params["wacc"] == 0.08 and len(params) == len(data_io.CARRIER_SCHEMA)


def test_report_on_tampered_dataset_exits_2_without_output(tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(data_io.data_dir(), data)
    carriers_csv = data / "carriers.csv"
    carriers_csv.write_text(carriers_csv.read_text().replace("0.08", "0.09", 1))
    out = tmp_path / "out"
    assert cli.run(["--data-dir", str(data), "report", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "carriers.csv" in err and "digest mismatch" in err
    assert not out.exists()


def _assert_one_line_naming(capsys, path):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert str(path) in captured.err


def test_manifest_listing_a_missing_file_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(data_io.data_dir(), data)
    (data / "gapfill.csv").unlink()
    out = tmp_path / "out"
    assert cli.run(["--data-dir", str(data), "report", "--output", str(out)]) == 2
    _assert_one_line_naming(capsys, data / "gapfill.csv")
    assert not out.exists()


@pytest.mark.parametrize("name, command", [
    ("calibration.csv", "cofire"),
    ("carriers.csv", "carrier delivery"),
    ("cofiring.csv", "cofire"),
    ("demand_levels.csv", "scenario demand"),
    ("regions_2019.csv", "gtfp"),
    ("scenarios.csv", "scenario supply"),
    ("supply_levels.csv", "scenario supply"),
])
def test_manifest_omitting_a_parsed_file_exits_2(name, command, tmp_path, capsys):
    # the file on disk is changed too: a run must not read it unverified
    data = tmp_path / "data"
    shutil.copytree(data_io.data_dir(), data)
    manifest = data / "manifest.csv"
    manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                if not line.startswith(f"{name},")))
    text = (data / name).read_text()
    (data / name).write_text(text.replace("wacc,0.08,", "wacc,0.5,"))
    line = f"error: {manifest}: does not list {name!r}, which this run parses\n"
    out = tmp_path / "out"
    assert cli.run(["--data-dir", str(data), *command.split()]) == 2
    assert capsys.readouterr() == ("", line)
    assert cli.run(["--data-dir", str(data), "report", "--output", str(out)]) == 2
    assert capsys.readouterr() == ("", line)
    assert not out.exists()


def test_manifest_listing_a_file_twice_exits_2(tmp_path, capsys):
    # a wrong digest listed first must not be replaced by a right one after it
    data = tmp_path / "data"
    shutil.copytree(data_io.data_dir(), data)
    manifest = data / "manifest.csv"
    lines = manifest.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith("carriers.csv,"))
    lines.insert(index, "carriers.csv," + "0" * 64)
    manifest.write_text("\n".join(lines) + "\n")
    assert cli.run(["--data-dir", str(data), "carrier", "delivery"]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {manifest}: line {index + 2}: "
                   "'carriers.csv' is listed twice\n")


@pytest.mark.parametrize("flag", ["--params", "--regions"])
def test_directory_as_input_file_exits_2(flag, tmp_path, capsys):
    assert cli.run(["gtfp", flag, str(tmp_path)]) == 2
    _assert_one_line_naming(capsys, tmp_path)


@pytest.mark.parametrize("flag", ["--params", "--regions"])
@pytest.mark.parametrize("command", [["gtfp"], ["report"]])
def test_empty_input_path_exits_2_as_the_current_directory(command, flag, tmp_path, capsys):
    # the message names the empty path the user gave, not the "." that
    # pathlib would read it as; an empty --output still writes to "."
    out = tmp_path / "out"
    argv = [*command, flag, ""]
    if command == ["report"]:
        argv += ["--output", str(out)]
    assert cli.run(argv) == 2
    assert capsys.readouterr() == ("", "error: cannot read '': empty path\n")
    assert not out.exists()


def _file(name, content):
    """An argument naming a file of the case's directory that holds
    `content`, str or bytes."""
    def write(directory):
        path = directory / name
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        return str(path)
    return write


def _params(*rows):
    """An argument naming a `--params` file that holds `rows` under the header."""
    return _file("params.csv",
                 "key,value,unit,provenance\n" + "".join(f"{row}\n" for row in rows))


def _dataset(changes):
    """An argument naming a copy of the bundled dataset with `old` replaced
    by `new` in each file of `changes` ({file: (old, new)}), which the
    manifest lists with its new digest."""
    def copy(directory):
        data = directory / "data"
        shutil.copytree(data_io.data_dir(), data)
        for name, (old, new) in changes.items():
            text = (data / name).read_text(encoding="utf-8")
            assert old in text, (name, old)
            (data / name).write_text(text.replace(old, new), encoding="utf-8")
            _rehash(data, name)
        return str(data)
    return copy


REGIONS_HEADER = "region,energy_mtce,labour_m,capital_busd,co2_mt,gdp_busd\n"

# Inputs that only the command line gives each guard behind it, with the one
# line the guard prints; cli_argv writes the files that an argument names.
GUARDS = [
    (["carrier", "delivery", "--volume", "0"], "annual hydrogen volume must be positive"),
    (["carrier", "delivery", "--distance", "-5"], "distance must be nonnegative"),
    (["carrier", "storage", "--days", "0"], "storage_days must be positive for storage costing"),
    (["carrier", "delivery", "--params", _params("lifetime_years,0,yr,x")],
     "lifetime must be at least one year"),
    (["cofire", "--rate", "0.9", "--interpolate"], "rate 0.9 is above the tabulated range"),
    (["cofire", "--rate", "nan"], "co-firing rate must be in [0, 1], got nan"),
    (["carrier", "storage", "--days", "-5"], "storage days must be nonnegative"),
    (["carrier", "delivery", "--distance", "0"], "pipeline delivery requires a positive distance"),
    (["carrier", "delivery", "--distance", "1e308"],
     "stage 'truck_transport': a vehicle completes no delivery over 1e+308 km"),
    (["carrier", "delivery", "--distance", "1e300"], "chain delivers no hydrogen"),
    (["carrier", "delivery", "--params", _file("params.csv", "")],
     "{tmp}/params.csv: no header row found"),
    (["gtfp", "--regions", _file("regions.csv", REGIONS_HEADER)], "{tmp}/regions.csv: no records"),
    (["gtfp", "--regions", _file("regions.csv", REGIONS_HEADER + "North,0,1,1,1,1\n")],
     "{tmp}/regions.csv: line 2 (region 'North'), column 'energy_mtce': "
     "value must be positive, got 0"),
    (["carrier", "delivery", "--params", _params("wacc,1.5,fraction,x")],
     "discount rate must be in (0, 1)"),
    (["carrier", "delivery", "--params", _params("stored_share,0,fraction,x")],
     "stored share must be in (0, 1]"),
    (["carrier", "delivery", "--params", _params("truck_capex_usd,-1,USD,x")],
     "stage 'truck_transport': capex must be nonnegative"),
    (["carrier", "delivery", "--params", _params("nh3_boiloff_per_day,1,fraction_per_day,x")],
     "stage 'truck_transport': loss rate must be in [0, 1)"),
    (["carrier", "delivery", "--params", _params("nh3_synthesis_conversion,0,fraction,x")],
     "stage 'ammonia_plant': conversion efficiency must be in (0, 1]"),
    (["carrier", "delivery", "--params", _params("delivery_buffer_days,-1,days,x")],
     "stage 'terminal_buffer': hold days must be nonnegative, got -1.0"),
    (["carrier", "delivery", "--params", _params("truck_payload_t,0,t,x")],
     "stage 'truck_transport': a per_asset stage needs a positive payload and daily range, "
     "got 0.0 t and 1000.0 km"),
    (["carrier", "storage", "--params", _params("lh2_truck_tank_m3,-1,m3,x",
                                                "lh2_density_t_per_m3,-0.07,t_per_m3,x")],
     "stage 'cryo_tank': a per_m3 stage needs a positive density, got -0.07 t/m3"),
    (["cofire", "--params", _params("coal_price_usd_per_tce,0,USD_per_tce,x")],
     "coal_price_usd_per_tce must be positive"),
    (["cofire", "--params", _params("fuel_cost_share,1,fraction,x")],
     "fuel_cost_share must be in (0, 1)"),
    (["cofire", "--params", _params("gross_margin,-1,fraction,x")],
     "gross_margin must be nonnegative"),
    (["cofire", "--params", _params("efficiency_loss_3pct,1,fraction,x")],
     "efficiency loss at rate 0.03 must be in [0, 1)"),
    (["scenario", "supply", "--params", _params("wind_gw,-1,GW,x")],
     "wind_gw must be nonnegative"),
    (["scenario", "supply", "--params", _params("electrolyser_efficiency,0,fraction,x")],
     "electrolyser_efficiency must be in (0, 1]"),
    (["scenario", "demand", "--params", _params("thermal_gw,0,GW,x")],
     "thermal_gw must be positive"),
    (["scenario", "demand", "--params", _params("coal_share,0,fraction,x")],
     "coal_share must be in (0, 1]"),
    (["--data-dir", _dataset({"supply_levels.csv": ("Level 1,0.15", "Level 1,1.5")}),
      "scenario", "supply"], "supply level 'Level 1': share must be in [0, 1]"),
    (["--data-dir", _dataset({"demand_levels.csv": ("Level 1,0.10", "Level 1,1.5")}),
      "scenario", "demand"], "demand level 'Level 1': pr_ammonia must be in [0, 1]"),
]

# Inputs at an edge that a command runs through, with what it prints.
EDGES = [
    # a dataset with no supply level prints an empty table
    (["--data-dir", _dataset({"supply_levels.csv": ("Level 1,0.15\nLevel 2,0.35\n"
                                                    "Level 3,0.65\n", "")}),
      "scenario", "supply", "--format", "json"],
     '{\n  "columns": [\n    "level",\n    "renewable_share",\n    "supply_mt"\n  ],\n'
     '  "description": "green ammonia supply capacity by scenario level; '
     'dataset cn-2019-v1",\n  "rows": []\n}\n'),
    # the emission delta is a negative number that rounds to -0, written 0
    (["cofire", "--rate", "1e-9", "--interpolate"],
     "# coal/ammonia co-firing costs and emission intensity; dataset cn-2019-v1\n"
     "rate,mixed_fuel_cost_usd_per_tce,fuel_cost_delta_pct,lcoe_usd_per_mwh,lcoe_delta_pct,"
     "emission_kg_per_mwh,emission_delta_kg_per_mwh\n"
     "0,153.4681,0,67.9645,0,838,0\n"),
]


def cli_argv(argv, directory) -> list[str]:
    """argv with each argument that is a function replaced by what it
    returns for the case's directory, where it writes its files."""
    return [arg if isinstance(arg, str) else arg(directory) for arg in argv]


@pytest.mark.parametrize("argv, message", GUARDS)
def test_guard_behind_the_command_line_exits_2_with_one_line(argv, message, tmp_path, capsys):
    # guards that other tests reach only by calling the function directly
    assert cli.run(cli_argv(argv, tmp_path)) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(tmp=tmp_path)}\n")


@pytest.mark.parametrize("argv, expected", EDGES)
def test_edge_input_exits_0(argv, expected, tmp_path, capsys):
    assert cli.run(cli_argv(argv, tmp_path)) == 0
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("argv, source", [
    (["carrier", "delivery", "--params"], GOLDEN / "overrides.csv"),
    (["gtfp", "--regions"], Path(data_io.bundled_regions_path())),
])
def test_byte_order_mark_is_dropped(argv, source, tmp_path, capsys):
    # spreadsheets save "CSV UTF-8" with a leading U+FEFF; the header must
    # still match, so the marked file prints what the unmarked one prints
    lines = source.read_text(encoding="utf-8").splitlines(True)
    plain = tmp_path / "plain.csv"
    plain.write_text("".join(line for line in lines if not line.startswith("#")),
                     encoding="utf-8")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert cli.run([*argv, str(plain)]) == 0
    expected = capsys.readouterr()
    assert cli.run([*argv, str(marked)]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("name", ["manifest.csv", "carriers.csv", "calibration.csv",
                                  "supply_levels.csv", "demand_levels.csv",
                                  "--params", "--regions"])
def test_mangled_header_exits_2_with_one_line(name, tmp_path, capsys):
    # every kind of file is read by one reader, with one header message; a
    # bundled file is re-hashed, so the header check is what stops the run
    data = tmp_path / "data"
    shutil.copytree(data_io.data_dir(), data)
    out = tmp_path / "out"
    argv = ["--data-dir", str(data), "report", "--output", str(out)]
    if name.startswith("--"):
        target = tmp_path / "input.csv"
        source = "carriers.csv" if name == "--params" else "regions_2019.csv"
        shutil.copyfile(data / source, target)
        argv += [name, str(target)]
    else:
        target = data / name
    lines = target.read_text(encoding="utf-8").splitlines()
    index = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
    header = lines[index]
    lines[index] = header.upper()
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if target.parent == data and name != "manifest.csv":
        _rehash(data, name)
    assert cli.run(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: {target}: expected header {header}, got {header.upper()}\n")
    assert not out.exists()


def test_non_utf8_params_file_exits_2(tmp_path, capsys):
    path = tmp_path / "overrides.csv"
    path.write_bytes(b"key,value,unit,provenance\nwacc,0.08,fraction,caf\xe9\n")
    assert cli.run(["gtfp", "--params", str(path)]) == 2
    _assert_one_line_naming(capsys, path)


def _python_m(*args):
    env = {**os.environ, "PYTHONPATH": str(Path(nh3econ.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "nh3econ", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_m_prints_what_run_prints(capsys):
    assert cli.run(["cofire", "--rate", "0.03"]) == 0
    expected = capsys.readouterr().out
    result = _python_m("cofire", "--rate", "0.03")
    assert result.returncode == 0
    assert result.stdout == expected
    assert result.stderr == ""


def test_python_m_bad_input_exits_2_with_one_line():
    result = _python_m("cofire", "--rate", "0.07")
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr


def _rehash(data, name):
    manifest = data / "manifest.csv"
    digest = hashlib.sha256((data / name).read_bytes()).hexdigest()
    lines = [f"{name},{digest}" if line.startswith(f"{name},") else line
             for line in manifest.read_text().splitlines()]
    manifest.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", ["supply_levels.csv", "demand_levels.csv",
                                  "calibration.csv", "manifest.csv"])
def test_short_row_exits_2_without_output(name, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(data_io.data_dir(), data)
    target = data / name
    lines = target.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    width = len(lines[header].split(","))
    lines[header + 1] = lines[header + 1].rsplit(",", 1)[0]
    target.write_text("\n".join(lines) + "\n")
    if name != "manifest.csv":
        _rehash(data, name)
    out = tmp_path / "out"
    assert cli.run(["--data-dir", str(data), "report", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert (f"{name}: line {header + 2}: expected {width} cells, got {width - 1}"
            in captured.err)
    assert not out.exists()


UNUSABLE_SIZES = (
    ("truck_daily_range_km,0,km_per_day,x", "truck_transport"),
    ("truck_daily_range_km,-500,km_per_day,x", "truck_transport"),
    ("truck_payload_t,0,t,x", "truck_transport"),
    ("lh2_truck_tank_m3,0,m3,x", "cryo_truck_transport"),
    ("lh2_density_t_per_m3,0,t_per_m3,x", "cryo_truck_transport"),
    ("delivery_buffer_days,-1,days,x", "terminal_buffer"),
)


@pytest.mark.parametrize("argv, row, stage", [
    *[(command, row, stage) for command in (["carrier", "delivery"], ["report"])
      for row, stage in UNUSABLE_SIZES],
    # 2 * distance overflows, so no delivery completes
    (["carrier", "delivery", "--distance", "1e308"], None, "truck_transport"),
])
def test_unusable_vehicle_or_storage_size_exits_2_naming_the_stage(
        argv, row, stage, tmp_path, capsys):
    argv = list(argv)
    if row is not None:
        params = tmp_path / "params.csv"
        params.write_text(f"key,value,unit,provenance\n{row}\n")
        argv += ["--params", str(params)]
    out = tmp_path / "out"
    if argv[0] == "report":
        argv += ["--output", str(out)]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: stage '{stage}': ")
    assert not out.exists()


@pytest.mark.parametrize("command", [["gtfp"], ["report"]])
def test_regions_too_far_apart_to_score_exit_2_naming_both(command, tmp_path, capsys):
    text = Path(data_io.bundled_regions_path()).read_text()
    regions = tmp_path / "regions.csv"
    regions.write_text(text.replace("North,943.50,", "North,1e-307,"))
    out = tmp_path / "out"
    argv = [*command, "--regions", str(regions)]
    if command == ["report"]:
        argv += ["--output", str(out)]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: regions 'North' and 'Northeast': an input or GDP ratio "
        "between them is outside the floating-point range\n")
    assert not out.exists()


REGION_HEADER = "region,energy_mtce,labour_m,capital_busd,co2_mt,gdp_busd\n"


@pytest.mark.parametrize("rows, pair", [
    # A has the most GDP per unit of energy, so it scores 1 without a
    # program, but B's energy over A's is not a double
    (["C,1,1,1,1,1", "B,1e10,1,1,1,1e308", "A,1e-300,1e-10,1e-10,1e-10,0.5"], ("A", "B")),
    # D is dominated and leaves the frame before E is scored, but D's
    # energy over E's is not a double
    (["D,1e300,2,2,2,1e-10", "F,1,1,1,1,1", "E,1e-10,1,1,1,0.9"], ("E", "D")),
], ids=["frontier_region", "dropped_region"])
@pytest.mark.parametrize("command", [["gtfp"], ["report"]])
def test_every_pair_is_range_checked_before_scoring(rows, pair, command, tmp_path, capsys):
    regions = tmp_path / "regions.csv"
    regions.write_text(REGION_HEADER + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    argv = [*command, "--regions", str(regions)]
    if command == ["report"]:
        argv += ["--output", str(out)]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: regions {pair[0]!r} and {pair[1]!r}: an input or GDP ratio "
        "between them is outside the floating-point range\n")
    assert not out.exists()


@pytest.mark.parametrize("row, argv", [
    ("lifetime_years,nan,yr,x", ["carrier", "delivery"]),
    ("gross_margin,nan,fraction,x", ["cofire", "--rate", "0.03", "--format", "json"]),
    ("gross_margin,inf,fraction,x", ["cofire", "--rate", "0.03", "--format", "json"]),
])
def test_non_finite_override_exits_2_without_output(row, argv, tmp_path, capsys):
    params = tmp_path / "params.csv"
    params.write_text(f"key,value,unit,provenance\n{row}\n")
    assert cli.run([*argv, "--params", str(params)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "finite number" in captured.err


@pytest.mark.parametrize("row, message", [
    ("coal_prise_usd_per_tce,999,USD_per_tce,typo",
     "unknown parameter key 'coal_prise_usd_per_tce'"),
    ("coal_price_usd_per_tce,150,USD_per_MWh,x",
     "key 'coal_price_usd_per_tce' has unit 'USD_per_MWh', schema expects 'USD_per_tce'"),
])
def test_override_key_outside_the_schemas_exits_2(row, message, tmp_path, capsys):
    params = tmp_path / "params.csv"
    params.write_text(f"key,value,unit,provenance\n{row}\n")
    assert cli.run(["cofire", "--rate", "0.03", "--params", str(params)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert message in captured.err


@pytest.mark.parametrize("key, replacement", [
    ("gas_reference_price_usd_per_tce", []),
    ("lhv_coal_kcal_per_kg", ["lhv_coal_kcal_per_kg,23.0,MJ_per_kg,the same value in MJ"]),
], ids=["dropped", "another unit"])
def test_a_dataset_may_drop_or_change_a_reference_key(key, replacement, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(data_io.data_dir(), data)
    cofiring_csv = data / "cofiring.csv"
    lines = [new for line in cofiring_csv.read_text(encoding="utf-8").splitlines()
             for new in (replacement if line.startswith(f"{key},") else [line])]
    cofiring_csv.write_text("\n".join(lines) + "\n")
    _rehash(data, "cofiring.csv")
    out = tmp_path / "out"
    assert cli.run(["--data-dir", str(data), "report", "--output", str(out)]) == 0
    for path in sorted((GOLDEN / "default_csv").iterdir()):
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
    assert len(list(out.iterdir())) == 8


def test_zero_demand_level_exits_2_without_output(tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(data_io.data_dir(), data)
    demand = data / "demand_levels.csv"
    demand.write_text(demand.read_text().replace(
        "Level 1,0.10,0.01,0.03,0.10", "Level 1,0,0,0,0"))
    _rehash(data, "demand_levels.csv")
    out = tmp_path / "out"
    assert cli.run(["--data-dir", str(data), "report", "--format", "json",
                    "--output", str(out)]) == 2
    assert cli.run(["--data-dir", str(data), "scenario", "balance", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: demand level 'Level 1' has a total demand of 0.0 Mt; "
        "supply coverage needs a positive demand"] * 2
    assert not out.exists()


def test_zero_demand_level_leaves_supply_and_demand_tables_to_run(tmp_path, capsys):
    # only the balance divides by a level's total demand
    data = tmp_path / "data"
    shutil.copytree(data_io.data_dir(), data)
    demand = data / "demand_levels.csv"
    demand.write_text(demand.read_text().replace(
        "Level 1,0.10,0.01,0.03,0.10", "Level 1,0,0,0,0"))
    _rehash(data, "demand_levels.csv")
    assert cli.run(["--data-dir", str(data), "scenario", "supply"]) == 0
    expected = (GOLDEN / "stdout" / "scenario_supply.csv").read_text()
    assert capsys.readouterr() == (expected, "")
    assert cli.run(["--data-dir", str(data), "scenario", "demand"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    level_1 = [line for line in captured.out.splitlines() if line.startswith("Level 1,")]
    assert level_1 == [f"Level 1,{sector},0" for sector in ("power", "ammonia", "shipping",
                                                             "mobility", "total")]


def test_reused_parser_prints_what_a_fresh_process_prints(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.run(["report", "--format", "xml"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    assert cli.run(["report", "--output", str(tmp_path / "run")]) == 0
    result = _python_m("report", "--output", str(tmp_path / "fresh"))
    assert result.returncode == 0, result.stderr
    for path in sorted((tmp_path / "fresh").iterdir()):
        assert (tmp_path / "run" / path.name).read_bytes() == path.read_bytes()
    assert len(list((tmp_path / "run").iterdir())) == 8
    for argv in (["carrier", "delivery", "--volume", "10"], ["carrier", "delivery"]):
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == _python_m(*argv).stdout, argv


def test_build_parser_returns_a_parser_run_does_not_share(capsys):
    parser = cli.build_parser()
    assert parser is not cli.build_parser()
    parser.set_defaults(format="json")
    parser.add_argument("--extra")
    with pytest.raises(SystemExit):
        cli.run(["--extra", "1", "gtfp"])
    assert cli.run(["gtfp"]) == 0
    assert capsys.readouterr().out.startswith("# regional efficiency scores")


@pytest.mark.parametrize("argv", [
    ["carrier", "delivery", "--distance", "inf"],
    ["carrier", "delivery", "--volume", "10,nan"],
    ["carrier", "storage", "--days=-inf"],
])
def test_non_finite_sweep_argument_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.run(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "list of finite numbers" in captured.err


DATASET_FILES = ("calibration.csv", "carriers.csv", "cofiring.csv", "demand_levels.csv",
                 "gapfill.csv", "regions_2019.csv", "scenarios.csv", "supply_levels.csv")
MUTATION_COMMANDS = (["gtfp"], ["carrier", "delivery"], ["carrier", "storage"], ["cofire"],
                     ["scenario", "supply"], ["scenario", "demand"], ["scenario", "balance"],
                     ["report"])


@st.composite
def mutated_files(draw):
    """(file name, new text): one cell replaced, or one row dropped or doubled."""
    name = draw(st.sampled_from(DATASET_FILES))
    lines = (Path(data_io.data_dir()) / name).read_text(encoding="utf-8").splitlines()
    index = draw(st.sampled_from([i for i, line in enumerate(lines)
                                  if line.strip() and not line.startswith("#")]))
    kind = draw(st.sampled_from(("cell", "drop", "duplicate")))
    if kind == "cell":
        cells = lines[index].split(",")
        column = draw(st.integers(0, len(cells) - 1))
        cells[column] = draw(st.sampled_from(
            ("text", "nan", "", "-" + cells[column], "0", "1e308")))
        lines[index] = ",".join(cells)
    elif kind == "drop":
        del lines[index]
    else:
        lines.insert(index, lines[index])
    return name, "\n".join(lines) + "\n"


def _no_constant(token):
    raise AssertionError(f"non-finite number {token} in the output")


@settings(max_examples=50, deadline=None)
@given(mutated_files())
def test_mutated_dataset_exits_0_with_finite_output_or_2_with_one_line(mutation):
    name, text = mutation
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        shutil.copytree(data_io.data_dir(), data)
        (data / name).write_text(text, encoding="utf-8")
        _rehash(data, name)
        for command in MUTATION_COMMANDS:
            out_dir = Path(tmp) / "report"
            argv = ["--data-dir", str(data), *command, "--format", "json"]
            if command == ["report"]:
                argv += ["--output", str(out_dir)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.run(argv)
            if code == 2:
                assert stdout.getvalue() == "", command
                assert stderr.getvalue().startswith("error: "), command
                assert stderr.getvalue().count("\n") == 1, command
                continue
            assert code == 0, (command, stderr.getvalue())
            outputs = ([p.read_text(encoding="utf-8") for p in sorted(out_dir.iterdir())]
                       if command == ["report"] else [stdout.getvalue()])
            for output in outputs:
                json.loads(output, parse_constant=_no_constant)
