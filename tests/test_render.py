"""Table rendering: the direct CSV and JSON writers against the formulas
they replace, kept here as the oracle."""

import json
import math
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from nh3econ import cli
from nh3econ.errors import InputError


def _oracle_fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    text = f"{float(value):.4f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def _csv_text(value) -> str:
    """The CSV text of one cell, through the column converter."""
    return cli._column_texts((value,), None, cli._number_texts)[0]


def _json_number_text(value) -> str:
    """The JSON text of one number cell, through the column converter."""
    return cli._column_texts((value,), None, cli._json_number_texts)[0]


def _oracle_csv(table) -> str:
    lines = [f"# {table.description}", ",".join(table.columns)]
    lines.extend(",".join(_oracle_fmt(cell) for cell in row) for row in table.rows)
    return "\n".join(lines) + "\n"


def _oracle_json(table) -> str:
    def cell(value):
        if isinstance(value, (bool, str)):
            return value
        return float(_oracle_fmt(value))
    payload = {
        "description": table.description,
        "columns": list(table.columns),
        "rows": [[cell(v) for v in row] for row in table.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


TEXT = st.text(st.characters(), max_size=12) | st.sampled_from(
    ['say "hi"', "back\\slash", "tab\tnew\nline\r", "\x00\x1f\x7f", "Ürümqi 北京",
     "emoji \U0001F600", "\ud800 lone surrogate", "", ","])
CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-5e-5, max_value=5e-5),         # rounds to 0 or -0
    st.floats(min_value=-1e6, max_value=1e6).map(lambda x: round(x, 5)),  # ties
    st.floats(min_value=-1e16, max_value=1e16),
    st.just(-0.0),
    st.integers(min_value=-2**62, max_value=2**62),
    st.booleans(),
    TEXT,
)


@st.composite
def tables(draw):
    columns = tuple(draw(st.lists(TEXT, max_size=5)))
    table = cli.Table(draw(TEXT), columns)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        table.add(*draw(st.lists(CELLS, min_size=len(columns), max_size=len(columns))))
    return table


@settings(max_examples=400, deadline=None)
@given(tables())
def test_writers_match_the_oracle(table):
    assert table.to_csv() == _oracle_csv(table)
    assert table.to_json() == _oracle_json(table)
    assert table.render("csv") == _oracle_csv(table)
    assert table.render("json") == _oracle_json(table)


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False)
       | st.floats(min_value=-1e16, max_value=1e16))
def test_json_number_is_float_of_fmt(value):
    assert _json_number_text(value) == repr(float(_oracle_fmt(value)))
    assert _csv_text(value) == _oracle_fmt(value)


@pytest.mark.parametrize("value, text", [
    (-0.0, "0.0"), (-0.00004, "0.0"), (0.00005, "0.0001"), (1.0, "1.0"), (0, "0.0"),
    (7, "7.0"), (0.65304, "0.653"), (1e300, "1e+300"), (5e-324, "0.0"), (-123.45675, "-123.4567"),
    (-123456789.12345, "-123456789.1234"), (99999999999.99995, "100000000000.0"),
    (123456789012345.67, "123456789012345.67"), (2**70, "1.1805916207174113e+21"),
])
def test_json_number_edge_cases(value, text):
    assert _json_number_text(value) == text == repr(float(_oracle_fmt(value)))


def test_empty_table_layout():
    table = cli.Table("nothing", ())
    assert table.to_json() == '{\n  "columns": [],\n  "description": "nothing",\n  "rows": []\n}\n'
    table.add()
    assert table.to_json() == _oracle_json(table)
    assert table.to_csv() == "# nothing\n\n\n"


def _each_writer(table):
    """Each way a table becomes text."""
    return (table.to_csv, table.to_json, lambda: table.render("csv"),
            lambda: table.render("json"))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_table_rejects_non_finite_cells(value):
    # add takes the row; every writer refuses it
    table = cli.Table("balance", ("level", "coverage"))
    table.add("Level 1", value)
    assert table.rows == [("Level 1", value)]
    for write in _each_writer(table):
        with pytest.raises(InputError, match="'coverage' is .*not a finite number"):
            write()


class _Float(float):
    """A float subclass: its columns go through the number converters."""


# Small pools, so that columns repeat values and equal values of different
# types (0, 0.0, -0.0, False) share a column; each column draws from one.
POOLS = (
    (0.0, -0.0, 1.0, 5e-5, -5e-5, -0.00004, 0.65304, -123.45675, 99999999999.99995),
    (0.0, 2.5, 123456789012345.67),                     # a text longer than 15
    (0, 1, -7, 123456789),
    (0, 7, 2**70),
    (False, True),
    ("NH3", "", 'say "hi"', "\u00dcr\u00fcmqi \u5317\u4eac", "123456789012345.67"),
    (_Float(0.5), _Float(-0.0), _Float(5e-5)),
    (0, 0.0, -0.0, False),
    (1, 1.0, True),
    (5e-5, -5e-5, -0.00004, 1, "x", True, _Float(2.0), 2**70),
)


@st.composite
def pooled_tables(draw):
    pools = draw(st.lists(st.sampled_from(POOLS), min_size=1, max_size=6))
    table = cli.Table("pooled", tuple(f"c{i}" for i in range(len(pools))))
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        table.add(*(draw(st.sampled_from(pool)) for pool in pools))
    return table


@settings(max_examples=150, deadline=None)
@given(pooled_tables())
def test_column_writers_match_the_oracle(table):
    assert table.to_csv() == _oracle_csv(table)
    assert table.to_json() == _oracle_json(table)


@pytest.mark.parametrize("row, column", [
    (("x", math.inf, math.nan), "b"),               # two non-finite columns
    ((1.0, math.inf, math.inf), "b"),               # one inf object twice
    ((Decimal("Infinity"), math.inf, 1.0), "b"),    # equal to inf, not a float
    (("x", 1.0, _Float("nan")), "c"),               # a float subclass
])
def test_table_names_the_first_non_finite_column(row, column):
    table = cli.Table("grid", ("a", "b", "c"))
    table.add(*row)
    assert table.rows == [row]
    for write in _each_writer(table):
        with pytest.raises(InputError, match=f"^grid: column '{column}' is "):
            write()


NON_FINITE = (math.inf, -math.inf, math.nan, _Float("inf"), _Float("-nan"))
COLUMN_POOLS = (          # an exact-float column, a mixed one, a float-subclass one
    (0.0, -0.0, 1.5, 0.65304, 123456789012345.67),
    (1, 2.5, "x", True, _Float(2.0)),
    (_Float(0.5), _Float(-0.0)),
)


@st.composite
def tables_with_non_finite_cells(draw):
    """A table over the pools, and its cells in row order with one or more
    made non-finite: an exact float in an exact-float column, any
    non-finite float elsewhere."""
    pools = draw(st.lists(st.sampled_from(COLUMN_POOLS), min_size=1, max_size=4))
    rows = [[draw(st.sampled_from(pool)) for pool in pools]
            for _ in range(draw(st.integers(min_value=1, max_value=12)))]
    cells = [(r, c) for r in range(len(rows)) for c in range(len(pools))]
    for r, c in draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3, unique=True)):
        bad = NON_FINITE[:3] if pools[c] is COLUMN_POOLS[0] else NON_FINITE
        rows[r][c] = draw(st.sampled_from(bad))
    table = cli.Table("grid", tuple(f"c{i}" for i in range(len(pools))))
    for row in rows:
        table.add(*row)
    first = next((c, rows[r][c]) for r, c in cells
                 if isinstance(rows[r][c], float) and not math.isfinite(rows[r][c]))
    return table, first


@settings(max_examples=300, deadline=None)
@given(tables_with_non_finite_cells())
def test_writers_name_the_first_non_finite_cell_in_row_order(drawn):
    table, (column, value) = drawn
    message = f"grid: column 'c{column}' is {value}, not a finite number"
    for write in _each_writer(table):
        with pytest.raises(InputError) as excinfo:
            write()
        assert str(excinfo.value) == message
