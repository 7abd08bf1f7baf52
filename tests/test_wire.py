"""The CSV wire format: the per-row format writes csv.writer's bytes."""

import csv
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trigspec._wire import csv_text


def writer_csv_text(header, rows):
    # The format as csv.writer alone writes it: every cell through one
    # writer, floats at 17 significant digits.
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(
        [format(x, ".17g") if isinstance(x, (float, np.floating)) else x for x in row]
        for row in rows
    )
    return buf.getvalue()


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, float("inf"),
                  float("-inf"), float("nan"), 1e300, -1.5]

python_floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
cells = st.one_of(
    python_floats,
    python_floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.none(),
    st.text(alphabet=st.sampled_from('ab9é ,"\n\r'), max_size=4),
)
rows = st.lists(cells, min_size=1, max_size=5).flatmap(
    lambda row: st.sampled_from([row, tuple(row)])
)


@settings(max_examples=300, deadline=None)
@given(st.lists(rows, max_size=6), st.lists(st.text(max_size=3), min_size=1, max_size=4))
def test_csv_text_writes_the_bytes_of_csv_writer(table, header):
    assert csv_text(header, table) == writer_csv_text(header, table)


@settings(max_examples=100, deadline=None)
@given(st.lists(cells, min_size=1, max_size=1), st.integers(1, 4))
def test_one_column_tables_write_the_bytes_of_csv_writer(row, count):
    # A lone empty cell is quoted, so an empty line is never a row.
    table = [row] * count
    assert csv_text(["x"], table) == writer_csv_text(["x"], table)


def test_an_empty_table_is_its_header():
    assert csv_text(["j", "a,b"], []) == writer_csv_text(["j", "a,b"], []) == 'j,"a,b"\n'


def test_a_row_can_be_any_iterable_of_cells():
    # The CLI hands over zip tuples, list rows and generators alike.
    rows = [(1, 0.1, "true"), [2, np.float64(-0.0), "false"], iter([3, 1e-310, ""])]
    assert csv_text(["k", "v", "ok"], rows) == "k,v,ok\n1,0.10000000000000001,true\n2,-0,false\n3,9.9999999999999694e-311,\n"
