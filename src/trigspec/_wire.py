"""The package's one CSV wire format.

Rows are written as ``csv.writer`` writes them, with LF line endings.
Float cells (NumPy floats included) are written with 17 significant
digits, enough to round-trip every double; ``None`` is an empty cell; any
other cell is written as given.

A row whose cells are all Python or NumPy float64 floats, Python ints and
alphanumeric strings (nothing ``csv.writer`` would quote) is written by
one ``%``-format per row, kept per sequence of cell types: the same bytes
at less than half the cost. Every other row (``None`` cells, bools,
NumPy ints, other float types, strings that need quoting) goes through
``csv.writer``.
"""

import csv
import io

import numpy as np

_FLOATS = (float, np.floating)
# The fast path's cell formats, by exact type: each writes the cell's
# csv.writer bytes ("%.17g" is format(x, ".17g") for a float).
_CELL_FORMATS = {float: "%.17g", np.float64: "%.17g", int: "%d", str: "%s"}


def csv_text(header, rows):
    """CSV text of one header row followed by `rows`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    formats = {}
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        fast = formats.get(kinds)
        if fast is None:
            fast = formats[kinds] = _row_format(kinds)
        line, texts = fast
        if line and all(row[i].isalnum() for i in texts):
            buf.write(line % row)
        else:
            # csv.writer itself writes None as an empty cell.
            writer.writerow([format(x, ".17g") if isinstance(x, _FLOATS) else x for x in row])
    return buf.getvalue()


def _row_format(kinds):
    # The %-format of a row of these cell types ("" when a type has none)
    # and the positions of its string cells, written by it only when
    # alphanumeric.
    if not kinds or not all(k in _CELL_FORMATS for k in kinds):
        return "", ()
    line = ",".join(_CELL_FORMATS[k] for k in kinds) + "\n"
    return line, tuple(i for i, k in enumerate(kinds) if k is str)
