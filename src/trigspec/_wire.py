"""The package's one CSV wire format.

Rows are written by ``csv.writer`` with LF line endings. Float cells
(NumPy floats included) are written with 17 significant digits, enough
to round-trip every double; ``None`` is an empty cell; any other cell is
written as given.
"""

import csv
import io

import numpy as np

_FLOATS = (float, np.floating)


def csv_text(header, rows):
    """CSV text of one header row followed by `rows`."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    # csv.writer itself writes None as an empty cell.
    w.writerows([format(x, ".17g") if isinstance(x, _FLOATS) else x for x in row] for row in rows)
    return buf.getvalue()
