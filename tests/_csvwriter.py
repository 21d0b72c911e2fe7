"""Reference for the CLI's CSV payloads: the whole table through csv.writer.

csv_reference(header, rows) is the text of one csv.writer over a StringIO,
which is how the CLI once built every CSV payload before writing it. The
CLI now streams its rows, the smoothed ``simulate`` table converted to
Python floats ``cli._CHUNK`` rows at a time, and ``main`` must write the
same bytes whatever the row count relative to that chunk.
"""

import csv
import io


def csv_reference(header, rows):
    """The CSV text of header and rows: None empty, a float by repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
