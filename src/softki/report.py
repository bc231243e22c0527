"""Plain-text report and CSV output shared by the command line tools.

Reports are ``key = value`` lines in insertion order. Floats are written with
``repr`` so equal runs produce byte-identical files.
"""

import csv


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # plain float() first: numpy scalars repr as np.float64(...)
        return repr(float(value))
    return str(value)


def write_kv(path, pairs) -> None:
    with open(path, "w", newline="\n") as fh:
        for key, value in pairs:
            fh.write(f"{key} = {format_value(value)}\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(cell) for cell in row])
