"""Structured-text serialization shared by the CLI and module exports.

Complex data is stored as nested row-major [re, im] pairs; CSV output is
RFC-4180 style with a header row.  JSON writing is deterministic (sorted
keys, no timestamps) so identical runs produce bit-identical artifacts.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np


def complex_to_pairs(arr: np.ndarray):
    """Nested lists of [re, im] pairs mirroring the array shape."""
    a = np.asarray(arr, dtype=np.complex128)
    stacked = np.stack([a.real, a.imag], axis=-1)
    return stacked.tolist()


def pairs_to_complex(payload) -> np.ndarray:
    a = np.asarray(payload, dtype=np.float64)
    if a.shape[-1] != 2:
        raise ValueError("expected trailing [re, im] pairs")
    return a[..., 0] + 1j * a[..., 1]


def vector_payload(components: np.ndarray) -> dict:
    return {"kind": "vector", "dim": int(components.size), "data": complex_to_pairs(components)}


def operator_payload(matrix: np.ndarray) -> dict:
    return {"kind": "operator", "dim": int(matrix.shape[0]), "data": complex_to_pairs(matrix)}


def write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def _cell(value):
    """Shortest round-trip text for numbers; numpy scalars lose their wrapper."""
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def write_csv_indexed(path, header, distinct_rows, index) -> None:
    """Write the rows distinct_rows[i] for i in index, formatting each distinct row once.

    The file is byte-identical to write_csv(path, header, [distinct_rows[i]
    for i in index]); a table with few distinct rows is written at the cost
    of a join instead of a csv.writer call per row.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    lines = []
    for row in distinct_rows:
        writer.writerow([_cell(v) for v in row])
        lines.append(buffer.getvalue())
        buffer.seek(0)
        buffer.truncate()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join(np.array(lines, dtype=object)[np.asarray(index, dtype=np.intp)]))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    return header, rows
