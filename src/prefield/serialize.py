"""Structured-text serialization shared by the CLI and module exports.

Complex data is stored as nested row-major [re, im] pairs; CSV output is
RFC-4180 style with a header row.  JSON writing is deterministic (sorted
keys, no timestamps) so identical runs produce bit-identical artifacts,
and strict: a non-finite float is written as null.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .random_field import CHUNK


def operator_payload(matrix: np.ndarray) -> dict:
    """A square matrix as JSON: its dim and its rows of [re, im] pairs."""
    a = np.asarray(matrix, dtype=np.complex128)
    return {"kind": "operator", "dim": int(a.shape[0]), "data": np.stack([a.real, a.imag], axis=-1).tolist()}


def _finite(value):
    """`value` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path, payload) -> None:
    text = json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def _cell(value):
    """Shortest round-trip text for numbers; numpy scalars and float subclasses lose their wrapper."""
    if type(value) is float:  # csv writes a plain float as its repr already
        return value
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def write_csv(path, header, rows, index=None) -> None:
    """Write the header, then rows[i] for each i in index (every row in order when index is None).

    Each row is formatted and encoded once, however often index names it, so
    a table of few distinct rows, such as a trial CSV of 16 rows indexed by
    click codes, costs a join of bytes instead of a csv.writer call per
    written row.  The body is written CHUNK rows at a time, so memory is one
    slice of it, not the whole file.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    lines = []
    for row in [header, *rows]:
        writer.writerow([_cell(v) for v in row])
        lines.append(buffer.getvalue().encode())
        buffer.seek(0)
        buffer.truncate()
    body = np.array(lines[1:], dtype=object)
    index = range(len(body)) if index is None else index
    with open(path, "wb") as fh:
        fh.write(lines[0])
        for lo in range(0, len(index), CHUNK):
            fh.write(b"".join(body[np.asarray(index[lo : lo + CHUNK], dtype=np.intp)]))
