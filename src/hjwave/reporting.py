"""Deterministic CSV / JSON emission.

All floats are written with 17 significant digits, which round-trips any
IEEE double exactly, so re-running a scenario reproduces output files byte
for byte.  Complex numbers are encoded as two-element [re, im] arrays.
JSON has no encoding for nan or inf, so the JSON writer refuses them with
NumericalError; CSV cells write them as ``nan`` / ``inf``.  JSON strings
and keys go through ``json.dumps``, which escapes control characters and
non-ASCII text.  A text cell that holds a comma, a double quote or a line
break is quoted as RFC 4180 asks, with its quotes doubled; numbers never
need quoting.

A CSV table is a header and equal-length columns.  ``write_csv`` formats a
float array column with fmt_float and any other with fmt_cell, and holds
the text of at most BLOCK_ROWS = 1024 rows at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass

import numpy as np

from .errors import NumericalError

_BOOL = (bool, np.bool_)
_INT = (int, np.integer)
_FLOAT = (float, np.floating)
_COMPLEX = (complex, np.complexfloating)
BLOCK_ROWS = 1024  # rows formatted and written at a time


def fmt_float(x: float) -> str:
    s = format(float(x), ".17g")
    # keep a decimal marker so JSON parses the value back as a float
    # (plain "-0" would round-trip through int and drop the sign)
    if s.lstrip("-").isdigit():
        s += ".0"
    return s


def fmt_cell(value) -> str:
    if isinstance(value, _BOOL):
        return "true" if value else "false"
    if isinstance(value, _INT):
        return str(int(value))
    if isinstance(value, _FLOAT):
        return fmt_float(value)
    if isinstance(value, _COMPLEX):
        value = complex(value)
        return fmt_float(value.real) + "+" + fmt_float(value.imag) + "j"
    text = str(value)
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header, columns) -> None:
    """Write equal-length columns (arrays or sequences) under ``header``.

    A float array column is formatted with fmt_float from ``tolist()``,
    any other column with fmt_cell, so the bytes are those of fmt_cell
    applied row by row.  Columns of no rows give a header-only file.
    """
    rows = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(c) != rows for c in columns):
        raise ValueError("need one column per header name, all of one length")
    floats = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, rows, BLOCK_ROWS):
            block = [map(fmt_float, c[a:a + BLOCK_ROWS].tolist()) if f
                     else map(fmt_cell, c[a:a + BLOCK_ROWS])
                     for c, f in zip(columns, floats)]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _json_float(x) -> str:
    if not math.isfinite(x):
        raise NumericalError(f"non-finite value {float(x)} has no JSON encoding")
    return fmt_float(x)


def _json_text(obj, pad: str) -> str:
    """``obj`` as JSON text; its inner lines are indented past ``pad``."""
    if obj is None:
        return "null"
    if isinstance(obj, _BOOL + _INT):
        return fmt_cell(obj)
    if isinstance(obj, _FLOAT):
        return _json_float(obj)
    if isinstance(obj, _COMPLEX):
        obj = complex(obj)
        return "[" + _json_float(obj.real) + ", " + _json_float(obj.imag) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    inner = pad + "  "
    if is_dataclass(obj):  # the object of its fields, in field order
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, (list, tuple)):
        items = [inner + _json_text(item, inner) for item in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"
    if isinstance(obj, dict):
        items = []
        for key, value in obj.items():
            try:
                text = _json_text(value, inner)
            except NumericalError as exc:
                raise NumericalError(f"{key}: {exc}") from None
            items.append(inner + json.dumps(str(key)) + ": " + text)
        return "{\n" + ",\n".join(items) + "\n" + pad + "}" if items else "{}"
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def json_dumps(obj) -> str:
    """JSON text with deterministic layout and 17-digit floats.

    A nan or inf anywhere in ``obj`` raises NumericalError naming its keys.
    """
    return _json_text(obj, "") + "\n"


def write_json(path, obj) -> None:
    text = json_dumps(obj)  # raises before the file is created
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
