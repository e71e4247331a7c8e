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
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import NumericalError

_BOOL = (bool, np.bool_)
_INT = (int, np.integer)
_FLOAT = (float, np.floating)
_COMPLEX = (complex, np.complexfloating)


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
    return _quote(str(value))


def _quote(text: str) -> str:
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header, rows) -> None:
    """Write rows of scalars as CSV; empty rows produce a header-only file."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_cell(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_float(x) -> str:
    if not math.isfinite(x):
        raise NumericalError(f"non-finite value {float(x)} has no JSON encoding")
    return fmt_float(x)


def _json_fragment(obj, indent, out) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, _BOOL):
        out.append("true" if obj else "false")
    elif isinstance(obj, _INT):
        out.append(str(int(obj)))
    elif isinstance(obj, _FLOAT):
        out.append(_json_float(obj))
    elif isinstance(obj, _COMPLEX):
        obj = complex(obj)
        out.append("[" + _json_float(obj.real) + ", " + _json_float(obj.imag)
                   + "]")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append("  " * (indent + 1))
            _json_fragment(item, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            out.append("  " * (indent + 1) + json.dumps(str(key)) + ": ")
            try:
                _json_fragment(value, indent + 1, out)
            except NumericalError as exc:
                raise NumericalError(f"{key}: {exc}") from None
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def json_dumps(obj) -> str:
    """JSON text with deterministic layout and 17-digit floats.

    A nan or inf anywhere in ``obj`` raises NumericalError naming its keys.
    """
    out: list[str] = []
    _json_fragment(obj, 0, out)
    return "".join(out) + "\n"


def write_json(path, obj) -> None:
    text = json_dumps(obj)  # raises before the file is created
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
