"""Deterministic CSV / JSON emission.

All floats are written with 17 significant digits, which round-trips any
IEEE double exactly, so re-running a scenario reproduces output files byte
for byte.  fmt_float is that text: ``%.17g``, with ``.0`` added where it is
all digits, which is a finite integral value below 1e17 in magnitude
(-0.0 included).  Complex numbers are encoded as two-element [re, im]
arrays.  JSON has no encoding for nan or inf, so the JSON writer refuses
them with NumericalError; CSV cells write them as ``nan`` / ``inf``.  JSON
strings and keys go through ``json.dumps``, which escapes control
characters and non-ASCII text.  A text cell that holds a comma, a double
quote or a line break is quoted as RFC 4180 asks, with its quotes
doubled; numbers never need quoting.

A CSV table is a header and equal-length columns, written BLOCK_ROWS = 1024
rows at a time, and its bytes are those of fmt_cell applied row by row.
Each block is one ``%`` format of a row template repeated per row.  An
integer array column fills a ``%d`` field, and a column that is not a
float array (a list of floats included) fills a ``%s`` field with
fmt_cell's text.  A float array column is read as float64, and each run
of adjacent float columns fills one ``%s`` field with the row texts of
one numpy kernel call over the block (``_float_text``); a table of float
columns alone is written as the kernel's text.  The kernel:

- Digits.  A cell x with 10^e <= |x| < 10^(e+1) has the 17 correctly
  rounded significant digits D = round(|x| 10^(16-e)).  The product is
  a double-double (Dekker 1971): |x| times the high word of 10^(16-e)
  exactly, by Veltkamp splits of both, plus |x| times the low word.  Its
  error is below 1e-14, against a rounding step of 1.  e is log10's, and
  is moved by one where the product falls outside [1e16, 1e17).  That
  test reads both words: nextafter(0.1, 0) scales to the high word 1e16
  and a negative low word, and needs e = -2, not -1.  +-0.0 is written
  as 0 at exponent 0.
- Fallback.  A cell the kernel cannot prove takes fmt_float: a non-finite
  cell; a nonzero |x| outside [1e-280, 1e280], where a split or the
  scaled product could leave the normal range; and a product whose
  fraction is within 1e-6 of one half.  That holds every decimal tie
  (1e15 + 0.25 is one), whose rounding needs the exact value.
- Text.  D becomes ASCII through a 10^4-entry table of four-digit groups,
  with its trailing zeros cut.  ``%g`` writes fixed notation for a
  decimal exponent from -4 to 16 and ``d.ddde+XX`` otherwise, and
  fmt_float's ``.0`` is one kept zero digit.  A layout lists the byte
  positions of a cell's text in its 32-byte source row, where a
  character the cell lacks (a sign, a cut digit) is NUL.  The cells are
  sorted by layout, each run of one layout is one column gather, and the
  block's text is its bytes with the NULs dropped.

The tables (10^s for 565 exponents s, the digit groups, the exponent
texts) and the 22 layouts are built when the first float column is
written, not at import, and a table without float columns never builds
them.  The kernel holds about 110 bytes per cell of one block, so a
table of any length is written in the memory of one block.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from functools import cache
from itertools import chain, groupby

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


_TINY, _HUGE = 1e-280, 1e280  # the magnitudes the float kernel writes
_TIE = 1e-6  # a rounding fraction this near one half falls back
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter for 53-bit significands
_MIN_POW, _MAX_POW = -266, 298  # 10^s for s = 16 - e, |e| <= 282
_CELL = 24  # bytes of the longest cell text, -2.2250738585072014e-308
# a cell's source row: "000" and 17 digits (bytes 0-19), "." (20), "-"
# (21), NUL (22, 23), then its exponent text, "e+05" or "e-300" (24-31)
_ZERO, _DOT, _MINUS, _NUL, _EXP = 0, 20, 21, 22, 24


@cache
def _powers() -> tuple[np.ndarray, ...]:
    """10^s = hi + lo for s from _MIN_POW to _MAX_POW, and hi's split halves.

    10^s = num/den exactly, and Python's int division rounds correctly, so
    hi is 10^s rounded and lo is the rounded remainder 10^s - hi.
    """
    hi, lo = [], []
    for s in range(_MIN_POW, _MAX_POW + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi, lo = np.array(hi), np.array(lo)
    big = _SPLIT * hi
    top = big - (big - hi)
    return hi, top, hi - top, lo


@cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """Four-digit ASCII groups, their trailing zeros, digit masks, exponents.

    ``keep[j - 1, n]`` masks digit group j (digits 4j-3 .. 4j) to the first
    n digits; ``exps[e + 300]`` is the NUL-padded text of exponent e; and
    ``marks[2 * negative + dotted]`` is the word of bytes 20-23.
    """
    q = np.arange(10**4)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    groups = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    zeros = sum(q % 10**k == 0 for k in range(1, 5))
    masks = np.frombuffer(b"".join(b"\xff" * k + b"\0" * (4 - k)
                                   for k in range(5)), np.uint32)
    keep = masks[np.clip(np.arange(19) - np.arange(1, 17, 4)[:, None], 0, 4)]
    exps = np.frombuffer(b"".join(f"e{e:+03d}".encode().ljust(8, b"\0")
                                  for e in range(-300, 301)), np.uint64)
    marks = np.frombuffer(b"\0\0\0\0.\0\0\0\0-\0\0.-\0\0", np.uint32)
    return groups, zeros, keep, exps, marks


@cache
def _layout(form: int) -> np.ndarray:
    """Source-row positions of a cell's text, NUL-padded past _CELL.

    ``form`` is the decimal exponent for -4 <= form <= 16, where ``%g``
    writes fixed notation, and 17 for exponent notation.
    """
    digits = list(range(3, 20))
    if form < 0:  # 0.000ddd
        text = [_ZERO, _DOT] + [_ZERO] * (-form - 1) + digits
    elif form < 17:  # ddd.ddd; an integral cell keeps one zero digit
        text = digits[:form + 1] + [_DOT] + (digits[form + 1:] or [_ZERO])
    else:  # d.ddde+XX
        text = digits[:1] + [_DOT] + digits[1:] + list(range(_EXP, _EXP + 5))
    text = [_MINUS] + text
    return np.array(text + [_NUL] * (_CELL + 1 - len(text)), np.intp)


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(s + _MIN_POW) as a double-double hi + lo, |lo| <= ulp(hi)/2.

    a = a_top + a_bottom and the high word of 10^s = top + bottom are
    exact splits, so err is first the exact rounding error of p (Dekker).
    """
    hi, top, bottom, lo = _powers()
    top, bottom = top.take(s), bottom.take(s)
    p = a * hi.take(s)
    a_top = _SPLIT * a
    a_top -= a_top - a
    a_bottom = a - a_top
    err = a_top * top
    err -= p
    err += a_top * bottom
    err += a_bottom * top
    err += a_bottom * bottom
    err += a * lo.take(s)
    total = p + err
    p -= total
    err += p  # err - (total - p)
    return total, err


def _significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D, X and a proof mask, with |x| = D 10^(X-16) to 17 correct digits.

    D holds the rounded digits, 10^16 <= D < 10^17, or 0 for a zero.  A
    cell off the mask has no proven D and takes fmt_float.
    """
    a = np.abs(x)
    proven = (a >= _TINY) & (a <= _HUGE)  # nan compares false
    zero = a == 0
    a[~proven] = 1.0
    s = np.floor(np.log10(a))
    s = (16 - _MIN_POW) - s.astype(np.intp)
    hi, lo = _scaled(a, s)
    # hi + lo outside [1e16, 1e17), read from both words: log10 rounded
    # across a power of ten
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero(below | above)
    if off.size:
        s[off] += below[off].astype(np.intp) - above[off]
        hi[off], lo[off] = _scaled(a[off], s[off])
    del a
    whole = np.floor(lo)
    frac = lo - whole
    digits = hi.astype(np.int64)
    digits += whole.astype(np.int64)
    digits += frac > 0.5
    # within the product's error of 10^16 the corrected guess may round
    # to 10^17, which carries into the exponent; any other count of
    # digits would mean log10 was off by two
    proven &= (np.abs(frac - 0.5) >= _TIE) & (digits >= 10**16) & (digits <= 10**17)
    carry = digits == 10**17
    digits[carry] = 10**16
    digits[zero] = 0  # ±0.0 is 0 at the exponent 0 of its stand-in 1.0
    return digits, (16 - _MIN_POW) - s + carry, proven | zero


def _cell_rows(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The cells' 32-byte source rows and layouts, sorted by layout, the
    sorting order, and the cells' proof mask in their own order."""
    digits, exp, proven = _significands(x)
    groups, zeros, keep, exps, marks = _digit_tables()
    high, low = np.divmod(digits, 10**8)
    lead, high = np.divmod(high, 10**8)
    words = [lead, *np.divmod(high, 10**4), *np.divmod(low, 10**4)]
    del digits, high, low
    cut = zeros[words[4]]  # trailing zeros, then the digits written
    run = words[4] == 0
    for word in words[3:0:-1]:
        cut += run * zeros[word]
        run &= word == 0
    cut = 17 - cut
    fixed = (exp >= -4) & (exp <= 16)
    dotted = fixed | (cut > 1)
    cut = np.where(fixed, np.maximum(cut, exp + 2), cut)  # keeps ".0"
    src = np.empty((x.size, 8), np.uint32)
    src[:, 0] = groups[lead]
    for j in range(1, 5):
        np.bitwise_and(groups.take(words[j]), keep[j - 1].take(cut),
                       out=src[:, j])
    del words, cut
    src[:, 5] = marks[2 * np.signbit(x) + dotted]
    src.view(np.uint64)[:, 3] = exps[exp + 300]
    form = np.where(fixed, exp, 17).astype(np.int8)
    order = np.argsort(form, kind="stable")
    src = src.view("V32").ravel().take(order).view(np.uint8).reshape(-1, 32)
    return src, form[order], order, proven


def _float_text(columns, block: slice) -> str:
    """The CSV rows of float64 ``columns`` over ``block``: fmt_float's
    cells joined by commas, each row ended by a newline (see the module
    docstring)."""
    x = np.column_stack([c[block] for c in columns])
    rows, width = x.shape
    x = x.ravel()
    src, form, order, proven = _cell_rows(x)
    ends = [0, *(np.flatnonzero(form[1:] != form[:-1]) + 1).tolist(), x.size]
    text = np.empty((x.size, _CELL + 1), np.uint8)
    for a, b in zip(ends, ends[1:]):
        text[a:b] = src[a:b, _layout(int(form[a]))]
    del src
    cells = np.empty_like(text)
    np.put(cells.view(f"V{_CELL + 1}"), order, text.view(f"V{_CELL + 1}"))
    del text
    unproven = np.flatnonzero(~proven)
    if unproven.size:
        cells[unproven, :_CELL] = np.frombuffer(b"".join(
            fmt_float(v).encode().ljust(_CELL, b"\0")
            for v in x[unproven].tolist()), np.uint8).reshape(-1, _CELL)
    seps = cells.reshape(rows, width, _CELL + 1)[:, :, _CELL]
    seps[:] = ord(",")
    seps[:, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _is_float_array(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind == "f"


def write_csv(path, header, columns) -> None:
    """Write equal-length columns (arrays or sequences) under ``header``.

    The file holds exactly the bytes of fmt_cell applied row by row.  Float
    array columns go through the numpy kernel of the module docstring,
    which writes ``%.17g``'s digits and fmt_float's ``.0`` itself.  A cell
    it cannot prove takes fmt_float: a non-finite one, a nonzero |x|
    outside [1e-280, 1e280], or a product within 1e-6 of a rounding tie.  The
    kernel's tables are built on the first float column written.  Rows go
    BLOCK_ROWS at a time, so memory is that of one block at any length.
    Columns of no rows give a header-only file.
    """
    rows = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(c) != rows for c in columns):
        raise ValueError("need one column per header name, all of one length")
    fields = []  # (kind, columns): a run of float arrays, or one column
    for floats, run in groupby(columns, key=_is_float_array):
        if floats:
            fields.append(("f", [c.astype(float, copy=False) for c in run]))
            continue
        for c in run:
            integers = isinstance(c, np.ndarray) and c.dtype.kind in "iu"
            fields.append(("i" if integers else "", [c]))
    line = ",".join("%d" if kind == "i" else "%s" for kind, _ in fields) + "\n"
    floats_only = [kind for kind, _ in fields] == ["f"]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, rows, BLOCK_ROWS):
            block = slice(a, a + BLOCK_ROWS)
            if floats_only:  # the kernel's text is the block's
                fh.write(_float_text(fields[0][1], block))
                continue
            cells = [_float_text(cols, block).splitlines() if kind == "f"
                     else cols[0][block].tolist() if kind == "i"
                     else map(fmt_cell, cols[0][block])
                     for kind, cols in fields]
            fh.write(line * min(BLOCK_ROWS, rows - a)
                     % tuple(chain.from_iterable(zip(*cells))))


def _json_float(x) -> str:
    if not math.isfinite(x):
        raise NumericalError(f"non-finite value {float(x)} has no JSON encoding")
    return fmt_float(x)


def _json_text(obj, pad: str, names: dict[type, tuple[str, ...]]) -> str:
    """``obj`` as JSON text; its inner lines are indented past ``pad``.

    ``names`` holds the field names of each dataclass met so far, so a
    write reads them once per class, not once per record.
    """
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
        cls = type(obj)
        if cls not in names:
            names[cls] = tuple(f.name for f in fields(cls))
        obj = {name: getattr(obj, name) for name in names[cls]}
    if isinstance(obj, (list, tuple)):
        items = [inner + _json_text(item, inner, names) for item in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"
    if isinstance(obj, dict):
        items = []
        for key, value in obj.items():
            try:
                text = _json_text(value, inner, names)
            except NumericalError as exc:
                raise NumericalError(f"{key}: {exc}") from None
            items.append(inner + json.dumps(str(key)) + ": " + text)
        return "{\n" + ",\n".join(items) + "\n" + pad + "}" if items else "{}"
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def json_dumps(obj) -> str:
    """JSON text with deterministic layout and 17-digit floats.

    A nan or inf anywhere in ``obj`` raises NumericalError naming its keys.
    """
    return _json_text(obj, "", {}) + "\n"


def write_json(path, obj) -> None:
    text = json_dumps(obj)  # raises before the file is created
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
