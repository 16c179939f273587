"""The events writer: ``summary.json`` and the per-event records.

``emit`` writes the records with the bytes of ``json.dump(indent=2)`` or
``csv.writer``, block by block through one buffer, each float cell the bytes
of ``float.__repr__`` from a numpy kernel.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

import numpy as np

from .core import InvariantError
from .dual import EVENT_BLOCK, DualState, _mulhilo

if TYPE_CHECKING:  # harness imports this module, so RunSummary is for the annotation only
    from .harness import RunSummary


# Bytes per block of the events writer's matrix at its columns' widest
# cells, so its temporaries stay about this size whatever the width of a row.
_EMIT_BYTES = 1 << 19
# The widest cell, a float in the slots of _float_cells: the sign, "0." and
# three 0s, 17 digits each with a slot for the point, and a trailing 0. A
# float's repr (at most 24 bytes) and an integer (at most 20) are narrower.
_CELL_BYTES = 1 + 5 + 2 * 17 + 1
# The low and high 32-bit words of 5**k, one column per k, for _mulhilo.
_POW5 = np.array([[5**k % 2**32 for k in range(22)], [5**k >> 32 for k in range(22)]], np.uint64)
_PLACE = np.arange(17, dtype=np.int8)[:, None]  # a digit's place, one row per digit


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The bytes of ``float.__repr__`` of each float64 in *x*, as the rows of
    a NUL-padded matrix at most ``_CELL_BYTES`` wide: the shortest decimal
    that reads back as the same float and, of those, the nearest (Steele &
    White, Gay).

    The kernel decides it exactly for a normal float that is not a power of
    two (whose rounding interval is asymmetric) with 1e-4 <= |x| < 1e16,
    which repr writes without an exponent. With d = floor(log10 |x|) and
    k = 16 - d, x * 10**k = m * 5**k / 2**s for the 53-bit significand m,
    one 128-bit product. Its round-half-even D17 is the nearest 17-digit
    decimal and R the signed remainder, so x * 10**k = D17 + R / 2**s. A
    candidate N reads back iff |N - D17 - R / 2**s| is below half the float's
    spacing, 5**k / 2**(s + 1): |(N - D17) 2**s - R| <= floor(5**k / 2) in
    int64 (5**k is odd, so never a tie). The spacing is 1.1 to 23 units of
    D17, so D17 always reads back and the nearest 15-digit candidate is the
    only one of 15 digits or fewer that can; failing that the nearest
    16-digit one, then D17. Every other value (0, subnormals, powers of two,
    exact ties, exponent forms, a wrong guess of d) goes through
    ``float.__repr__``.

    Only the product and the candidates are 64-bit. The exponents are int16,
    d and the place of the last nonzero digit int8, and ``_digits`` writes the
    digits of the significand's two uint32 halves, of 9 and 8 digits, straight
    into their rows of the slot matrix, so each operation on a (17, n) slot
    plane is on uint8 or int8.
    """
    d, fast, halves = _shortest(x)
    cells = np.empty((_CELL_BYTES, len(x)), np.uint8)
    digits = cells[6:40:2]  # one row per digit, each beside the slot for a point
    _digits(halves[0], digits[:9])
    _digits(halves[1], digits[9:])
    del halves  # 8 bytes a value, freed before the output copy
    points = cells[7:40:2]  # scratch until the points are laid
    nonzero = np.not_equal(digits, 0, out=points.view(np.bool_))
    # The place of the last nonzero digit.
    last = np.multiply(nonzero, _PLACE, out=points.view(np.int8)).max(axis=0)
    zero, point = np.uint8(ord("0")), np.uint8(ord("."))
    digits += zero
    digits *= np.less_equal(_PLACE, np.maximum(d, last), out=nonzero)
    np.multiply(x < 0, np.uint8(ord("-")), out=cells[0])
    cells[1:3] = (d < 0) * np.array([[zero], [point]])
    cells[3:6] = (d <= np.arange(-2, -5, -1, dtype=np.int8)[:, None]) * zero
    np.equal(_PLACE, d, out=points)
    points *= point
    cells[40] = (last <= d) * zero
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = _repr_cells(x[slow])
        cells[:, slow] = 0
        cells[:text.shape[1], slow] = text.T
    return cells[cells.any(axis=1)].T  # without the slots no value uses


def _shortest(x: np.ndarray) -> tuple:
    """``_float_cells``' decision for each float64 of *x*: d, whether the
    kernel decides the value, and the significand of its shortest decimal as
    two uint32 halves, of 9 and 8 digits. Each step writes into one of seven
    64-bit words a lane, reused once its last value is read."""
    bits = x.view(np.uint64)
    m = bits & np.uint64((1 << 52) - 1)  # the fraction, then the significand
    t = np.abs(x)
    fast = (m != 0) & (t >= 1e-4) & (t < 1e16)  # normal from 1e-4 up
    np.copyto(t, 1.0, where=~fast)
    d = np.floor(np.log10(t, out=t), out=t).astype(np.int8)
    k = np.int8(16) - d
    s = np.int16(1075) - k - (np.right_shift(bits, np.uint64(52), out=t.view(np.uint64))
                              .astype(np.int16) & np.int16(0x7FF))
    # s >= 1 leaves a remainder; s <= 56 keeps 51 * 2**s in int64 (the
    # domain gives s <= 47).
    fast &= (s >= np.int16(1)) & (s <= np.int16(56))
    np.copyto(s, np.int16(1), where=~fast)  # k is in [1, 20] in every lane, s now too
    m |= np.uint64(1 << 52)
    h0, h1 = _POW5.take(k, axis=1)
    hi, a, b, c = t.view(np.uint64), *(np.empty(len(x), np.uint64) for _ in range(3))
    _mulhilo((None, h0, h1), m, hi, a, b, c, lo=False)
    m *= np.bitwise_or(np.left_shift(h1, np.uint64(32), out=a), h0, out=a)  # the low word, by a = 5**k
    b[...] = s
    np.left_shift(np.uint64(1), b, out=c)  # 2**s
    np.bitwise_and(m, np.subtract(c, np.uint64(1), out=h0), out=h0)  # R before rounding
    up = h0 > np.right_shift(c, np.uint64(1), out=h1)
    fast &= h0 != h1
    m >>= b
    hi <<= np.subtract(np.uint64(64), b, out=b)
    hi |= m
    d17, rem, pow2, bound, e15, e16, tmp = (w.view(np.int64) for w in (hi, h0, c, a, m, b, h1))
    d17 += up
    rem -= np.multiply(up, pow2, out=tmp)
    # A wrong guess of d puts D17 outside 17 digits.
    fast &= (d17 >= np.int64(10**16)) & (d17 < np.int64(10**17))
    # A candidate D17 + e reads back iff |e 2**s - R| <= floor(5**k / 2).
    np.add(d17, rem > 0, out=e16)  # D17, plus 1 if R breaks a .5 upwards
    for e, step in ((e15, 100), (e16, 10)):  # the nearest 15- and 16-digit candidates
        np.floor_divide(np.add(e16, np.int64(step // 2 - 1), out=e), np.int64(step), out=e)
        e *= np.int64(step)
        e -= d17
    bound >>= np.int64(1)
    ok15, ok16 = (np.abs(np.subtract(np.multiply(e, pow2, out=tmp), rem, out=tmp), out=tmp) <= bound
                  for e in (e15, e16))
    # An exact .5 at 16 digits needs repr's own tie rule.
    fast &= (e16 != np.int64(-5)) | (rem != np.int64(0))
    e16 *= ok16
    d17 += np.where(ok15, e15, e16)  # the fewest digits that read back
    fast &= d17 < np.int64(10**17)  # 10**17 needs a new d
    hi9 = np.floor_divide(d17, np.int64(10**8), out=e15)
    d17 -= np.multiply(hi9, np.int64(10**8), out=tmp)
    return d, fast, (hi9.astype(np.uint32), d17.astype(np.uint32))


def _digits(rest: np.ndarray, rows: np.ndarray):
    """Write the decimal digits of the unsigned integers *rest* into *rows*, one
    row per place, the units last; the first row takes all the higher places."""
    ten = rest.dtype.type(10)
    for row in rows[:0:-1]:
        q = rest // ten  # vectorised, where divmod is not
        np.subtract(rest, q * ten, out=row, casting="unsafe")
        rest = q
    rows[0] = rest


def _repr_cells(x: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of each value of *x*, NUL-padded: the kernel's fallback."""
    text = np.array(list(map(float.__repr__, x.tolist())), dtype="S")
    return text.view(np.uint8).reshape(len(text), -1)


def _cells(column: np.ndarray) -> np.ndarray:
    """The values of *column* as the rows of a NUL-padded uint8 matrix: each
    float as ``float.__repr__`` (as json and csv write it), each integer as
    right-aligned decimal digits, behind a sign slot only if one is negative."""
    if column.dtype.kind == "f":
        return _float_cells(np.asarray(column, np.float64))
    lo, hi = int(column.min()), int(column.max())  # the sign slot, widths and type follow
    top = max(-lo, hi)  # the largest magnitude
    dtype = np.min_scalar_type(top).type  # the narrowest unsigned type that holds it
    width = len(str(top))
    short = 1 if lo < 0 <= hi else len(str(min(abs(lo), abs(hi))))  # fewest digits of any value
    sign = int(lo < 0)
    mag = column.astype(dtype)  # a negative's two's complement, negated next
    cells = np.empty((sign + width, len(mag)), np.uint8)  # one plane per slot
    if sign:
        neg = column < 0
        np.negative(mag, out=mag, where=neg)  # so |-2**63| = 2**63 fits
        cells[0] = neg * np.uint8(ord("-"))  # the padding after the sign is dropped with the rest
    _digits(mag, cells[sign:])
    cells[sign:] += np.uint8(ord("0"))
    for place in range(short, width):  # a value below 10**place has no digit there
        cells[-1 - place] *= mag >= dtype(10**place)
    return cells.T


def _block_rows(n: int, texts: list, columns: list) -> int:
    """Rows per block of the events writer: as many as fit in ``_EMIT_BYTES``
    when every cell is its column's widest, and at most EVENT_BLOCK. The
    event id (``None``) takes the digits of n - 1, an integer column its sign
    slot and the digits of its largest magnitude, as ``_cells`` lays them, and
    a float column ``_CELL_BYTES``."""
    width = sum(map(len, texts))
    for column in columns:
        if column is None:
            width += len(str(max(n - 1, 0)))
        elif column.dtype.kind == "f":
            width += _CELL_BYTES
        else:
            lo, hi = int(column.min(initial=0)), int(column.max(initial=0))
            width += (lo < 0) + len(str(max(-lo, hi)))
    return min(EVENT_BLOCK, max(1, _EMIT_BYTES // width))


def emit(summary: RunSummary, records: DualState, out_dir, fmt="json"):
    """Write summary.json plus per-event records; byte-identical across
    re-runs of the same (scenario, seed). The events file has the bytes of
    ``json.dump(indent=2)`` or ``csv.writer``. Every scalar step is formatted
    into a row template once. Blocks of ``_block_rows`` rows, at most
    ``_EMIT_BYTES`` bytes, go through one row-major uint8 buffer of at most
    ``n_events`` rows: the template text is laid into it once, and again only
    when a column's cell width changes, and each block writes just the
    NUL-padded cells of its column steps into their windows. Only the cells
    are scanned for NUL, since flags may not hold one: a block without a
    padded cell is written as it stands, any other ``_EMIT_BYTES / 8`` at a
    time, each slice that holds a NUL copied into one spare buffer and written
    without its NULs."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown events format {fmt!r}; expected 'json' or 'csv'")
    if not records.steps:
        raise InvariantError("an event record needs at least one step")
    if any("\0" in flag for flag in records.flags):
        raise InvariantError("an event flag may not contain NUL, the writer's padding byte")
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    n, flags = records.n_events, list(records.flags)
    if fmt == "csv":
        text = ";".join(flags)
        if any(c in text for c in ',"\r\n'):  # quoted as csv.QUOTE_MINIMAL does
            text = '"' + text.replace('"', '""') + '"'
        start, sep, end = "event_id,t_perceive,j,flags\n", "", ""
        head, parts = "", [",", records.t_perceive, ",", records.final_j, f",{text}\n"]
    else:
        start, sep, end = ("[\n", ",\n", "\n]\n") if n else ("[]\n", "", "")
        head, parts = '  {\n    "event_id": ', [',\n    "history": [']
        for i, (t, j) in enumerate(records.steps):
            parts += ["," * (i > 0) + "\n      [\n        ", t, ",\n        ", j, "\n      ]"]
        text = json.dumps(flags, indent=2).replace("\n", "\n    ")
        parts.append(f'\n    ],\n    "flags": {text}\n  }}')
    # A row is sep + head, the event id, then the parts: texts[i] precedes
    # columns[i] and texts[-1] ends the row. The file's first row has no sep.
    texts, columns = [(sep + head).encode(), b""], [None]  # None: the event id
    for part in parts:  # template text, a scalar step or a column
        if isinstance(part, str):
            texts[-1] += part.encode()
            continue
        part = np.asarray(part)
        if part.ndim:
            texts.append(b"")
            columns.append(part)
        else:  # the text the float kernel's fallback writes, without paging in its code
            texts[-1] += repr(part.item()).encode()
    block = _block_rows(n, texts, columns)
    rows = min(block, n)
    laid = None  # the cell widths the buffer's template text is laid around
    events_path = os.path.join(out_dir, f"events.{fmt}")
    with open(events_path, "wb") as fh:
        fh.write(start.encode())
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            cells = [_cells(np.arange(lo, hi) if column is None else column[lo:hi])
                     for column in columns]
            widths = [c.shape[1] for c in cells]
            if widths != laid:  # one row of the template, NULs in its cell windows
                laid, windows, row = widths, [], texts[0]
                for w, text in zip(widths, texts[1:]):
                    windows.append(slice(len(row), len(row) + w))
                    row += bytes(w) + text
                grid = buf = spare = None  # the old buffers go before the new ones are laid
                buf = bytearray(row) * rows
                grid = np.frombuffer(buf, np.uint8).reshape(rows, len(row))
                spare = bytearray(min(len(buf), _EMIT_BYTES // 8))  # a padded slice is compacted here
            for window, c in zip(windows, cells):
                grid[:hi - lo, window] = c
            padded = not all(map(np.all, cells))  # only a cell can hold a NUL
            del cells  # before the next block's are made
            size, first = (hi - lo) * len(row), len(sep) * (lo == 0)  # the file's first row has no sep
            stride = len(spare) if padded else size
            for i in range(first, size, stride):
                j = min(i + stride, size)
                if padded and buf.find(0, i, j) >= 0:
                    spare[:j - i] = memoryview(buf)[i:j]
                    spare[j - i:] = bytes(len(spare) - (j - i))  # NULs past the slice
                    fh.write(spare.translate(None, b"\0"))
                else:
                    fh.write(memoryview(buf)[i:j])
        fh.write(end.encode())
    return [summary_path, events_path]
