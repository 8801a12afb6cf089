"""Deterministic text serialization: 17 significant digits, LF endings.

The stdlib json encoder cannot be told to widen float output, so reports
go through this small emitter instead. Data files carry no timestamps;
identical inputs must produce byte-identical files, except that the
`verify --output` report records each check's wall-clock seconds.

Types map to JSON as: None, bool, int, float (at fmt17), str, dict and
list/tuple as themselves, a string and a dict key (as str(key)) escaped
as `json.dumps(ensure_ascii=False)` escapes them; an Enum as its value; a
complex as {"re", "im"}; a Fraction as [numerator, denominator]; a
NamedTuple as an object of its fields in declaration order.
Anything else is refused with TypeError, numpy arrays and numpy integers
included; numpy's float64 and complex128 subclass float and complex, so
they are written as those.

This module loads neither numpy nor fractions: `write_csv` reads a numpy
array's blocks through their `tolist`, and `_emit` looks for a Fraction
only once `fractions` is loaded, since no Fraction exists before.
"""
from __future__ import annotations

import json
import math
import sys
from enum import Enum
from itertools import chain
from typing import Iterable, Sequence

CSV_BLOCK_ROWS = 1024


def fmt17(x: float) -> str:
    """A float at 17 significant digits (scientific notation)."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} in output")
    return format(float(x), ".16e")


def _emit(obj, level: int) -> str:
    pad = "  " * level  # two spaces per level
    pad_in = pad + "  "
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return fmt17(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, Enum):
        return _emit(obj.value, level)
    if isinstance(obj, complex):
        return _emit({"re": obj.real, "im": obj.imag}, level)
    fractions = sys.modules.get("fractions")  # a Fraction exists only once it is loaded
    if fractions is not None and isinstance(obj, fractions.Fraction):
        return _emit([obj.numerator, obj.denominator], level)
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):  # a NamedTuple
        return _emit(obj._asdict(), level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{pad_in}{json.dumps(str(key), ensure_ascii=False)}: "
                 f"{_emit(value, level + 1)}" for key, value in obj.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{pad_in}{_emit(value, level + 1)}" for value in obj)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    return _emit(obj, 0) + "\n"


def write_json(path, obj):
    """Render obj first, so that a refused value leaves no file."""
    write_text(path, dumps_json(obj))


def write_text(path, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_csv(path, header: str, columns: Iterable[Sequence[float]]):
    """Rows of 17-digit values, byte for byte what fmt17 gives per value.

    The columns are equally long sequences of floats: lists, tuples,
    memoryviews of doubles or numpy arrays, the last two read a block at a
    time through their `tolist`. Every value is checked before the file is opened, and
    the first non-finite one in row order is refused as fmt17 refuses it.
    Rows are read and formatted CSV_BLOCK_ROWS at a time, so a large file
    costs no more memory than one block of text.
    """
    columns = list(columns)
    rows = len(columns[0]) if columns else 0

    def block(start):  # the block's columns as sequences of Python floats
        parts = [col[start:start + CSV_BLOCK_ROWS] for col in columns]
        return [part.tolist() if hasattr(part, "tolist") else part for part in parts]

    starts = range(0, rows, CSV_BLOCK_ROWS)
    for start in starts:
        parts = block(start)
        if not all([all(map(math.isfinite, part)) for part in parts]):
            for x in chain.from_iterable(zip(*parts)):
                fmt17(x)  # raises for the first in row order
    row = ",".join(["%.16e"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for start in starts:
            values = tuple(chain.from_iterable(zip(*block(start))))
            fh.write((row * (len(values) // len(columns))) % values)
