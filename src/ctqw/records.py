"""Deterministic experiment records: canonical JSON plus plot-ready CSV.

Reruns with the same config and seed must produce byte-identical files, so
everything about serialization is pinned here. Floats are printed with 17
significant digits (enough for exact binary round-trips) and always keep a
decimal marker so they reload as floats. JSON objects are emitted with
sorted keys by a small recursive printer; NaN and infinities are rejected
outright. CSV files start with a single '#' comment line that gnuplot
skips, then a header row.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._version import __version__
from .errors import ValidationError
from .rng import RNG_NAME

__all__ = [
    "ExperimentRecord",
    "canonical_json",
    "format_float",
    "render_csv",
    "write_csv",
]


def format_float(value: float) -> str:
    """Render a float with 17 significant digits, keeping it a float.

    format(x, '.17g') already round-trips IEEE doubles; integral values get
    a trailing '.0' appended so json.loads and CSV readers see a float, not
    an int. Non-finite values have no place in a record.
    """
    x = float(value)
    if not math.isfinite(x):
        raise ValidationError("non-finite value is not representable in a record")
    text = format(x, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _bool_text(value) -> str:
    return "true" if value else "false"


#: text of the exact built-in scalar types, which make up nearly every row
_SCALAR_TEXT = {float: format_float, bool: _bool_text, int: str}
#: a character that would break a CSV line
_CSV_BREAK = re.compile(r'[,"\n\r]')


def _texts(value) -> tuple[str, str | None] | None:
    """(JSON text, CSV text) of a bool, int, float (numpy scalars too), None or
    str, formatted once for both files; None for anything else. A str that
    would break its CSV line has no CSV text."""
    fmt = _SCALAR_TEXT.get(type(value))
    if fmt is None:
        if value is None:
            return "null", ""
        if isinstance(value, str):
            return json.dumps(value), None if _CSV_BREAK.search(value) else value
        if isinstance(value, (bool, np.bool_)):
            fmt = _bool_text
        elif isinstance(value, (int, np.integer)):
            value, fmt = int(value), str
        elif isinstance(value, (float, np.floating)):
            fmt = format_float
        else:
            return None
    text = fmt(value)
    return text, text


@lru_cache(maxsize=256)
def _layout(keys: tuple, indent: int) -> tuple[tuple, tuple]:
    """The sorted keys of a dict with these keys, and each one's line head
    at indent, worked out once per key set: every row of a bundle shares one."""
    for key in keys:
        if not isinstance(key, str):
            raise ValidationError(f"record keys must be strings, got {key!r}")
    ordered = tuple(sorted(keys))
    pad = " " * (indent + 2)
    return ordered, tuple(pad + json.dumps(key) + ": " for key in ordered)


def _flat_dict(obj: dict, indent: int, columns=()) -> tuple[str, list] | None:
    """Text of a non-empty dict whose values are all scalars, None or str,
    emitted in one piece with the same bytes as the general path, and the CSV
    cells of columns, each value formatted once for both; None if a value is
    a container."""
    items, cells = [], {}
    for key, head in zip(*_layout(tuple(obj), indent)):
        texts = _texts(obj[key])
        if texts is None:
            return None
        items.append(head + texts[0])
        cells[key] = texts[1]
    # a missing column raises KeyError, a breaking str raises in _cell
    line = [cells[col] if cells[col] is not None else _cell(obj[col]) for col in columns]
    return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}", line


class _Rendered(tuple):
    """List items already rendered at their indent: _emit lays them out as a list."""


def _emit(obj, indent: int, out: list) -> None:
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    texts = _texts(obj)
    if texts is not None:
        out.append(texts[0])
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        pad, rendered = " " * (indent + 2), type(obj) is _Rendered
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad)
            if rendered:
                out.append(item)
            else:
                _emit(item, indent + 2, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(" " * indent + "]")
    elif isinstance(obj, dict):
        flat = _flat_dict(obj, indent) if obj else ("{}",)
        if flat is not None:
            out.append(flat[0])
            return
        out.append("{\n")
        keys, heads = _layout(tuple(obj), indent)
        for i, (key, head) in enumerate(zip(keys, heads)):
            out.append(head)
            _emit(obj[key], indent + 2, out)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(" " * indent + "}")
    else:
        raise ValidationError(f"unsupported type in record: {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Serialize with sorted keys, 2-space indent, 17-digit floats."""
    out: list = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _pieces(rows, columns, comment: str, document: dict | None = None) -> tuple[list, list]:
    """Pieces of the JSON text of document, its "rows" being rows, and of
    the CSV text of rows over columns, in one formatting pass over the row
    cells; nothing is written, so a cell that cannot be serialized leaves no
    file. The CSV text starts with one '#' comment line for gnuplot."""
    if "\n" in comment:
        raise ValidationError("CSV comment must be a single line")
    csv = (["# " + comment + "\n"] if comment else []) + [",".join(columns) + "\n"]
    texts = []
    for row in rows:
        # a row sits in the list at key "rows" of the top-level object: indent 4
        flat = _flat_dict(row, 4, columns) if isinstance(row, dict) and row else None
        if flat is None:
            general: list = []
            _emit(row, 4, general)
            flat = "".join(general), [_cell(row[col]) for col in columns]
        texts.append(flat[0])
        csv.append(",".join(flat[1]) + "\n")
    out: list = []
    if document is not None:
        _emit({**document, "rows": _Rendered(texts)}, 0, out)
        out.append("\n")
    return out, csv


def _write(path, pieces: list) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(pieces)


@dataclass(frozen=True)
class ExperimentRecord:
    """One experiment run: config echo, per-row results, summary stats.

    It carries no timing: byte-identical reruns are part of the contract.
    """

    kind: str
    config: dict
    seed: int | None
    rows: tuple
    summary: dict
    version: str = __version__
    rng: str = RNG_NAME

    def pieces(self, columns=(), comment: str = "") -> tuple[list, list]:
        """Pieces of the JSON text and of the CSV text over columns (_pieces)."""
        document = {
            "kind": self.kind,
            "version": self.version,
            "rng": self.rng,
            "seed": self.seed,
            "config": self.config,
            "summary": self.summary,
        }
        return _pieces(self.rows, columns, comment, document)

    def to_json(self) -> str:
        return "".join(self.pieces()[0])

    def write(self, path) -> None:
        _write(path, self.pieces()[0])


def _cell(value) -> str:
    texts = _texts(value)
    if texts is None:
        raise ValidationError(f"unsupported CSV cell type: {type(value).__name__}")
    if texts[1] is None:
        raise ValidationError(f"CSV cell may not contain commas or newlines: {value!r}")
    return texts[1]


def render_csv(columns: list, rows, comment: str = "") -> str:
    """Header + rows, preceded by one '#' comment line for gnuplot."""
    return "".join(_pieces(rows, columns, comment)[1])


def write_csv(path, columns: list, rows, comment: str = "") -> None:
    _write(path, _pieces(rows, columns, comment)[1])
