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
from functools import lru_cache
from typing import NamedTuple

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
def _layout(keys: tuple, indent: int) -> tuple[tuple, tuple, str]:
    """The sorted keys of a dict with these keys, each one's line head at
    indent, and the %-template of the dict's text with one %s per value in
    key order, worked out once per key set: every row of a bundle shares one."""
    for key in keys:
        if not isinstance(key, str):
            raise ValidationError(f"record keys must be strings, got {key!r}")
    ordered = tuple(sorted(keys))
    pad = " " * (indent + 2)
    heads = tuple(pad + json.dumps(key) + ": " for key in ordered)
    return ordered, heads, "{\n" + ",\n".join(head.replace("%", "%%") + "%s" for head in heads) + "\n" + " " * indent + "}"


def _per_run(x: np.ndarray, texts_of) -> list:
    """texts_of(heads), the texts of the first cell of each run of equal cells
    of x (bitwise equal, for float64), each repeated over its run."""
    keys = x.view(np.int64) if x.dtype == np.float64 else x
    starts = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
    return np.repeat(np.array(texts_of(x[starts]), dtype=object), np.diff(np.append(starts, x.shape[0]))).tolist()


def _float_texts(heads: np.ndarray) -> list:
    """format_float of each value of a finite float64 array."""
    texts = list(map("%.17g".__mod__, heads.tolist()))
    # the integral values below 1e17 are the ones printed without a '.' or an 'e'
    for at in np.flatnonzero((heads == np.trunc(heads)) & (np.abs(heads) < 1e17)).tolist():
        texts[at] += ".0"
    return texts


def _column(values: np.ndarray) -> tuple:
    """(JSON texts, CSV texts) of a table column: float64, int and unsigned
    formatted once per run of equal cells, bool as true/false, any other as
    the _texts of its cells, once per distinct cell when all are str or None
    (no two of which are equal, as 0.0 and -0.0 are)."""
    if values.dtype == np.float64:
        if not np.isfinite(values).all():
            raise ValidationError("non-finite value is not representable in a record")
        texts = _per_run(values, _float_texts)
        return texts, texts
    if values.dtype.kind in "iu":
        texts = _per_run(values, lambda heads: heads.astype(str))
        return texts, texts
    if values.dtype == bool:
        texts = np.where(values, "true", "false").tolist()
        return texts, texts
    cells = values.tolist()
    if set(map(type, cells)) <= {str, type(None)}:
        known = {value: _texts(value) for value in set(cells)}
        pairs = list(map(known.__getitem__, cells))
    else:
        pairs = list(map(_texts, cells))
    if None in pairs:
        raise ValidationError(f"unsupported type in record: {type(cells[pairs.index(None)]).__name__}")
    return tuple(zip(*pairs))


class _Rendered(tuple):
    """Runs of list items rendered at their indent, each run one string:
    _emit lays them out as a list."""


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
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys, heads, _ = _layout(tuple(obj), indent)
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


#: rows rendered per block: only one block's column texts are held at once
RENDER_BLOCK = 1024


def _table_blocks(table: dict, columns, line: str):
    """(JSON text, CSV text) of each block of a table, a dict of equal-length
    columns, formatted column by column; each JSON row fills the template of
    the table's key set."""
    lengths = set(map(len, table.values()))
    if len(lengths) > 1:
        raise ValidationError(f"table columns differ in length: {sorted(lengths)}")
    n, (ordered, _, template) = max(lengths, default=0), _layout(tuple(table), 4)
    for lo in range(0, n, RENDER_BLOCK):
        cells = {key: _column(column[lo : lo + RENDER_BLOCK]) for key, column in table.items()}
        line_cells = [cells[col][1] for col in columns]  # a missing column raises KeyError
        for col, cell in zip(columns, line_cells):
            if None in cell:  # a str that would break its CSV line
                raise ValidationError(f"CSV cell may not contain commas or newlines: {cells[col][0][cell.index(None)]}")
        csv_rows = map(line.__mod__, zip(*line_cells)) if columns else [line] * min(RENDER_BLOCK, n - lo)
        yield ",\n    ".join(map(template.__mod__, zip(*(cells[key][0] for key in ordered)))), "".join(csv_rows)


def _pieces(table: dict, columns, comment: str, document: dict | None = None) -> tuple[list, list]:
    """Pieces of the JSON text of document, its "rows" being the rows of
    table, a dict of equal-length columns, and of the CSV text of those rows
    over columns, one piece per block of rows. Nothing is written, so a cell
    that cannot be serialized leaves no file. The CSV text starts with one
    '#' comment line for gnuplot."""
    if "\n" in comment:
        raise ValidationError("CSV comment must be a single line")
    csv = (["# " + comment + "\n"] if comment else []) + [",".join(columns) + "\n"]
    line = ",".join(["%s"] * len(columns)) + "\n"
    # a row sits in the list at key "rows" of the top-level object, at indent 4; one
    # string per block: a string per row would add its object header to each
    blocks = list(_table_blocks(table, columns, line))
    csv += [text for _, text in blocks]
    out: list = []
    if document is not None:
        _emit({**document, "rows": _Rendered(text for text, _ in blocks)}, 0, out)
        out.append("\n")
    return out, csv


def _write(path, pieces: list) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(pieces)


# a named tuple: a frozen dataclass costs about three times the import-time memory
class ExperimentRecord(NamedTuple):
    """One experiment run: config echo, rows (a table: a dict of equal-length columns), summary stats.

    It carries no timing: byte-identical reruns are part of the contract.
    """

    kind: str
    config: dict
    seed: int | None
    rows: dict
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


def render_csv(columns: list, table: dict, comment: str = "") -> str:
    """Header + the rows of table, preceded by one '#' comment line for gnuplot."""
    return "".join(_pieces(table, columns, comment)[1])


def write_csv(path, columns: list, table: dict, comment: str = "") -> None:
    _write(path, _pieces(table, columns, comment)[1])
