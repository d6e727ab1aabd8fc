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
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

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


def _scalar(value) -> str | None:
    """JSON and CSV text of a bool, int or float (numpy scalars too); None otherwise."""
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    if isinstance(value, (bool, np.bool_)):
        return _bool_text(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return None


def _leaf(obj) -> str | None:
    """JSON text of a scalar, None or str; None for anything else."""
    if obj is None:
        return "null"
    return json.dumps(obj) if isinstance(obj, str) else _scalar(obj)


@lru_cache(maxsize=1024)
def _head(pad: str, key: str) -> str:
    return pad + json.dumps(key) + ": "


def _flat_dict(obj: dict, keys: list, indent: int) -> str | None:
    """Text of a dict whose values are all scalars, None or str, emitted in one
    piece with the same bytes as the general path; None if a value is a container."""
    pad = " " * (indent + 2)
    items = []
    for key in keys:
        text = _leaf(obj[key])
        if text is None:
            return None
        items.append(_head(pad, key) + text)
    return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"


def _emit(obj, indent: int, out: list) -> None:
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    text = _leaf(obj)
    if text is not None:
        out.append(text)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        pad = " " * (indent + 2)
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad)
            _emit(item, indent + 2, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(" " * indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        for key in obj:
            if not isinstance(key, str):
                raise ValidationError(f"record keys must be strings, got {key!r}")
        keys = sorted(obj)
        text = _flat_dict(obj, keys, indent)
        if text is not None:
            out.append(text)
            return
        pad = " " * (indent + 2)
        out.append("{\n")
        for i, key in enumerate(keys):
            out.append(_head(pad, key))
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

    def to_json(self) -> str:
        return canonical_json(
            {
                "kind": self.kind,
                "version": self.version,
                "rng": self.rng,
                "seed": self.seed,
                "config": self.config,
                "rows": list(self.rows),
                "summary": self.summary,
            }
        )

    def write(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")


def _cell(value) -> str:
    text = _scalar(value)
    if text is not None:
        return text
    if value is None:
        return ""
    if isinstance(value, str):
        if any(ch in value for ch in ',"\n\r'):
            raise ValidationError(f"CSV cell may not contain commas or newlines: {value!r}")
        return value
    raise ValidationError(f"unsupported CSV cell type: {type(value).__name__}")


def render_csv(columns: list, rows, comment: str = "") -> str:
    """Header + rows, preceded by one '#' comment line for gnuplot."""
    lines = []
    if comment:
        if "\n" in comment:
            raise ValidationError("CSV comment must be a single line")
        lines.append("# " + comment)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join([_cell(row[col]) for col in columns]))
    return "\n".join(lines) + "\n"


def write_csv(path, columns: list, rows, comment: str = "") -> None:
    Path(path).write_text(render_csv(columns, rows, comment), encoding="utf-8")
