"""The artifact format: one writer and one validating reader for every file.

JSON: sorted keys, 17-significant-digit floats (an exact round trip), objects
one key per line, 2-D arrays one row per line, arrays' contents inline. A CSV
row is one ``template % values`` call (``"%.17g" % x`` equals :func:`fmt_float`).
Writes are atomic; reads raise :class:`ValidationError` naming the field.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

import numpy as np

from .errors import ValidationError

FLOAT = "%.17g"


def fmt_float(x: float) -> str:
    """17-significant-digit decimal rendering of a double."""
    return format(float(x), ".17g")


def _inline(value) -> str:
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "f":
        return ("[" + ", ".join([FLOAT] * value.size) + "]") % tuple(value.tolist())
    if isinstance(value, np.ndarray):
        return _inline(value.tolist())
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_inline(value[k])}" for k in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_inline, value)) + "]"
    return json.dumps(value)


def render_json(value, indent: str = "") -> str:
    """Deterministic JSON text of dicts, lists, numbers, strings, None and arrays."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        fields = (f"{inner}{json.dumps(k)}: {render_json(value[k], inner)}" for k in sorted(value))
        return "{\n" + ",\n".join(fields) + "\n" + indent + "}"
    if isinstance(value, np.ndarray) and value.ndim == 2:
        return "[\n" + ",\n".join(inner + _inline(row) for row in value) + "\n" + indent + "]"
    return _inline(value)


def write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` atomically: write a temporary file beside it, then rename."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, doc: dict) -> None:
    write_text(path, render_json(doc) + "\n")


class CsvRows:
    """A CSV file's lines: the header, then one ``template % values`` line per
    :meth:`add`; ``specs`` holds one %-spec per column (``FLOAT`` for floats)."""

    def __init__(self, header: str, specs):
        self.template, self.lines = ",".join(specs), [header]

    def add(self, values: tuple) -> None:
        self.lines.append(self.template % values)

    def write(self, path: str | Path) -> None:
        write_text(path, "\n".join(self.lines) + "\n")


def read_json(path: str | Path, kind: str, version: int) -> dict:
    """Parse a ``kind`` file: a JSON object whose ``version`` is ``version``."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{kind} file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{kind} file must hold a JSON object")
    if type(doc.get("version")) is not int or doc["version"] != version:
        raise ValidationError(f"unsupported {kind} version {doc.get('version')!r}")
    return doc


def integer(name: str, value, error: type[ValueError] = ValidationError, minimum=None) -> int:
    """``value`` as an int >= ``minimum``; fractions, booleans and non-numbers raise ``error``."""
    # bool is an int subclass; a JSON true must not pass for 1
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise error(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def layout_counts(entries, where: str, error: type[ValueError] = ValidationError) -> tuple:
    """A ``[{"class": id, "count": n}, ...]`` layout as (id, n) pairs."""
    if not (isinstance(entries, list) and entries and all(isinstance(e, dict) for e in entries)):
        raise error(f"{where} must be a non-empty array of {{class, count}} objects")
    return tuple(
        tuple(integer(f"{where} {key} (entry {i})", e.get(key), error) for key in ("class", "count"))
        for i, e in enumerate(entries)
    )


def array(doc: dict, field: str, shape: tuple, where: str, integral: bool = False) -> np.ndarray:
    """``doc[field]`` as a finite float64 array (int64 when ``integral``) of
    ``shape``; a ``None`` in ``shape`` matches any length >= 1."""
    name = f"{where} field {field!r}"
    if field not in doc:
        raise ValidationError(f"{where} missing field {field!r}")
    try:
        values = np.asarray(doc[field], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} is not a numeric array: {exc}") from exc
    sizes_ok = all(n >= 1 if want is None else n == want for n, want in zip(values.shape, shape))
    if values.ndim != len(shape) or not sizes_ok:
        raise ValidationError(f"{name} has shape {values.shape}, file declares {shape}")
    leaves = doc[field]
    for _ in range(values.ndim - 1):
        leaves = itertools.chain.from_iterable(leaves)
    # numpy would also convert true, null and "1.5"
    if not {type(v) for v in leaves} <= {int, float}:
        raise ValidationError(f"{name} holds values that are not numbers")
    if not np.isfinite(values).all():
        raise ValidationError(f"{name} contains non-finite values")
    if integral and not np.all((values == np.round(values)) & (np.abs(values) < 2.0**62)):
        raise ValidationError(f"{name} must hold integers")
    return values.astype(np.int64) if integral else values
