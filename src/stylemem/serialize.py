"""The artifact format: one writer and one validating reader for every file.

JSON: sorted keys, 17-significant-digit floats (an exact round trip), objects
one key per line, 2-D arrays one row per line, arrays' contents inline. A CSV
row is one ``template % values`` call (``"%.17g" % x`` equals :func:`fmt_float`).
Float arrays and the float columns of a CSV block go through :func:`float_rows`,
which renders whole rows in numpy with the same bytes as the ``%`` template.
Writes are atomic; reads raise :class:`ValidationError` naming the field.
"""

from __future__ import annotations

import itertools
import json
import os
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import ValidationError

FLOAT = "%.17g"


def fmt_float(x: float) -> str:
    """17-significant-digit decimal rendering of a double."""
    return format(float(x), ".17g")


# --- float blocks ---
#
# A fast element x (finite, nonzero, 1e-7 <= |x| < 1e17) is rendered from
# its 17 significant digits D in [1e16, 1e17) and decimal exponent e: D is
# |x| * 10**s (s = 16 - e in [0, 22], so 10**s is an exact double) rounded
# half to even, computed from Dekker's error-free product p + err. Digits come
# four at a time from a table of ASCII groups read as uint32, with a group's
# trailing zeros as NUL padding once no later group is nonzero. Elements are
# sorted by e; each e has one column layout in a fixed-width field, and the
# NUL padding is deleted when the fields are joined. A row holding any other
# value is rendered by the ``%`` template.

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitting factor for doubles
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_FIELD = 23  # the longest fast text: "-0.000" plus 17 digits, or "-d." plus 16 digits plus "e-06"
_BYTES = tuple(np.dtype((np.void, k)) for k in range(_FIELD + 1))  # k-byte blocks
_CHUNK = 8192  # elements rendered at once; bounds the temporaries at about 2 MB


def _digit_groups() -> np.ndarray:
    """ASCII texts of 0..9999 as uint32: [:10000] with trailing zeros as NUL,
    [10000:] all four digits."""
    digits = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    chars = (digits + ord("0")).astype(np.uint8)
    kept = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    return np.concatenate([chars * kept, chars]).view(np.uint32).ravel()


_DIGITS4 = _digit_groups()
for _table in (_POW10, _POW10_HI, _POW10_LO, _DIGITS4):
    _table.flags.writeable = False


def _copy(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src`` for (rows, k) uint8 blocks, one k-byte copy per row."""
    width = _BYTES[dst.shape[-1]]
    dst.view(width)[...] = src.view(width)


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, err) with p = fl(a * 10**s) and p + err == a * 10**s exactly."""
    hi, lo = _POW10_HI[s], _POW10_LO[s]
    p = hi + lo
    p *= a
    c = a * _SPLIT
    a_hi = c - a
    np.subtract(c, a_hi, out=a_hi)
    a_lo = np.subtract(a, a_hi, out=c)
    err = a_hi * hi
    err -= p
    a_hi *= lo
    err += a_hi
    hi *= a_lo
    err += hi
    a_lo *= lo
    err += a_lo
    return p, err


def _out_of_range(p: np.ndarray, err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether p + err < 1e16, and whether p + err >= 1e17."""
    below = (p < 1e16) | ((p == 1e16) & (err < 0))
    above = (p > 1e17) | ((p == 1e17) & (err >= 0))
    return below, above


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, e, fast): 17 significant digits and decimal exponents of x; D and e
    are placeholders (1e16, 0) where ``fast`` is False."""
    a = np.abs(x)
    fast = (a >= 1e-7) & (a < 1e17)  # also False for NaN
    np.copyto(a, 1.0, where=~fast)
    t = np.log10(a)
    np.floor(t, out=t)
    np.subtract(16.0, t, out=t)
    np.maximum(t, 0.0, out=t)
    np.minimum(t, 22.0, out=t)
    s = t.astype(np.intp)
    p, err = _scaled(a, s)
    below, above = _out_of_range(p, err)
    # log10 can be off by one next to a power of ten: rescale those once
    redo = np.flatnonzero(below | above)
    if redo.size:
        s_redo = s[redo] + below[redo] - above[redo]
        fast[redo] &= (s_redo >= 0) & (s_redo <= 22)
        np.clip(s_redo, 0, 22, out=s_redo)
        p_redo, err_redo = _scaled(a[redo], s_redo)
        below, above = _out_of_range(p_redo, err_redo)
        fast[redo] &= ~(below | above)
        s[redo], p[redo], err[redo] = s_redo, p_redo, err_redo
    # p is an even integer here (p >= 1e16 > 2**53), so this rounds half to even
    digits = p.astype(np.int64)
    digits += np.rint(err).astype(np.int64)
    # a round up to 10**17 is left to the template (no double in range does it)
    fast &= digits < 10**17
    digits[~fast] = 10**16
    exponent = (16 - s).astype(np.int8)
    exponent[~fast] = 0
    return digits, exponent, fast


def _digit_text(digits: np.ndarray) -> np.ndarray:
    """(n, 17) ASCII digits of 17-digit integers, trailing zeros as NUL."""
    text = np.empty((digits.size, 20), np.uint8)
    words = text.view(np.uint32)
    lead = digits // 10**16
    rest = digits - lead * 10**16
    groups = []
    for scale in (10**12, 10**8, 10**4):
        groups.append(rest // scale)
        rest -= groups[-1] * scale
    groups.append(rest)
    words[:, 4] = _DIGITS4[groups[3]]
    later = groups[3] != 0  # a later group is nonzero: keep this group's zeros
    for column in (3, 2, 1):
        words[:, column] = _DIGITS4[groups[column - 1] + 10000 * later]
        later |= groups[column - 1] != 0
    lead += ord("0")
    text[:, 3] = lead
    return text[:, 3:]


def _fields(digits: np.ndarray, exponent: np.ndarray, negative: np.ndarray, width: int) -> np.ndarray:
    """(n, width) NUL-padded texts of sorted-by-exponent elements."""
    n = digits.size
    text = _digit_text(digits)
    out = np.zeros((n, width), np.uint8)
    out[:, 0] = negative
    out[:, 0] *= ord("-")
    cuts = (np.flatnonzero(exponent[1:] != exponent[:-1]) + 1).tolist()
    for start, stop in zip([0, *cuts], [*cuts, n]):
        e, f, g = int(exponent[start]), out[start:stop], text[start:stop]
        if e >= 0:  # "ddd.ddd"
            _copy(f[:, 1:e + 2], g[:, :e + 1])
            if not g[:, e].all():  # integers: trailing zeros before the point are digits
                f[:, 1:e + 2] |= ord("0")
            if e < 16:
                f[:, e + 2] = ord(".")
                f[g[:, e + 1] == 0, e + 2] = 0
                _copy(f[:, e + 3:19], g[:, e + 1:])
        elif e >= -4:  # "0.000ddd"
            z = -e - 1
            _copy(f[:, 1:3 + z], np.frombuffer(b"0." + b"0" * z, np.uint8))
            _copy(f[:, 3 + z:20 + z], g)
        else:  # "d.ddde-05"
            f[:, 1] = g[:, 0]
            f[:, 2] = ord(".")
            f[g[:, 1] == 0, 2] = 0
            _copy(f[:, 3:19], g[:, 1:])
            _copy(f[:, 19:23], np.frombuffer(b"e-%02d" % -e, np.uint8))
    return out


def _block_rows(block: np.ndarray, sep: bytes) -> list[str]:
    rows, cols = block.shape
    n, width = block.size, _FIELD + len(sep)
    x = block.ravel()
    digits, exponent, fast = _decimal(x)
    order = np.argsort(exponent, kind="stable")
    fields = _fields(digits[order], exponent[order], np.signbit(x)[order], width)
    fields[:, _FIELD:] = np.frombuffer(sep, np.uint8)
    text = np.empty_like(fields)
    field = np.dtype((np.void, width))
    text.view(field).reshape(n)[order] = fields.view(field).reshape(n)
    ends = text.reshape(rows, cols, width)[:, -1, _FIELD:]
    ends[:] = 0
    ends[:, 0] = ord("\n")
    lines = text.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    slow = np.flatnonzero(~fast.reshape(rows, cols).all(axis=1)).tolist()
    if slow:
        template = sep.decode().join([FLOAT] * cols)
        for i in slow:
            lines[i] = template % tuple(block[i].tolist())
    return lines


def float_rows(matrix, sep: str = ",") -> Iterator[str]:
    """The rows of a 2-D float array, each its ``"%.17g"`` texts joined by
    ``sep`` (which holds no newline or NUL); rendered a chunk at a time."""
    matrix = np.asarray(matrix, dtype=np.float64)
    rows, cols = matrix.shape
    if cols == 0:
        return iter([""] * rows)
    step = max(1, _CHUNK // cols)
    chunks = (_block_rows(matrix[start:start + step], sep.encode()) for start in range(0, rows, step))
    return itertools.chain.from_iterable(chunks)


def _inline(value) -> str:
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "f":
        return "[" + next(float_rows(value[None, :], ", ")) + "]"
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
        if value.dtype.kind == "f":
            rows = (f"[{row}]" for row in float_rows(value, ", "))
        else:
            rows = map(_inline, value)
        return "[\n" + ",\n".join(inner + row for row in rows) + "\n" + indent + "]"
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
        self.specs, self.template, self.lines = tuple(specs), ",".join(specs), [header]

    def add(self, values: tuple) -> None:
        self.lines.append(self.template % values)

    def add_block(self, leading, floats: np.ndarray) -> None:
        """One line per row of ``floats``, the trailing ``FLOAT`` columns, after
        that row's tuple of ``leading`` values."""
        head = ",".join(self.specs[: len(self.specs) - floats.shape[1]]) + ","
        self.lines += [head % values + row for values, row in zip(leading, float_rows(floats))]

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
