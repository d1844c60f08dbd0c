"""The artifact format: one writer and one validating reader for every file.

JSON: sorted keys, 17-significant-digit floats (an exact round trip), objects
one key per line, 2-D arrays one row per line, arrays' contents inline. A CSV
row is one ``template % values`` call (``"%.17g" % x`` equals :func:`fmt_float`).
Float blocks are rendered in numpy with the same bytes as the ``%`` template,
as finished lines of bytes: :func:`csv_lines` puts each row's leading text
(a constant prefix and integer columns) before its floats, and
:func:`float_rows` splits the lines of a block into row texts.
:func:`write_json` writes the pieces that :func:`render_json` joins as each
is rendered, a 2-D float block a chunk of rows at a time, so a file's whole
text is never held. Every file is written as bytes through
:func:`atomic_write`; reads raise :class:`ValidationError` naming the field.
"""

from __future__ import annotations

import itertools
import json
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, ValidationError

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
# sorted by e; each e has one column layout in a fixed-width field. A row is
# its NUL-padded leading text, its fields and a newline in place of the last
# separator; one ``bytes.translate`` per chunk deletes the NUL padding and
# yields the finished lines. A row holding any other value is rendered by
# the ``%`` template.

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitting factor for doubles
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_FIELD = 23  # the longest fast text: "-0.000" plus 17 digits, or "-d." plus 16 digits plus "e-06"
_BYTES = tuple(np.dtype((np.void, k)) for k in range(_FIELD + 1))  # k-byte blocks
_CHUNK = 8192  # elements rendered at once; bounds the temporaries at about 1 MB
_JSON_CHUNK = 2048  # the same in a JSON file, so its writer holds about 0.25 MB


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
    a = a if fast.all() else np.where(fast, a, 1.0)
    t = np.log10(a)
    np.floor(t, out=t)
    np.subtract(16.0, t, out=t)
    np.clip(t, 0.0, 22.0, out=t)
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
    exponent = (16 - s).astype(np.int8)
    if not fast.all():  # placeholders where slow
        digits[~fast], exponent[~fast] = 10**16, 0
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


def _block_lines(block: np.ndarray, sep: bytes, heads: np.ndarray) -> bytes:
    """The finished lines of ``block``: each row's NUL-padded ``heads`` row,
    then its ``"%.17g"`` texts joined by ``sep``, then a newline."""
    rows, cols = block.shape
    n, width = block.size, _FIELD + len(sep)
    x = block.ravel()
    digits, exponent, fast = _decimal(x)
    order = np.argsort(exponent, kind="stable")
    fields = _fields(digits[order], exponent[order], np.signbit(x)[order], width)
    fields[:, _FIELD:] = np.frombuffer(sep, np.uint8)
    skip = -(-heads.shape[1] // width)  # the fields that the NUL-padded head takes
    text = np.zeros((rows, (skip + cols) * width), np.uint8)
    text[:, :heads.shape[1]] = heads
    field = np.dtype((np.void, width))
    text.view(field).reshape(-1)[order + skip * (order // cols + 1)] = fields.view(field).reshape(n)
    text[:, -len(sep):] = np.frombuffer(b"\n".ljust(len(sep), b"\0"), np.uint8)
    template = sep.decode().join([FLOAT] * cols) + "\n"
    parts, start = [], 0
    for i in np.flatnonzero(~fast.reshape(rows, cols).all(axis=1)).tolist():  # out of range: the template
        parts += [text[start:i].tobytes(), heads[i].tobytes(), (template % tuple(block[i].tolist())).encode()]
        start = i + 1
    parts.append(text[start:].tobytes())
    return b"".join(parts).translate(None, b"\0")


def _line_chunks(matrix: np.ndarray, sep: bytes, heads: np.ndarray, size: int = _CHUNK) -> Iterator[bytes]:
    step = max(1, size // matrix.shape[1])
    return (_block_lines(matrix[i:i + step], sep, heads[i:i + step]) for i in range(0, len(matrix), step))


def float_rows(matrix, sep: str = ",") -> Iterator[str]:
    """The rows of a 2-D float array, each its ``"%.17g"`` texts joined by
    ``sep`` (which holds no newline or NUL); rendered a chunk at a time."""
    matrix = np.asarray(matrix, dtype=np.float64)
    rows, cols = matrix.shape
    if cols == 0:
        return iter([""] * rows)
    chunks = _line_chunks(matrix, sep.encode(), np.empty((rows, 0), np.uint8))
    return itertools.chain.from_iterable(chunk.decode("ascii").split("\n")[:-1] for chunk in chunks)


def csv_lines(prefix: str, ints: tuple, floats: np.ndarray) -> Iterator[bytes]:
    """The CSV lines of a block, a chunk of lines at a time: ``prefix``,
    then the row's value of each of the one or more arrays of ``ints`` (in
    [0, 10**8)), then the row of ``floats``, comma-joined."""
    values = np.stack(ints, axis=1)
    digits = _DIGITS4[10000:][np.stack((values // 10000, values % 10000), axis=2)].view(np.uint8)  # 8 per value
    digits[..., :-1] *= np.logical_or.accumulate(digits[..., :-1] != ord("0"), axis=2)  # leading zeros as NUL
    cells = np.full((*values.shape, 9), ord(","), np.uint8)
    cells[..., :8] = digits
    lead = np.broadcast_to(np.frombuffer(prefix.encode(), np.uint8), (len(values), len(prefix)))
    heads = np.hstack((lead, cells.reshape(len(values), -1)))
    return _line_chunks(np.asarray(floats, dtype=np.float64), b",", heads)


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


def _json_pieces(value, indent: str = "") -> Iterator[str]:
    """The JSON text of ``value`` in pieces, each 2-D float block a chunk of rows at a time."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        for i, k in enumerate(sorted(value)):
            yield f"{',' if i else '{'}\n{inner}{json.dumps(k)}: "
            yield from _json_pieces(value[k], inner)
        yield "\n" + indent + "}"
    elif isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind == "f" and value.size:
        between = "],\n" + inner + "["  # a row's end, and the next row's start
        chunks = _line_chunks(np.asarray(value, np.float64), b", ", np.empty((len(value), 0), np.uint8), _JSON_CHUNK)
        for i, chunk in enumerate(chunks):
            yield ("[\n" + inner + "[" if i == 0 else between) + chunk[:-1].decode("ascii").replace("\n", between)
        yield "]\n" + indent + "]"
    elif isinstance(value, np.ndarray) and value.ndim == 2:  # an integer block, or one with no elements
        rows = (f"[{row}]" for row in float_rows(value, ", ")) if value.dtype.kind == "f" else map(_inline, value)
        yield "[\n" + ",\n".join(inner + row for row in rows) + "\n" + indent + "]"
    else:
        yield _inline(value)


def render_json(value) -> str:
    """Deterministic JSON text of dicts, lists, numbers, strings, None and arrays."""
    return "".join(_json_pieces(value))


@contextmanager
def atomic_write(path: str | Path) -> Iterator[Callable[[bytes], object]]:
    """Replace ``path`` atomically with the bytes passed to the yielded
    ``write(data)``: they go to a temporary file beside it, renamed over
    ``path`` when the block exits normally and removed on any exception."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as handle:
            yield handle.write
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, doc: dict) -> None:
    """Write :func:`render_json` of ``doc`` and a newline, each piece as it
    is rendered, so the whole text is never held."""
    with atomic_write(path) as write:
        for piece in _json_pieces(doc):
            write(piece.encode())
        write(b"\n")


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


_MAX_FLOAT = float(np.finfo(np.float64).max)


def number(name: str, value, error: type[ValueError] = ValidationError) -> float:
    """``value`` as a finite float; booleans, non-numbers, NaN and infinities raise ``error``."""
    # the comparison also rejects NaN, and ints too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _MAX_FLOAT:
        raise error(f"{name} must be a finite number, got {value!r}")
    return float(value)


def typed(name: str, kind: str, value, loading: bool = False):
    """The config type rule: an int field holds an int, a float field a finite
    int or float (returned as a float), and a bool is neither; ``loading``
    first turns an integral float in an int field into that int."""
    if loading and kind == "int" and isinstance(value, float) and value.is_integer():
        value = int(value)
    if kind == "int" and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return number(name, value, ConfigError) if kind == "float" else value


def check_types(cls, values: dict, prefix: str = "", loading: bool = False) -> dict:
    """:func:`typed` over the int, float and str fields of dataclass ``cls`` in ``values``, by name."""
    checked = (f for f in fields(cls) if f.type in ("int", "float", "str"))
    return {f.name: typed(prefix + f.name, f.type, values[f.name], loading) for f in checked}


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
