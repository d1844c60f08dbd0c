"""Drift between two runs of the same config: the largest absolute and
relative difference per ``metrics.csv`` column, per ``final_eval.json`` key,
per ``bank.json`` plane (keys, values_x, values_y), per ``encoders.json``
parameter (``content_x.weight``, ``content_x.bias``, ...) and in the
``assignments.csv`` export's ``weight`` column and its content columns
(``c0``, ``c1``, ... together, as ``content``). A change to the training
arithmetic enters through the encoder weights and the bank, which the
metrics and the final evaluation show only in part.

    python tests/drift.py PARENT_RUN CHANGE_RUN

Each argument is a run's output directory. The relative drift of a pair of
values is ``|a - b| / max(|a|, |b|)``, and 0 where both are 0. The two runs
must have the same columns, metrics rows, final-evaluation keys, planes,
parameters and exported rows, each of the same size; otherwise the script names the
difference and exits with code 1. A change that moves artifact bytes on
purpose reports its drift with this script.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np


def _metrics(run: Path) -> dict[str, np.ndarray]:
    with open(run / "metrics.csv", newline="") as f:
        header, *rows = list(csv.reader(f))
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
    return dict(zip(header, values.T))


def _final_eval(run: Path) -> dict[str, np.ndarray]:
    doc = json.loads((run / "final_eval.json").read_text())
    return {key: np.array([value], dtype=np.float64) for key, value in doc.items()}


def _bank(run: Path) -> dict[str, np.ndarray]:
    doc = json.loads((run / "bank.json").read_text())
    return {plane: np.array(doc[plane], dtype=np.float64) for plane in ("keys", "values_x", "values_y")}


def _encoders(run: Path) -> dict[str, np.ndarray]:
    blocks = json.loads((run / "encoders.json").read_text())["encoders"]
    return {
        f"{name}.{part}": np.array(block[part], dtype=np.float64)
        for name, block in blocks.items() for part in ("weight", "bias")
    }


def _assignments(run: Path) -> dict[str, np.ndarray]:
    with open(run / "assignments.csv", newline="") as f:
        header, *rows = list(csv.reader(f))
    weight = header.index("weight")
    values = np.array([row[weight:] for row in rows], dtype=np.float64).reshape(len(rows), len(header) - weight)
    return {"weight": values[:, 0], "content": values[:, 1:]}


def _largest(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    if a.size == 0:
        return 0.0, 0.0
    gap = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0.0)
    return float(gap.max()), float(rel.max())


def drift(parent: str | Path, change: str | Path) -> dict[tuple[str, str], tuple[float, float]]:
    """(file, column, key, plane or parameter) -> (largest absolute, largest relative) drift."""
    out = {}
    files = (
        ("metrics.csv", _metrics), ("final_eval.json", _final_eval), ("bank.json", _bank),
        ("encoders.json", _encoders), ("assignments.csv", _assignments),
    )
    for name, load in files:
        a, b = load(Path(parent)), load(Path(change))
        if list(a) != list(b):
            raise ValueError(f"{name} fields differ: {list(a)} vs {list(b)}")
        for field in a:
            if a[field].shape != b[field].shape:
                raise ValueError(f"{name} {field}: {a[field].size} values vs {b[field].size}")
            out[name, field] = _largest(a[field], b[field])
    return out


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tests/drift.py PARENT_RUN CHANGE_RUN", file=sys.stderr)
        return 2
    try:
        table = drift(*args)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{'file':<16} {'field':<16} {'abs':>10} {'rel':>10}")
    for (name, field), (gap, rel) in table.items():
        print(f"{name:<16} {field:<16} {gap:10.3e} {rel:10.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
