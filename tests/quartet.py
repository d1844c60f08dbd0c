"""The toy ablation quartet over several seeds: each seed's four final
purities, the three margins of acceptance 7, and how many seeds pass
acceptance 6 and 7.

    PYTHONPATH=src python tests/quartet.py 19 1 2 3 4 5 6 7

Each seed trains the toy preset four times (class-aware or single memory,
contrastive or triplet loss) with that ``seed``, in a temporary directory.
Acceptance 6 asks class-aware contrastive for purity >= 0.90 and fidelity
>= 0.95 (its time bound is left out); acceptance 7 asks each margin to be
>= 0.02. Purities print as the shortest repr of their float, so two tables
can be compared with ``diff``. One seed takes about 20 s on a 2-core VM.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
from pathlib import Path

from stylemem.harness import config_from_dict, resolve_config, run_training

ARMS = (
    ("class-aware", "contrastive"),
    ("class-aware", "triplet"),
    ("single", "contrastive"),
    ("single", "triplet"),
)
NAMES = ("cm+cl", "cm+tl", "sm+cl", "sm+tl")
MARGINS = {  # acceptance 7: each left arm beats its right arm by >= 0.02
    "cm+cl vs cm+tl": ("cm+cl", "cm+tl"),
    "cm+tl vs sm+tl": ("cm+tl", "sm+tl"),
    "cm+cl vs sm+cl": ("cm+cl", "sm+cl"),
}
MIN_MARGIN = 0.02
MIN_PURITY = 0.90
MIN_FIDELITY = 0.95


def quartet(seed: int) -> dict[str, float]:
    """The four arms' final purities at ``seed``, plus class-aware
    contrastive fidelity under ``"fidelity"``."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (mode, loss) in zip(NAMES, ARMS):
            raw = {"preset": "toy", "seed": seed, "memory_mode": mode, "loss_variant": loss}
            final = run_training(config_from_dict(resolve_config(raw)), Path(tmp) / name).final_eval
            out[name] = final.purity
            if name == "cm+cl":
                out["fidelity"] = final.fidelity
    return out


def verdict(row: dict[str, float]) -> tuple[dict[str, float], bool, bool]:
    """The margins of one seed's quartet and whether it passes acceptance 6 and 7."""
    margins = {label: row[a] - row[b] for label, (a, b) in MARGINS.items()}
    passes_6 = row["cm+cl"] >= MIN_PURITY and row["fidelity"] >= MIN_FIDELITY
    passes_7 = all(m >= MIN_MARGIN for m in margins.values())
    return margins, passes_6, passes_7


def table(rows: dict[int, dict[str, float]]) -> list[str]:
    """One line per seed, then the medians and the pass counts."""
    lines = [f"{'seed':>5} " + " ".join(f"{n:>14}" for n in NAMES + tuple(MARGINS)) + "  acc6 acc7"]
    counts = [0, 0]
    for seed, row in rows.items():
        margins, passes_6, passes_7 = verdict(row)
        counts[0] += passes_6
        counts[1] += passes_7
        cells = [repr(row[n]) for n in NAMES] + [f"{m:+.4f}" for m in margins.values()]
        lines.append(f"{seed:>5} " + " ".join(f"{c:>14}" for c in cells) + f"  {passes_6!s:>4} {passes_7!s:>4}")
    medians = [statistics.median(row[n] for row in rows.values()) for n in NAMES]
    lines.append(f"{'med':>5} " + " ".join(f"{m:>14.4f}" for m in medians))
    n = len(rows)
    lines.append(f"acceptance 6 holds at {counts[0]} of {n} seeds, acceptance 7 at {counts[1]} of {n}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or not all(a.isdigit() for a in args):
        print("usage: PYTHONPATH=src python tests/quartet.py SEED [SEED ...]", file=sys.stderr)
        return 2
    rows = {}
    for seed in map(int, args):
        rows[seed] = quartet(seed)
        print(f"seed {seed} done", file=sys.stderr)
    print("\n".join(table(rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
