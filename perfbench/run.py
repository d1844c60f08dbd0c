"""Benchmark of stylemem: one workload per invocation.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` runs traced jobs and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The program is imported from
``src/`` of the checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "stylemem" / "__init__.py").is_file():
        print(f"error: no stylemem sources under {src}", file=sys.stderr)
        return 2
    # One caller on a shared 2-core box: BLAS runs on the calling thread only.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))

    start = time.process_time()
    import stylemem.harness  # noqa: F401  (timed: import is part of set-up)

    import_s = time.process_time() - start

    import bench

    args = parse_args(argv, sorted(bench.WORKLOADS))
    workload = bench.WORKLOADS[args.workload]
    machine = bench.machine_info()
    out = WORK / f"{args.workload}-{os.getpid()}"
    try:
        info = {}
        if args.trace:
            state, tracers, metrics = bench.run_traced(workload, args.seed, args.seconds, out)
            units = bench.PER_LAYER_UNITS
            write_spans(tracers[0], WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
            if tracers[0].missing:
                print(f"not in the package, not traced: {tracers[0].missing}")
        else:
            state, metrics, info = bench.run_untraced(
                workload, args.seed, args.seconds, out, import_s
            )
            units = bench.END_TO_END_UNITS
    finally:
        shutil.rmtree(out, ignore_errors=True)

    tally = state.tally
    threads = machine["blas_threads"]
    if threads is not None and threads > machine["nproc"]:
        tally.attempted += 1
        tally.failed += 1
        tally.errors.append(f"BLAS uses {threads} threads on {machine['nproc']} cores")
    missing = [name for name in units if name not in metrics]
    if missing:
        tally.errors.append(f"no successful call measured {missing}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"T={state.cfg.iterations}  eval_scenes={state.cfg.eval_scenes}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:44s} {metrics.get(name, float('nan')):>14.6g} {unit}")
    for name, value in info.items():
        print(f"  {name:44s} {value:>14.6g}")
    if state.trained is not None:
        print(f"  {'final_purity':44s} {state.trained.final_eval.purity:>14.6g} ratio")
    print(f"  {'fail_ratio':44s} {tally.failed / max(tally.attempted, 1):>14.6g} "
          f"({tally.failed} of {tally.attempted} calls)")
    for error in tally.errors:
        print(f"  failure: {error}")

    result = {
        "correct": tally.failed == 0 and not missing,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


def write_spans(tracer, path: Path) -> None:
    """Write one traced job's spans, one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span.as_dict()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
