"""Command line entry points: train, eval, inspect.

Exit codes: 0 on success, 1 on validation/configuration errors, 2 on I/O
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .encoder import load_encoders
from .errors import ERRORS
from .harness import evaluate, inspect_bank, load_config, run_training
from .memory import load_bank
from .serialize import render_json


def _cmd_train(args) -> None:
    cfg = load_config(args.config)
    result = run_training(cfg, args.out)
    print(render_json(dataclasses.asdict(result.final_eval)))


def _cmd_eval(args) -> None:
    cfg = load_config(args.config)
    bank = load_bank(args.bank)
    encoders = load_encoders(args.encoders)
    row = evaluate(bank, encoders, cfg, args.scenes)
    print(render_json(dataclasses.asdict(row)))


def _cmd_inspect(args) -> None:
    print(inspect_bank(args.bank))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stylemem",
        description="Class-partitioned key-values memory experiments on synthetic scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run a training experiment")
    train.add_argument("--config", required=True, help="experiment config JSON")
    train.add_argument("--out", required=True, help="output directory for artifacts")
    train.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="evaluate saved artifacts on fresh scenes")
    ev.add_argument("--bank", required=True, help="bank JSON file")
    ev.add_argument("--encoders", required=True, help="encoder checkpoint JSON file")
    ev.add_argument("--config", required=True, help="experiment config JSON")
    ev.add_argument("--scenes", type=int, default=100, help="held-out scene pairs")
    ev.set_defaults(func=_cmd_eval)

    ins = sub.add_parser("inspect", help="summarize a bank file")
    ins.add_argument("--bank", required=True, help="bank JSON file")
    ins.set_defaults(func=_cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
