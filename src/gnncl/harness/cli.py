"""Command-line interface: gen-data, run, sweep, report."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..graphs import save_dataset
from .runner import (
    build_dataset,
    check_seed,
    resolve_dataset,
    resolve_sweep,
    run_config_from_dict,
    run_sequence,
    sweep_and_report,
    aggregate_csv,
)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path} must contain a JSON object")
    return obj


def _cmd_gen_data(args) -> int:
    raw = _load_json(args.config)
    dataset = raw.get("dataset", raw if "kind" in raw else {})
    seed = check_seed(args.seed if args.seed is not None
                      else raw.get("seed", 0))
    seq = build_dataset(resolve_dataset(dataset), seed)
    save_dataset(seq, args.out)
    print(json.dumps({"out": args.out, "num_tasks": len(seq.tasks),
                      "seed": seed}))
    return 0


def _cmd_run(args) -> int:
    raw = _load_json(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out_dir is not None:
        raw["out_dir"] = args.out_dir
    result = run_sequence(run_config_from_dict(raw))
    print(json.dumps({"ap": result.ap, "af": result.af,
                      "af_defined": result.af_defined,
                      "out_dir": result.config["out_dir"],
                      "wall_clock_s": result.wall_clock_s}))
    return 0


def _parse_seeds(text: str) -> List[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s != ""]
    except ValueError:
        raise ValueError(f"--seeds must be comma-separated integers, "
                         f"got '{text}'")
    if not seeds:
        raise ValueError("--seeds is empty")
    return seeds


def _cmd_sweep(args) -> int:
    base, variants = resolve_sweep(_load_json(args.config))
    out_dir = args.out_dir if args.out_dir is not None else base.get("out_dir")
    base.pop("out_dir", None)
    cells = sweep_and_report(base, variants, _parse_seeds(args.seeds),
                             out_dir)
    sys.stdout.write(aggregate_csv(cells))
    failed = [c for c in cells if c.error is not None]
    for cell in failed:
        print(f"# failed {cell.name} seed {cell.seed}: {cell.error}",
              file=sys.stderr)
    return 1 if failed else 0


def _cmd_report(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise FileNotFoundError(f"no such directory: {root}")
    rows = []
    for path in sorted(root.rglob("metrics.json")):
        with open(path, "r", encoding="utf-8") as fh:
            m = json.load(fh)
        rel = str(path.parent.relative_to(root)) or "."
        if m.get("failed"):
            rows.append(f"{rel},,,failed")
        else:
            rows.append("%s,%.17g,%.17g,ok" % (rel, m["ap"], m["af"]))
    print("run,ap,af,status")
    for row in rows:
        print(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnncl",
        description="Continual learning on graph neural networks: "
                    "generate task sequences, run strategies, sweep seeds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a dataset directory")
    p.add_argument("--config", required=True,
                   help="JSON run config or bare dataset config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("run", help="execute a single run")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--out-dir", default=None,
                   help="override the config output directory")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="run variants across seeds")
    p.add_argument("--config", required=True, help="JSON sweep config")
    p.add_argument("--seeds", required=True,
                   help="comma-separated seed list, e.g. 0,1,2")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("report", help="summarize finished runs")
    p.add_argument("--dir", required=True,
                   help="directory containing run outputs")
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
