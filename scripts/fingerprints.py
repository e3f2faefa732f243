"""R.csv fingerprints for every dataset kind x backbone x strategy.

Prints one line per run, ``<kind>-<backbone>-<STRATEGY> <sha256>`` with
the sha256 of the run's R.csv, or the exception type name in place of
the hash when the run fails. Diff the output of two checkouts to see
which runs changed:

    PYTHONPATH=src python3 scripts/fingerprints.py > fp.txt

Hashes depend on the BLAS build, so compare outputs made on one machine.
"""

import argparse
import hashlib

from gnncl.continual.strategies import STRATEGY_KINDS
from gnncl.harness.runner import run_config_from_dict, run_sequence

KINDS = ("sbm", "graphs")  # "path" would need a dataset directory
BACKBONES = ("gcn", "gat", "gin")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=20)
    args = ap.parse_args()

    for kind in KINDS:
        for backbone in BACKBONES:
            for strategy in STRATEGY_KINDS:
                name = f"{kind}-{backbone}-{strategy}"
                try:
                    result = run_sequence(run_config_from_dict({
                        "dataset": {"kind": kind},
                        "model": {"backbone": backbone},
                        "strategy": {"kind": strategy,
                                     "epochs": args.epochs},
                        "seed": args.seed}))
                except Exception as exc:
                    print(name, type(exc).__name__, flush=True)
                    continue
                digest = hashlib.sha256(result.r.to_csv().encode())
                print(name, digest.hexdigest(), flush=True)


if __name__ == "__main__":
    main()
