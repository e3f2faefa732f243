"""R.csv fingerprints for every dataset kind x backbone x strategy.

Prints one line per run, ``<kind>-<backbone>-<STRATEGY> <r> <curves>``:
the sha256 of the run's R.csv and the sha256 of its loss curves (every
task's per-epoch losses as float64 bytes, in task order), or the
exception type name in place of both when the run fails. R.csv holds
accuracies, which a last-bits change in training rarely moves; such a
change shows in the second hash alone. Diff the output of two checkouts
to see which runs changed:

    PYTHONPATH=src python3 scripts/fingerprints.py > fp.txt

Hashes depend on the BLAS build, so compare outputs made on one machine.
"""

import argparse
import hashlib

import numpy as np

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
                r_hash = hashlib.sha256(result.r.to_csv().encode())
                curves = hashlib.sha256()
                for curve in result.loss_curves:
                    curves.update(np.asarray(curve, np.float64).tobytes())
                print(name, r_hash.hexdigest(), curves.hexdigest(),
                      flush=True)


if __name__ == "__main__":
    main()
