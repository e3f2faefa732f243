"""Dataset fingerprints, then R.csv fingerprints for every dataset kind x
backbone x strategy.

The first lines, one per generated dataset, read ``dataset-<name>-<seed>
<hash>``: the sha256 over every graph's CSR arrays, features, labels and
normalized adjacency (edges and weights), plus a pool's graph labels.
They cover the default SBM, the 3,840-node SBM of the sbm16x perfbench
workload and the default graph pools, each at seeds 0 and 7919, and
print within seconds, so a change to graph construction can be checked
bit for bit before any training starts.

Then comes one line per run, ``<kind>-<backbone>-<STRATEGY> <r> <curves>``
(``sbm16x-gat-FINETUNE`` runs on the 3,840-node SBM, and the last one,
``path-gat-FINETUNE``, on the default SBM written by ``save_dataset`` to
a temporary directory and read back by the loader, so it must equal
``sbm-gat-FINETUNE``):
the sha256 of the run's R.csv and the sha256 of its loss curves (every
task's per-epoch losses as float64 bytes, in task order), or the
exception type name in place of both when the run fails; the script
prints every line and then exits with status 1 if any run failed or if
``path-gat-FINETUNE`` differs from ``sbm-gat-FINETUNE``, so a scripted
comparison of two checkouts tells a broken run from a changed one.
R.csv holds
accuracies, which a last-bits change in training rarely moves; such a
change shows in the second hash alone. Diff the output of two checkouts
to see which runs changed:

    PYTHONPATH=src python3 scripts/fingerprints.py > fp.txt

Hashes depend on the BLAS build, so compare outputs made on one machine.
``tests/fingerprints.txt`` holds the lines of the current code, and
``tests/test_fingerprints.py`` runs :func:`fingerprints` in-process and
names each line that differs from it. A change that regroups floats on
purpose rewrites that file:

    PYTHONPATH=src python3 scripts/fingerprints.py > tests/fingerprints.txt
"""

import argparse
import hashlib
import sys
import tempfile
from typing import Iterator, Tuple

import numpy as np

from gnncl.continual.strategies import STRATEGY_KINDS
from gnncl.graphs import normalize_adjacency, save_dataset
from gnncl.harness.runner import (build_dataset, resolve_dataset,
                                  run_config_from_dict, run_sequence)

KINDS = ("sbm", "graphs")  # "path" runs once, on a saved default SBM
BACKBONES = ("gcn", "gat", "gin")
DATASETS = (
    ("sbm", {"kind": "sbm"}),
    # the sizes of perfbench's sbm16x-gat-finetune workload
    ("sbm16x", {"kind": "sbm", "nodes_per_class": 640,
                "p_in": 0.0184375, "p_out": 0.0021875}),
    ("graphs", {"kind": "graphs"}),
)
DATASET_SEEDS = (0, 7919)


def dataset_hash(dataset: dict, seed: int) -> str:
    seq = build_dataset(resolve_dataset(dataset), seed)
    h = hashlib.sha256()
    for g in [seq.graph] if seq.graph is not None else seq.graphs:
        adj = normalize_adjacency(g)
        for a in (g.row_ptr, g.col_idx, g.features, g.labels,
                  adj.row_ptr, adj.edge_src, adj.edge_dst, adj.weights):
            h.update(a.tobytes())
    h.update(np.array([g.graph_label for g in seq.graphs],
                      np.int64).tobytes())
    return h.hexdigest()


def fingerprints(seed: int = 0, epochs: int = 20
                 ) -> Iterator[Tuple[str, str, bool]]:
    """Every fingerprint in print order, as ``(name, text, failed)``:
    ``text`` is the dataset's hash or the run's two hashes, or the
    exception type name of a run that raised (``failed`` true)."""
    for name, dataset in DATASETS:
        for dataset_seed in DATASET_SEEDS:
            yield (f"dataset-{name}-{dataset_seed}",
                   dataset_hash(dataset, dataset_seed), False)
    for kind in KINDS:
        for backbone in BACKBONES:
            for strategy in STRATEGY_KINDS:
                yield run_fingerprint(f"{kind}-{backbone}-{strategy}",
                                      {"kind": kind}, backbone, strategy,
                                      epochs, seed)
    # the only run on the large graph, whose edge counts and widths no
    # default dataset reaches
    yield run_fingerprint("sbm16x-gat-FINETUNE", dict(DATASETS)["sbm16x"],
                          "gat", "FINETUNE", epochs, seed)
    # the loader path: a round trip through the dataset directory format
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(build_dataset(resolve_dataset({"kind": "sbm"}), seed),
                     tmp)
        yield run_fingerprint("path-gat-FINETUNE",
                              {"kind": "path", "path": tmp}, "gat",
                              "FINETUNE", epochs, seed)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=20)
    args = ap.parse_args()

    runs = {}
    failed = False
    for name, text, run_failed in fingerprints(args.seed, args.epochs):
        print(name, text, flush=True)
        runs[name] = text
        failed |= run_failed
    if failed:
        sys.exit(1)
    if runs["path-gat-FINETUNE"] != runs["sbm-gat-FINETUNE"]:
        print("path-gat-FINETUNE differs from sbm-gat-FINETUNE: the "
              "dataset directory round trip changed the run",
              file=sys.stderr)
        sys.exit(1)


def run_fingerprint(name: str, dataset: dict, backbone: str, strategy: str,
                    epochs: int, seed: int) -> Tuple[str, str, bool]:
    """The run's ``(name, hashes, False)``, or ``(name, exception type
    name, True)`` if the run raised."""
    try:
        result = run_sequence(run_config_from_dict({
            "dataset": dataset,
            "model": {"backbone": backbone},
            "strategy": {"kind": strategy, "epochs": epochs},
            "seed": seed}))
    except Exception as exc:
        return name, type(exc).__name__, True
    r_hash = hashlib.sha256(result.r.to_csv().encode())
    curves = hashlib.sha256()
    for curve in result.loss_curves:
        curves.update(np.asarray(curve, np.float64).tobytes())
    return name, f"{r_hash.hexdigest()} {curves.hexdigest()}", False


if __name__ == "__main__":
    main()
