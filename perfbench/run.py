"""gnncl benchmark: end-to-end and per-layer metrics of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sbm-gat-twp --seed 0 --seconds 30 --trace 0

Workloads, their run configs and the layer -> end-to-end map are in
``perfbench/workloads.json``. Each run is a single-process closed loop:
the next ``run_sequence`` starts when the previous one returns, BLAS is
held at one thread and no other thread is started.

``--trace 0`` repeats rounds until ``--seconds`` is spent. Round i uses
config seed ``seed + i * SEED_STRIDE``, so that one figure covers several
inputs (GEM's projection count, for one, depends on the seed). A round
times set-ups of its config for ``setup_seconds_per_round`` (at least
one), then makes two runs. The first run has no wrapper installed and
gives ``run_s``; the second installs only the epoch clock (``Adam``
hooks) and gives the epoch samples. Both runs must produce the same R
matrix. Spreading the set-ups over the whole measurement, rather than
timing them in one burst at the start, keeps ``setup_s`` from resting on
the host's speed during a single second.

``--trace 1`` alternates untraced runs and runs under the span tracer, all
at ``--seed``, and reports the per-layer metrics of ``tracer.py`` plus the
tracing overhead (traced ``run_s`` minus untraced ``run_s``).

Every run is checked: the lower triangle of R is filled with values in
[0, 1], the rest is empty, and AP, AF and every epoch loss are finite. The
sha256 of ``R.csv`` is the run's fingerprint. The report goes to stdout;
its last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record (environment, per-run samples
and fingerprints, spans of the last traced run) is written under
``.perfbench/`` at the repository root. The exit code is 0 only when
every run passed its checks.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

from tracer import (EXACT_METRICS, LAYER_METRICS, EpochClock, Tracer,
                    all_node_ops, cross_check, leftover_wrappers, run_metrics)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
SEED_STRIDE = 100003
OUT_DIR = ROOT / ".perfbench"

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


class SetupError(RuntimeError):
    """The benchmark cannot start: sources or workload missing."""


def load_gnncl(root: Path) -> SimpleNamespace:
    """Import gnncl from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "gnncl" / "__init__.py").is_file():
        raise SetupError(f"no gnncl sources under {src}")
    sys.path.insert(0, str(src))
    import gnncl
    from gnncl import continual, engine, graphs, harness, nn

    if Path(gnncl.__file__).resolve().parent != src / "gnncl":
        raise SetupError(f"gnncl imported from {gnncl.__file__}, not {src}")
    return SimpleNamespace(engine=engine, nn=nn, continual=continual,
                           graphs=graphs, harness=harness)


def workload_config(name: str, seed: int,
                    epochs: Optional[int] = None) -> Dict[str, Any]:
    raw = copy.deepcopy(SPEC["workloads"][name]["config"])
    raw["seed"] = seed
    if epochs is not None:
        raw["strategy"]["epochs"] = epochs
    return raw


def environment(seed: int) -> Dict[str, Any]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout varies between numpy versions
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
        "held_out_seed": SPEC["held_out_seed"],
    }


# one run -----------------------------------------------------------------


def check_result(result, epochs: int) -> List[str]:
    """Validity of one RunResult; an empty list means it passed."""
    errors = []
    r = result.r
    t = r.num_tasks
    for i in range(t):
        for j in range(t):
            v = float(r.values[i, j])
            if j <= i and not (math.isfinite(v) and 0.0 <= v <= 1.0):
                errors.append(f"R[{i}][{j}] = {v} is not a score in [0, 1]")
            elif j > i and not math.isnan(v):
                errors.append(f"R[{i}][{j}] = {v} above the diagonal")
    for name, v in (("AP", result.ap), ("AF", result.af)):
        if not math.isfinite(v):
            errors.append(f"{name} = {v} is not finite")
    if len(result.loss_curves) != t:
        errors.append(f"{len(result.loss_curves)} loss curves for {t} tasks")
    for k, curve in enumerate(result.loss_curves):
        if len(curve) != epochs:
            errors.append(f"task {k} ran {len(curve)} of {epochs} epochs")
        if not all(math.isfinite(v) for v in curve):
            errors.append(f"task {k} has a non-finite epoch loss")
    return errors


def run_checked(g: SimpleNamespace, raw: Dict[str, Any]) -> Dict[str, Any]:
    """One timed ``run_sequence``, from config to the last evaluation."""
    t0 = perf_counter()
    try:
        result = g.harness.run_sequence(g.harness.run_config_from_dict(raw))
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return {"seed": raw["seed"], "run_s": perf_counter() - t0,
                "errors": [f"{type(exc).__name__}: {exc}"]}
    run_s = perf_counter() - t0
    return {
        "seed": raw["seed"], "run_s": run_s,
        "errors": check_result(result, raw["strategy"]["epochs"]),
        "ap": result.ap, "af": result.af,
        "fingerprint": hashlib.sha256(
            result.r.to_csv().encode()).hexdigest(),
    }


def same_result(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    return all(a.get(k) == b.get(k) for k in ("fingerprint", "ap", "af"))


def setup_once(g: SimpleNamespace, raw: Dict[str, Any]) -> float:
    """Config to a ready strategy: everything before the first epoch."""
    t0 = perf_counter()
    cfg = g.harness.run_config_from_dict(raw)
    seq = g.harness.build_dataset(cfg.dataset, cfg.seed)
    model = g.harness.build_model(seq, cfg.model, cfg.seed)
    view = g.continual.TaskView(seq)
    g.continual.make_strategy(cfg.strategy, model, view, cfg.seed)
    return perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def warm_up(g: SimpleNamespace, name: str, seed: int) -> Dict[str, Any]:
    """One untimed single-epoch run, so that first-call costs (page
    faults, lazy imports, allocator growth) stay out of the samples."""
    run = run_checked(g, workload_config(name, seed, epochs=1))
    run["kind"] = "warm-up"
    return run


def bare_run(g: SimpleNamespace, raw: Dict[str, Any]) -> Dict[str, Any]:
    """A run with no wrapper installed anywhere in gnncl."""
    leftover = leftover_wrappers()
    run = run_checked(g, raw)
    run["kind"] = "bare"
    if leftover:
        run["errors"].append("wrappers installed: " + ", ".join(leftover))
    return run


def _rounds(seconds: float, body) -> None:
    """Call ``body(i)`` for i = 0, 1, ... while the next call is expected
    to end within ``seconds``; always at least once."""
    start = perf_counter()
    last = 0.0
    i = 0
    while i == 0 or perf_counter() - start + last <= seconds:
        t = perf_counter()
        body(i)
        last = perf_counter() - t
        i += 1


# the two modes -------------------------------------------------------------


def measure_untraced(g, name: str, seed: int, seconds: float,
                     epochs: Optional[int] = None) -> Dict[str, Any]:
    clock = EpochClock(g.engine.Adam)
    runs = [warm_up(g, name, seed)]
    setups: List[float] = []
    epochs_s: List[float] = []

    def round_(i: int) -> None:
        raw = workload_config(name, seed + i * SEED_STRIDE, epochs)
        start = perf_counter()
        setups.append(setup_once(g, raw))
        while perf_counter() - start < SPEC["setup_seconds_per_round"]:
            setups.append(setup_once(g, raw))
        bare = bare_run(g, raw)
        clock.epochs_s = []
        clock.install()
        try:
            clocked = run_checked(g, raw)
        finally:
            clock.uninstall()
        clocked["kind"] = "clocked"
        if not bare["errors"] and not clocked["errors"]:
            if same_result(bare, clocked):
                epochs_s.extend(clock.epochs_s)
            else:
                clocked["errors"].append(
                    "R matrix differs from the bare run of this seed")
        runs.extend((bare, clocked))

    _rounds(seconds, round_)
    ok_bare = [r["run_s"] for r in runs if r["kind"] == "bare"
               and not r["errors"]]
    metrics: Dict[str, float] = {}
    if ok_bare:
        metrics["run_s"] = statistics.median(ok_bare)
    metrics["setup_s"] = statistics.median(setups)
    if len(epochs_s) >= 2:
        ms = sorted(1000.0 * e for e in epochs_s)
        metrics["epoch_ms_p50"] = statistics.median(ms)
        metrics["epoch_ms_p90"] = statistics.quantiles(
            ms, n=10, method="inclusive")[8]
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {"metrics": metrics, "runs": runs, "setups_s": setups,
            "epochs_s": epochs_s, "units": dict(END_TO_END)}


def measure_traced(g, name: str, seed: int, seconds: float,
                   epochs: Optional[int] = None) -> Dict[str, Any]:
    raw = workload_config(name, seed, epochs)
    tracer = Tracer(g)
    runs = [warm_up(g, name, seed)]
    per_run: List[Dict[str, float]] = []
    traced_epochs: List[float] = []
    state: Dict[str, Any] = {}

    def round_(i: int) -> None:
        bare = bare_run(g, raw)
        tracer.install()
        try:
            tracer.begin()
            with tracer.root("harness.run_sequence"):
                traced = run_checked(g, raw)
            trace = tracer.end()
        finally:
            tracer.uninstall()
        traced["kind"] = "traced"
        if not traced["errors"]:
            traced["errors"].extend(cross_check(trace))
        if not bare["errors"] and not traced["errors"]:
            if not same_result(bare, traced):
                traced["errors"].append(
                    "R matrix differs from the untraced run")
        if not traced["errors"]:
            m = run_metrics(trace)
            first = per_run[0] if per_run else m
            changed = sorted(k for k in m
                             if k in EXACT_METRICS and m[k] != first[k])
            if changed:
                traced["errors"].append(
                    "counts differ between traced runs: " + ", ".join(changed))
            else:
                per_run.append(m)
                traced_epochs.extend(trace.epochs_s)
                state["last"] = trace
        runs.extend((bare, traced))

    _rounds(seconds, round_)
    metrics: Dict[str, float] = {}
    bare_s = [r["run_s"] for r in runs if r["kind"] == "bare"
              and not r["errors"]]
    traced_s = [r["run_s"] for r in runs if r["kind"] == "traced"
                and not r["errors"]]
    if per_run and bare_s:
        for key in per_run[0]:
            metrics[key] = statistics.median(m[key] for m in per_run)
        metrics["trace.epoch_ms_p50"] = 1000.0 * statistics.median(
            traced_epochs)
        metrics["trace.run_s"] = statistics.median(traced_s)
        metrics["trace.overhead_s"] = (metrics["trace.run_s"]
                                       - statistics.median(bare_s))
    out = {"metrics": metrics, "runs": runs,
           "units": dict(LAYER_METRICS)}
    if "last" in state:
        trace = state["last"]
        out["node_ops"] = all_node_ops(trace)
        out["cross_check"] = {
            "recorded_calls": dict(trace.recorded_calls),
            "tape_ops": {op: trace.tape_ops[op]
                         for op in ("gather_rows", "scatter_sum")},
            "segment_softmax_motifs": trace.softmax_motifs,
        }
        out["spans"] = trace.spans
    return out


# reporting -----------------------------------------------------------------


def report_lines(name: str, seed: int, trace: int, env: Dict[str, Any],
                 res: Dict[str, Any]) -> List[str]:
    runs = res["runs"]
    failed = [r for r in runs if r["errors"]]
    first = next((r for r in runs if r["seed"] == seed
                  and r["kind"] != "warm-up" and not r["errors"]), None)
    lines = [
        f"workload {name}  seed {seed}  trace {trace}",
        "env " + " ".join(f"{k}={v}" for k, v in env.items()
                          if k != "blas_threads")
        + f" blas_threads={env['blas_threads']['OPENBLAS_NUM_THREADS']}",
    ]
    units = res["units"]
    m = res["metrics"]
    if trace:
        n = sum(1 for r in runs if r["kind"] == "traced" and not r["errors"])
        lines.append(f"per-layer metrics: median of {n} traced runs; "
                     "*_ms and counts are per training epoch")
    else:
        nb = sum(1 for r in runs if r["kind"] == "bare" and not r["errors"])
        notes = {
            "run_s": f"median of {nb} runs",
            "setup_s": f"median of {len(res['setups_s'])} set-ups",
            "epoch_ms_p50": f"{len(res['epochs_s'])} epochs pooled",
            "epoch_ms_p90": f"{len(res['epochs_s'])} epochs pooled",
            "peak_rss_mb": "ru_maxrss of this process",
        }
    for key in sorted(m) if trace else [k for k, _ in END_TO_END]:
        if key in m:
            note = "" if trace else "  " + notes[key]
            lines.append(f"  {key:<32} {m[key]:>14.6g} {units[key]}{note}")
    if trace and "node_ops" in res:
        lines.append("  node ops per epoch: " + " ".join(
            f"{op}={v:g}" for op, v in res["node_ops"].items()))
        lines.append("  cross-check: " + json.dumps(res["cross_check"],
                                                    sort_keys=True))
    if first is not None:
        lines.append(f"  {'ap':<32} {first['ap']:>14.6g} score  seed {seed}")
        lines.append(f"  {'af':<32} {first['af']:>14.6g} score  seed {seed}")
        lines.append(f"  {'R.csv sha256':<32} {first['fingerprint']}")
    lines.append(f"  {'fail_rate':<32} {len(failed) / len(runs):>14.6g} "
                 f"ratio  {len(failed)} of {len(runs)} runs")
    for r in failed:
        lines.append(f"  FAILED {r['kind']} run, seed {r['seed']}: "
                     + "; ".join(r["errors"]))
    return lines


def write_record(name: str, seed: int, trace: int, env: Dict[str, Any],
                 res: Dict[str, Any]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    record = {k: v for k, v in res.items() if k != "spans"}
    record.update({"workload": name, "env": env,
                   "config": workload_config(name, seed)})
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if "spans" in res:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps({
            "columns": ["name", "start_s", "end_s", "parent", "epoch"],
            "spans": res["spans"]}))


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(SPEC["workloads"]))
    ap.add_argument("--seed", type=int, default=SPEC["default_seed"])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    for key in BLAS_ENV:
        os.environ[key] = str(SPEC["blas_threads"])
    try:
        g = load_gnncl(ROOT)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    measure = measure_traced if args.trace else measure_untraced
    res = measure(g, args.workload, args.seed, args.seconds)
    for line in report_lines(args.workload, args.seed, args.trace, env, res):
        print(line)
    write_record(args.workload, args.seed, args.trace, env, res)

    runs = res["runs"]
    failed = sum(1 for r in runs if r["errors"])
    wanted = [k for k, _ in (LAYER_METRICS if args.trace else END_TO_END)]
    missing = [k for k in wanted if k not in res["metrics"]]
    correct = failed == 0 and not missing
    metrics = {k: {"value": res["metrics"][k], "unit": res["units"][k]}
               for k in wanted if k in res["metrics"]}
    print(json.dumps({"correct": correct, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
