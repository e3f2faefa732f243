"""Config resolution, single-run execution, and multi-seed sweeps.

A run is (dataset, model, strategy, metric, seed): build the task
sequence, train tasks in order, fill the lower-triangular performance
matrix, and emit artifacts. Sweeps repeat a base config across named
variants and seeds and aggregate mean/std plus retention curves.
"""

from __future__ import annotations

import dataclasses
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..continual import ConfigError, StrategyConfig, TaskView, make_strategy
from ..graphs import (
    TaskSequence,
    generate_graph_classification_tasks,
    generate_sbm_tasks,
    load_dataset,
)
from ..nn import GnnModel, ModelConfig, finite_real
from .metrics import METRICS, RMatrix, compute_ap_af, evaluate

DATASET_KINDS = ("sbm", "graphs", "path")

SBM_DEFAULTS: Dict[str, Any] = {
    "num_classes": 6, "classes_per_task": 2, "nodes_per_class": 40,
    "p_in": 0.295, "p_out": 0.035, "feature_dim": 8, "noise_sigma": 1.3,
    "train_fraction": 0.6,
}
GRAPHS_DEFAULTS: Dict[str, Any] = {
    "num_tasks": 3, "graphs_per_task": 40, "nodes_min": 8, "nodes_max": 16,
    "feature_dim": 4, "train_fraction": 0.6,
}

@dataclass(frozen=True)
class RunConfig:
    dataset: Dict[str, Any]
    model: ModelConfig
    strategy: StrategyConfig
    metric: str
    seed: int
    out_dir: Optional[str] = None


def _resolve_section(name: str, raw: Mapping[str, Any],
                     defaults: Mapping[str, Any]) -> Dict[str, Any]:
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown {name} field(s): {', '.join(sorted(unknown))}")
    out = dict(defaults)
    out.update(raw)
    return out


def resolve_dataset(raw: Mapping[str, Any]) -> Dict[str, Any]:
    """A dataset section with its defaults filled in; ConfigError unless
    every count is an integer >= 1, every other number is finite and
    ``0 < train_fraction < 1``. Ranges that depend on other fields are
    the generators' to check."""
    cfg = dict(raw)
    kind = cfg.pop("kind", "sbm")
    if kind not in DATASET_KINDS:
        raise ConfigError(
            f"dataset kind must be one of {DATASET_KINDS}, got '{kind}'")
    if kind == "sbm":
        defaults = SBM_DEFAULTS
    elif kind == "graphs":
        defaults = GRAPHS_DEFAULTS
    else:
        if not isinstance(cfg.get("path"), str):
            raise ConfigError("dataset kind 'path' requires a 'path' string")
        defaults = {"path": None, "train_fraction": 0.6}
    out = _resolve_section("dataset", cfg, defaults)
    for name, default in defaults.items():
        value = out[name]
        if isinstance(default, int) and (
                not isinstance(value, (int, np.integer))
                or isinstance(value, bool) or value < 1):
            raise ConfigError(
                f"dataset {name} must be an integer >= 1, got {value!r}")
        if isinstance(default, float) and not finite_real(value):
            raise ConfigError(
                f"dataset {name} must be a finite number, got {value!r}")
    if not 0 < out["train_fraction"] < 1:
        raise ConfigError("dataset train_fraction must be in (0, 1), got "
                          f"{out['train_fraction']!r}")
    out["kind"] = kind
    return out


def _dataclass_from(name: str, cls, raw: Mapping[str, Any]):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(
            f"unknown {name} field(s): {', '.join(sorted(unknown))}")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} config: {exc}") from exc


# model fields that only one backbone reads
BACKBONE_FIELDS = {"gat": ("heads", "attention_slope"),
                   "gin": ("gin_eps", "gin_eps_learnable")}
# strategy fields that only some kinds read; every kind reads epochs,
# lr and early_stop_patience
STRATEGY_FIELDS = {"TWP": ("lambda_l", "lambda_t", "beta"),
                   "EWC": ("lambda_reg",), "MAS": ("lambda_reg",),
                   "LWF": ("distill_temperature",),
                   "GEM": ("memory_per_task",)}


def _unread(names, choice: str, table: Mapping[str, Sequence[str]]
            ) -> List[str]:
    """The ``names`` that ``table`` gives to other choices only."""
    owned = {name for fields in table.values() for name in fields}
    mine = table.get(choice, ())
    return sorted(name for name in names
                  if name in owned and name not in mine)


def _check_unread(section: str, raw: Mapping[str, Any], choice: str,
                  table: Mapping[str, Sequence[str]], noun: str) -> None:
    """Reject a field given for a backbone or strategy kind that would
    ignore it."""
    stray = _unread(raw, choice, table)
    if stray:
        owners = [repr(owner) for owner, fields in table.items()
                  if set(stray) & set(fields)]
        raise ConfigError(
            f"{section} field(s) {', '.join(stray)} apply to the "
            f"{', '.join(owners)} {noun} only, not '{choice}'")


def check_seed(seed: Any) -> int:
    """``seed``, if a non-negative integer and not a bool."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def run_config_from_dict(raw: Mapping[str, Any]) -> RunConfig:
    known = {"dataset", "model", "strategy", "metric", "seed", "out_dir"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(
            f"unknown run config field(s): {', '.join(sorted(unknown))}")
    dataset = resolve_dataset(raw.get("dataset", {}))
    model = _dataclass_from("model", ModelConfig, raw.get("model", {}))
    _check_unread("model", raw.get("model", {}), model.backbone,
                  BACKBONE_FIELDS, "backbone")
    strategy = _dataclass_from(
        "strategy", StrategyConfig, raw.get("strategy", {}))
    _check_unread("strategy", raw.get("strategy", {}), strategy.kind,
                  STRATEGY_FIELDS, "strategy")
    metric = raw.get(
        "metric", "auc" if dataset["kind"] == "graphs" else "accuracy")
    if metric not in METRICS:
        raise ConfigError(f"metric must be one of {METRICS}, got '{metric}'")
    if metric == "auc" and dataset["kind"] != "graphs":
        raise ConfigError("AUC applies to binary graph tasks only, not to "
                          f"the node tasks of a '{dataset['kind']}' dataset")
    seed = check_seed(raw.get("seed", 0))
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string path")
    return RunConfig(dataset=dataset, model=model, strategy=strategy,
                     metric=metric, seed=seed, out_dir=out_dir)


def resolved_dict(cfg: RunConfig) -> Dict[str, Any]:
    """JSON-ready echo of a config with every default materialized.

    The model and strategy sections leave out the fields of other
    backbones and strategy kinds, which the run does not read, so the
    echo loads back as the same config.
    """
    model = dataclasses.asdict(cfg.model)
    for name in _unread(model, cfg.model.backbone, BACKBONE_FIELDS):
        del model[name]
    strategy = dataclasses.asdict(cfg.strategy)
    for name in _unread(strategy, cfg.strategy.kind, STRATEGY_FIELDS):
        del strategy[name]
    return {
        "dataset": dict(cfg.dataset),
        "model": model,
        "strategy": strategy,
        "metric": cfg.metric,
        "seed": cfg.seed,
        "out_dir": cfg.out_dir,
    }


def build_dataset(dataset: Mapping[str, Any], seed: int) -> TaskSequence:
    cfg = dict(dataset)
    kind = cfg.pop("kind")
    if kind == "sbm":
        return generate_sbm_tasks(seed=seed, **cfg)
    if kind == "graphs":
        cfg["nodes_range"] = (cfg.pop("nodes_min"), cfg.pop("nodes_max"))
        return generate_graph_classification_tasks(seed=seed, **cfg)
    return load_dataset(cfg["path"], train_fraction=cfg["train_fraction"])


def build_model(seq: TaskSequence, model_cfg: ModelConfig,
                seed: int) -> GnnModel:
    num_classes = max(c for t in seq.tasks for c in t.classes) + 1
    rng = np.random.default_rng([seed, 100])
    return GnnModel(model_cfg, seq.feature_dim, num_classes, rng)


@dataclass
class RunResult:
    config: Dict[str, Any]
    r: RMatrix
    ap: float
    af: float
    af_defined: bool
    per_task: List[Dict[str, Any]]
    curves: List[Tuple[int, int, float]]
    loss_curves: List[List[float]]
    wall_clock_s: float


def _json_text(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _curves_csv(curves: Sequence[Tuple[int, int, float]]) -> str:
    lines = ["task,after_task,value"]
    for task, after_task, value in curves:
        lines.append("%d,%d,%.17g" % (task, after_task, value))
    return "\n".join(lines) + "\n"


def _filled_curves(r: RMatrix) -> List[Tuple[int, int, float]]:
    out = []
    for i in range(r.num_tasks):
        for j in range(i + 1):
            if not np.isnan(r.values[i, j]):
                out.append((j, i, float(r.values[i, j])))
    return out


def _per_task_rows(r: RMatrix) -> List[Dict[str, Any]]:
    t = r.num_tasks
    rows = []
    for j in range(t):
        final = r.get(t - 1, j)
        just = r.get(j, j)
        rows.append({"task": j, "final": final, "just_trained": just,
                     "forgetting": just - final})
    return rows


def run_sequence(cfg: RunConfig) -> RunResult:
    """Train the task sequence under the strategy and fill the matrix.

    With an output directory set, emits R.csv, metrics.json,
    curves.csv, and config.resolved.json. A failure at any point after
    config.resolved.json still writes a flagged metrics.json, plus the
    partial matrix once the tasks are known, then re-raises.
    """
    t0 = time.perf_counter()
    resolved = resolved_dict(cfg)
    out = Path(cfg.out_dir) if cfg.out_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.resolved.json").write_text(_json_text(resolved))
    r: Optional[RMatrix] = None
    loss_curves: List[List[float]] = []
    try:
        seq = build_dataset(cfg.dataset, cfg.seed)
        model = build_model(seq, cfg.model, cfg.seed)
        view = TaskView(seq)
        strategy = make_strategy(cfg.strategy, model, view, cfg.seed)
        num_tasks = len(seq.tasks)
        r = RMatrix(num_tasks)
        tests = [(j,) + view.split(t.test) for j, t in enumerate(seq.tasks)]
        for k in range(num_tasks):
            loss_curves.append(strategy.train_task(k))
            # one forward per distinct test context scores the row
            cells, _, _ = view.losses(model, tests[:k + 1],
                                      per_item=view.examples)
            for j, (scores, labels) in enumerate(cells):
                r.set(k, j, evaluate(scores.data, labels, cfg.metric))
    except Exception as exc:
        if out is not None:
            if r is not None:
                (out / "R.csv").write_text(r.to_csv())
                (out / "curves.csv").write_text(
                    _curves_csv(_filled_curves(r)))
            (out / "metrics.json").write_text(_json_text({
                "failed": True,
                "error": f"{type(exc).__name__}: {exc}",
                "completed_rows": 0 if r is None else r.complete_rows(),
                "wall_clock_s": time.perf_counter() - t0,
            }))
        raise
    ap, af, af_defined = compute_ap_af(r)
    per_task = _per_task_rows(r)
    curves = _filled_curves(r)
    wall = time.perf_counter() - t0
    if out is not None:
        (out / "R.csv").write_text(r.to_csv())
        (out / "curves.csv").write_text(_curves_csv(curves))
        (out / "metrics.json").write_text(_json_text({
            "ap": ap, "af": af, "af_defined": af_defined,
            "per_task": per_task, "wall_clock_s": wall,
        }))
    return RunResult(config=resolved, r=r, ap=ap, af=af,
                     af_defined=af_defined, per_task=per_task,
                     curves=curves, loss_curves=loss_curves,
                     wall_clock_s=wall)


# sweeps ---------------------------------------------------------------


def _deep_merge(base: Mapping[str, Any],
                overrides: Mapping[str, Any]) -> Dict[str, Any]:
    out = dict(base)
    for key, value in overrides.items():
        if isinstance(value, Mapping) and isinstance(out.get(key), Mapping):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def resolve_sweep(raw: Mapping[str, Any]
                  ) -> Tuple[Dict[str, Any], List[Tuple[str, Dict[str, Any]]]]:
    """Split a sweep file ``{base, variants}`` into (base run config,
    named override list); ConfigError on any other shape."""
    unknown = set(raw) - {"base", "variants"}
    if unknown:
        raise ConfigError(
            f"unknown sweep field(s): {', '.join(sorted(unknown))}")
    base = raw.get("base", {})
    if not isinstance(base, Mapping):
        raise ConfigError("sweep base must be an object")
    variants = raw.get("variants", [{"name": "base"}])
    if not isinstance(variants, list) or not variants:
        raise ConfigError("sweep variants must be a non-empty list")
    out = []
    for i, v in enumerate(variants):
        if not isinstance(v, Mapping) or "name" not in v:
            raise ConfigError(
                f"sweep variant {i} must be an object with a 'name'")
        unknown = set(v) - {"name", "overrides"}
        if unknown:
            raise ConfigError(f"unknown field(s) in sweep variant {i}: "
                              f"{', '.join(sorted(unknown))}")
        overrides = v.get("overrides", {})
        if not isinstance(overrides, Mapping):
            raise ConfigError(f"sweep variant {i} overrides must be an "
                              "object")
        out.append((str(v["name"]), dict(overrides)))
    if len({n for n, _ in out}) != len(out):
        raise ConfigError("sweep variant names must be unique")
    return dict(base), out


@dataclass
class SweepCell:
    """One variant × seed outcome; failures carry the error string."""

    name: str
    seed: int
    result: Optional[RunResult]
    error: Optional[str] = None


def sweep_and_report(base: Mapping[str, Any],
                     variants: Sequence[Tuple[str, Mapping[str, Any]]],
                     seeds: Sequence[int],
                     out_dir: Optional[str] = None) -> List[SweepCell]:
    """Run every variant × seed and write aggregate CSV reports.

    Per-cell failures are recorded, not fatal. Reports: aggregate.csv
    (mean/std of AP and AF per variant, population std), retention.csv
    (first-task score after each task), running_avg.csv (mean score
    over tasks seen so far).
    """
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"sweep seeds repeat a seed: {list(seeds)}")
    out = Path(out_dir) if out_dir else None
    if out is not None:
        owners: Dict[str, str] = {}
        for name, _ in variants:
            if _slug(name) in owners:
                raise ConfigError(
                    f"sweep variants '{owners[_slug(name)]}' and '{name}' "
                    f"share the output directory {_slug(name)}")
            owners[_slug(name)] = name
    cells: List[SweepCell] = []
    for name, overrides in variants:
        for seed in seeds:
            raw = _deep_merge(base, overrides)
            raw["seed"] = seed
            if out is not None:
                raw["out_dir"] = str(out / _slug(name) / f"seed_{seed}")
            else:
                raw.pop("out_dir", None)
            try:
                cells.append(SweepCell(name, seed, run_sequence(
                    run_config_from_dict(raw))))
            except Exception as exc:
                cells.append(SweepCell(
                    name, seed, None, f"{type(exc).__name__}: {exc}"))
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "aggregate.csv").write_text(aggregate_csv(cells))
        (out / "retention.csv").write_text(retention_csv(cells))
        (out / "running_avg.csv").write_text(running_avg_csv(cells))
    return cells


def _by_variant(cells: Sequence[SweepCell]) -> Dict[str, List[SweepCell]]:
    groups: Dict[str, List[SweepCell]] = {}
    for cell in cells:
        groups.setdefault(cell.name, []).append(cell)
    return groups


def aggregate_csv(cells: Sequence[SweepCell]) -> str:
    lines = ["name,seeds,ap_mean,ap_std,af_mean,af_std,failures"]
    for name, group in _by_variant(cells).items():
        ok = [c.result for c in group if c.result is not None]
        failures = len(group) - len(ok)
        if ok:
            aps = np.array([r.ap for r in ok])
            afs = np.array([r.af for r in ok])
            stats = ",".join("%.17g" % v for v in (
                aps.mean(), aps.std(), afs.mean(), afs.std()))
        else:
            stats = ",,,"
        lines.append(f"{name},{len(ok)},{stats},{failures}")
    return "\n".join(lines) + "\n"


def _curve_csv(cells: Sequence[SweepCell], value_fn) -> str:
    lines = ["name,after_task,mean,std"]
    for name, group in _by_variant(cells).items():
        ok = [c.result for c in group if c.result is not None]
        if not ok:
            continue
        num_tasks = ok[0].r.num_tasks
        for i in range(num_tasks):
            vals = np.array([value_fn(r, i) for r in ok])
            lines.append("%s,%d,%.17g,%.17g" % (
                name, i, vals.mean(), vals.std()))
    return "\n".join(lines) + "\n"


def retention_csv(cells: Sequence[SweepCell]) -> str:
    """First-task score as training progresses (forgetting curve)."""
    return _curve_csv(cells, lambda r, i: r.r.get(i, 0))


def running_avg_csv(cells: Sequence[SweepCell]) -> str:
    """Mean score over tasks learned so far, after each task."""
    return _curve_csv(
        cells, lambda r, i: float(np.mean(r.r.values[i, :i + 1])))
