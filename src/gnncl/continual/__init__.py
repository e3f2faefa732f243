"""Continual-learning strategies, importance scores, and projection."""

from .gem import PGD_ITERATIONS, gem_project
from .importance import (
    ImportanceRecord,
    capacity_regularizer,
    combine_importance,
    compute_importance,
    load_records,
    save_records,
    snapshot_topo,
    twp_penalty,
)
from .strategies import (
    STRATEGY_KINDS,
    ConfigError,
    Strategy,
    StrategyConfig,
    TaskView,
    make_strategy,
)

__all__ = [
    "ConfigError", "ImportanceRecord",
    "PGD_ITERATIONS", "STRATEGY_KINDS", "Strategy", "StrategyConfig",
    "TaskView", "capacity_regularizer", "combine_importance",
    "compute_importance", "gem_project", "load_records",
    "make_strategy", "save_records", "snapshot_topo", "twp_penalty",
]
