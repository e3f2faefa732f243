"""Continual-learning strategies sharing one full-batch training loop.

Every strategy trains task k with Adam on a per-epoch objective and may
hook gradient post-processing (GEM) and end-of-task state updates
(importance records, Fisher/omega estimates, teachers, memory).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine import (
    Adam,
    GradientMap,
    Tape,
    Tensor,
    add,
    backward,
    binary_cross_entropy,
    div,
    flat_concat,
    flat_split,
    gather_rows,
    log_softmax,
    mul,
    neg,
    reshape,
    sigmoid,
    sq_l2_norm,
    sum_,
    take_cols,
)
from ..nn import (
    ForwardContext,
    GnnModel,
    class_columns,
    head_logits,
    model_forward,
)
from ..graphs import TaskSequence, TaskType
from .gem import gem_project
from .importance import (
    ArraySet,
    ImportanceRecord,
    capacity_regularizer,
    combine_importance,
    compute_importance,
    snapshot_topo,
    task_loss_from_logits,
    twp_penalty,
)

STRATEGY_KINDS = ("FINETUNE", "JOINT", "EWC", "MAS", "LWF", "GEM", "TWP")


class ConfigError(ValueError):
    """Invalid or inconsistent strategy/run configuration."""


@dataclass(frozen=True)
class StrategyConfig:
    kind: str = "FINETUNE"
    lambda_l: float = 10000.0
    lambda_t: float = 100.0
    beta: float = 1e-6
    lambda_reg: float = 10000.0
    distill_temperature: float = 2.0
    memory_per_task: int = 10
    epochs: int = 200
    lr: float = 0.005
    early_stop_patience: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy '{self.kind}'")
        for name in ("epochs", "memory_per_task", "early_stop_patience"):
            value = getattr(self, name)
            if (not isinstance(value, (int, np.integer))
                    or isinstance(value, bool)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            # numpy ints become ints, so a resolved config writes as JSON
            object.__setattr__(self, name, int(value))
        for name in ("lambda_l", "lambda_t", "beta", "lambda_reg"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.distill_temperature <= 0:
            raise ConfigError("distill_temperature must be positive")
        if self.memory_per_task < 1:
            raise ConfigError("memory_per_task must be >= 1")
        if self.lr < 0:
            raise ConfigError("lr must be >= 0")
        if self.early_stop_patience < 0:
            raise ConfigError("early_stop_patience must be >= 0")


class TaskView:
    """Per-sequence forward plumbing: contexts and class-local labels."""

    def __init__(self, seq: TaskSequence):
        self.seq = seq
        self.node = seq.task_type is TaskType.NODE
        self._train_ctx: Dict[int, ForwardContext] = {}
        self._test_ctx: Dict[int, ForwardContext] = {}
        if self.node:
            self.ctx = ForwardContext.for_graph(seq.graph)
            self.local_labels: List[np.ndarray] = []
            for t in seq.tasks:
                loc = np.full(seq.graph.num_nodes, -1, dtype=np.int64)
                for j, c in enumerate(t.classes):
                    loc[seq.graph.labels == c] = j
                self.local_labels.append(loc)

    def train_ctx(self, k: int) -> ForwardContext:
        if self.node:
            return self.ctx
        if k not in self._train_ctx:
            idx = self.seq.tasks[k].train_graphs
            self._train_ctx[k] = ForwardContext.for_pool(
                [self.seq.graphs[i] for i in idx])
        return self._train_ctx[k]

    def test_ctx(self, k: int) -> ForwardContext:
        if self.node:
            return self.ctx
        if k not in self._test_ctx:
            idx = self.seq.tasks[k].test_graphs
            self._test_ctx[k] = ForwardContext.for_pool(
                [self.seq.graphs[i] for i in idx])
        return self._test_ctx[k]

    def labels(self, k: int) -> Optional[np.ndarray]:
        """Class-local node labels of task k; None for graph tasks,
        whose labels travel on their pooled contexts."""
        return self.local_labels[k] if self.node else None

    def train_loss(self, model: GnnModel, k: int,
                   want_attention: bool = False):
        """Full-batch training loss for task k; returns (loss, snapshot)."""
        task = self.seq.tasks[k]
        ctx = self.train_ctx(k)
        logits, snap = model_forward(model, ctx, task, want_attention)
        loss = task_loss_from_logits(logits, ctx, self.labels(k),
                                     task.train_mask)
        return loss, snap


@dataclass
class EpisodicMemory:
    """Stored examples of one finished task and the context they are
    scored on.

    ``indices`` name the remembered nodes or pool graphs. Node tasks
    score ``rows`` (the remembered nodes) of the shared graph's context:
    the structure stays visible, and ``labels`` keeps the class-local
    labels of those nodes alone, -1 elsewhere. Graph tasks keep a
    context pooled over the remembered graphs, scored whole
    (``rows`` None), and ``labels`` copies its graph labels.
    """

    task_index: int
    indices: np.ndarray
    labels: np.ndarray
    ctx: ForwardContext
    rows: Optional[np.ndarray] = None


@dataclass
class FrozenTeacher:
    """Immutable model copy distilled from, never trained."""

    model: GnnModel
    tasks_seen: int


class Strategy:
    kind = "FINETUNE"

    def __init__(self, cfg: StrategyConfig, model: GnnModel,
                 view: TaskView, seed: int):
        self.cfg = cfg
        self.model = model
        self.view = view
        self.seed = seed
        self.params = model.parameters()

    # hooks -----------------------------------------------------------

    def before_task(self, k: int) -> None:
        pass

    def objective(self, k: int) -> Tensor:
        loss, _ = self.view.train_loss(self.model, k)
        return loss

    def transform_grads(self, k: int, grads: GradientMap) -> GradientMap:
        return grads

    def after_task(self, k: int) -> None:
        pass

    # loop ------------------------------------------------------------

    def train_task(self, k: int) -> List[float]:
        self.before_task(k)
        opt = Adam(self.params, lr=self.cfg.lr)
        curve: List[float] = []
        best = np.inf
        wait = 0
        for _ in range(self.cfg.epochs):
            with Tape():
                loss = self.objective(k)
                grads = backward(loss, self.params)
            grads = self.transform_grads(k, grads)
            opt.step(grads)
            val = loss.item()
            curve.append(val)
            if self.cfg.early_stop_patience > 0:
                if val < best - 1e-9:
                    best = val
                    wait = 0
                else:
                    wait += 1
                    if wait >= self.cfg.early_stop_patience:
                        break
        self.after_task(k)
        return curve


class FinetuneStrategy(Strategy):
    kind = "FINETUNE"


class JointStrategy(Strategy):
    """Trains on the union of all tasks seen so far (multi-task upper
    bound; warm-started, which converges tighter than re-initializing
    within the same epoch budget)."""

    kind = "JOINT"

    def objective(self, k: int) -> Tensor:
        total: Optional[Tensor] = None
        for t in range(k + 1):
            loss, _ = self.view.train_loss(self.model, t)
            total = loss if total is None else add(total, loss)
        return total


class _QuadraticAnchorStrategy(Strategy):
    """Shared form of EWC and MAS: per-task importance-weighted
    quadratic pull toward each finished task's parameters.

    A task's importance is the mean of ``transform`` applied to each
    training example's gradient of ``_example_scalar``.
    """

    def __init__(self, cfg, model, view, seed):
        super().__init__(cfg, model, view, seed)
        self.records: List[ImportanceRecord] = []

    def objective(self, k: int) -> Tensor:
        loss, _ = self.view.train_loss(self.model, k)
        if not self.records:
            return loss
        return add(loss, mul(Tensor(self.cfg.lambda_reg),
                             twp_penalty(self.model, self.records)))

    def _per_example_scalars(self, k: int):
        """Yield one tape-live scalar per training example of task k."""
        task = self.view.seq.tasks[k]
        ctx = self.view.train_ctx(k)
        logits, _ = model_forward(self.model, ctx, task)
        rows = task.train_nodes() if self.view.node else range(
            ctx.num_graphs)
        for i in rows:
            yield self._example_scalar(k, ctx, logits, int(i))

    def _accumulate(self, k: int, transform) -> ArraySet:
        named = self.model.named_parameters()
        acc = {name: np.zeros(p.shape) for name, p in named}
        count = 0
        with Tape():
            for scalar in self._per_example_scalars(k):
                grads = backward(scalar, self.params)
                for name, p in named:
                    acc[name] += transform(grads[p].data)
                count += 1
        if count == 0:
            raise ConfigError(f"task {k} has no training examples")
        return {name: a / count for name, a in acc.items()}

    def _example_scalar(self, k: int, ctx: ForwardContext,
                        logits: Tensor, i: int) -> Tensor:
        raise NotImplementedError

    def after_task(self, k: int) -> None:
        importance = self._accumulate(k, self.transform)
        snapshot = {name: p.data.copy()
                    for name, p in self.model.named_parameters()}
        self.records.append(ImportanceRecord(
            task_index=k, snapshot=snapshot, importance=importance))


class EwcStrategy(_QuadraticAnchorStrategy):
    """Diagonal Fisher: mean squared per-example loss gradient."""

    kind = "EWC"
    transform = np.square

    def _example_scalar(self, k, ctx, logits, i):
        return task_loss_from_logits(logits, ctx, self.view.labels(k),
                                     np.asarray([i]))


class MasStrategy(_QuadraticAnchorStrategy):
    """Mean absolute gradient of each example's squared output norm."""

    kind = "MAS"
    transform = np.abs

    def _example_scalar(self, k, ctx, logits, i):
        return sq_l2_norm(gather_rows(logits, np.asarray([i])))


class LwfStrategy(Strategy):
    """Adds temperature-softened distillation toward the frozen teacher
    on every earlier task's head columns, over current training data."""

    kind = "LWF"

    def __init__(self, cfg, model, view, seed):
        super().__init__(cfg, model, view, seed)
        self.teacher: Optional[FrozenTeacher] = None
        self._soft_targets: List[np.ndarray] = []

    def before_task(self, k: int) -> None:
        """Teacher outputs are fixed for the whole task; compute their
        softened targets once, off any tape."""
        self._soft_targets = []
        if self.teacher is None:
            return
        tau = self.cfg.distill_temperature
        ctx = self.view.train_ctx(k)
        rows = (self.view.seq.tasks[k].train_nodes()
                if self.view.node else None)
        emb, _ = self.teacher.model.forward_embeddings(ctx)
        full = head_logits(self.teacher.model, ctx, emb).data
        for t in range(self.teacher.tasks_seen):
            cols = list(self.view.seq.tasks[t].classes)
            if self.view.node:
                tl = full[np.ix_(rows, cols)] / tau
                tl -= tl.max(axis=1, keepdims=True)
                probs = np.exp(tl)
                probs /= probs.sum(axis=1, keepdims=True)
            else:
                probs = sigmoid(full[:, cols[0]] / tau).data
            self._soft_targets.append(probs)

    def objective(self, k: int) -> Tensor:
        ctx = self.view.train_ctx(k)
        task_now = self.view.seq.tasks[k]
        emb, _ = self.model.forward_embeddings(ctx)
        full = head_logits(self.model, ctx, emb)
        now_logits = take_cols(full, class_columns(self.model,
                                                   task_now.classes))
        loss = task_loss_from_logits(now_logits, ctx, self.view.labels(k),
                                     task_now.train_mask)
        if self.teacher is None:
            return loss
        tau = self.cfg.distill_temperature
        rows = task_now.train_nodes() if self.view.node else None
        total = loss
        for t in range(self.teacher.tasks_seen):
            old = self.view.seq.tasks[t]
            s_logits = take_cols(full, class_columns(self.model,
                                                     old.classes))
            probs = self._soft_targets[t]
            if self.view.node:
                s = mul(gather_rows(s_logits, rows), Tensor(1.0 / tau))
                ce = neg(div(sum_(mul(Tensor(probs), log_softmax(s))),
                             Tensor(float(len(rows)))))
            else:
                s = mul(reshape(s_logits, (s_logits.shape[0],)),
                        Tensor(1.0 / tau))
                ce = binary_cross_entropy(s, probs)
            total = add(total, ce)
        return total

    def after_task(self, k: int) -> None:
        self.teacher = FrozenTeacher(model=self.model.clone(),
                                     tasks_seen=k + 1)


class GemStrategy(Strategy):
    """Projects each step's gradient to not conflict with gradients on
    remembered examples of earlier tasks."""

    kind = "GEM"

    def __init__(self, cfg, model, view, seed):
        super().__init__(cfg, model, view, seed)
        self.memory: List[EpisodicMemory] = []

    def _memory_grad(self, mem: EpisodicMemory) -> np.ndarray:
        task = self.view.seq.tasks[mem.task_index]
        with Tape():
            logits, _ = model_forward(self.model, mem.ctx, task)
            loss = task_loss_from_logits(logits, mem.ctx, mem.labels,
                                         mem.rows)
            grads = backward(loss, self.params)
        return flat_concat([grads[p] for p in self.params]).data

    def transform_grads(self, k: int, grads: GradientMap) -> GradientMap:
        if not self.memory:
            return grads
        g = flat_concat([grads[p] for p in self.params]).data
        mem = np.stack([self._memory_grad(m) for m in self.memory])
        if np.all(mem @ g >= 0.0):
            return grads
        pieces = flat_split(gem_project(g, mem),
                            [p.shape for p in self.params])
        return dict(zip(self.params, pieces))

    def after_task(self, k: int) -> None:
        task = self.view.seq.tasks[k]
        rng = np.random.default_rng([self.seed, 200 + k])
        if self.view.node:
            nodes = task.train_nodes()
            take = min(self.cfg.memory_per_task, len(nodes))
            idx = np.sort(rng.choice(nodes, size=take, replace=False))
            local = self.view.local_labels[k]
            labels = np.full(local.shape, -1, dtype=np.int64)
            labels[idx] = local[idx]
            self.memory.append(EpisodicMemory(
                task_index=k, indices=idx, labels=labels,
                ctx=self.view.ctx, rows=idx))
        else:
            pool = np.asarray(task.train_graphs)
            take = min(self.cfg.memory_per_task, len(pool))
            idx = np.sort(rng.choice(pool, size=take, replace=False))
            ctx = ForwardContext.for_pool(
                [self.view.seq.graphs[i] for i in idx])
            self.memory.append(EpisodicMemory(
                task_index=k, indices=idx, labels=ctx.graph_labels.copy(),
                ctx=ctx))


class TwpStrategy(Strategy):
    """Anchors parameters by combined loss/topology importance and
    optionally penalizes the current task's importance mass."""

    kind = "TWP"

    def __init__(self, cfg, model, view, seed):
        super().__init__(cfg, model, view, seed)
        self.records: List[ImportanceRecord] = []

    def objective(self, k: int) -> Tensor:
        cfg = self.cfg
        loss, snap = self.view.train_loss(self.model, k,
                                          want_attention=cfg.beta > 0)
        total = add(loss, twp_penalty(self.model, self.records))
        if cfg.beta > 0:
            topo = snapshot_topo(snap, self.view.train_ctx(k),
                                 self.view.seq.tasks[k])
            total = add(total, capacity_regularizer(
                self.model, loss, topo, cfg.lambda_l, cfg.lambda_t,
                cfg.beta))
        return total

    def after_task(self, k: int) -> None:
        ctx = self.view.train_ctx(k)
        task = self.view.seq.tasks[k]
        i_loss, i_ts = compute_importance(self.model, ctx, task,
                                          self.view.labels(k))
        self.records.append(combine_importance(
            self.model, i_loss, i_ts, self.cfg.lambda_l,
            self.cfg.lambda_t, k))


_STRATEGIES = {
    "FINETUNE": FinetuneStrategy,
    "JOINT": JointStrategy,
    "EWC": EwcStrategy,
    "MAS": MasStrategy,
    "LWF": LwfStrategy,
    "GEM": GemStrategy,
    "TWP": TwpStrategy,
}


def make_strategy(cfg: StrategyConfig, model: GnnModel, view: TaskView,
                  seed: int) -> Strategy:
    return _STRATEGIES[cfg.kind](cfg, model, view, seed)
