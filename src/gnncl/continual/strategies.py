"""Continual-learning strategies sharing one full-batch training loop.

Every strategy trains task k with Adam on a per-epoch objective and may
hook gradient post-processing (GEM), start-of-task distillation targets
(LwF) and end-of-task state updates (importance records, memory). EWC,
MAS and TWP share one anchor path and differ only in how they score a
task's importance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import (
    Adam,
    EmptyBatchError,
    GradientMap,
    SegmentPlan,
    Tape,
    Tensor,
    add,
    backward,
    binary_cross_entropy,
    cross_entropy,
    flat_concat,
    flat_split,
    gather_rows,
    mul,
    reshape,
    sigmoid,
    sq_l2_norm,
    take_cols,
)
from ..nn import (
    AttentionSnapshot,
    ForwardContext,
    GnnModel,
    class_columns,
    finite_real,
    head_logits,
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
    twp_penalty,
)

STRATEGY_KINDS = ("FINETUNE", "JOINT", "EWC", "MAS", "LWF", "GEM", "TWP")

Scored = Tuple[int, ForwardContext, Optional[SegmentPlan]]  # see losses


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
        for name in ("lambda_l", "lambda_t", "beta", "lambda_reg",
                     "distill_temperature", "lr"):
            value = getattr(self, name)
            if not finite_real(value):
                raise ConfigError(
                    f"{name} must be a finite number, got {value!r}")
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
    """The one layout of every task: the context and rows that score its
    examples, the labels and head columns it reads, and its loss (cross
    entropy on node tasks, sigmoid loss on graph tasks). Training
    losses, importance, LwF targets and evaluation all score here."""

    def __init__(self, seq: TaskSequence):
        self.seq = seq
        self.node = seq.task_type is TaskType.NODE
        self._train: Dict[int, Scored] = {}
        if self.node:
            self.ctx = ForwardContext.for_graph(seq.graph)
            self.local_labels: List[np.ndarray] = []
            for t in seq.tasks:
                loc = np.full(seq.graph.num_nodes, -1, dtype=np.int64)
                for j, c in enumerate(t.classes):
                    loc[seq.graph.labels == c] = j
                self.local_labels.append(loc)

    def split(self, idx: np.ndarray
              ) -> Tuple[ForwardContext, Optional[SegmentPlan]]:
        """A new layout of examples ``idx``: the shared graph's context
        and a plan of rows ``idx`` (node tasks), or a context pooling the
        graphs ``idx`` and all its rows (None). Its caller keeps it, so
        each split is validated once; an empty one raises
        :class:`EmptyBatchError`."""
        if len(idx) == 0:
            raise EmptyBatchError(
                "no examples to score: a task's train or test split is "
                "empty")
        if self.node:
            return self.ctx, SegmentPlan.rows(idx, self.ctx.graph.num_nodes)
        pooled = ForwardContext.for_pool([self.seq.graphs[i] for i in idx])
        return pooled, None

    def train_item(self, k: int) -> Scored:
        """Task k's training examples as one (task, context, rows),
        laid out when first asked for and kept."""
        if k not in self._train:
            self._train[k] = (k,) + self.split(self.seq.tasks[k].train)
        return self._train[k]

    def forward(self, model: GnnModel, ctx: ForwardContext,
                want_attention: bool = False
                ) -> Tuple[Tensor, Optional[AttentionSnapshot]]:
        """Head logits of every class on ``ctx`` (one row per node, or
        per pooled graph), plus the middle-layer attention snapshot when
        requested."""
        emb, snap = model.forward_embeddings(ctx, want_attention)
        return head_logits(model, ctx, emb), snap

    def task_logits(self, model: GnnModel, full: Tensor, k: int) -> Tensor:
        """The columns of task k's classes in head logits ``full``."""
        return take_cols(full, class_columns(model,
                                             self.seq.tasks[k].classes))

    def examples(self, logits: Tensor, k: int, ctx: ForwardContext,
                 rows: Optional[SegmentPlan]):
        """Task k's ``logits`` on ``rows`` (None: every row) and their
        labels: ``(rows, classes)`` logits and class-local node labels,
        or one logit per pooled graph and ``ctx.graph_labels``."""
        labels = self.local_labels[k] if self.node else ctx.graph_labels
        if rows is not None:
            logits = gather_rows(logits, rows)
            labels = labels[rows.ids]
        if not self.node:
            logits = reshape(logits, (logits.shape[0],))
        return logits, labels

    def loss(self, logits: Tensor, k: int, ctx: ForwardContext,
             rows: Optional[SegmentPlan], targets=None) -> Tensor:
        """Cross entropy (node tasks) or sigmoid loss (graph tasks) of
        :meth:`examples`, against soft ``targets`` when given."""
        logits, labels = self.examples(logits, k, ctx, rows)
        fn = cross_entropy if self.node else binary_cross_entropy
        return fn(logits, labels if targets is None else targets)

    def soft_targets(self, logits: Tensor, k: int, ctx: ForwardContext,
                     rows: Optional[SegmentPlan], tau: float) -> np.ndarray:
        """:meth:`loss` targets from the task k ``logits`` distilled toward,
        at temperature ``tau``: a row softmax per node, a sigmoid per graph."""
        scores = self.examples(logits, k, ctx, rows)[0].data / tau
        if not self.node:
            return sigmoid(scores).data
        probs = np.exp(scores - scores.max(axis=1, keepdims=True))
        return probs / probs.sum(axis=1, keepdims=True)

    def losses(self, model: GnnModel, scored: Sequence[Scored],
               want_attention: bool = False, per_item=None):
        """``per_item(logits, task, ctx, rows)`` (default :meth:`loss`)
        of each (task, context, rows) in ``scored``, from one forward per
        distinct context. Returns the results, then the head logits and
        attention snapshot of the first context."""
        per_item = per_item or self.loss
        forwards = {}
        out = []
        for k, ctx, rows in scored:
            if id(ctx) not in forwards:
                forwards[id(ctx)] = self.forward(model, ctx, want_attention)
            out.append(per_item(
                self.task_logits(model, forwards[id(ctx)][0], k), k, ctx,
                rows))
        return (out,) + forwards[id(scored[0][1])]

    def train_loss(self, model: GnnModel, k: int,
                   want_attention: bool = False):
        """Full-batch training loss for task k; returns (loss, snapshot)."""
        (loss,), _, snap = self.losses(model, [self.train_item(k)],
                                       want_attention)
        return loss, snap


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
            # inside the tape: loss holds it weakly and GEM sweeps it again
            with Tape():
                loss = self.objective(k)
                grads = self.transform_grads(
                    k, backward(loss, self.params))
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
        losses, _, _ = self.view.losses(
            self.model, [self.view.train_item(t) for t in range(k + 1)])
        return functools.reduce(add, losses)


class AnchorStrategy(Strategy):
    """Shared form of EWC, MAS and TWP: an importance-weighted quadratic
    pull toward the parameters each finished task ended with.

    A task's importance is by default the mean of ``transform`` applied
    to each training example's gradient of ``_example_scalar``; TWP
    scores it from loss and topology sensitivity instead.
    """

    scaled = True  # by lambda_reg; TWP's importance carries its weights

    def __init__(self, cfg, model, view, seed):
        super().__init__(cfg, model, view, seed)
        self.records: List[ImportanceRecord] = []

    def anchored(self, loss: Tensor) -> Tensor:
        """``loss`` plus the penalty of every record; ``loss`` itself
        before the first record."""
        if not self.records:
            return loss
        penalty = twp_penalty(self.model, self.records)
        if self.scaled:
            penalty = mul(Tensor(self.cfg.lambda_reg), penalty)
        return add(loss, penalty)

    def objective(self, k: int) -> Tensor:
        loss, _ = self.view.train_loss(self.model, k)
        return self.anchored(loss)

    def importance(self, k: int) -> ArraySet:
        named = self.model.named_parameters()
        acc = {name: np.zeros(p.shape) for name, p in named}
        _, ctx, rows = self.view.train_item(k)
        with Tape():
            full, _ = self.view.forward(self.model, ctx)
            logits = self.view.task_logits(self.model, full, k)
            n = logits.shape[0]
            ids = np.arange(n) if rows is None else rows.ids
            for i in range(len(ids)):
                one = SegmentPlan.rows(ids[i:i + 1], n)
                grads = backward(self._example_scalar(k, ctx, logits, one),
                                 self.params)
                for name, p in named:
                    acc[name] += self.transform(grads[p].data)
        return {name: a / len(ids) for name, a in acc.items()}

    def after_task(self, k: int) -> None:
        importance = self.importance(k)
        snapshot = {name: p.data.copy()
                    for name, p in self.model.named_parameters()}
        self.records.append(ImportanceRecord(
            task_index=k, snapshot=snapshot, importance=importance))


class EwcStrategy(AnchorStrategy):
    """Diagonal Fisher: mean squared per-example loss gradient."""

    kind = "EWC"
    transform = np.square

    def _example_scalar(self, k, ctx, logits, row):
        return self.view.loss(logits, k, ctx, row)


class MasStrategy(AnchorStrategy):
    """Mean absolute gradient of each example's squared output norm."""

    kind = "MAS"
    transform = np.abs

    def _example_scalar(self, k, ctx, logits, row):
        return sq_l2_norm(gather_rows(logits, row))


class LwfStrategy(Strategy):
    """Adds temperature-softened distillation toward the model as task k
    begins on every earlier task's head columns, over task k's train data."""

    kind = "LWF"

    def __init__(self, cfg, model, view, seed):
        super().__init__(cfg, model, view, seed)
        self._soft_targets: List[np.ndarray] = []

    def before_task(self, k: int) -> None:
        """The model as task k begins (as task k - 1 left it: only
        evaluation runs between tasks) is distilled toward for the whole
        task; compute every earlier task's softened targets once, off tape."""
        self._soft_targets = []
        if k == 0:
            return
        _, ctx, rows = self.view.train_item(k)
        full, _ = self.view.forward(self.model, ctx)
        for t in range(k):
            self._soft_targets.append(self.view.soft_targets(
                self.view.task_logits(self.model, full, t), t, ctx, rows,
                self.cfg.distill_temperature))

    def objective(self, k: int) -> Tensor:
        item = self.view.train_item(k)
        (total,), full, _ = self.view.losses(self.model, [item])
        inv_tau = Tensor(1.0 / self.cfg.distill_temperature)
        for t, probs in enumerate(self._soft_targets):
            s = mul(self.view.task_logits(self.model, full, t), inv_tau)
            total = add(total, self.view.loss(s, t, item[1], item[2], probs))
        return total


class GemStrategy(Strategy):
    """Projects each step's gradient to not conflict with gradients on
    remembered examples of earlier tasks."""

    kind = "GEM"

    def __init__(self, cfg, model, view, seed):
        super().__init__(cfg, model, view, seed)
        # remembered examples of each finished task, laid out once
        self.memory: List[Scored] = []
        self._memory_losses: List[Tensor] = []

    def objective(self, k: int) -> Tensor:
        """The task loss; every memory's loss is recorded with it."""
        losses, _, _ = self.view.losses(
            self.model, [self.view.train_item(k)] + self.memory)
        self._memory_losses = losses[1:]
        return losses[0]

    def transform_grads(self, k: int, grads: GradientMap) -> GradientMap:
        """Projects ``grads`` against each memory loss's gradient, one
        more backward sweep over the objective's tape per memory."""
        if not self.memory:
            return grads

        def flat(gmap: GradientMap) -> np.ndarray:
            return flat_concat([gmap[p] for p in self.params]).data

        g = flat(grads)
        mem = np.stack([flat(backward(loss, self.params))
                        for loss in self._memory_losses])
        if np.all(mem @ g >= 0.0):
            return grads
        pieces = flat_split(gem_project(g, mem),
                            [p.shape for p in self.params])
        return dict(zip(self.params, pieces))

    def after_task(self, k: int) -> None:
        rng = np.random.default_rng([self.seed, 200 + k])
        train = self.view.seq.tasks[k].train
        take = min(self.cfg.memory_per_task, len(train))
        idx = np.sort(rng.choice(train, size=take, replace=False))
        self.memory.append((k,) + self.view.split(idx))


class TwpStrategy(AnchorStrategy):
    """Anchors parameters by combined loss/topology importance and
    optionally penalizes the current task's importance mass."""

    kind = "TWP"
    scaled = False

    def objective(self, k: int) -> Tensor:
        cfg = self.cfg
        item = self.view.train_item(k)
        (loss,), _, snap = self.view.losses(self.model, [item],
                                            want_attention=cfg.beta > 0)
        total = self.anchored(loss)
        if cfg.beta > 0:
            topo = snapshot_topo(snap, item[2])
            total = add(total, capacity_regularizer(
                self.model, loss, topo, cfg.lambda_l, cfg.lambda_t,
                cfg.beta))
        return total

    def importance(self, k: int) -> ArraySet:
        i_loss, i_ts = compute_importance(self.model, self.view, k)
        return combine_importance(self.model, i_loss, i_ts,
                                  self.cfg.lambda_l, self.cfg.lambda_t)


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
