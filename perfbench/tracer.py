"""Spans and counts around calls into gnncl, installed from outside.

``Tracer.install`` replaces every binding of the traced functions in the
loaded ``gnncl`` modules (module globals, found by identity, and class
attributes) with a wrapper that records a span; ``uninstall`` puts every
original back. ``EpochClock`` hooks ``Adam`` alone, to time epochs in
runs that are otherwise untouched. Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, epoch]``: ``parent`` indexes the
enclosing span (-1 at the root) and ``epoch`` the training epoch the span
started in (-1 outside epochs). An epoch opens when an optimizer is built
or returns from a step and closes at that optimizer's next step return.
Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

# Ops whose wrappers count recorded calls; the cross-check compares the
# counts with the op names found on every tape.
INDEXED_OPS = ("gather_rows", "scatter_sum")

# Node.op values reported as engine.nodes.<op>.
NODE_OPS = (
    "leaf", "add", "sub", "mul", "div", "neg", "square", "abs", "exp",
    "log", "elu", "leaky_relu", "matmul",
    "reshape", "transpose", "sum", "sum_axis", "sum_to", "broadcast_to",
    "gather_rows", "scatter_sum", "binary_cross_entropy",
)

# (metric, unit); per-epoch metrics average over training epochs, per-run
# metrics are medians over traced runs.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("engine.backward_ms", "ms"),
    ("engine.backward_calls", "count"),
    ("engine.tape_nodes", "count"),
    *((f"engine.nodes.{op}", "count") for op in NODE_OPS),
    ("engine.scatter_ms", "ms"),
    ("engine.gather_ms", "ms"),
    ("engine.segment_softmax_ms", "ms"),
    ("engine.indexed_bytes", "bytes"),
    ("engine.adam_ms", "ms"),
    ("nn.forward_ms", "ms"),
    ("nn.forward_calls", "count"),
    ("continual.objective_ms", "ms"),
    ("continual.capacity_ms", "ms"),
    ("continual.transform_grads_ms", "ms"),
    ("continual.gem_project_ratio", "ratio"),
    ("continual.after_task_s", "s"),
    ("graphs.generate_s", "s"),
    ("graphs.context_s", "s"),
    ("harness.evaluate_s", "s"),
    ("harness.evaluate_calls", "count"),
    ("trace.epoch_ms_p50", "ms"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
)

# Counts that must repeat exactly between traced runs of one seed.
EXACT_METRICS = frozenset(
    name for name, unit in LAYER_METRICS
    if unit in ("count", "bytes", "ratio"))

STRATEGY_METHODS = ("train_task", "before_task", "objective",
                    "transform_grads", "after_task")


class EpochClock:
    """Epoch durations from ``Adam`` alone: construction or a step return
    opens an epoch, the same optimizer's next step return closes it."""

    def __init__(self, adam_cls):
        self.adam_cls = adam_cls
        self.epochs_s: List[float] = []
        self._opt = None
        self._mark = 0.0
        self._saved: Dict[str, Any] = {}

    def _stamp(self, opt) -> None:
        now = perf_counter()
        if opt is self._opt:
            self.epochs_s.append(now - self._mark)
        self._opt = opt
        self._mark = now

    def install(self) -> None:
        cls = self.adam_cls
        self._saved = {"__init__": cls.__dict__["__init__"],
                       "step": cls.__dict__["step"]}
        init, step = self._saved["__init__"], self._saved["step"]
        clock = self

        @functools.wraps(init)
        def timed_init(opt, *args, **kwargs):
            init(opt, *args, **kwargs)
            clock._opt = opt
            clock._mark = perf_counter()

        @functools.wraps(step)
        def timed_step(opt, *args, **kwargs):
            out = step(opt, *args, **kwargs)
            clock._stamp(opt)
            return out

        cls.__init__ = _mark(timed_init, init)
        cls.step = _mark(timed_step, step)

    def uninstall(self) -> None:
        for name, orig in self._saved.items():
            setattr(self.adam_cls, name, orig)
        self._saved = {}
        self._opt = None


def _gnncl_modules() -> List[Any]:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "gnncl" or name.startswith("gnncl.")) and m is not None]


def _segment_softmax_motifs(nodes) -> int:
    """Count ``div(e, gather_rows(scatter_sum(e)))`` with ``e`` an exp
    node: the nodes one recorded segment_softmax leaves on a tape."""
    count = 0
    for node in nodes:
        if node.op != "div" or len(node.inputs) != 2:
            continue
        num, den = node.inputs
        if num is None or den is None or nodes[num].op != "exp":
            continue
        gather = nodes[den]
        if gather.op != "gather_rows" or gather.inputs[0] is None:
            continue
        scatter = nodes[gather.inputs[0]]
        if scatter.op == "scatter_sum" and scatter.inputs[0] == num:
            count += 1
    return count


class RunTrace:
    """Spans and counters of one traced ``run_sequence`` call."""

    def __init__(self):
        self.spans: List[list] = []
        self.epochs_s: List[float] = []
        # per-epoch counters, indexed by epoch
        self.epoch_counts: List[Counter] = []
        # whole-run counters for the wrapper cross-check
        self.recorded_calls: Counter = Counter()
        self.tape_ops: Counter = Counter()
        self.softmax_motifs = 0
        self.epochs_with_memory = 0


class Tracer:
    """Installs span wrappers on the gnncl modules that are loaded."""

    def __init__(self, gnncl):
        """``gnncl`` is a namespace holding the imported subpackages
        ``engine``, ``nn``, ``continual``, ``graphs`` and ``harness``."""
        self.g = gnncl
        self.run: Optional[RunTrace] = None
        self._stack: List[int] = []
        self._epoch = -1
        self._opt = None
        self._mark = 0.0
        self._open: Counter = Counter()
        self._tapes: Dict[int, list] = {}
        self._backward_depth = 0
        self._saved: List[Tuple[Any, str, Any]] = []

    # span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> list:
        run = self.run
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self._epoch]
        self._stack.append(len(run.spans))
        run.spans.append(span)
        span[1] = perf_counter()
        return span

    def _exit(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _count(self, key: str, n: int = 1) -> None:
        if self._epoch >= 0:
            self._open[key] += n

    def _open_epoch(self, opt) -> None:
        self._opt = opt
        self._mark = perf_counter()
        self._epoch = len(self.run.epochs_s)
        self._open = Counter()
        self._tapes = {}

    def _close_epoch(self, opt) -> None:
        now = perf_counter()
        if opt is not self._opt or self._epoch < 0:
            return
        for _, longest in self._tapes.values():
            self._open["engine.tape_nodes"] += longest
        self.run.epochs_s.append(now - self._mark)
        self.run.epoch_counts.append(self._open)
        self._open_epoch(opt)

    def _leave_epochs(self) -> None:
        self._epoch = -1
        self._opt = None
        self._open = Counter()
        self._tapes = {}

    # wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn: Callable, before=None,
                 after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.run is None:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            span = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if after is not None:
                after(args, out, state)
            return out

        return _mark(wrapper, fn)

    def _recorded_hooks(self, name: str, last_op: str, indexed: bool):
        """Count calls of ``name`` that leave a ``last_op`` node on the
        active tape; for gathers and scatters also add the bytes moved."""
        active_tape = self.g.engine.active_tape

        def before(args, kwargs):
            if indexed:
                shape = getattr(args[0], "shape", ())
                width = 1
                for d in shape[1:]:
                    width *= d
                idx = args[1] if len(args) > 1 else kwargs["idx"]
                self._count("engine.indexed_bytes", len(idx) * width * 8)
            tape = active_tape()
            return tape, (len(tape) if tape is not None else 0)

        def after(args, out, state):
            tape, before_len = state
            if (tape is not None and len(tape) > before_len
                    and tape.nodes[-1].op == last_op):
                self.run.recorded_calls[name] += 1

        return before, after

    def _backward_hooks(self):
        active_tape = self.g.engine.active_tape

        def before(args, kwargs):
            self._count("engine.backward_calls")
            tape = active_tape()
            if tape is not None and self._backward_depth == 0:
                held = self._tapes.get(id(tape))
                if held is None:
                    self._tapes[id(tape)] = [tape, len(tape)]
                else:
                    held[1] = max(held[1], len(tape))
            self._backward_depth += 1

        def after(args, out, state):
            self._backward_depth -= 1

        return before, after

    def _bind_function(self, fn: Callable, wrapper: Callable) -> None:
        """Rebind ``fn`` to ``wrapper`` wherever a gnncl module global
        names it."""
        sites = 0
        for mod in _gnncl_modules():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                    sites += 1
        if sites == 0:
            raise RuntimeError(f"no binding of {fn.__qualname__} found")

    def _bind_attr(self, cls, attr: str, wrapper) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        g = self.g
        ops = g.engine
        # segment_softmax records no node of its own; its last one is a div
        for name, last_op in (("gather_rows", "gather_rows"),
                              ("scatter_sum", "scatter_sum"),
                              ("segment_softmax", "div")):
            fn = getattr(ops, name)
            before, after = self._recorded_hooks(
                name, last_op, indexed=name in INDEXED_OPS)
            self._bind_function(fn, self._spanned(
                "engine." + name, fn, before, after))
        fn = ops.backward
        before, after = self._backward_hooks()
        self._bind_function(fn, self._spanned(
            "engine.backward", fn, before, after))

        adam = ops.Adam
        init, step = adam.__dict__["__init__"], adam.__dict__["step"]
        tracer = self

        @functools.wraps(init)
        def traced_init(opt, *args, **kwargs):
            init(opt, *args, **kwargs)
            if tracer.run is not None:
                tracer._open_epoch(opt)

        self._bind_attr(adam, "__init__", _mark(traced_init, init))
        self._bind_attr(adam, "step", self._spanned(
            "engine.adam_step", step,
            after=lambda args, out, st: self._close_epoch(args[0])))

        tape_cls = ops.Tape
        tape_exit = tape_cls.__dict__["__exit__"]

        @functools.wraps(tape_exit)
        def counted_exit(tape, *exc):
            out = tape_exit(tape, *exc)
            if tracer.run is not None:
                ops_seen = Counter(node.op for node in tape.nodes)
                tracer.run.tape_ops.update(ops_seen)
                tracer.run.softmax_motifs += _segment_softmax_motifs(
                    tape.nodes)
                if tracer._epoch >= 0:
                    for op, n in ops_seen.items():
                        tracer._open["engine.nodes." + op] += n
            return out

        self._bind_attr(tape_cls, "__exit__", _mark(counted_exit, tape_exit))

        model_cls = g.nn.GnnModel
        self._bind_attr(model_cls, "forward_embeddings", self._spanned(
            "nn.forward_embeddings", model_cls.__dict__["forward_embeddings"],
            before=lambda a, k: self._count("nn.forward_calls")))
        self._bind_function(g.nn.head_logits, self._spanned(
            "nn.head_logits", g.nn.head_logits))
        ctx_cls = g.nn.ForwardContext
        for attr in ("for_graph", "for_pool"):
            raw = ctx_cls.__dict__[attr].__func__
            self._bind_attr(ctx_cls, attr, classmethod(
                self._spanned("graphs.context", raw)))
        for fn in (g.graphs.generate_sbm_tasks,
                   g.graphs.generate_graph_classification_tasks):
            self._bind_function(fn, self._spanned("graphs.generate", fn))

        self._bind_function(g.continual.capacity_regularizer, self._spanned(
            "continual.capacity_regularizer",
            g.continual.capacity_regularizer))
        self._bind_function(g.continual.gem_project, self._spanned(
            "continual.gem_project", g.continual.gem_project,
            before=lambda a, k: self._count("continual.gem_project")))
        for cls in _subclasses(g.continual.Strategy):
            for attr in STRATEGY_METHODS:
                if attr in cls.__dict__:
                    self._bind_attr(cls, attr, self._strategy_method(
                        attr, cls.__dict__[attr]))

        self._bind_function(g.harness.evaluate, self._spanned(
            "harness.evaluate", g.harness.evaluate))

    def _strategy_method(self, attr: str, fn: Callable) -> Callable:
        before = after = None
        if attr == "transform_grads":
            def before(args, kwargs):
                if getattr(args[0], "memory", None) and self._epoch >= 0:
                    self.run.epochs_with_memory += 1
        elif attr in ("after_task", "train_task"):
            def before(args, kwargs):
                self._leave_epochs()
            if attr == "train_task":
                def after(args, out, state):
                    self._leave_epochs()
        return self._spanned("continual." + attr, fn, before, after)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []
        self.run = None

    # one traced run ---------------------------------------------------

    def begin(self) -> RunTrace:
        self.run = RunTrace()
        self._stack = []
        self._backward_depth = 0
        self._leave_epochs()
        return self.run

    def end(self) -> RunTrace:
        run, self.run = self.run, None
        self._leave_epochs()
        return run

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Record a root span around the caller's block."""
        span = self._enter(name)
        try:
            yield
        finally:
            self._exit(span)


def leftover_wrappers() -> List[str]:
    """Bindings in gnncl modules or their classes that point at a wrapper
    of this module; empty whenever no tracer or clock is installed."""
    found = []
    for mod in _gnncl_modules():
        for attr, val in vars(mod).items():
            if _is_wrapper(val):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(val, type):
                found.extend(f"{val.__module__}.{val.__qualname__}.{name}"
                             for name, member in vars(val).items()
                             if _is_wrapper(member))
    return sorted(set(found))


def _mark(wrapper: Callable, original: Callable) -> Callable:
    wrapper.__perfbench_original__ = original
    return wrapper


def _is_wrapper(obj) -> bool:
    return hasattr(getattr(obj, "__func__", obj), "__perfbench_original__")


def _subclasses(cls) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def cross_check(run: RunTrace) -> List[str]:
    """Wrapper counts of recorded calls against the tapes' node ops."""
    errors = []
    for op in INDEXED_OPS:
        calls, nodes = run.recorded_calls[op], run.tape_ops[op]
        if calls != nodes:
            errors.append(f"{op}: wrappers saw {calls} recorded calls, "
                          f"tapes hold {nodes} nodes")
    calls = run.recorded_calls["segment_softmax"]
    if calls != run.softmax_motifs:
        errors.append(f"segment_softmax: wrappers saw {calls} recorded "
                      f"calls, tapes hold {run.softmax_motifs} motifs")
    return errors


def self_times(spans: Sequence[list]) -> List[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _outermost(spans: Sequence[list], names: frozenset) -> List[int]:
    """Indices of spans named in ``names`` with no ancestor also named."""
    out = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def run_metrics(run: RunTrace) -> Dict[str, float]:
    """Per-layer metrics of one traced run (trace.* excluded)."""
    spans = run.spans
    selfs = self_times(spans)
    epochs = len(run.epochs_s) or 1

    def self_ms(name: str) -> float:
        return 1000.0 * sum(t for s, t in zip(spans, selfs)
                            if s[0] == name and s[4] >= 0) / epochs

    def total(names: Sequence[str], in_epochs: bool) -> float:
        idx = _outermost(spans, frozenset(names))
        return sum(spans[i][2] - spans[i][1] for i in idx
                   if spans[i][4] >= 0 or not in_epochs)

    counts = Counter()
    for c in run.epoch_counts:
        counts.update(c)

    def count(name: str) -> float:
        return counts[name] / epochs

    def calls(name: str) -> int:
        return sum(1 for s in spans if s[0] == name)

    m: Dict[str, float] = {
        "engine.backward_ms": self_ms("engine.backward"),
        "engine.backward_calls": count("engine.backward_calls"),
        "engine.tape_nodes": count("engine.tape_nodes"),
    }
    for op in NODE_OPS:
        m[f"engine.nodes.{op}"] = count(f"engine.nodes.{op}")
    m.update({
        "engine.scatter_ms": self_ms("engine.scatter_sum"),
        "engine.gather_ms": self_ms("engine.gather_rows"),
        "engine.segment_softmax_ms": self_ms("engine.segment_softmax"),
        "engine.indexed_bytes": count("engine.indexed_bytes"),
        "engine.adam_ms": 1000.0 / epochs * total(
            ["engine.adam_step"], True),
        "nn.forward_ms": 1000.0 / epochs * total(
            ["nn.forward_embeddings", "nn.head_logits"], True),
        "nn.forward_calls": count("nn.forward_calls"),
        "continual.objective_ms": self_ms("continual.objective"),
        "continual.capacity_ms": 1000.0 / epochs * total(
            ["continual.capacity_regularizer"], True),
        "continual.transform_grads_ms": 1000.0 / epochs * total(
            ["continual.transform_grads"], True),
        "continual.gem_project_ratio": (
            counts["continual.gem_project"] / run.epochs_with_memory
            if run.epochs_with_memory else 0.0),
        "continual.after_task_s": total(["continual.after_task"], False),
        "graphs.generate_s": total(["graphs.generate"], False),
        "graphs.context_s": total(["graphs.context"], False),
        "harness.evaluate_s": total(["harness.evaluate"], False),
        "harness.evaluate_calls": float(calls("harness.evaluate")),
    })
    return m


def all_node_ops(run: RunTrace) -> Dict[str, float]:
    """Per-epoch counts of every op seen in epochs, listed or not."""
    counts = Counter()
    for c in run.epoch_counts:
        counts.update(c)
    epochs = len(run.epochs_s) or 1
    return {k[len("engine.nodes."):]: v / epochs for k, v in
            sorted(counts.items()) if k.startswith("engine.nodes.")}
