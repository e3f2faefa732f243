"""Validated index vectors, the one index type of the indexed ops.

A :class:`SegmentPlan` holds int64 ids in ``[0, bound)``, checked once
when the plan is built. ``gather_rows``, ``scatter_sum`` (its segment
ids and its ``src`` rows), ``edge_dot``, ``segment_softmax``,
``take_cols`` and ``place_cols`` take plans only and read their counts
from ``plan.bound``: ``scatter_sum(x, plan, src=, weights=)``,
``segment_softmax(scores, plan)``, ``place_cols(x, plan)``. They only
fit the plan's length and bound to the tensor. Plans are built where
indices enter: ``ForwardContext`` keeps ``adj_src_plan``,
``adj_dst_plan``, ``edge_plans`` and ``pool_plan``, ``class_columns``
one per class set, and ``SegmentPlan.rows`` builds the rows of a split,
which ``TaskView`` lays out once per split and its owner keeps (a
task's train split, each GEM memory, each test split of a run).
"""

from __future__ import annotations

import math
import mmap
from typing import Dict, Optional, Tuple, Type

import numpy as np

from .tensor import SegmentError, ShapeError


def check_index(idx, upper: int, error: Type[Exception],
                what: str) -> np.ndarray:
    """``idx`` as a fresh int64 vector, or ``error`` if it is not a 1-D
    integer array with every entry in ``[0, upper)``."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise error(f"{what} must be a 1-D integer array")
    if idx.size and (idx.min() < 0 or idx.max() >= upper):
        raise error(f"{what} out of range [0, {upper})")
    return idx.astype(np.int64)


# values per slot below which the slot loop of segment_sums costs more
# in dispatch than one bincount: an in-place add of a few rows takes
# about as long as bincount spends on a thousand values
SLOT_VALUES = 1024


class SegmentPlan:
    """Segment ids (or row indices) validated once, plus cached layouts.

    ``SegmentPlan(ids, num_segments)`` validates segment ids and raises
    :class:`SegmentError`; ``SegmentPlan.rows(idx, num_rows)`` validates
    row (or column) indices and raises :class:`ShapeError`. Once built,
    a plan serves both roles: a gather's VJP scatters with the gather's
    own plan.

    Segment ids are checked for the CSR layout: when they are sorted and
    every segment is non-empty, ``starts`` holds the first position of
    each segment, which lets ``segment_softmax`` take its max with
    ``np.maximum.reduceat``. Otherwise, and for row plans, ``starts`` is
    None. ``counts`` caches the segment sizes, ``depth`` the largest of
    them, ``distinct`` whether no id repeats, and ``slots`` the
    :class:`SlotLayout` that ``segment_sums`` sums through for
    ``scatter_sum``. ``workspace(width)`` is the array that
    the indexed kernels gather rows of ``width`` values into. Multi-head
    layers scatter rows of ``H * d`` values over the one plan of their
    graph; every width shares the one layout and the one buffer, so the
    slot sums keep no index that grows with the width. Only scatters
    with too few values per slot for the slot loop keep a bincount
    index per width.
    """

    __slots__ = ("ids", "bound", "starts", "_slots", "_slot_rows", "_work",
                 "_sums", "_flats", "_counts", "_depth")

    def __init__(self, ids, num_segments: int):
        num_segments = int(num_segments)
        if num_segments <= 0:
            raise SegmentError("num_segments must be positive")
        self._init(check_index(ids, num_segments, SegmentError,
                               "segment ids"), num_segments, scan=True)

    @classmethod
    def rows(cls, idx, num_rows: int,
             what: str = "row index") -> "SegmentPlan":
        """A plan over row indices of a ``num_rows``-row tensor, or over
        columns, with ``what`` naming the index in errors; it is never
        scanned for segment starts."""
        num_rows = int(num_rows)
        plan = cls.__new__(cls)
        plan._init(check_index(idx, num_rows, ShapeError, what),
                   num_rows, scan=False)
        return plan

    def _init(self, ids: np.ndarray, bound: int, scan: bool) -> None:
        ids.flags.writeable = False
        self.ids = ids
        self.bound = bound
        self.starts: Optional[np.ndarray] = None
        self._slots: Optional[SlotLayout] = None
        self._slot_rows: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._work = np.empty(0)
        self._sums: Dict[int, Tuple] = {}
        self._flats: Dict[int, np.ndarray] = {1: ids}
        self._counts: Optional[np.ndarray] = None
        self._depth: Optional[int] = None
        if scan and ids.size and ids[0] == 0 and ids[-1] == bound - 1:
            steps = np.diff(ids)
            # sorted with no gap <=> every step is 0 or 1
            if np.all((steps == 0) | (steps == 1)):
                starts = np.concatenate(([0], np.flatnonzero(steps) + 1))
                starts.flags.writeable = False
                self.starts = starts

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def counts(self) -> np.ndarray:
        """Number of ids in each of the ``bound`` segments."""
        if self._counts is None:
            counts = np.bincount(self.ids, minlength=self.bound)
            counts.flags.writeable = False
            self._counts = counts
        return self._counts

    @property
    def depth(self) -> int:
        """The size of the largest segment: the number of slots."""
        if self._depth is None:
            self._depth = int(self.counts.max(initial=0))
        return self._depth

    @property
    def distinct(self) -> bool:
        """Whether every id occurs at most once."""
        return self.depth <= 1

    @property
    def slots(self) -> "SlotLayout":
        """The slot-major layout of the ids, built on first use."""
        if self._slots is None:
            self._slots = SlotLayout(self.ids, self.counts)
        return self._slots

    def slot_rows(self, rows: "SegmentPlan") -> np.ndarray:
        """``rows.ids`` in the slot order of this plan: the rows that a
        fused scatter over this plan gathers. The index of the last
        ``rows`` is kept; an edge plan always pairs with the plan of
        the edges' other end."""
        held = self._slot_rows
        if held is None or held[0] is not rows.ids:
            held = (rows.ids, np.take(rows.ids, self.slots.perm))
            self._slot_rows = held
        return held[1]

    def workspace(self, width: int) -> np.ndarray:
        """A ``(len, width)`` float64 array kept on the plan for rows
        gathered through it. The indexed kernels fill it and use it up
        within one call, so every width shares one buffer, sized for
        the widest rows yet: a gather of any width overwrites it. One
        buffer reused for the life of the plan faults its pages in
        once, where a fresh array on every call can fault them in again
        each time. The buffer is an anonymous mapping of its own,
        unmapped when the plan dies, so it never pins the allocator's
        heap."""
        size = len(self) * width
        if self._work.size < size:
            self._work = np.frombuffer(mmap.mmap(-1, 8 * size), np.float64)
            # the kept views of segment_sums read the old buffer
            self._sums.clear()
        return self._work[:size].reshape(len(self), width)

    def gather(self, x: np.ndarray, order: np.ndarray) -> np.ndarray:
        """``x[order]`` written into the workspace, for ``len(self)``
        validated row indices ``order``; valid until the next gather
        through this plan."""
        tail = x.shape[1:]
        work = self.workspace(math.prod(tail))
        # the indices are validated, so clipping never moves one; with
        # the default mode numpy would gather into a temporary and copy
        return np.take(x, order, axis=0, mode="clip",
                       out=work.reshape((len(self),) + tail))

    def segment_sums(self, x: np.ndarray,
                     rows: Optional["SegmentPlan"] = None,
                     scale: Optional[np.ndarray] = None) -> np.ndarray:
        """The per-segment sums of the rows of ``x``, or of the rows
        ``x[rows.ids]`` given a row plan ``rows``, as a fresh
        ``(bound,) + x.shape[1:]`` array. ``scale``, one entry per id,
        first multiplies each row, or each block along its leading
        axis, by one factor.

        Every segment adds its rows in entry order, starting from +0.0,
        as the unbuffered ``np.add`` scatter does, so the two agree bit
        for bit. With at least ``SLOT_VALUES`` values per slot, the
        rows are gathered into the workspace in the order of ``slots``
        with one ``take``; each slot is one in-place add onto a prefix
        of an accumulator that ranks the segments by size, and one
        ``take`` puts the segments back in order. The views are kept
        per width, shared by every row shape of that width, so such a
        call builds no index. With fewer, the dispatch of each add
        costs more than its work (the rows are few or one segment is
        deep), and the sum is one ``np.bincount`` over a cached index
        of ``len * width`` entries, at most ``SLOT_VALUES * depth``."""
        tail = x.shape[1:]
        width = math.prod(tail)
        if len(self) * width < SLOT_VALUES * self.depth:
            values = x
            if rows is not None:
                values = self.gather(x, rows.ids)
                if scale is not None:
                    values *= scale[..., None]
            sums = np.bincount(self._flat(width), weights=values.ravel(),
                               minlength=self.bound * width)
            return sums.reshape((self.bound,) + tail)
        acc, adds = self._sums.get(width) or self._sum_views(width)
        order = self.slots.perm if rows is None else self.slot_rows(rows)
        values = self.gather(x, order)
        if scale is not None:
            values *= np.take(scale, self.slots.perm, axis=0)[..., None]
        acc.fill(0.0)
        for part, slot in adds:
            np.add(part, slot, out=part)
        return np.take(acc, self.slots.pos, axis=0).reshape(
            (self.bound,) + tail)

    def _flat(self, width: int) -> np.ndarray:
        """``ids[:, None] * width + arange(width)``, raveled and cached:
        the bincount index of each value of a ``(len, width)`` block."""
        flat = self._flats.get(width)
        if flat is None:
            flat = (self.ids[:, None] * width
                    + np.arange(width, dtype=np.int64)).ravel()
            flat.flags.writeable = False
            self._flats[width] = flat
        return flat

    def _sum_views(self, width: int) -> Tuple:
        """(accumulator, per-slot (accumulator prefix, workspace slot)
        views) for rows of ``width`` values, whatever their shape."""
        work = self.workspace(width)
        acc = np.zeros((self.bound, width))
        views = (acc, [(acc[:m], work[lo:lo + m])
                       for m, lo in self.slots.spans])
        self._sums[width] = views
        return views


class SlotLayout:
    """The entries of a segment plan in slot-major order.

    Slot k of a segment is its k-th entry in entry order. The segments
    are ranked by decreasing size, ties by id, and ``pos[v]`` is the
    rank of segment v, so the segments that have a slot k hold the
    ranks ``[0, m_k)``. ``perm`` lists the entries slot by slot, each
    slot in rank order, and ``spans`` holds ``(m_k, start of slot k in
    perm)`` for each slot. Adding a segment's entries slot by slot onto
    a zeroed accumulator adds them in entry order, starting from +0.0,
    as ``np.add.at`` does, so the sums agree bit for bit.

    Built in O(E) plus a sort of the segments by size: the entry of
    rank r in segment v goes to ``offs[r] + pos[v]``, with ``offs[r]``
    the start of slot r. The ranks come straight from the segment
    starts when the ids are sorted; unsorted ids take one stable
    argsort first (a radix sort while the ids fit in 16 bits).
    """

    __slots__ = ("perm", "pos", "spans")

    def __init__(self, ids: np.ndarray, counts: np.ndarray):
        n = counts.shape[0]
        order = np.argsort(-counts, kind="stable")
        pos = np.empty(n, np.int64)
        pos[order] = np.arange(n)
        # m[k]: segments with more than k entries
        m = n - np.cumsum(np.bincount(counts))[:-1]
        offs = np.concatenate(([0], np.cumsum(m)))
        first = np.cumsum(counts) - counts
        # the entries in segment order, then the rank of each in its
        # segment
        ent = rank = np.arange(ids.shape[0])
        if np.any(ids[1:] < ids[:-1]):
            # numpy sorts 16-bit keys stably by radix, in O(E)
            keys = ids.astype(np.uint16) if n <= 1 << 16 else ids
            ent = np.argsort(keys, kind="stable")
        seg = ids[ent]
        rank = rank - first[seg]
        perm = np.empty_like(ent)
        perm[offs[rank] + pos[seg]] = ent
        perm.flags.writeable = False
        pos.flags.writeable = False
        self.perm = perm
        self.pos = pos
        self.spans = [(int(c), int(o)) for c, o in zip(m, offs)]
