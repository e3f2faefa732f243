"""Validated index vectors for the indexed ops.

A :class:`SegmentPlan` holds int64 ids in ``[0, bound)``, checked once
when the plan is built. ``gather_rows``, ``scatter_sum`` and
``segment_softmax`` accept a plan wherever they accept an index array;
given a plan they only compare its length and bound with the tensor,
so an index used on every forward pass (and by the VJPs of the ops that
use it) is validated once rather than per call.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

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


class SegmentPlan:
    """Segment ids (or row indices) validated once, plus cached layouts.

    ``SegmentPlan(ids, num_segments)`` validates segment ids and raises
    :class:`SegmentError`; ``SegmentPlan.rows(idx, num_rows)`` validates
    row (or column) indices and raises :class:`ShapeError`, as the ops
    do for raw arrays. Once built, a plan serves both roles: a gather's
    VJP scatters with the gather's own plan.

    With ``scan=True`` (the default) the ids are checked for the CSR
    layout: when they are sorted and every segment is non-empty,
    ``starts`` holds the first position of each segment, which lets
    ``segment_softmax`` take its max with ``np.maximum.reduceat``.
    Otherwise ``starts`` is None. ``flat(width)`` caches the index that
    ``scatter_sum`` hands to ``np.bincount`` for rows of ``width``
    values; ``counts`` caches the segment sizes and ``distinct`` whether
    no id repeats; ``copies(count)`` caches the plan over ``count``
    disjoint copies of the range.
    """

    __slots__ = ("ids", "bound", "starts", "_flat", "_counts", "_distinct",
                 "_copies")

    def __init__(self, ids, num_segments: int, scan: bool = True):
        num_segments = int(num_segments)
        if num_segments <= 0:
            raise SegmentError("num_segments must be positive")
        self._init(check_index(ids, num_segments, SegmentError,
                               "segment ids"), num_segments, scan)

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

    def copies(self, count: int) -> "SegmentPlan":
        """This plan over ``count`` disjoint copies of its range, one
        after another: copy c's ids are shifted by ``c * bound``. The
        ids are already valid, so nothing is checked or scanned again;
        segment starts carry over, shifted the same way. Built once per
        count and cached; one copy is the plan itself."""
        count = int(count)
        if count == 1:
            return self
        plan = self._copies.get(count)
        if plan is None:
            plan = SegmentPlan.__new__(SegmentPlan)
            shift = np.arange(count, dtype=np.int64)[:, None]
            plan._init((shift * self.bound + self.ids).ravel(),
                       count * self.bound, scan=False)
            if self.starts is not None:
                starts = (shift * len(self) + self.starts).ravel()
                starts.flags.writeable = False
                plan.starts = starts
            self._copies[count] = plan
        return plan

    def _init(self, ids: np.ndarray, bound: int, scan: bool) -> None:
        ids.flags.writeable = False
        self.ids = ids
        self.bound = bound
        self.starts: Optional[np.ndarray] = None
        self._flat: Dict[int, np.ndarray] = {1: ids}
        self._counts: Optional[np.ndarray] = None
        self._distinct: Optional[bool] = None
        self._copies: Dict[int, "SegmentPlan"] = {}
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
    def distinct(self) -> bool:
        """Whether every id occurs at most once."""
        if self._distinct is None:
            self._distinct = bool(np.all(self.counts <= 1))
        return self._distinct

    def flat(self, width: int) -> np.ndarray:
        """``ids[:, None] * width + arange(width)``, raveled and cached:
        the bincount index of each value of a ``(len, width)`` block."""
        flat = self._flat.get(width)
        if flat is None:
            flat = (self.ids[:, None] * width
                    + np.arange(width, dtype=np.int64)).ravel()
            flat.flags.writeable = False
            self._flat[width] = flat
        return flat
