"""Small vectorized toolkit for disjoint time-interval sets.

An interval set is an (n, 2) float array of [start, end) rows, sorted by
start and non-overlapping.  Used by the shutter gate (transmission windows
and herald-commanded closures), by the Poisson samplers of the pairs, the
noise and the dark counts, and by the histogram's coincidence pairing.
"""

from __future__ import annotations

import numpy as np


def as_interval_set(starts, ends) -> np.ndarray:
    """Merge possibly overlapping intervals into a canonical disjoint set.

    When every row has positive length and both the starts and the ends are
    non-decreasing, as for the constant-width sets built on a sorted herald
    stream, each end is already the running maximum of the ends, and the
    merge is one linear pass with no copy and no sort.  Any other input has
    its empty rows dropped, is sorted by start if needed, and is swept with
    the running maximum of the ends.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    if starts.size == 0:
        return np.empty((0, 2))
    keep = ends > starts
    if not (keep.all() and (starts[1:] >= starts[:-1]).all() and (ends[1:] >= ends[:-1]).all()):
        starts, ends = starts[keep], ends[keep]
        if starts.size == 0:
            return np.empty((0, 2))
        if np.any(np.diff(starts) < 0):
            order = np.argsort(starts, kind="stable")
            starts, ends = starts[order], ends[order]
        ends = np.maximum.accumulate(ends)
    # brk[i] marks a break before row i: row i starts a merged interval and
    # row i - 1 ends one (the first and the last row always do)
    brk = np.empty(starts.size + 1, dtype=bool)
    brk[0] = brk[-1] = True
    np.greater(starts[1:], ends[:-1], out=brk[1:-1])
    merged = np.empty((np.count_nonzero(brk) - 1, 2))
    merged[:, 0] = starts[brk[:-1]]
    merged[:, 1] = ends[brk[1:]]
    return merged


def total_length(intervals: np.ndarray) -> float:
    if len(intervals) == 0:
        return 0.0
    return float(np.sum(intervals[:, 1] - intervals[:, 0]))


def complement(intervals: np.ndarray, span: tuple[float, float]) -> np.ndarray:
    """Gaps of an interval set within [span0, span1)."""
    lo, hi = span
    clipped = intersect(intervals, np.array([[lo, hi]]))
    starts = np.concatenate([[lo], clipped[:, 1]])
    ends = np.concatenate([clipped[:, 0], [hi]])
    keep = ends > starts
    return np.stack([starts[keep], ends[keep]], axis=1)


def ragged_offsets(counts: np.ndarray) -> np.ndarray:
    """[0..c0), [0..c1), ... concatenated, without a python loop."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - starts


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two disjoint interval sets (vectorized sweep).

    Only rows of positive length come out: a zero-length input row, such as
    the empty span ``complement`` passes for ``span0 == span1``, yields
    nothing.
    """
    if len(a) == 0 or len(b) == 0:
        return np.empty((0, 2))
    # a-row i overlaps b rows lo[i] .. hi[i] - 1, found by searchsorted so the
    # cost is O(n + m + overlaps).  b being disjoint and sorted, the b rows
    # strictly between the first and the last of them lie inside a-row i, so
    # only those two are clipped against it.  Rows come out empty only from
    # zero-length input rows.
    lo = np.searchsorted(b[:, 1], a[:, 0], side="right")
    hi = np.searchsorted(b[:, 0], a[:, 1], side="left")
    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    if total == 0:
        return np.empty((0, 2))
    last = np.cumsum(counts)
    first = last - counts
    b_idx = np.repeat(lo - first, counts)
    b_idx += np.arange(total)
    out = b.take(b_idx, axis=0)
    hit = counts > 0
    f, l = first[hit], last[hit] - 1
    out[f, 0] = np.maximum(out[f, 0], a[hit, 0])
    out[l, 1] = np.minimum(out[l, 1], a[hit, 1])
    keep = out[:, 1] > out[:, 0]
    if keep.all():
        return out
    kept = np.empty((np.count_nonzero(keep), 2))
    kept[:, 0] = out[keep, 0]
    kept[:, 1] = out[keep, 1]
    return kept


def contains(intervals: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Membership test: True where t falls inside the interval set."""
    t = np.asarray(t, dtype=np.float64)
    if len(intervals) == 0:
        return np.zeros(t.shape, dtype=bool)
    edges = intervals.ravel()
    return (np.searchsorted(edges, t, side="right") & 1).astype(bool)


def sample_poisson(intervals: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted Poisson points of the given rate restricted to the interval set.

    The points come out sorted in O(n): the partial sums of n + 1
    exponential spacings, divided by their total, are distributed as n
    sorted uniforms (Devroye 1986, ch. V).  Point u of the concatenated
    length goes to the row k with cum[k] <= u < cum[k + 1] (the last row
    also takes a u rounded past the end).  Both sequences being sorted, the
    shorter one is searched in the longer: a few windows holding many points
    are filled by counting the points per row, while one search per point
    serves the many short rows of a herald-relative set.
    """
    L = total_length(intervals)
    if L <= 0 or rate <= 0:
        return np.empty(0)
    n = rng.poisson(rate * L)
    if n == 0:
        return np.empty(0)
    u = np.cumsum(rng.standard_exponential(n + 1))
    u = u[:-1] * (L / u[-1])
    lengths = intervals[:, 1] - intervals[:, 0]
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    if n < len(intervals):
        row = np.searchsorted(cum[1:-1], u, side="right")
        return intervals[row, 0] + (u - cum[row])
    first = np.searchsorted(u, cum, side="left")
    first[-1] = n
    per = first[1:] - first[:-1]
    return np.repeat(intervals[:, 0], per) + (u - np.repeat(cum[:-1], per))

