"""Small vectorized toolkit for disjoint time-interval sets.

An interval set is an (n, 2) float array of [start, end) rows, sorted by
start and non-overlapping.  Used by the shutter gate (open/closed sets) and
by the pipeline's noise sampler.
"""

from __future__ import annotations

import numpy as np


def as_interval_set(starts, ends) -> np.ndarray:
    """Merge possibly overlapping intervals into a canonical disjoint set."""
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    keep = ends > starts
    starts, ends = starts[keep], ends[keep]
    if starts.size == 0:
        return np.empty((0, 2))
    if np.any(np.diff(starts) < 0):  # herald-derived sets arrive pre-sorted
        order = np.argsort(starts, kind="stable")
        starts, ends = starts[order], ends[order]
    run_end = np.maximum.accumulate(ends)
    # a new merged interval starts where the start exceeds every prior end
    new_run = np.empty(starts.size, dtype=bool)
    new_run[0] = True
    new_run[1:] = starts[1:] > run_end[:-1]
    idx = np.flatnonzero(new_run)
    merged = np.empty((idx.size, 2))
    merged[:, 0] = starts[idx]
    merged[:, 1] = run_end[np.append(idx[1:], starts.size) - 1]
    return merged


def total_length(intervals: np.ndarray) -> float:
    if len(intervals) == 0:
        return 0.0
    return float(np.sum(intervals[:, 1] - intervals[:, 0]))


def complement(intervals: np.ndarray, span: tuple[float, float]) -> np.ndarray:
    """Gaps of an interval set within [span0, span1)."""
    lo, hi = span
    if len(intervals) == 0:
        return np.array([[lo, hi]]) if hi > lo else np.empty((0, 2))
    clipped = intersect(intervals, np.array([[lo, hi]]))
    if len(clipped) == 0:
        return np.array([[lo, hi]])
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
    """Intersection of two disjoint interval sets (vectorized sweep)."""
    if len(a) == 0 or len(b) == 0:
        return np.empty((0, 2))
    # for every pair of a-row and overlapping b-row, clip; bound the pairing
    # with searchsorted so the cost is O(n + m + overlaps)
    starts_b, ends_b = b[:, 0], b[:, 1]
    lo_idx = np.searchsorted(ends_b, a[:, 0], side="right")
    hi_idx = np.searchsorted(starts_b, a[:, 1], side="left")
    counts = np.maximum(hi_idx - lo_idx, 0)
    if counts.sum() == 0:
        return np.empty((0, 2))
    a_idx = np.repeat(np.arange(len(a)), counts)
    b_idx = np.repeat(lo_idx, counts) + ragged_offsets(counts)
    s = np.maximum(a[a_idx, 0], starts_b[b_idx])
    e = np.minimum(a[a_idx, 1], ends_b[b_idx])
    keep = e > s
    return np.stack([s[keep], e[keep]], axis=1)


def contains(intervals: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Membership test: True where t falls inside the interval set."""
    t = np.asarray(t, dtype=np.float64)
    if len(intervals) == 0:
        return np.zeros(t.shape, dtype=bool)
    edges = intervals.ravel()
    return np.searchsorted(edges, t, side="right") % 2 == 1


def sample_poisson(intervals: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted Poisson points of the given rate restricted to the interval set.

    The points come out sorted in O(n): the partial sums of n + 1
    exponential spacings, divided by their total, are distributed as n
    sorted uniforms (Devroye 1986, ch. V).
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
    idx = np.searchsorted(cum, u, side="right") - 1
    idx = np.clip(idx, 0, len(intervals) - 1)
    return intervals[idx, 0] + (u - cum[idx])
