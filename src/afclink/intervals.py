"""Small vectorized toolkit for disjoint time-interval sets.

An interval set is an (n, 2) float array of [start, end) rows of positive
length, sorted by start and non-overlapping.  ``as_interval_set`` builds one
from rows at two constant offsets from a sorted stream (the closures of
``channel.as_closures``), whose starts and ends are non-decreasing;
``length_below`` measures such a union of rows of one width without
building it (the engine's set U of the sparse herald stream).  Used by the shutter gate (transmission windows
and herald-commanded closures), by the Poisson samplers of the pairs, the
noise and the dark counts, and by the histogram's coincidence pairing.
"""

from __future__ import annotations

import numpy as np


def as_interval_set(starts, ends) -> np.ndarray:
    """Merge the rows [starts[i], ends[i]) into a canonical disjoint set.

    Both the starts and the ends must be non-decreasing, as they are for
    rows at two constant offsets from a sorted stream: each end is then the
    running maximum of the ends, and the merge is one linear pass with no
    copy and no sort.  A row narrower than the float spacing of its stream
    comes out as a zero-length row, which ``contains`` never matches.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
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
    return float(np.sum(intervals[:, 1] - intervals[:, 0]))


def length_below(centres: np.ndarray, half: float, t: np.ndarray) -> np.ndarray:
    """The length below each time ``t`` of the union of the rows
    [c - half, c + half) around the sorted ``centres``: from the first row's
    start to t, or to the end of the last row that starts before t, less the
    gaps between the rows up to that one.  Rows of one width need no merge:
    sorted starts make their ends sorted too."""
    t = np.asarray(t, dtype=np.float64)
    if len(centres) == 0:
        return np.zeros(t.shape)
    gaps = np.diff(centres, prepend=centres[0]) - 2.0 * half
    gaps = np.cumsum(np.maximum(gaps, 0.0, out=gaps), out=gaps)
    i = np.searchsorted(centres, t + half) - 1
    return np.where(i < 0, 0.0, np.minimum(t, centres[i] + half) - (centres[0] - half) - gaps[i])


def complement(intervals: np.ndarray, span: tuple[float, float]) -> np.ndarray:
    """Gaps of an interval set within [span0, span1)."""
    lo, hi = span
    clipped = intersect(intervals, np.array([[lo, hi]]))
    starts = np.concatenate([[lo], clipped[:, 1]])
    ends = np.concatenate([clipped[:, 0], [hi]])
    keep = ends > starts
    return np.stack([starts[keep], ends[keep]], axis=1)


def ragged_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """[s0 .. s0 + c0), [s1 .. s1 + c1), ... concatenated, without a python loop."""
    last = np.cumsum(counts)
    idx = np.repeat(starts - (last - counts), counts)
    idx += np.arange(len(idx))
    return idx


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two disjoint interval sets (vectorized sweep).

    Rows of positive length clip to rows of positive length.
    """
    # a-row i overlaps b rows lo[i] .. hi[i] - 1, found by searchsorted so the
    # cost is O(n + m + overlaps).  b being disjoint and sorted, the b rows
    # strictly between the first and the last of them lie inside a-row i, so
    # only those two are clipped against it.
    lo = np.searchsorted(b[:, 1], a[:, 0], side="right")
    hi = np.searchsorted(b[:, 0], a[:, 1], side="left")
    counts = np.maximum(hi - lo, 0)
    out = b.take(ragged_ranges(lo, counts), axis=0)
    hit = counts > 0
    l = np.cumsum(counts)[hit] - 1
    f = l + 1 - counts[hit]
    out[f, 0] = np.maximum(out[f, 0], a[hit, 0])
    out[l, 1] = np.minimum(out[l, 1], a[hit, 1])
    return out


def contains(intervals: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Membership test: True where t falls inside the interval set."""
    t = np.asarray(t, dtype=np.float64)
    edges = intervals.ravel()
    return (np.searchsorted(edges, t, side="right") & 1).astype(bool)


def sample_poisson(intervals: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted Poisson points of the given rate restricted to the interval set.

    The points come out sorted in O(n): the partial sums of n + 1
    exponential spacings, divided by their total, are distributed as n
    sorted uniforms (Devroye 1986, ch. V).  Point u of the concatenated
    length goes to the row k with cum[k] <= u < cum[k + 1] (the last row
    also takes a u rounded past the end).  Both sequences being sorted, the
    row edges are searched among the points, which counts the points per
    row: the engine passes a few rows, its windows or their edge zones.
    """
    cum = np.empty(len(intervals) + 1)
    cum[0] = 0.0
    np.cumsum(intervals[:, 1] - intervals[:, 0], out=cum[1:])
    L = cum[-1]
    n = rng.poisson(rate * L)
    if n == 0:
        return np.empty(0)
    u = np.cumsum(rng.standard_exponential(n + 1))
    u = u[:-1] * (L / u[-1])
    first = np.searchsorted(u, cum, side="left")
    first[-1] = n
    per = first[1:] - first[:-1]
    return np.repeat(intervals[:, 0], per) + (u - np.repeat(cum[:-1], per))

