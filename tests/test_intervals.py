import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from afclink import intervals as iv


def test_merge_overlapping():
    s = iv.as_interval_set([0.0, 1.0, 5.0], [2.0, 3.0, 6.0])
    assert np.allclose(s, [[0.0, 3.0], [5.0, 6.0]])


def test_complement_inside_span():
    s = np.array([[1.0, 2.0], [4.0, 5.0]])
    c = iv.complement(s, (0.0, 6.0))
    assert np.allclose(c, [[0.0, 1.0], [2.0, 4.0], [5.0, 6.0]])


def test_intersect_pairs():
    a = np.array([[0.0, 10.0]])
    b = np.array([[-5.0, 2.0], [3.0, 4.0], [9.0, 12.0]])
    got = iv.intersect(a, b)
    assert np.allclose(got, [[0.0, 2.0], [3.0, 4.0], [9.0, 10.0]])


def test_contains_membership():
    s = np.array([[0.0, 1.0], [2.0, 3.0]])
    t = np.array([-0.5, 0.5, 1.5, 2.0, 2.9, 3.0])
    assert list(iv.contains(s, t)) == [False, True, False, True, True, False]


def test_total_length_and_complement_roundtrip():
    rng = np.random.default_rng(3)
    starts = np.sort(rng.uniform(0, 100, 50))
    ends = starts + 1.5  # one width, so the ends are sorted too
    s = iv.as_interval_set(starts, ends)
    c = iv.complement(s, (-10.0, 120.0))
    assert iv.total_length(s) + iv.total_length(c) == pytest.approx(130.0, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 5)), max_size=20))
@example(rows=[(3, 0), (7, 2), (0, 0)])
def test_ragged_ranges_match_loop(rows):
    starts = np.array([s for s, _ in rows], dtype=np.int64)
    counts = np.array([c for _, c in rows], dtype=np.int64)
    want = [s + k for s, c in rows for k in range(c)]
    assert iv.ragged_ranges(starts, counts).tolist() == want


def test_sample_poisson_rate():
    rng = np.random.default_rng(11)
    s = np.array([[0.0, 2.0], [10.0, 14.0]])  # total length 6
    n = len(iv.sample_poisson(s, 5000.0, rng))
    assert abs(n - 30000) < 3 * np.sqrt(30000)
    pts = iv.sample_poisson(s, 1000.0, rng)
    assert np.all(iv.contains(s, pts))
    assert np.all(np.diff(pts) >= 0)


@st.composite
def _herald_rows(draw):
    """Rows of one width on non-decreasing starts, as the closures and the
    herald-relative set are built on the sorted herald stream, on a grid of
    1/8 (so lengths and their sums are exact floats); ties and gaps below
    the width merge rows."""
    width = draw(st.integers(1, 80))
    starts = np.cumsum(draw(st.lists(st.integers(0, 24), max_size=20)), dtype=np.int64)
    starts += draw(st.integers(-200, 0))
    return np.stack([starts, starts + width], axis=1) / 8


_interval_sets = _herald_rows().map(lambda rows: iv.as_interval_set(rows[:, 0], rows[:, 1]))


@settings(max_examples=200, deadline=None)
@given(
    s=_interval_sets,
    rate=st.one_of(st.just(0.0), st.floats(1e-3, 30.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_poisson_sorted_inside_support(s, rate, seed):
    pts = iv.sample_poisson(s, rate, np.random.default_rng(seed))
    if rate == 0.0 or len(s) == 0:
        assert len(pts) == 0
    assert np.all(np.diff(pts) >= 0)
    row = np.searchsorted(s[:, 0], pts, side="right") - 1
    assert np.all(row >= 0)
    assert np.all(pts <= s[row, 1])


def test_sample_poisson_count_within_4_sigma():
    s = np.array([[0.0, 2.0], [10.0, 14.0], [20.0, 20.5]])
    mu = 2000.0 * iv.total_length(s)
    for seed in range(10):
        n = len(iv.sample_poisson(s, 2000.0, np.random.default_rng(seed)))
        assert abs(n - mu) < 4 * np.sqrt(mu)


def test_sample_poisson_uniform_ks():
    pts = iv.sample_poisson(np.array([[3.0, 11.0]]), 500.0, np.random.default_rng(5))
    assert stats.kstest(pts, "uniform", args=(3.0, 8.0)).pvalue > 1e-3
    # across several intervals the points are uniform in the concatenated length
    s = np.array([[0.0, 1.0], [5.0, 5.5], [7.0, 9.0]])
    pts = iv.sample_poisson(s, 2000.0, np.random.default_rng(6))
    row = np.searchsorted(s[:, 0], pts, side="right") - 1
    cum = np.concatenate([[0.0], np.cumsum(s[:, 1] - s[:, 0])])
    flat = cum[row] + (pts - s[row, 0])
    assert stats.kstest(flat, "uniform", args=(0.0, cum[-1])).pvalue > 1e-3


# the probes sit on a grid of 1/16 over every row drawn, so they hit every
# edge and every gap exactly
_probes = np.arange(-80 * 16, 80 * 16 + 1) / 16


def _naive_contains(rows, t):
    rows = np.asarray(rows).reshape(-1, 2)
    return ((t[:, None] >= rows[None, :, 0]) & (t[:, None] < rows[None, :, 1])).any(axis=1)


def _assert_canonical(s):
    assert s.shape == (len(s), 2)
    assert np.all(s[:, 1] > s[:, 0])
    assert np.all(s[1:, 0] > s[:-1, 1])


@settings(max_examples=200, deadline=None)
@given(rows=_herald_rows())
def test_as_interval_set_and_contains_match_naive_membership(rows):
    s = iv.as_interval_set(rows[:, 0], rows[:, 1])
    _assert_canonical(s)
    want = _naive_contains(rows, _probes)
    assert np.array_equal(_naive_contains(s, _probes), want)
    assert np.array_equal(iv.contains(s, _probes), want)


@settings(max_examples=200, deadline=None)
@given(a=_herald_rows(), b=_herald_rows())
def test_intersect_matches_naive_membership(a, b):
    sa, sb = iv.as_interval_set(a[:, 0], a[:, 1]), iv.as_interval_set(b[:, 0], b[:, 1])
    got = iv.intersect(sa, sb)
    assert np.all(got[:, 1] > got[:, 0])
    assert np.all(got[1:, 0] >= got[:-1, 1])
    want = _naive_contains(a, _probes) & _naive_contains(b, _probes)
    assert np.array_equal(_naive_contains(got, _probes), want)


@settings(max_examples=200, deadline=None)
@given(a=_herald_rows(), lo=st.integers(-300, 300), width=st.integers(0, 300))
@example(a=np.array([[0.0, 0.125]]), lo=0, width=0)  # empty span: no zero-length row
def test_complement_matches_naive_membership(a, lo, width):
    span = (lo / 8, (lo + width) / 8)
    s = iv.as_interval_set(a[:, 0], a[:, 1])
    got = iv.complement(s, span)
    assert np.all(got[:, 1] > got[:, 0])
    assert np.all(got[1:, 0] >= got[:-1, 1])
    in_span = (_probes >= span[0]) & (_probes < span[1])
    assert np.array_equal(_naive_contains(got, _probes), in_span & ~_naive_contains(a, _probes))


class _ScriptedRng:
    """Stands in for a Generator in ``sample_poisson``: returns a fixed count
    and fixed exponential spacings."""

    def __init__(self, spacings):
        self.spacings = np.asarray(spacings, dtype=np.float64)

    def poisson(self, lam):
        return len(self.spacings) - 1

    def standard_exponential(self, size):
        assert size == len(self.spacings)
        return self.spacings


def _place_per_point(intervals, u):
    """The per-point placement ``sample_poisson`` must reproduce."""
    cum = np.concatenate([[0.0], np.cumsum(intervals[:, 1] - intervals[:, 0])])
    idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(intervals) - 1)
    return intervals[idx, 0] + (u - cum[idx])


def test_sample_poisson_points_on_interior_edges():
    # spacings summing to the total length 4 put u at 0.5, 1, 2, 3, 3.5 exactly;
    # u = 1 and u = 3 are interior cumulative edges and open the next row
    s = np.array([[0.0, 1.0], [5.0, 7.0], [10.0, 11.0]])
    pts = iv.sample_poisson(s, 1.0, _ScriptedRng([0.5, 0.5, 1.0, 1.0, 0.5, 0.5]))
    assert pts.tolist() == [0.5, 5.0, 6.0, 10.0, 10.5]
    assert np.array_equal(pts, _place_per_point(s, np.array([0.5, 1.0, 2.0, 3.0, 3.5])))
    # fewer points than rows: u = 1 and u = 3 alone
    pts = iv.sample_poisson(s, 1.0, _ScriptedRng([1.0, 2.0, 1.0]))
    assert pts.tolist() == [5.0, 10.0]


@settings(max_examples=300, deadline=None)
@given(s=_interval_sets, data=st.data())
def test_sample_poisson_placement_matches_per_point_search(s, data):
    # u on the 1/8 grid of the interval edges (so it hits them), spacings of
    # total exactly L, hence L / total == 1 and u comes out unrounded
    L = iv.total_length(s)
    if L == 0:
        return
    k = np.sort(data.draw(st.lists(st.integers(0, int(L * 8)), min_size=1, max_size=60)))
    u = k / 8
    pts = iv.sample_poisson(s, 1.0, _ScriptedRng(np.diff(u, prepend=0.0, append=L)))
    assert np.array_equal(pts, _place_per_point(s, u))


@settings(max_examples=200, deadline=None)
@given(s=_interval_sets, rate=st.floats(1e-2, 50.0), seed=st.integers(0, 2**32 - 1))
def test_sample_poisson_placement_matches_per_point_search_on_draws(s, rate, seed):
    pts = iv.sample_poisson(s, rate, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    L = iv.total_length(s)
    if L == 0 or len(pts) == 0:
        return
    u = np.cumsum(rng.standard_exponential(rng.poisson(rate * L) + 1))
    u = u[:-1] * (L / u[-1])
    assert np.array_equal(pts, _place_per_point(s, u))



@settings(max_examples=200, deadline=None)
@given(rows=_herald_rows())
def test_length_below_matches_a_loop_over_rows(rows):
    # the union of rows of one width around sorted centres, measured below
    # each probe without merging, against a loop over the merged rows; on the
    # 1/16 grid every length is an exact float, so the two agree exactly
    half = (rows[0, 1] - rows[0, 0]) / 2 if len(rows) else 1.0
    merged = []
    for a, b in rows.tolist():
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    want = [sum(max(0.0, min(b, t) - a) for a, b in merged) for t in _probes]
    assert np.array_equal(iv.length_below(rows.mean(axis=1), half, _probes), want)
