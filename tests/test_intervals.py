import numpy as np
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


def test_intersect_drops_zero_length_rows():
    # complement hands intersect a zero-length span when span0 == span1
    assert iv.intersect(np.array([[0.0, 10.0]]), np.array([[5.0, 5.0]])).shape == (0, 2)
    assert iv.intersect(np.array([[5.0, 5.0]]), np.array([[0.0, 10.0]])).shape == (0, 2)


def test_contains_membership():
    s = np.array([[0.0, 1.0], [2.0, 3.0]])
    t = np.array([-0.5, 0.5, 1.5, 2.0, 2.9, 3.0])
    assert list(iv.contains(s, t)) == [False, True, False, True, True, False]


def test_total_length_and_complement_roundtrip():
    rng = np.random.default_rng(3)
    starts = np.sort(rng.uniform(0, 100, 50))
    ends = starts + rng.uniform(0.1, 3.0, 50)
    s = iv.as_interval_set(starts, ends)
    c = iv.complement(s, (-10.0, 120.0))
    assert iv.total_length(s) + iv.total_length(c) == pytest_approx(130.0)


def pytest_approx(x):
    import pytest

    return pytest.approx(x, rel=1e-12)


def test_sample_poisson_rate():
    rng = np.random.default_rng(11)
    s = np.array([[0.0, 2.0], [10.0, 14.0]])  # total length 6
    n = len(iv.sample_poisson(s, 5000.0, rng))
    assert abs(n - 30000) < 3 * np.sqrt(30000)
    pts = iv.sample_poisson(s, 1000.0, rng)
    assert np.all(iv.contains(s, pts))
    assert np.all(np.diff(pts) >= 0)


# interval sets on a grid of 1/8, so lengths and their sums are exact floats
_interval_sets = st.lists(
    st.tuples(st.integers(-4000, 4000), st.integers(1, 400)), max_size=20
).map(lambda rows: iv.as_interval_set([a / 8 for a, _ in rows], [(a + w) / 8 for a, w in rows]))


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


# raw, possibly overlapping, unsorted or empty rows on a grid of 1/8; the
# probes sit on a grid of 1/16, so they hit every edge and every gap exactly
_raw_rows = st.lists(
    st.tuples(st.integers(-200, 200), st.integers(-8, 80)), max_size=20
).map(lambda rows: np.array([[a / 8, (a + w) / 8] for a, w in rows]).reshape(-1, 2))
_probes = np.arange(-40 * 16, 40 * 16 + 1) / 16


def _naive_contains(rows, t):
    rows = np.asarray(rows).reshape(-1, 2)
    return ((t[:, None] >= rows[None, :, 0]) & (t[:, None] < rows[None, :, 1])).any(axis=1)


def _assert_canonical(s):
    assert s.shape == (len(s), 2)
    assert np.all(s[:, 1] > s[:, 0])
    assert np.all(s[1:, 0] > s[:-1, 1])


@settings(max_examples=200, deadline=None)
@given(rows=_raw_rows)
def test_as_interval_set_and_contains_match_naive_membership(rows):
    s = iv.as_interval_set(rows[:, 0], rows[:, 1])
    _assert_canonical(s)
    want = _naive_contains(rows, _probes)
    assert np.array_equal(_naive_contains(s, _probes), want)
    assert np.array_equal(iv.contains(s, _probes), want)


@st.composite
def _herald_rows(draw):
    """Sorted points plus constant offsets, as the closures and the
    herald-relative set are built on the sorted herald stream, on a grid of
    1/8; gaps below the width merge rows.  Optionally one row is nested in
    its predecessor with a lower end, so the starts stay sorted and the ends
    do not."""
    width = draw(st.integers(1, 40))
    starts = np.cumsum(draw(st.lists(st.integers(0, 60), min_size=1, max_size=40)))
    starts += draw(st.integers(-50, 50))
    ends = starts + width
    # row k can end strictly between its own start and its predecessor's end
    nestable = np.flatnonzero(ends[:-1] - starts[1:] >= 2) + 1
    if nestable.size and draw(st.booleans()):
        k = draw(st.sampled_from(nestable.tolist()))
        ends[k] = draw(st.integers(int(starts[k]) + 1, int(ends[k - 1]) - 1))
    return np.stack([starts, ends], axis=1) / 8


@settings(max_examples=300, deadline=None)
@given(rows=_herald_rows())
@example(rows=np.array([[0.0, 10.0], [1.0, 2.0], [5.0, 6.0]]))  # nested row, lower end
def test_as_interval_set_sorted_rows_match_reversed_copy(rows):
    # the reversed copy takes the sorting path; the canonical form is unique,
    # so the two results agree element for element
    got = iv.as_interval_set(rows[:, 0], rows[:, 1])
    _assert_canonical(got)
    want = iv.as_interval_set(rows[::-1, 0], rows[::-1, 1])
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(a=_raw_rows, b=_raw_rows)
def test_intersect_matches_naive_membership(a, b):
    sa, sb = iv.as_interval_set(a[:, 0], a[:, 1]), iv.as_interval_set(b[:, 0], b[:, 1])
    got = iv.intersect(sa, sb)
    assert np.all(got[:, 1] > got[:, 0])
    assert np.all(got[1:, 0] >= got[:-1, 1])
    want = _naive_contains(a, _probes) & _naive_contains(b, _probes)
    assert np.array_equal(_naive_contains(got, _probes), want)


@settings(max_examples=200, deadline=None)
@given(a=_raw_rows, lo=st.integers(-300, 300), width=st.integers(0, 300))
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

