import numpy as np
from hypothesis import given, settings
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
