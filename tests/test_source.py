import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from afclink import intervals as iv
from afclink.source import SourceConfig, _invert_cdf, pair_delays, sample_pairs, tpc_mode_offsets


def _span(t0, t1):
    return np.array([[t0, t1]])


def test_zero_rate_is_empty():
    cfg = SourceConfig(total_pair_rate=0.0)
    times, mode_idx = sample_pairs(cfg, _span(0.0, 10.0), np.random.default_rng(0))
    assert len(times) == 0 and len(mode_idx) == 0


def test_poisson_mean_pair_count():
    cfg = SourceConfig(total_pair_rate=100.0, n_modes=5)
    rng = np.random.default_rng(12)
    n_trials = 400
    counts = [len(sample_pairs(cfg, _span(0.0, 1.0), rng)[0]) for _ in range(n_trials)]
    se = np.sqrt(100.0 / n_trials)
    assert np.mean(counts) == pytest.approx(100.0, abs=3 * se)


def test_mode_histogram_matches_weights():
    w = np.array([0.5, 0.3, 0.2])
    cfg = SourceConfig(total_pair_rate=20000.0, n_modes=3, mode_weights=tuple(w))
    _, mode_idx = sample_pairs(cfg, _span(0.0, 1.0), np.random.default_rng(9))
    counts = np.bincount(mode_idx, minlength=3)
    res = stats.chisquare(counts, w * counts.sum())
    assert res.pvalue > 0.001


@pytest.mark.parametrize(
    "n_modes, weights",
    [
        (25, None),
        (1, None),
        (4, (0.97, 0.01, 0.01, 0.01)),
        (6, (0.0, 0.5, 0.0, 0.0, 0.25, 0.25)),  # zero weights repeat cdf entries
        (5, (0.5, 0.5, 0.0, 0.0, 0.0)),  # trailing zeros repeat the final 1.0
    ],
)
@pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.Philox, np.random.SFC64])
def test_mode_draw_equals_generator_choice(n_modes, weights, bitgen):
    cfg = SourceConfig(total_pair_rate=40000.0, n_modes=n_modes, mode_weights=weights)
    windows = np.array([[0.0, 0.5], [1.0, 1.25]])
    rng = np.random.Generator(bitgen(123))
    times, mode_idx = sample_pairs(cfg, windows, rng)
    ref = np.random.Generator(bitgen(123))
    want_times = iv.sample_poisson(windows, cfg.total_pair_rate, ref)
    want = ref.choice(cfg.n_modes, size=len(want_times), p=cfg.weights())
    assert np.array_equal(times, want_times)
    assert np.array_equal(mode_idx, want)
    assert rng.random() == ref.random()  # same number of draws consumed


def _weights():
    # 1-30 modes; zero weights at either end or in a run repeat cdf entries
    weight = st.one_of(st.just(0.0), st.floats(1e-9, 1.0), st.integers(1, 3).map(float))
    return st.lists(weight, min_size=1, max_size=30).filter(lambda w: sum(w) > 0)


@settings(max_examples=400, deadline=None)
@given(weights=_weights(), seed=st.integers(0, 2**32 - 1))
@example(weights=[1.0], seed=0)  # one mode: every key maps to 0
@example(weights=[0.0, 0.0, 1.0, 2.0], seed=0)  # leading zeros: cdf entries at 0.0
@example(weights=[1.0, 2.0, 0.0, 0.0], seed=0)  # trailing zeros: cdf entries at 1.0
@example(weights=[1.0, 0.0, 0.0, 0.0, 1.0], seed=0)  # a run of zeros in the middle
def test_invert_cdf_matches_searchsorted(weights, seed):
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    near = np.concatenate([cdf, np.nextafter(cdf, -1.0), np.nextafter(cdf, 2.0), [0.0, np.nextafter(1.0, 0.0)]])
    u = np.random.default_rng(seed).permutation(near[(near >= 0.0) & (near < 1.0)])
    got = _invert_cdf(cdf, u)
    assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))


def test_same_mode_double_pair_probability():
    # chop one long stream into windows and count multi-pair modes; the
    # small-occupancy law is (rate * tau / n_modes)^2 / 2 per mode
    n_modes, rate, tau, n_win = 25, 5000.0, 0.75e-3, 40000
    mu = rate * tau / n_modes
    cfg = SourceConfig(total_pair_rate=rate, n_modes=n_modes)
    times, mode_idx = sample_pairs(cfg, _span(0.0, n_win * tau), np.random.default_rng(31))
    win_idx = np.floor(times / tau).astype(np.int64)
    cells = np.bincount(win_idx * n_modes + mode_idx, minlength=n_win * n_modes)
    p_hat = np.mean(cells >= 2)
    p_exact = 1.0 - np.exp(-mu) * (1.0 + mu)
    sigma = np.sqrt(p_exact / (n_win * n_modes))
    assert p_hat == pytest.approx(p_exact, abs=4 * sigma)
    assert p_hat == pytest.approx(mu**2 / 2.0, rel=0.15)


def test_correlation_standard_deviation():
    cfg = SourceConfig(total_pair_rate=50000.0, linewidth=7.1e6)
    rng = np.random.default_rng(4)
    times, _ = sample_pairs(cfg, _span(0.0, 2.0), rng)
    delta = pair_delays(cfg, len(times), rng)
    tau_c = 1.0 / (2 * np.pi * 7.1e6)
    assert tau_c == pytest.approx(22.4e-9, rel=0.01)
    assert np.std(delta) == pytest.approx(np.sqrt(2) * tau_c, rel=0.02)


def test_correlation_symmetry_ks():
    cfg = SourceConfig(total_pair_rate=30000.0)
    rng = np.random.default_rng(6)
    times, _ = sample_pairs(cfg, _span(0.0, 2.0), rng)
    delta = pair_delays(cfg, len(times), rng)
    res = stats.ks_2samp(delta, -delta)
    assert res.pvalue > 0.01


def test_correlation_is_laplace_ks():
    # std and symmetry alone admit a Gaussian of the same width; the one-sample
    # KS test pins the two-sided exponential shape
    cfg = SourceConfig(total_pair_rate=30000.0)
    delta = pair_delays(cfg, 20000, np.random.Generator(np.random.SFC64(10)))
    res = stats.kstest(delta, stats.laplace(scale=cfg.coherence_time).cdf)
    assert res.pvalue > 0.01


def test_broadband_limit_removes_offsets():
    cfg = SourceConfig(total_pair_rate=5000.0, linewidth=1e18)
    rng = np.random.default_rng(8)
    times, _ = sample_pairs(cfg, _span(0.0, 1.0), rng)
    delta = pair_delays(cfg, len(times), rng)
    assert np.max(np.abs(delta)) < 1e-15


def test_streams_sorted_and_deterministic():
    cfg = SourceConfig(total_pair_rate=1000.0)
    windows = np.array([[0.0, 2.0], [2.5, 5.0]])
    a, mode_a = sample_pairs(cfg, windows, np.random.default_rng(55))
    b, mode_b = sample_pairs(cfg, windows, np.random.default_rng(55))
    assert np.array_equal(a, b) and np.array_equal(mode_a, mode_b)
    assert np.all(np.diff(a) >= 0)
    assert not np.any((a >= 2.0) & (a < 2.5))


def test_config_validation():
    with pytest.raises(ValueError):
        SourceConfig(total_pair_rate=-1.0)
    with pytest.raises(ValueError):
        SourceConfig(total_pair_rate=1.0, n_modes=2, mode_weights=(0.5, 0.4))
    with pytest.raises(ValueError):
        SourceConfig(total_pair_rate=1.0, linewidth=0.0)


# -- the comb's mode plan ------------------------------------------------------

def test_tpc_single_mode():
    assert list(tpc_mode_offsets(1, 117.2e6)) == [0.0]


def test_tpc_25_modes_span():
    offs = tpc_mode_offsets(25, 117.2e6)
    assert len(offs) == 25
    assert offs[0] == pytest.approx(-1406.4e6)
    assert offs[-1] == pytest.approx(1406.4e6)
    assert np.allclose(np.diff(offs), 117.2e6)


def test_tpc_five_modes():
    offs = tpc_mode_offsets(5, 117.2e6)
    assert np.allclose(offs, [-234.4e6, -117.2e6, 0.0, 117.2e6, 234.4e6])


def test_tpc_even_mode_count_rejected():
    with pytest.raises(ValueError):
        tpc_mode_offsets(4, 117.2e6)


@pytest.mark.parametrize("n_modes, fsr, message", [(0, 117.2e6, "n_modes"), (25, 0.0, "fsr")])
def test_tpc_refuses_empty_plan_and_zero_fsr(n_modes, fsr, message):
    with pytest.raises(ValueError, match=message):
        tpc_mode_offsets(n_modes, fsr)
