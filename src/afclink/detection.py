"""Single-photon detection and start-stop coincidence analysis.

Detection applies Gaussian timing jitter, Poisson dark counts (drawn by
the caller), and a non-paralyzable dead time (a click within the dead time of the previous
*registered* click is discarded) to photons the caller has already thinned
by the detector efficiency.

Histogramming is multi-stop: every signal detection within the configured
delay range of a herald increments the bin containing tau = t_signal -
t_herald, for every such herald.  Partial histograms merge by elementwise
addition, so shards can be accumulated in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import intervals as iv

#: origin codes of a detection record
ORIGIN_PAIR = 0
ORIGIN_CONVERSION_NOISE = 1
ORIGIN_DARK_COUNT = 2

#: companion-column value of a dark count, which had no memory outcome
NO_OUTCOME = 255


@dataclass(frozen=True)
class SPDConfig:
    """Single-photon detector: efficiency, dark rate, dead time, jitter."""

    efficiency: float = 0.5
    dark_rate: float = 100.0  # counts/s
    dead_time: float = 50e-9
    jitter_fwhm: float = 100e-12

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must be in [0, 1]")
        if self.dark_rate < 0 or self.dead_time < 0 or self.jitter_fwhm < 0:
            raise ValueError("dark_rate, dead_time and jitter_fwhm must be >= 0")

    @property
    def jitter_sigma(self) -> float:
        return self.jitter_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def dead_time_filter(times: np.ndarray, dead_time: float) -> np.ndarray:
    """Boolean keep-mask implementing a non-paralyzable dead time on sorted times.

    A click at least one dead time after its predecessor is always kept, so
    the runs of clicks joined by sub-dead-time gaps cannot interact.  When no
    gap is below the dead time every click is kept after one pass over the
    gaps; otherwise only the clicks of those runs go through the multi-pass
    loop, which drops, in each pass, every click whose predecessor survives.
    """
    n = len(times)
    keep = np.ones(n, dtype=bool)
    close = np.diff(times) < dead_time
    if not close.any():
        return keep
    member = np.zeros(n, dtype=bool)
    member[1:] = close
    member[:-1] |= close
    idx = np.flatnonzero(member)
    keep[idx] = False
    while True:
        t = times[idx]
        gaps = np.diff(t)
        bad = np.concatenate([[False], gaps < dead_time])
        if not bad.any():
            break
        # drop only clicks whose predecessor survives this pass; iterate for runs
        drop = bad & ~np.concatenate([[False], bad[:-1]])
        idx = idx[~drop]
    keep[idx] = True
    return keep


def detect(
    times: np.ndarray,
    spd: SPDConfig,
    darks: np.ndarray,
    rng: np.random.Generator,
    *cols: np.ndarray,
    noise: np.ndarray = np.empty(0),
) -> tuple[np.ndarray, ...]:
    """Detection records of one detector for photons at ``times`` that are
    already thinned by ``spd.efficiency`` (each arm draws that thinning
    itself), together with its dark counts ``darks``, drawn by the caller
    at ``spd.dark_rate`` on the transmission windows (the engine draws them
    early, before the photons they join exist).

    The photons take the jitter, the one draw, then the stream is
    time-sorted and dead-time filtered.  The companion columns ``cols`` stay
    aligned with the times; dark counts get ORIGIN_DARK_COUNT in the first
    column (which must be the origin column) and NO_OUTCOME in the others.
    Returns ``(times, *cols)``, sorted by time.

    ``noise`` is an optional run of converter-noise clicks that are already
    thinned and take no jitter.  The herald arm passes its N0 noise this
    way: a jittered Poisson process on the windows is again Poisson, with the
    window indicator convolved with the jitter kernel (displacement
    theorem), so skipping the jitter changes only the clicks within a few
    jitter widths of a window edge, about 1e-10 of them at the flagship
    working point (see the ``pipeline`` docstring).  The noise run draws
    nothing; its clicks follow the darks, with ORIGIN_CONVERSION_NOISE in
    the origin column and NO_OUTCOME in the others.  One stable sort orders
    the stream: on equal times a photon, then a dark, then a noise click.
    """
    t = times
    if spd.jitter_fwhm > 0:
        t = t + spd.jitter_sigma * rng.standard_normal(len(t))
    origin = np.repeat([ORIGIN_DARK_COUNT, ORIGIN_CONVERSION_NOISE], [len(darks), len(noise)])
    t = np.concatenate([t, darks, noise])
    cols = [
        np.concatenate([c, (origin if i == 0 else np.full(len(origin), NO_OUTCOME)).astype(c.dtype)])
        for i, c in enumerate(cols)
    ]
    order = np.argsort(t, kind="stable")
    t = t[order]
    cols = [c[order] for c in cols]
    alive = dead_time_filter(t, spd.dead_time)
    return (t[alive], *[c[alive] for c in cols])


@dataclass(frozen=True)
class HistogramLayout:
    """Delay range, bin width and signal/noise windows of a coincidence
    histogram (seconds); bins cover [tau_min, tau_max)."""

    bin_width: float = 0.128e-9
    tau_min: float = -200e-9
    tau_max: float = 1400e-9
    signal_window: tuple[float, float] = (900e-9, 1150e-9)
    noise_window: tuple[float, float] = (1155e-9, 1195e-9)

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ValueError("bin_width must be > 0")
        if not self.tau_min < self.tau_max:
            raise ValueError("range must satisfy tau_min < tau_max")
        for name, (a, b) in (("signal_window", self.signal_window), ("noise_window", self.noise_window)):
            if not (self.tau_min <= a < b <= self.tau_max):
                raise ValueError(f"{name} must lie inside the histogram range")
            if self.window_bins((a, b)) < 1:
                raise ValueError(f"{name} must hold at least one whole bin of width {self.bin_width:g} s")
        s, nw = self.signal_window, self.noise_window
        if max(s[0], nw[0]) < min(s[1], nw[1]):
            raise ValueError("signal and noise windows must be disjoint")

    @property
    def n_bins(self) -> int:
        return int(math.ceil((self.tau_max - self.tau_min) / self.bin_width))

    def bin_index(self, tau) -> np.ndarray:
        return np.floor((np.asarray(tau) - self.tau_min) / self.bin_width).astype(np.int64)

    def bin_centers(self) -> np.ndarray:
        return self.tau_min + self.bin_width * (np.arange(self.n_bins) + 0.5)

    def _window_slice(self, window: tuple[float, float]) -> slice:
        a = int(np.ceil((window[0] - self.tau_min) / self.bin_width - 1e-9))
        b = int(np.floor((window[1] - self.tau_min) / self.bin_width + 1e-9))
        return slice(max(a, 0), min(b, self.n_bins))

    def window_bins(self, window: tuple[float, float]) -> int:
        sl = self._window_slice(window)
        return sl.stop - sl.start


@dataclass(frozen=True)
class CoincidenceHistogram(HistogramLayout):
    """Binned herald-to-signal delays on a layout; ``counts`` is updated in place."""

    counts: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        super().__post_init__()
        counts = np.zeros(self.n_bins, np.int64) if self.counts is None else np.asarray(self.counts, np.int64)
        if counts.shape != (self.n_bins,):
            raise ValueError("counts length must match the bin count")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    def window_counts(self, window: tuple[float, float]) -> int:
        return int(self.counts[self._window_slice(window)].sum())

    def to_csv(self, smoothed: np.ndarray) -> str:
        n = self.n_bins
        flat = [None] * (3 * n)
        flat[0::3] = (self.bin_centers() * 1e9).tolist()
        flat[1::3] = self.counts.tolist()
        flat[2::3] = np.asarray(smoothed).tolist()
        return "tau_ns,counts,smoothed\n" + ("%.4f,%d,%.6f\n" * n) % tuple(flat)


def heralds_in_range(heralds: np.ndarray, clicks: np.ndarray, lo: float, hi: float):
    """Per click at ``t``: the index of the first herald ``h`` with ``lo <= t - h < hi``
    and how many consecutive heralds meet it, compared as ``t - hi < h <= t - lo``.
    Both inputs must be sorted, and ``lo <= hi``."""
    first = np.searchsorted(heralds, clicks - hi, side="right")
    return first, np.searchsorted(heralds, clicks - lo, side="right") - first


def accumulate_histogram(
    hist: CoincidenceHistogram,
    heralds: np.ndarray,
    signals: np.ndarray,
) -> None:
    """Add every (herald, signal) pair with in-range delay to ``hist`` (in place).

    Both inputs must be sorted.  Multi-stop semantics: a signal pairs with
    every herald whose delay falls in range, and vice versa.  Each signal
    probes the herald stream for the heralds with tau in [tau_min, tau_max):
    the signals are the shorter stream at the shipped working points (heralds
    outnumber them about 23 to 1 in the flagship and 2 to 1 at 14 mW pump
    and 2e4 pairs/s), and the pairs counted do not depend on the direction.
    """
    heralds = np.asarray(heralds, dtype=np.float64)
    signals = np.asarray(signals, dtype=np.float64)
    lo, counts = heralds_in_range(heralds, signals, hist.tau_min, hist.tau_max)
    s_idx = np.repeat(np.arange(len(signals)), counts)
    h_idx = iv.ragged_ranges(lo, counts)
    tau = signals[s_idx] - heralds[h_idx]
    bins = hist.bin_index(tau)
    valid = (bins >= 0) & (bins < hist.n_bins)
    hist.counts[:] += np.bincount(bins[valid], minlength=hist.n_bins)


def moving_average(counts: np.ndarray, n_bins: int) -> np.ndarray:
    """Centered boxcar average over ``n_bins`` bins; edges use truncated windows.

    For even ``n_bins`` the window takes one extra bin on the left of the
    center, i.e. bins [i - n//2, i + (n-1)//2].
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    counts = np.asarray(counts, dtype=np.float64)
    n = len(counts)
    cum = np.concatenate([[0.0], np.cumsum(counts)])
    left = np.clip(np.arange(n) - n_bins // 2, 0, n)
    right = np.clip(np.arange(n) + (n_bins - 1) // 2 + 1, 0, n)
    return (cum[right] - cum[left]) / (right - left)


def scaled_floor(hist: CoincidenceHistogram) -> float:
    """N: the noise-window counts rescaled to the signal window's duration.
    Raises ``ValueError`` while the noise window holds no count."""
    noise_raw = hist.window_counts(hist.noise_window)
    if noise_raw <= 0:
        raise ValueError("noise floor unresolved")
    return noise_raw * hist.window_bins(hist.signal_window) / hist.window_bins(hist.noise_window)


def compute_snr(hist: CoincidenceHistogram) -> float:
    """(S - N) / N with S the signal-window counts and N ``scaled_floor``."""
    n = scaled_floor(hist)
    return (hist.window_counts(hist.signal_window) - n) / n
