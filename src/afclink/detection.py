"""Single-photon detection and start-stop coincidence analysis.

Detection applies per-photon quantum efficiency, Gaussian timing jitter,
Poisson dark counts, and a non-paralyzable dead time (a click within the
dead time of the previous *registered* click is discarded).

Histogramming is multi-stop: every signal detection within the configured
delay range of a herald increments the bin containing tau = t_signal -
t_herald, for every such herald.  Partial histograms merge by elementwise
addition, so shards can be accumulated in any order.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .events import ORIGIN_DARK_COUNT, EventBatch
from .intervals import ragged_offsets


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


def dead_time_filter(times: np.ndarray, dead_time: float) -> np.ndarray:
    """Boolean keep-mask implementing a non-paralyzable dead time on sorted times."""
    n = len(times)
    keep = np.ones(n, dtype=bool)
    if dead_time <= 0 or n < 2:
        return keep
    idx = np.arange(n)
    while True:
        t = times[idx]
        gaps = np.diff(t)
        bad = np.concatenate([[False], gaps < dead_time])
        if not bad.any():
            break
        # drop only clicks whose predecessor survives this pass; iterate for runs
        drop = bad & ~np.concatenate([[False], bad[:-1]])
        idx = idx[~drop]
    keep[:] = False
    keep[idx] = True
    return keep


def detect(
    events: EventBatch,
    spd: SPDConfig,
    window: tuple[float, float],
    rng: np.random.Generator,
    arm: int | None = None,
) -> EventBatch:
    """Detection records for one detector over ``window``.

    Draw order is fixed (efficiency thinning, jitter, dark counts, dead
    time) so runs are reproducible per stream.  ``arm`` tags the dark
    counts when the input batch is empty.
    """
    t0, t1 = window
    if not t1 > t0:
        raise ValueError("window must satisfy t1 > t0")

    kept = events.select(rng.random(len(events)) < spd.efficiency) if len(events) else events
    times = kept.time
    if spd.jitter_fwhm > 0 and len(times):
        sigma = spd.jitter_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        times = times + sigma * rng.standard_normal(len(times))

    n_dark = rng.poisson(spd.dark_rate * (t1 - t0))
    dark_times = np.sort(rng.uniform(t0, t1, size=n_dark))
    dark_arm = arm if arm is not None else (kept.arm[0] if len(kept) else 0)
    darks = EventBatch(
        dark_times,
        np.zeros(n_dark),
        np.full(n_dark, dark_arm, dtype=np.uint8),
        np.full(n_dark, ORIGIN_DARK_COUNT, dtype=np.uint8),
    )

    merged = EventBatch.concatenate(
        [EventBatch(times, kept.mode_offset, kept.arm, kept.origin, kept.pair_id), darks]
    ).sorted_by_time()
    return merged.select(dead_time_filter(merged.time, spd.dead_time))


@dataclass
class CoincidenceHistogram:
    """Binned herald-to-signal delays with signal/noise window bookkeeping."""

    bin_width: float = 0.128e-9
    tau_min: float = -200e-9
    tau_max: float = 1400e-9
    signal_window: tuple[float, float] = (900e-9, 1150e-9)
    noise_window: tuple[float, float] = (1155e-9, 1195e-9)
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ValueError("bin_width must be > 0")
        if not self.tau_min < self.tau_max:
            raise ValueError("range must satisfy tau_min < tau_max")
        for name, (a, b) in (("signal_window", self.signal_window), ("noise_window", self.noise_window)):
            if not (self.tau_min <= a < b <= self.tau_max):
                raise ValueError(f"{name} must lie inside the histogram range")
        s, nw = self.signal_window, self.noise_window
        if max(s[0], nw[0]) < min(s[1], nw[1]):
            raise ValueError("signal and noise windows must be disjoint")
        if self.counts is None:
            self.counts = np.zeros(self.n_bins, dtype=np.int64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != (self.n_bins,):
                raise ValueError("counts length must match the bin count")
            if np.any(self.counts < 0):
                raise ValueError("counts must be nonnegative")

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

    def window_counts(self, window: tuple[float, float]) -> int:
        return int(self.counts[self._window_slice(window)].sum())

    def window_bins(self, window: tuple[float, float]) -> int:
        sl = self._window_slice(window)
        return sl.stop - sl.start

    def total(self) -> int:
        return int(self.counts.sum())

    def __add__(self, other: "CoincidenceHistogram") -> "CoincidenceHistogram":
        for name in ("bin_width", "tau_min", "tau_max", "signal_window", "noise_window"):
            if getattr(self, name) != getattr(other, name):
                raise ValueError("histograms with different layouts cannot be merged")
        return CoincidenceHistogram(
            self.bin_width, self.tau_min, self.tau_max,
            self.signal_window, self.noise_window,
            self.counts + other.counts,
        )

    def to_csv(self, smoothed: np.ndarray | None = None) -> str:
        buf = io.StringIO()
        centers_ns = self.bin_centers() * 1e9
        if smoothed is None:
            buf.write("tau_ns,counts\n")
            for c, n in zip(centers_ns, self.counts):
                buf.write(f"{c:.4f},{n}\n")
        else:
            buf.write("tau_ns,counts,smoothed\n")
            for c, n, s in zip(centers_ns, self.counts, smoothed):
                buf.write(f"{c:.4f},{n},{s:.6f}\n")
        return buf.getvalue()


def accumulate_histogram(
    hist: CoincidenceHistogram,
    heralds: np.ndarray,
    signals: np.ndarray,
) -> None:
    """Add every (herald, signal) pair with in-range delay to ``hist`` (in place).

    Both inputs must be sorted.  Multi-stop semantics: a signal pairs with
    every herald whose delay falls in range, and vice versa.
    """
    heralds = np.asarray(heralds, dtype=np.float64)
    signals = np.asarray(signals, dtype=np.float64)
    if len(heralds) == 0 or len(signals) == 0:
        return
    # probe from the shorter stream; tau in [tau_min, tau_max)
    if len(heralds) <= len(signals):
        lo = np.searchsorted(signals, heralds + hist.tau_min, side="left")
        hi = np.searchsorted(signals, heralds + hist.tau_max, side="left")
        counts = np.maximum(hi - lo, 0)
        if counts.sum() == 0:
            return
        h_idx = np.repeat(np.arange(len(heralds)), counts)
        s_idx = np.repeat(lo, counts) + ragged_offsets(counts)
    else:
        lo = np.searchsorted(heralds, signals - hist.tau_max, side="right")
        hi = np.searchsorted(heralds, signals - hist.tau_min, side="right")
        counts = np.maximum(hi - lo, 0)
        if counts.sum() == 0:
            return
        s_idx = np.repeat(np.arange(len(signals)), counts)
        h_idx = np.repeat(lo, counts) + ragged_offsets(counts)
    tau = signals[s_idx] - heralds[h_idx]
    bins = hist.bin_index(tau)
    valid = (bins >= 0) & (bins < hist.n_bins)
    hist.counts += np.bincount(bins[valid], minlength=hist.n_bins).astype(hist.counts.dtype)


def build_histogram(
    heralds: np.ndarray,
    signals: np.ndarray,
    bin_width: float,
    tau_range: tuple[float, float],
    signal_window: tuple[float, float] | None = None,
    noise_window: tuple[float, float] | None = None,
) -> CoincidenceHistogram:
    """Multi-stop start-stop histogram of t_signal - t_herald over ``tau_range``."""
    kwargs = {}
    if signal_window is not None:
        kwargs["signal_window"] = signal_window
    if noise_window is not None:
        kwargs["noise_window"] = noise_window
    hist = CoincidenceHistogram(bin_width, tau_range[0], tau_range[1], **kwargs)
    accumulate_histogram(hist, heralds, signals)
    return hist


def moving_average(hist: CoincidenceHistogram | np.ndarray, n_bins: int) -> np.ndarray:
    """Centered boxcar average over ``n_bins`` bins; edges use truncated windows.

    For even ``n_bins`` the window takes one extra bin on the left of the
    center, i.e. bins [i - n//2, i + (n-1)//2].
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    counts = hist.counts if isinstance(hist, CoincidenceHistogram) else np.asarray(hist)
    counts = counts.astype(np.float64)
    if n_bins == 1:
        return counts.copy()
    n = len(counts)
    cum = np.concatenate([[0.0], np.cumsum(counts)])
    left = np.clip(np.arange(n) - n_bins // 2, 0, n)
    right = np.clip(np.arange(n) + (n_bins - 1) // 2 + 1, 0, n)
    return (cum[right] - cum[left]) / (right - left)


def compute_snr(hist: CoincidenceHistogram) -> float:
    """(S - N) / N with S the signal-window counts and N the noise-window
    counts rescaled to the signal window's duration."""
    s = float(hist.window_counts(hist.signal_window))
    noise_raw = float(hist.window_counts(hist.noise_window))
    n_bins_noise = hist.window_bins(hist.noise_window)
    n_bins_signal = hist.window_bins(hist.signal_window)
    if n_bins_noise == 0 or noise_raw <= 0:
        raise ValueError("noise floor unresolved")
    n = noise_raw * (n_bins_signal / n_bins_noise)
    return (s - n) / n
