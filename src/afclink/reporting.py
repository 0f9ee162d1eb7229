"""Run reports: histogram analysis, provenance, and file exports.

Everything in a report derives deterministically from (config, seed), so
two runs of the same scenario produce byte-identical payloads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .config import ScenarioConfig, config_hash
from .detection import CoincidenceHistogram, compute_snr, moving_average
from .lockchain import LockRunResult
from .pipeline import RawRunResult, run_raw

#: bins of adjacent averaging used for peak statistics (1.28 ns at the
#: default 0.128 ns resolution)
SMOOTHING_BINS = 10


def write_text(out_dir: str, name: str, text: str) -> None:
    """Write ``text`` to the file ``name`` in ``out_dir`` as UTF-8, making
    the directory if it is missing; every output file is written here."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


@dataclass
class RunReport:
    cfg: ScenarioConfig  # the run's provenance: its name, seed, duration and hash
    transmission_time: float
    histogram: CoincidenceHistogram
    smoothed: np.ndarray
    s_counts: int
    n_raw: int
    n_scaled: Optional[float]
    snr: Optional[float]
    snr_error: Optional[str]
    degenerate: bool
    peak: dict
    counts: dict
    lock_result: Optional[LockRunResult]  # None under an ideal lock, which has no telemetry

    def summary_dict(self) -> dict:
        return {
            "scenario": self.cfg.name,
            "seed": self.cfg.seed,
            "config_sha256": config_hash(self.cfg),
            "version": __version__,
            "duration": self.cfg.duration,
            "transmission_time": self.transmission_time,
            "S": self.s_counts,
            "N_raw": self.n_raw,
            "N_scaled": self.n_scaled,
            "snr": self.snr,
            "snr_error": self.snr_error,
            "degenerate": self.degenerate,
            "peak": self.peak,
            "counts": self.counts,
            "lock": None if self.lock_result is None else self.lock_result.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.summary_dict(), indent=2, sort_keys=True)

    def summary_csv(self) -> str:
        n = "" if self.n_scaled is None else f"{self.n_scaled:.3f}"
        snr = "" if self.snr is None else f"{self.snr:.4f}"
        cfg = self.cfg
        return (
            "scenario,S,N,snr,duration_s,seed\n"
            f"{cfg.name},{self.s_counts},{n},{snr},{cfg.duration:.1f},{cfg.seed}\n"
        )

    def write(self, out_dir: str) -> None:
        write_text(out_dir, "report.json", self.to_json())
        write_text(out_dir, "histogram.csv", self.histogram.to_csv(self.smoothed))
        write_text(out_dir, "summary.csv", self.summary_csv())
        if self.lock_result is not None:
            write_text(out_dir, "lock_telemetry.csv", self.lock_result.to_csv())


def peak_above_floor(hist: CoincidenceHistogram, smoothed: np.ndarray, echo_delay: float) -> dict:
    """Echo-peak statistics from ``smoothed``, the histogram averaged over
    SMOOTHING_BINS adjacent bins.

    ``peak_above_floor`` is the smoothed count at the expected echo delay
    minus the noise-window floor; reading the known echo position instead of
    searching for a maximum keeps the statistic unbiased (a max over many
    noisy bins rides several counts above the true peak), which matters for
    rate calibration.  The in-window maximum is reported alongside for
    display.
    """
    sl = hist._window_slice(hist.signal_window)
    peak_max = float(np.max(smoothed[sl]))
    raw_peak = int(np.max(hist.counts[sl]))
    floor = hist.window_counts(hist.noise_window) / hist.window_bins(hist.noise_window)
    at_echo = float(smoothed[int(np.clip(hist.bin_index(echo_delay), 0, hist.n_bins - 1))])
    return {
        "peak_raw": raw_peak,
        "peak_smoothed_max": peak_max,
        "peak_at_echo": at_echo,
        "floor_per_bin": float(floor),
        "peak_above_floor": float(at_echo - floor),
        "smoothing_bins": SMOOTHING_BINS,
    }


def analyze(cfg: ScenarioConfig, raw: RawRunResult) -> RunReport:
    hist = raw.histogram
    smoothed = moving_average(hist.counts, SMOOTHING_BINS)
    s = hist.window_counts(hist.signal_window)
    n_raw = hist.window_counts(hist.noise_window)

    snr = None
    snr_error = None
    n_scaled = None
    degenerate = False
    try:
        snr = compute_snr(hist)
        n_scaled = n_raw * hist.window_bins(hist.signal_window) / hist.window_bins(hist.noise_window)
        # flag runs whose excess over the floor is inside shot noise
        if abs(s - n_scaled) < 3.0 * np.sqrt(max(s + n_scaled, 1.0)):
            degenerate = True
    except ValueError as exc:
        snr_error = str(exc)
        degenerate = True

    return RunReport(
        cfg=cfg,
        transmission_time=raw.transmission_time,
        histogram=hist,
        smoothed=smoothed,
        s_counts=s,
        n_raw=n_raw,
        n_scaled=n_scaled,
        snr=snr,
        snr_error=snr_error,
        degenerate=degenerate,
        peak=peak_above_floor(hist, smoothed, cfg.memory.echo_delay),
        counts=raw.counters,
        lock_result=raw.lock_result,
    )


def run_scenario(
    cfg: ScenarioConfig, out_dir: Optional[str] = None, workers: Optional[int] = None
) -> RunReport:
    """Execute the full pipeline for one scenario and assemble the report.

    ``workers`` fans independent batches over forked processes; the result
    is bit-identical to the sequential run (per-batch random streams,
    associative merging).
    """
    report = analyze(cfg, run_raw(cfg, workers=workers))
    if out_dir is not None:
        report.write(out_dir)
    return report
