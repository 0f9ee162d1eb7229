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
from .pipeline import RawRunResult, run_raw

#: bins of adjacent averaging used for peak statistics (1.28 ns at the
#: default 0.128 ns resolution)
SMOOTHING_BINS = 10


@dataclass
class RunReport:
    scenario: str
    seed: int
    config_sha256: str
    version: str
    duration: float
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
    lock: Optional[dict]
    lock_result: object = None

    def summary_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "config_sha256": self.config_sha256,
            "version": self.version,
            "duration": self.duration,
            "transmission_time": self.transmission_time,
            "S": self.s_counts,
            "N_raw": self.n_raw,
            "N_scaled": self.n_scaled,
            "snr": self.snr,
            "snr_error": self.snr_error,
            "degenerate": self.degenerate,
            "peak": self.peak,
            "counts": self.counts,
            "lock": self.lock,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary_dict(), indent=2, sort_keys=True)

    def summary_csv(self) -> str:
        n = "" if self.n_scaled is None else f"{self.n_scaled:.3f}"
        snr = "" if self.snr is None else f"{self.snr:.4f}"
        return (
            "scenario,S,N,snr,duration_s,seed\n"
            f"{self.scenario},{self.s_counts},{n},{snr},{self.duration:.1f},{self.seed}\n"
        )

    def write(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
        with open(os.path.join(out_dir, "histogram.csv"), "w", encoding="utf-8") as fh:
            fh.write(self.histogram.to_csv(self.smoothed))
        with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8") as fh:
            fh.write(self.summary_csv())
        if self.lock_result is not None:
            with open(os.path.join(out_dir, "lock_telemetry.csv"), "w", encoding="utf-8") as fh:
                fh.write(self.lock_result.to_csv())


def peak_above_floor(
    hist: CoincidenceHistogram,
    echo_delay: float | None = None,
    smoothing_bins: int = SMOOTHING_BINS,
):
    """Echo-peak statistics from the adjacent-averaged histogram.

    ``peak_above_floor`` is the smoothed count at the expected echo delay
    minus the noise-window floor; reading the known echo position instead of
    searching for a maximum keeps the statistic unbiased (a max over many
    noisy bins rides several counts above the true peak), which matters for
    rate calibration.  The in-window maximum is reported alongside for
    display.
    """
    smoothed = moving_average(hist, smoothing_bins)
    sl = hist._window_slice(hist.signal_window)
    peak_max = float(np.max(smoothed[sl])) if sl.stop > sl.start else 0.0
    raw_peak = int(np.max(hist.counts[sl])) if sl.stop > sl.start else 0
    nb = hist.window_bins(hist.noise_window)
    floor = hist.window_counts(hist.noise_window) / nb if nb else 0.0
    if echo_delay is None:
        at_echo = peak_max
    else:
        idx = int(np.clip(hist.bin_index(echo_delay), 0, hist.n_bins - 1))
        at_echo = float(smoothed[idx])
    return {
        "peak_raw": raw_peak,
        "peak_smoothed_max": peak_max,
        "peak_at_echo": at_echo,
        "floor_per_bin": float(floor),
        "peak_above_floor": float(at_echo - floor),
        "smoothing_bins": smoothing_bins,
    }


def analyze(cfg: ScenarioConfig, raw: RawRunResult) -> RunReport:
    hist = raw.histogram
    smoothed = moving_average(hist, SMOOTHING_BINS)
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

    lock = None
    if raw.lock_result is not None:
        lock = {
            "max_abs_residual_hz": raw.lock_result.max_abs_residual,
            "rms_residual_hz": raw.lock_result.rms_residual,
        }

    echo_delay = cfg.memory.slow_light_delay + cfg.memory.afc.storage_time
    return RunReport(
        scenario=cfg.name,
        seed=cfg.seed,
        config_sha256=config_hash(cfg),
        version=__version__,
        duration=cfg.duration,
        transmission_time=raw.transmission_time,
        histogram=hist,
        smoothed=smoothed,
        s_counts=s,
        n_raw=n_raw,
        n_scaled=n_scaled,
        snr=snr,
        snr_error=snr_error,
        degenerate=degenerate,
        peak=peak_above_floor(hist, echo_delay, SMOOTHING_BINS),
        counts=raw.counters,
        lock=lock,
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
