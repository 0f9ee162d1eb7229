"""Run reports: histogram analysis, provenance, and file exports.

Everything in a report derives deterministically from (config, seed), so
two runs of the same scenario produce byte-identical payloads.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .config import ScenarioConfig, config_hash
from .detection import compute_snr, moving_average, scaled_floor
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
class RunReport(RawRunResult):
    """A run's outputs, the document it ran and its histogram averaged over
    SMOOTHING_BINS adjacent bins; every statistic is read from the histogram."""

    cfg: ScenarioConfig  # the run's provenance: its name, seed, duration and hash
    smoothed: np.ndarray

    @property
    def s_counts(self) -> int:
        """S: the signal-window counts."""
        return self.histogram.window_counts(self.histogram.signal_window)

    @property
    def n_raw(self) -> int:
        return self.histogram.window_counts(self.histogram.noise_window)

    def _floor(self) -> tuple[Optional[float], Optional[str]]:
        """N and no error, or no N and why the noise floor is unresolved."""
        try:
            return scaled_floor(self.histogram), None
        except ValueError as exc:
            return None, str(exc)

    @property
    def n_scaled(self) -> Optional[float]:
        return self._floor()[0]

    @property
    def snr(self) -> Optional[float]:
        return None if self.n_scaled is None else compute_snr(self.histogram)

    @property
    def degenerate(self) -> bool:
        """Whether the excess over the floor is inside shot noise, or the
        floor is unresolved."""
        s, n = self.s_counts, self.n_scaled
        return n is None or abs(s - n) < 3.0 * math.sqrt(max(s + n, 1.0))

    @property
    def peak(self) -> dict:
        """Echo-peak statistics from ``smoothed``.

        ``peak_above_floor`` is the smoothed count at the expected echo delay
        minus the noise-window floor; reading the known echo position instead
        of searching for a maximum keeps the statistic unbiased (a max over
        many noisy bins rides several counts above the true peak), which
        matters for rate calibration.  The in-window maximum is reported
        alongside for display.
        """
        hist, smoothed = self.histogram, self.smoothed
        sl = hist._window_slice(hist.signal_window)
        floor = self.n_raw / hist.window_bins(hist.noise_window)
        echo_bin = int(np.clip(hist.bin_index(self.cfg.memory.echo_delay), 0, hist.n_bins - 1))
        at_echo = float(smoothed[echo_bin])
        return {
            "peak_raw": int(np.max(hist.counts[sl])),
            "peak_smoothed_max": float(np.max(smoothed[sl])),
            "peak_at_echo": at_echo,
            "floor_per_bin": float(floor),
            "peak_above_floor": float(at_echo - floor),
            "smoothing_bins": SMOOTHING_BINS,
        }

    def summary_dict(self) -> dict:
        n_scaled, snr_error = self._floor()
        return {
            "scenario": self.cfg.name,
            "seed": self.cfg.seed,
            "config_sha256": config_hash(self.cfg),
            "version": __version__,
            "duration": self.cfg.duration,
            "transmission_time": self.transmission_time,
            "S": self.s_counts,
            "N_raw": self.n_raw,
            "N_scaled": n_scaled,
            "snr": self.snr,
            "snr_error": snr_error,
            "degenerate": self.degenerate,
            "peak": self.peak,
            "counts": self.counts,
            "lock": self.lock_result.summary() if self.cfg.lock.mode == "simulated" else None,
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
        if self.cfg.lock.mode == "simulated":
            write_text(out_dir, "lock_telemetry.csv", self.lock_result.to_csv())


def analyze(cfg: ScenarioConfig, raw: RawRunResult) -> RunReport:
    return RunReport(**vars(raw), cfg=cfg, smoothed=moving_average(raw.histogram.counts, SMOOTHING_BINS))


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
