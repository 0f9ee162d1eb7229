"""End-to-end scenario engine: source -> fiber -> conversion -> shutter ->
memory -> detection -> histogram.

Event budget
------------
A long run at realistic rates carries ~1e9 converter-noise photons; almost
none of them can ever enter the histogram, which only pairs signal
detections with heralds inside the configured delay range.  The engine
therefore materializes noise exactly where it can matter:

- herald-arm noise is generated directly at its detected rate (thinning a
  Poisson stream is exact),
- signal-arm noise is generated at full rate on ``windows ∩ rel``, the
  transmission windows restricted to the union of herald-relative windows
  wide enough to cover every memory delay, and then thinned by the same
  gate test the pair photons get (pass where the gate is open, else with
  probability ``extinction``).

The only approximation this leaves is dead-time shadowing by detections that
could never reach the histogram; at the configured rates that is a relative
bias below 1e-3, far inside every statistical tolerance.  Detection is
active only during transmission phases (the preparation light makes the
detectors unusable during pit burning), so preparation-phase photons are
dropped at source.

Randomness is split into one counter-based stream per (stage, batch), so
toggling one stage never perturbs another stage's draws and batched
execution is reproducible event for event.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import intervals as iv
from .channel import as_closures, conversion_passes, fiber_passes, gate_passes
from .config import ScenarioConfig
from .detection import (
    ORIGIN_CONVERSION_NOISE,
    ORIGIN_DARK_COUNT,
    ORIGIN_PAIR,
    CoincidenceHistogram,
    accumulate_histogram,
    detect,
)
from .lockchain import simulate_lock_run
from .memory import (
    KIND_ECHO,
    KIND_LOST,
    KIND_OUT_OF_BAND,
    KIND_PROMPT,
    exit_times,
    storage_branches,
)
from .source import pair_delays, sample_pairs

# stage ids for the counter-based stream split
_S_LOCK = 0
_S_SOURCE = 1
_S_CORRELATION = 2
_S_FIBER_H = 3
_S_CONVERT_H = 4
_S_HERALD_NOISE = 5
_S_HERALD_DETECT = 6
_S_FIBER_S = 7
_S_CONVERT_S = 8
_S_SIGNAL_NOISE = 9
_S_NOISE_GATE = 10
_S_GATE_LEAK = 11
_S_MEMORY = 12
_S_SIGNAL_DETECT = 13


def _stream(seed: int, stage: int, batch: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stage, batch)))
    )


@dataclass
class RawRunResult:
    """Accumulated pipeline output before report assembly."""

    histogram: CoincidenceHistogram
    counters: dict
    transmission_time: float
    lock_result: object | None


class _Engine:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.src = cfg.source
        self.mode_offsets = self.src.mode_offsets()
        self.fiber_delay = cfg.link.delay
        self.noise_rate_arm = 0.5 * cfg.converter.noise_rate  # beam splitter share
        self.afc = cfg.memory.afc
        self.inh = cfg.memory.inhomogeneous
        self.slow = cfg.memory.slow_light_delay
        hl = cfg.histogram
        self.hist = CoincidenceHistogram(
            hl.bin_width, hl.tau_min, hl.tau_max, hl.signal_window, hl.noise_window
        )
        n_cycles = int(math.ceil(cfg.duration / cfg.shutter.cycle_period))
        per_batch = max(1, int(round(6.0 / cfg.shutter.cycle_period)))
        self.batches = [
            (lo, min(lo + per_batch, n_cycles)) for lo in range(0, n_cycles, per_batch)
        ]
        self._setup_lock()

    def _setup_lock(self):
        lock = self.cfg.lock
        self.lock_result = None
        if lock.mode == "ideal":
            self._residual = None
            return
        seed = int(np.random.SeedSequence(
            entropy=self.cfg.seed, spawn_key=(_S_LOCK, 0)
        ).generate_state(1)[0])
        self.lock_result = simulate_lock_run(lock.config, self.cfg.duration, lock.dt, seed)
        self._residual = (self.lock_result.residual, lock.dt)

    def residual_at(self, t: np.ndarray) -> np.ndarray:
        if self._residual is None:
            return np.zeros(len(t))
        series, dt = self._residual
        idx = np.clip((np.asarray(t) / dt).astype(np.int64), 0, len(series) - 1)
        return series[idx]

    # -- one batch ---------------------------------------------------------

    def run_batch(self, batch_idx: int, counters: dict):
        cfg = self.cfg
        lo, hi = self.batches[batch_idx]
        windows = cfg.shutter.transmission_windows(lo, hi, cfg.duration)
        if len(windows) == 0:
            return

        # source: pair creation shifted so arrivals land on the windows
        rng = _stream(cfg.seed, _S_SOURCE, batch_idx)
        t_pairs, mode_idx = sample_pairs(self.src, windows - self.fiber_delay, rng)
        n_pairs = len(t_pairs)
        counters["pairs_generated"] += n_pairs

        rng = _stream(cfg.seed, _S_CORRELATION, batch_idx)
        herald_t = t_pairs + self.fiber_delay
        signal_t = herald_t + pair_delays(self.src, n_pairs, rng)

        # herald arm: fiber, conversion, detection (plus noise share and darks)
        keep_h = fiber_passes(cfg.link, n_pairs, _stream(cfg.seed, _S_FIBER_H, batch_idx))
        rng = _stream(cfg.seed, _S_CONVERT_H, batch_idx)
        keep_h &= conversion_passes(cfg.converter, self.mode_offsets, mode_idx, rng)

        # herald-arm noise is drawn directly at its detected rate (exact
        # thinning of the beam-splitter share by the detector efficiency)
        rng = _stream(cfg.seed, _S_HERALD_NOISE, batch_idx)
        noise_h = iv.sample_poisson(windows, self.noise_rate_arm * cfg.detectors.herald.efficiency, rng)
        rng_det = _stream(cfg.seed, _S_HERALD_DETECT, batch_idx)
        pair_h = herald_t[keep_h]
        pair_h = pair_h[rng_det.random(len(pair_h)) < cfg.detectors.herald.efficiency]
        cand_t = np.concatenate([pair_h, noise_h])
        cand_org = np.concatenate([
            np.full(len(pair_h), ORIGIN_PAIR, dtype=np.uint8),
            np.full(len(noise_h), ORIGIN_CONVERSION_NOISE, dtype=np.uint8),
        ])
        # pairs, noise and darks arrive as sorted runs (up to jitter), which
        # the stable sort in detect merges in near-linear time
        h_times, h_org = detect(cand_t, 1.0, cfg.detectors.herald, windows, rng_det, cand_org)
        counters["heralds_detected"] += len(h_times)
        for code, key in ((ORIGIN_PAIR, "pair"), (ORIGIN_CONVERSION_NOISE, "conversion_noise"), (ORIGIN_DARK_COUNT, "dark_count")):
            counters["heralds_by_origin"][key] += int(np.sum(h_org == code))

        # gate geometry commanded by the detected heralds, and the
        # herald-relative intervals inside which signal-arm events can still
        # reach the histogram after any memory delay
        closed = as_closures(h_times, cfg.shutter)
        rel = iv.as_interval_set(
            h_times + self.hist.tau_min - cfg.memory.max_delay, h_times + self.hist.tau_max
        )

        # signal arm: pair photons through fiber, converter, gate
        keep_s = fiber_passes(cfg.link, n_pairs, _stream(cfg.seed, _S_FIBER_S, batch_idx))
        rng = _stream(cfg.seed, _S_CONVERT_S, batch_idx)
        keep_s &= conversion_passes(cfg.converter, self.mode_offsets, mode_idx, rng)
        s_t = signal_t[keep_s]
        s_off = self.mode_offsets[mode_idx[keep_s]]
        rng = _stream(cfg.seed, _S_GATE_LEAK, batch_idx)
        passes = gate_passes(s_t, windows, closed, cfg.shutter.extinction, rng)
        s_t, s_off = s_t[passes], s_off[passes]

        # signal-arm converter noise at full rate, thinned by the same gate
        rng = _stream(cfg.seed, _S_SIGNAL_NOISE, batch_idx)
        t_n = iv.sample_poisson(iv.intersect(windows, rel), self.noise_rate_arm, rng)
        rng_gate = _stream(cfg.seed, _S_NOISE_GATE, batch_idx)
        t_n = t_n[gate_passes(t_n, windows, closed, cfg.shutter.extinction, rng_gate)]
        off_n = cfg.converter.noise_offsets(len(t_n), rng)

        entry_t = np.concatenate([s_t, t_n])
        entry_off = np.concatenate([s_off, off_n])
        entry_org = np.concatenate([
            np.full(len(s_t), ORIGIN_PAIR, dtype=np.uint8),
            np.full(len(t_n), ORIGIN_CONVERSION_NOISE, dtype=np.uint8),
        ])

        # lock-chain residual shifts every photon against the comb
        entry_off = entry_off + self.residual_at(entry_t)

        rng = _stream(cfg.seed, _S_MEMORY, batch_idx)
        kinds = storage_branches(entry_off, self.afc, self.inh, rng)
        exits = exit_times(entry_t, kinds, self.afc, self.slow)
        alive = kinds != KIND_LOST
        for code, key in ((KIND_ECHO, "echo"), (KIND_PROMPT, "prompt"), (KIND_OUT_OF_BAND, "out_of_band")):
            counters["memory_outcomes"][key] += int(np.sum((kinds == code) & (entry_org == ORIGIN_PAIR)))

        rng_det = _stream(cfg.seed, _S_SIGNAL_DETECT, batch_idx)
        det_t, det_org, det_kind = detect(
            exits[alive],
            cfg.detectors.signal.efficiency,
            cfg.detectors.signal,
            windows,
            rng_det,
            entry_org[alive],
            kinds[alive],
        )
        in_win = iv.contains(windows, det_t)
        # still sorted by time, as accumulate_histogram requires
        det_t, det_org, det_kind = det_t[in_win], det_org[in_win], det_kind[in_win]

        counters["signal_detected"] += len(det_t)
        for code, key in ((ORIGIN_PAIR, "pair"), (ORIGIN_CONVERSION_NOISE, "conversion_noise"), (ORIGIN_DARK_COUNT, "dark_count")):
            counters["signal_by_origin"][key] += int(np.sum(det_org == code))
        for code, key in ((KIND_ECHO, "echo"), (KIND_PROMPT, "prompt"), (KIND_OUT_OF_BAND, "out_of_band")):
            counters["detected_outcomes"][key] += int(np.sum((det_kind == code) & (det_org == ORIGIN_PAIR)))

        # histogram and the per-herald noise flux into the echo window
        accumulate_histogram(self.hist, h_times, det_t)
        w0, w1 = cfg.shutter.echo_window
        noise_t = det_t[det_org == ORIGIN_CONVERSION_NOISE]
        if len(noise_t) and len(h_times):
            lo_i = np.searchsorted(h_times, noise_t - w1, side="right")
            hi_i = np.searchsorted(h_times, noise_t - w0, side="right")
            counters["noise_in_echo_window"] += int(np.sum(hi_i - lo_i))

    def run_range(self, b_lo: int, b_hi: int):
        counters = _fresh_counters()
        for b in range(b_lo, b_hi):
            self.run_batch(b, counters)
        return self.hist.counts, counters

    def run(self, workers: int | None = None) -> RawRunResult:
        transmission = sum(
            iv.total_length(self.cfg.shutter.transmission_windows(lo, hi, self.cfg.duration))
            for lo, hi in self.batches
        )
        n_workers = _effective_workers(workers, len(self.batches))
        if n_workers <= 1:
            counts, counters = self.run_range(0, len(self.batches))
        else:
            counts, counters = _run_parallel(self, n_workers)
            self.hist.counts = counts
        return RawRunResult(
            histogram=self.hist,
            counters=counters,
            transmission_time=transmission,
            lock_result=self.lock_result,
        )


def _fresh_counters() -> dict:
    return {
        "pairs_generated": 0,
        "heralds_detected": 0,
        "heralds_by_origin": {"pair": 0, "conversion_noise": 0, "dark_count": 0},
        "signal_detected": 0,
        "signal_by_origin": {"pair": 0, "conversion_noise": 0, "dark_count": 0},
        "memory_outcomes": {"echo": 0, "prompt": 0, "out_of_band": 0},
        "detected_outcomes": {"echo": 0, "prompt": 0, "out_of_band": 0},
        "noise_in_echo_window": 0,
    }


def _merge_counters(dst: dict, src: dict) -> None:
    for k, v in src.items():
        if isinstance(v, dict):
            _merge_counters(dst[k], v)
        else:
            dst[k] += v


def _effective_workers(workers: int | None, n_batches: int) -> int:
    import multiprocessing

    if workers is None:
        workers = min(2, multiprocessing.cpu_count())
    if n_batches < 4 or not hasattr(os, "fork"):
        return 1
    return max(1, min(workers, n_batches))


_FORK_ENGINE: "_Engine | None" = None


def _run_chunk(chunk: tuple[int, int]):
    return _FORK_ENGINE.run_range(chunk[0], chunk[1])


def _run_parallel(engine: "_Engine", n_workers: int):
    """Fan batches out over forked workers.

    Every batch draws from its own counter-based stream and histogram and
    counter merging are associative integer additions, so the result is
    bit-identical to the sequential run regardless of scheduling.
    """
    import multiprocessing

    global _FORK_ENGINE
    n = len(engine.batches)
    edges = np.linspace(0, n, n_workers + 1).astype(int)
    chunks = [(int(edges[i]), int(edges[i + 1])) for i in range(n_workers)]
    _FORK_ENGINE = engine
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(n_workers) as pool:
            parts = pool.map(_run_chunk, chunks)
    finally:
        _FORK_ENGINE = None
    counts = np.zeros_like(engine.hist.counts)
    counters = _fresh_counters()
    for part_counts, part_counters in parts:
        counts += part_counts
        _merge_counters(counters, part_counters)
    return counts, counters


def run_raw(cfg: ScenarioConfig, workers: int | None = None) -> RawRunResult:
    """Execute the pipeline and return the raw histogram and counters."""
    return _Engine(cfg).run(workers=workers)
