"""End-to-end scenario engine: source -> fiber -> conversion -> shutter ->
memory -> detection -> histogram.

Each batch of shutter cycles is one ``run_batch``: the source draws the
pairs, ``herald_arm`` turns their herald photons into detected heralds,
``signal_arm`` carries their signal photons through the gate the heralds
command, the memory and the signal detector, and ``run_batch`` fills the
histogram.  Both arms tally into one integer count vector per chunk.

Event budget
------------
Most pairs lose both photons before either detector: at 10 km and a
conversion efficiency of 0.558 the signal photon reaches the gate with
p_s = 0.35 per mode and the herald photon is detected (before dead time)
with p_h = p_s * eta_herald = 0.18.  The source therefore draws only the
pairs with at least one surviving photon, at ``rate * sum(w * p_any)`` with
modes weighted by ``w * p_any``, where p_any = 1 - (1 - p_h)(1 - p_s).
That is exact: thinning a Poisson process by a per-mode probability leaves
a Poisson process, and the discarded pairs form an independent one.  One
uniform per drawn pair picks both photons, the herald only or the signal
only, with the conditional chances p_h p_s, p_h (1 - p_s) and
p_s (1 - p_h) over p_any, and only the pairs whose signal photon survives
draw a correlation delay.  ``pairs_generated`` still counts every pair the
source emitted: the discarded ones are added as one Poisson count per
batch.

A long run at realistic rates also carries ~1e9 converter-noise photons;
almost none of them can ever enter the histogram, which only pairs signal
detections with heralds inside the configured delay range.  The engine
therefore materializes noise exactly where it can matter:

- herald-arm noise is generated directly at its detected rate (thinning a
  Poisson stream is exact), sorted as ``sample_poisson`` returns it and
  without timing jitter.  Jitter is an i.i.d. displacement, and a displaced
  Poisson process is again Poisson, with the window indicator convolved with
  the jitter kernel (displacement theorem; Kingman, *Poisson Processes*,
  1993, sec. 5.5).  That differs from the undisplaced process only within a
  few jitter widths (sigma = 42 ps at 100 ps FWHM) of a window edge.  Jitter
  carries rate * sigma / sqrt(2 pi) points across each edge on average;
  with about 20 edges per 6 s batch against 3 s of windows that is a
  relative effect near 20 * 0.4 * 42 ps / 3 s = 1e-10.  ``detect``
  therefore jitters and sorts only the pair heralds and the darks and
  merges them into the noise run in linear time.  The draws on the
  herald-detection stream are, in order, pair jitter, darks.
  Signal-arm noise keeps its jitter: there the intensity has edges every
  microsecond (``rel`` and the gate), aligned with the histogram's.
- signal-arm noise is generated at full rate on ``windows ∩ rel``, the
  transmission windows restricted to the union of herald-relative windows
  wide enough to cover every memory delay, and then thinned by the same
  gate test the pair photons get (pass where the gate is open, else with
  probability ``extinction``).

Besides the window-edge effect above, the only approximation this leaves is
dead-time shadowing by detections that could never reach the histogram; at
the configured rates that is a relative bias below 1e-3, far inside every
statistical tolerance.  ``tests/test_reference.py`` checks these shortcuts
against a brute-force run that materializes every noise photon.  Detection is
active only during transmission phases (the preparation light makes the
detectors unusable during pit burning), so preparation-phase photons are
dropped at source.

Randomness is split into one stream per (stage, batch): an SFC64 generator
seeded from its own ``SeedSequence`` spawn key ``(stage, batch)``.  Toggling
one stage never perturbs another stage's draws, the order in which the arms
run does not matter, and batched execution is reproducible event for event.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import intervals as iv
from .channel import as_closures, gate_passes
from .config import ScenarioConfig
from .detection import (
    ORIGIN_CONVERSION_NOISE,
    ORIGIN_DARK_COUNT,
    ORIGIN_PAIR,
    CoincidenceHistogram,
    accumulate_histogram,
    detect,
)
from .lockchain import LockRunResult, simulate_lock_run
from .memory import (
    KIND_ECHO,
    KIND_LOST,
    KIND_OUT_OF_BAND,
    KIND_PROMPT,
    exit_times,
    storage_branches,
)
from .source import pair_delays, sample_pairs

# stage ids: the first entry of each stream's SeedSequence spawn key
_S_LOCK = 0
_S_SOURCE = 1
_S_CORRELATION = 2
_S_HERALD_NOISE = 3
_S_HERALD_DETECT = 4
_S_SIGNAL_NOISE = 5
_S_NOISE_GATE = 6
_S_GATE_LEAK = 7
_S_MEMORY = 8
_S_SIGNAL_DETECT = 9

# slots of a chunk's count vector: two blocks indexed by the ORIGIN_* codes,
# two indexed by the KIND_* codes, then two scalars
_N_ORIGIN = ORIGIN_DARK_COUNT + 1
_N_KIND = KIND_LOST + 1
_HERALD_ORIGIN = 0
_SIGNAL_ORIGIN = _HERALD_ORIGIN + _N_ORIGIN
_MEMORY_KIND = _SIGNAL_ORIGIN + _N_ORIGIN  # pair photons at the memory
_DETECTED_KIND = _MEMORY_KIND + _N_KIND  # detected pair photons
_PAIRS = _DETECTED_KIND + _N_KIND
_NOISE_IN_ECHO = _PAIRS + 1
_N_SLOTS = _NOISE_IN_ECHO + 1

_ORIGIN_NAMES = (
    (ORIGIN_PAIR, "pair"), (ORIGIN_CONVERSION_NOISE, "conversion_noise"), (ORIGIN_DARK_COUNT, "dark_count")
)
_KIND_NAMES = ((KIND_ECHO, "echo"), (KIND_PROMPT, "prompt"), (KIND_OUT_OF_BAND, "out_of_band"))


def _tally(vec: np.ndarray, slot: int, width: int, codes: np.ndarray) -> None:
    """Add how often each code occurs in ``codes`` to the block at ``slot``."""
    vec[slot:slot + width] += np.bincount(codes, minlength=width)


def _counters(vec: np.ndarray) -> dict:
    """The report's nested counters from a run's count vector."""

    def block(slot: int, names: tuple) -> dict:
        return {name: int(vec[slot + code]) for code, name in names}

    return {
        "pairs_generated": int(vec[_PAIRS]),
        "heralds_detected": int(vec[_HERALD_ORIGIN:_HERALD_ORIGIN + _N_ORIGIN].sum()),
        "heralds_by_origin": block(_HERALD_ORIGIN, _ORIGIN_NAMES),
        "signal_detected": int(vec[_SIGNAL_ORIGIN:_SIGNAL_ORIGIN + _N_ORIGIN].sum()),
        "signal_by_origin": block(_SIGNAL_ORIGIN, _ORIGIN_NAMES),
        "memory_outcomes": block(_MEMORY_KIND, _KIND_NAMES),
        "detected_outcomes": block(_DETECTED_KIND, _KIND_NAMES),
        "noise_in_echo_window": int(vec[_NOISE_IN_ECHO]),
    }


def _derived_seed(base_seed: int, tag: int, index: int) -> int:
    """One integer seed from ``base_seed`` for the (tag, index) spawn key."""
    return int(np.random.SeedSequence(entropy=base_seed, spawn_key=(tag, index)).generate_state(1)[0])


def _stream(seed: int, stage: int, batch: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(stage, batch)))
    )


def _origins(*runs: np.ndarray) -> np.ndarray:
    """Origin codes for concatenated runs: pair photons first, then noise."""
    codes = (ORIGIN_PAIR, ORIGIN_CONVERSION_NOISE)
    return np.concatenate([np.full(len(r), c, dtype=np.uint8) for r, c in zip(runs, codes)])


@dataclass
class RawRunResult:
    """Accumulated pipeline output before report assembly."""

    histogram: CoincidenceHistogram
    counters: dict
    transmission_time: float
    lock_result: LockRunResult | None


class _Engine:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.mode_offsets = cfg.source.mode_offsets()
        # per mode: the signal photon reaches the gate with p_s; the herald
        # photon is detected (before dead time) with p_h = p_s * eta_herald;
        # the source draws only the pairs with at least one such photon
        p_s = cfg.link.survival_probability * cfg.converter.conversion_probability(self.mode_offsets)
        self.p_herald = p_s * cfg.detectors.herald.efficiency
        self.p_both = self.p_herald * p_s
        self.p_any = self.p_herald + p_s - self.p_both
        self.kept_source = cfg.source.thinned(self.p_any)
        self.lost_pair_rate = max(0.0, cfg.source.total_pair_rate - self.kept_source.total_pair_rate)
        self.n_cycles = int(math.ceil(cfg.duration / cfg.shutter.cycle_period))
        per_batch = max(1, int(round(6.0 / cfg.shutter.cycle_period)))
        self.batches = [
            (lo, min(lo + per_batch, self.n_cycles)) for lo in range(0, self.n_cycles, per_batch)
        ]
        lock = cfg.lock
        self.lock_result = None if lock.mode == "ideal" else simulate_lock_run(
            lock.config, cfg.duration, lock.dt, _derived_seed(cfg.seed, _S_LOCK, 0)
        )

    # -- one batch ---------------------------------------------------------

    def run_batch(self, b: int, hist: CoincidenceHistogram, vec: np.ndarray) -> None:
        cfg = self.cfg
        lo, hi = self.batches[b]
        windows = cfg.shutter.transmission_windows(lo, hi, cfg.duration)
        if len(windows) == 0:
            return

        # source: the pairs that reach an arm, created shifted so that their
        # arrivals land on the windows, and a count of the others
        rng = _stream(cfg.seed, _S_SOURCE, b)
        t_pairs, mode_idx = sample_pairs(self.kept_source, windows - cfg.link.delay, rng)
        # one uniform on [0, p_any) sorts each pair: [0, p_h p_s) both photons
        # survive, [p_h p_s, p_h) the herald only, [p_h, p_any) the signal only
        u = rng.random(len(t_pairs))
        u *= self.p_any[mode_idx]
        herald_ok = u < self.p_herald[mode_idx]
        signal_ok = ~herald_ok | (u < self.p_both[mode_idx])
        vec[_PAIRS] += len(t_pairs) + rng.poisson(self.lost_pair_rate * iv.total_length(windows))
        herald_t = t_pairs + cfg.link.delay
        signal_t = herald_t[signal_ok]
        signal_t += pair_delays(cfg.source, len(signal_t), _stream(cfg.seed, _S_CORRELATION, b))

        h_times = self.herald_arm(b, windows, herald_t[herald_ok], vec)
        det_t, det_org = self.signal_arm(b, windows, h_times, signal_t, mode_idx[signal_ok], vec)

        # histogram and the per-herald noise flux into the echo window
        accumulate_histogram(hist, h_times, det_t)
        w0, w1 = cfg.shutter.echo_window
        noise_t = det_t[det_org == ORIGIN_CONVERSION_NOISE]
        if len(noise_t) and len(h_times):
            lo_i = np.searchsorted(h_times, noise_t - w1, side="right")
            hi_i = np.searchsorted(h_times, noise_t - w0, side="right")
            vec[_NOISE_IN_ECHO] += int(np.sum(hi_i - lo_i))

    def herald_arm(self, b, windows, pair_t, vec) -> np.ndarray:
        """Herald-arm noise and detection of the pair heralds that survived
        the fiber, the converter and the detector efficiency; the sorted
        detected herald times."""
        cfg = self.cfg
        det = cfg.detectors.herald
        # herald-arm noise is drawn directly at its detected rate (exact
        # thinning of the beam-splitter share by the detector efficiency),
        # sorted and without jitter (see the module docstring)
        rate = 0.5 * cfg.converter.noise_rate * det.efficiency
        noise = iv.sample_poisson(windows, rate, _stream(cfg.seed, _S_HERALD_NOISE, b))
        rng = _stream(cfg.seed, _S_HERALD_DETECT, b)
        h_times, h_org = detect(pair_t, 1.0, det, windows, rng, _origins(pair_t), noise=noise)
        _tally(vec, _HERALD_ORIGIN, _N_ORIGIN, h_org)
        return h_times

    def signal_arm(self, b, windows, h_times, signal_t, mode_idx, vec):
        """Gate, signal-arm noise, lock residual, memory and detection of the
        signal photons that survived the fiber and the converter; the
        in-window detection times (sorted) and origins."""
        cfg = self.cfg
        # gate geometry commanded by the detected heralds, and the
        # herald-relative intervals inside which signal-arm events can still
        # reach the histogram after any memory delay
        closed = as_closures(h_times, cfg.shutter)
        rel = iv.as_interval_set(
            h_times + cfg.histogram.tau_min - cfg.memory.max_delay, h_times + cfg.histogram.tau_max
        )

        # pair photons through the gate
        rng = _stream(cfg.seed, _S_GATE_LEAK, b)
        passes = gate_passes(signal_t, windows, closed, cfg.shutter.extinction, rng)
        s_t, s_off = signal_t[passes], self.mode_offsets[mode_idx[passes]]

        # converter noise (beam-splitter share) at full rate, thinned by the same gate
        rng = _stream(cfg.seed, _S_SIGNAL_NOISE, b)
        n_t = iv.sample_poisson(iv.intersect(windows, rel), 0.5 * cfg.converter.noise_rate, rng)
        rng_gate = _stream(cfg.seed, _S_NOISE_GATE, b)
        n_t = n_t[gate_passes(n_t, windows, closed, cfg.shutter.extinction, rng_gate)]
        n_off = cfg.converter.noise_offsets(len(n_t), rng)

        entry_t = np.concatenate([s_t, n_t])
        entry_off = np.concatenate([s_off, n_off])
        entry_org = _origins(s_t, n_t)
        if self.lock_result is not None:
            # the lock-chain residual shifts every photon against the comb
            entry_off = entry_off + self.lock_result.residual_at(entry_t)

        mem = cfg.memory
        kinds = storage_branches(entry_off, mem.afc, mem.inhomogeneous, _stream(cfg.seed, _S_MEMORY, b))
        exits = exit_times(entry_t, kinds, mem.afc, mem.slow_light_delay)
        _tally(vec, _MEMORY_KIND, _N_KIND, kinds[entry_org == ORIGIN_PAIR])
        alive = kinds != KIND_LOST
        det = cfg.detectors.signal
        det_t, det_org, det_kind = detect(
            exits[alive], det.efficiency, det, windows,
            _stream(cfg.seed, _S_SIGNAL_DETECT, b), entry_org[alive], kinds[alive],
        )
        in_win = iv.contains(windows, det_t)
        # still sorted by time, as accumulate_histogram requires
        det_t, det_org, det_kind = det_t[in_win], det_org[in_win], det_kind[in_win]
        _tally(vec, _SIGNAL_ORIGIN, _N_ORIGIN, det_org)
        _tally(vec, _DETECTED_KIND, _N_KIND, det_kind[det_org == ORIGIN_PAIR])
        return det_t, det_org

    # -- a run -------------------------------------------------------------

    def run_range(self, chunk: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Histogram counts and count vector of batches ``chunk[0] .. chunk[1] - 1``."""
        hist = CoincidenceHistogram(**asdict(self.cfg.histogram))
        vec = np.zeros(_N_SLOTS, dtype=np.int64)
        for b in range(*chunk):
            self.run_batch(b, hist, vec)
        return hist.counts, vec

    def run(self, workers: int | None = None) -> RawRunResult:
        """Run every batch, in one chunk per worker.

        Every batch draws from its own streams, one SFC64 generator per
        (stage, batch) ``SeedSequence`` spawn key, and the parts are summed
        as integers, so the result is bit-identical for every worker count.
        """
        cfg = self.cfg
        n = len(self.batches)
        edges = np.linspace(0, n, _effective_workers(workers, n) + 1).astype(int)
        parts = _map_chunks(self, [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])])
        windows = cfg.shutter.transmission_windows(0, self.n_cycles, cfg.duration)
        return RawRunResult(
            histogram=CoincidenceHistogram(**asdict(cfg.histogram), counts=sum(p[0] for p in parts)),
            counters=_counters(sum(p[1] for p in parts)),
            transmission_time=iv.total_length(windows),
            lock_result=self.lock_result,
        )


def _effective_workers(workers: int | None, n_batches: int) -> int:
    import multiprocessing

    if workers is None:
        workers = min(2, multiprocessing.cpu_count())
    if n_batches < 4 or not hasattr(os, "fork"):
        return 1
    return max(1, min(workers, n_batches))


_FORK_ENGINE: "_Engine | None" = None


def _run_chunk(chunk: tuple[int, int]):
    return _FORK_ENGINE.run_range(chunk)


def _map_chunks(engine: _Engine, chunks: list[tuple[int, int]]) -> list:
    """``engine.run_range`` over the chunks: in this process for one chunk,
    else on a fork pool with one worker per chunk."""
    if len(chunks) == 1:
        return list(map(engine.run_range, chunks))
    import multiprocessing

    global _FORK_ENGINE
    _FORK_ENGINE = engine
    try:
        with multiprocessing.get_context("fork").Pool(len(chunks)) as pool:
            return pool.map(_run_chunk, chunks)
    finally:
        _FORK_ENGINE = None


def run_raw(cfg: ScenarioConfig, workers: int | None = None) -> RawRunResult:
    """Execute the pipeline and return the raw histogram and counters."""
    return _Engine(cfg).run(workers=workers)
