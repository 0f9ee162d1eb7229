"""Brute-force reference for the engine's shortcuts.

``reference_run`` simulates one span with no batches and no noise shortcut:
every converter-noise photon of both arms is drawn at the full beam-splitter
rate on every transmission window, the herald detector thins and jitters all
of them, and the signal-arm noise goes through the gate, the memory and the
detector together with the pair photons.  It composes the engine's stage
kernels and nothing else of ``pipeline``.

``pipeline.run_raw`` takes four shortcuts on the same link: herald noise
drawn at its detected rate (and sorted, without jitter), signal-arm noise
drawn only on ``windows ∩ rel``, independent batches, and a source thinned
to the pairs with at least one photon past the fiber, the converter and (for
the herald) the detector efficiency, the others only counted.  Pooled over
several seeds, the histogram in each delay band, the echo-window noise
count, the pair count, the pair photons' memory outcomes and the origin
counters of both must agree within the bound fixed below, which was chosen
before any comparison was run.
"""

import dataclasses
import math
from dataclasses import asdict

import numpy as np

from afclink import intervals as iv
from afclink import pipeline
from afclink.channel import as_closures, fiber_passes, gate_passes
from afclink.config import LockSettings, load_bundled_scenario
from afclink.detection import (
    ORIGIN_CONVERSION_NOISE,
    ORIGIN_DARK_COUNT,
    ORIGIN_PAIR,
    CoincidenceHistogram,
    accumulate_histogram,
    detect,
)
from afclink.memory import KIND_ECHO, KIND_LOST, KIND_OUT_OF_BAND, KIND_PROMPT, exit_times, storage_branches
from afclink.source import pair_delays, sample_pairs

#: pre-registered bound on |z| of every pooled comparison
Z_BOUND = 4.0
SEEDS = range(4)
#: delay bands of the histogram range, pooled separately
N_BANDS = 16
NOISE_BOOST = 5.0


def reference_config(seed: int):
    """A 12 s (two-batch) flagship slice with 5x the converter noise, 2e4
    pairs/s and an ideal lock."""
    flagship = load_bundled_scenario("multiplexed_25mode_10km")
    converter = flagship.converter
    return dataclasses.replace(
        flagship,
        seed=seed,
        duration=12.0,
        converter=dataclasses.replace(converter, noise_rate_ref=NOISE_BOOST * converter.noise_rate_ref),
        lock=LockSettings(mode="ideal"),
    ).with_rate(2e4)


def reference_run(cfg, rng: np.random.Generator) -> tuple[np.ndarray, dict]:
    """Histogram counts and the compared counters of one unbatched span."""
    n_cycles = math.ceil(cfg.duration / cfg.shutter.cycle_period)
    windows = cfg.shutter.transmission_windows(0, n_cycles, cfg.duration)
    offsets = cfg.source.mode_offsets()
    converted = cfg.converter.conversion_probability(offsets)
    arm_rate = 0.5 * cfg.converter.noise_rate

    t_pairs, mode_idx = sample_pairs(cfg.source, windows - cfg.link.delay, rng)
    herald_t = t_pairs + cfg.link.delay
    signal_t = herald_t + pair_delays(cfg.source, len(t_pairs), rng)

    # herald arm: pair photons and every noise photon, all thinned and jittered
    # by the detector
    keep = fiber_passes(cfg.link, len(herald_t), rng)
    keep &= rng.random(len(herald_t)) < converted[mode_idx]
    pair = herald_t[keep]
    noise = iv.sample_poisson(windows, arm_rate, rng)
    det = cfg.detectors.herald
    h_t, h_org = detect(
        np.concatenate([pair, noise]), det.efficiency, det, windows, rng, _origins(pair, noise)
    )

    # signal arm: pair photons and every noise photon through one gate test
    closed = as_closures(h_t, cfg.shutter)
    keep = fiber_passes(cfg.link, len(signal_t), rng)
    keep &= rng.random(len(signal_t)) < converted[mode_idx]
    n_t = iv.sample_poisson(windows, arm_rate, rng)
    entry_t = np.concatenate([signal_t[keep], n_t])
    entry_off = np.concatenate([offsets[mode_idx[keep]], cfg.converter.noise_offsets(len(n_t), rng)])
    entry_org = _origins(signal_t[keep], n_t)
    passes = gate_passes(entry_t, windows, closed, cfg.shutter.extinction, rng)
    entry_t, entry_off, entry_org = entry_t[passes], entry_off[passes], entry_org[passes]

    mem = cfg.memory
    kinds = storage_branches(entry_off, mem.afc, mem.inhomogeneous, rng)
    exits = exit_times(entry_t, kinds, mem.afc, mem.slow_light_delay)
    stored = kinds[entry_org == ORIGIN_PAIR]
    alive = kinds != KIND_LOST
    det = cfg.detectors.signal
    s_t, s_org, s_kind = detect(
        exits[alive], det.efficiency, det, windows, rng, entry_org[alive], kinds[alive]
    )
    in_win = iv.contains(windows, s_t)
    s_t, s_org, s_kind = s_t[in_win], s_org[in_win], s_kind[in_win]

    hist = CoincidenceHistogram(**asdict(cfg.histogram))
    accumulate_histogram(hist, h_t, s_t)
    w0, w1 = cfg.shutter.echo_window
    tau_lo = np.searchsorted(h_t, s_t[s_org == ORIGIN_CONVERSION_NOISE] - w1, side="right")
    tau_hi = np.searchsorted(h_t, s_t[s_org == ORIGIN_CONVERSION_NOISE] - w0, side="right")
    pair_kind = s_kind[s_org == ORIGIN_PAIR]
    counters = {
        "pairs_generated": len(t_pairs),
        "memory_echo": np.sum(stored == KIND_ECHO),
        "memory_prompt": np.sum(stored == KIND_PROMPT),
        "memory_out_of_band": np.sum(stored == KIND_OUT_OF_BAND),
        "herald_pair": np.sum(h_org == ORIGIN_PAIR),
        "herald_noise": np.sum(h_org == ORIGIN_CONVERSION_NOISE),
        "herald_dark": np.sum(h_org == ORIGIN_DARK_COUNT),
        "signal_pair": np.sum(s_org == ORIGIN_PAIR),
        "signal_dark": np.sum(s_org == ORIGIN_DARK_COUNT),
        "detected_echo": np.sum(pair_kind == KIND_ECHO),
        "detected_prompt": np.sum(pair_kind == KIND_PROMPT),
        "noise_in_echo_window": np.sum(tau_hi - tau_lo),
    }
    return hist.counts, {k: int(v) for k, v in counters.items()}


def _origins(pair: np.ndarray, noise: np.ndarray) -> np.ndarray:
    return np.repeat(np.array([ORIGIN_PAIR, ORIGIN_CONVERSION_NOISE], np.uint8), [len(pair), len(noise)])


def engine_counters(c: dict) -> dict:
    """The same counters from a ``run_raw`` report.  Signal-arm noise
    detections are left out: the engine draws that noise only where it can
    reach the histogram, so its count is not comparable; the histogram and
    the echo-window count carry what it contributes."""
    return {
        "pairs_generated": c["pairs_generated"],
        "memory_echo": c["memory_outcomes"]["echo"],
        "memory_prompt": c["memory_outcomes"]["prompt"],
        "memory_out_of_band": c["memory_outcomes"]["out_of_band"],
        "herald_pair": c["heralds_by_origin"]["pair"],
        "herald_noise": c["heralds_by_origin"]["conversion_noise"],
        "herald_dark": c["heralds_by_origin"]["dark_count"],
        "signal_pair": c["signal_by_origin"]["pair"],
        "signal_dark": c["signal_by_origin"]["dark_count"],
        "detected_echo": c["detected_outcomes"]["echo"],
        "detected_prompt": c["detected_outcomes"]["prompt"],
        "noise_in_echo_window": c["noise_in_echo_window"],
    }


def pooled(counts: np.ndarray, counters: dict, layout) -> dict:
    edges = np.linspace(0, layout.n_bins, N_BANDS + 1).astype(int)[:-1]
    bands = np.add.reduceat(counts, edges)
    out = {f"band{k:02d}": int(v) for k, v in enumerate(bands)}
    h = CoincidenceHistogram(**asdict(layout), counts=counts)
    out["signal_window"] = h.window_counts(layout.signal_window)
    out["noise_window"] = h.window_counts(layout.noise_window)
    return {**out, **counters}


def test_engine_matches_brute_force_reference():
    eng, ref = {}, {}
    for seed in SEEDS:
        cfg = reference_config(seed)
        # the slice must cross a batch edge, or batch independence goes unchecked
        assert len(pipeline._Engine(cfg).batches) >= 2
        raw = pipeline.run_raw(cfg, workers=1)
        e = pooled(raw.histogram.counts, engine_counters(raw.counters), cfg.histogram)
        r = pooled(*reference_run(cfg, np.random.default_rng([seed, 0x5EF])), cfg.histogram)
        for k in e:
            eng[k] = eng.get(k, 0) + e[k]
            ref[k] = ref.get(k, 0) + r[k]
    # every mode of this link lies inside the memory's band, so neither side
    # may send a pair photon out of band; the rest are compared by z-score
    assert eng.pop("memory_out_of_band") == ref.pop("memory_out_of_band") == 0
    z = {k: (eng[k] - ref[k]) / math.sqrt(eng[k] + ref[k]) for k in eng}
    table = "\n".join(f"{k:22s} {eng[k]:9d} {ref[k]:9d} {z[k]:+6.2f}" for k in eng)
    assert all(eng[k] + ref[k] > 0 for k in eng), table
    assert all(abs(v) < Z_BOUND for v in z.values()), table
