"""Brute-force reference for the engine's shortcuts.

``reference_run`` simulates one span with no batches and no noise shortcut:
every converter-noise photon of both arms is drawn at the full beam-splitter
rate on every transmission window, the herald detector thins and jitters all
of them, and the signal-arm noise goes through the gate, the memory and the
detector together with the pair photons.  It composes the engine's stage
kernels and, of ``pipeline``, only the document's lock realisation,
``lock_run``: every photon past the gate takes the residual ``residual_at``
gives at its entry time, as in the engine.

``pipeline.run_raw`` takes six shortcuts on the same link: herald noise
drawn at its detected rate, and of the noise heralds whose own reach draw is
empty only those something drawn can see (the rest counted), signal-arm
noise drawn only on the reach ``windows ∩ rel``, independent batches, a source
thinned to the pairs whose herald photon gets past the fiber, the converter
and the detector efficiency, the others only counted, and the signal-only
pairs drawn only where a herald or a window edge can see them: on the reach
well inside a window, marked among the signal-arm noise drawn there at the
summed rate, and near a window edge, drawn with their delays; elsewhere
they are Poisson counts per (lock step, mode) from the expected lengths.
On each link of ``LINKS``, pooled over several seeds, the histogram in each
delay band, the echo-window noise count, the pair count, the pair photons'
memory outcomes and the origin counters of both must agree within the bound
fixed below, which was chosen before any comparison was run.
"""

import dataclasses
import functools
import math
from dataclasses import asdict

import numpy as np
import pytest

from afclink import intervals as iv
from afclink import pipeline
from afclink.channel import as_closures, fiber_passes, gate_passes
from afclink.config import LockSettings, load_bundled_scenario, scenario_from_dict, scenario_to_dict
from afclink.detection import (
    ORIGIN_CONVERSION_NOISE,
    ORIGIN_DARK_COUNT,
    ORIGIN_PAIR,
    CoincidenceHistogram,
    accumulate_histogram,
    detect,
    heralds_in_range,
)
from afclink.memory import KIND_ECHO, KIND_LOST, KIND_OUT_OF_BAND, KIND_PROMPT, exit_times, storage_branches
from afclink.source import pair_delays, sample_pairs

#: pre-registered bound on |z| of every pooled comparison
Z_BOUND = 4.0
SEEDS = range(4)
#: delay bands of the histogram range, pooled separately
N_BANDS = 16
NOISE_BOOST = 5.0


_CHAIN = load_bundled_scenario("multiplexed_25mode_10km").lock.config
_IDEAL = LockSettings(mode="ideal")
_BEAT_HIGH = dataclasses.replace(_CHAIN, rf=dataclasses.replace(_CHAIN.rf, f_beat=_CHAIN.rf.f_beat + 120e3))
_OPEN_FAST = dataclasses.replace(
    _CHAIN.with_servos_disabled(),
    drift={laser: dataclasses.replace(d, sigma=75e3) for laser, d in _CHAIN.drift.items()},
)

#: the links compared, as edits of the flagship document at dotted paths and
#: a lock: under an ideal lock, the shipped link; a signal detector with
#: 300 ns FWHM jitter, so that the reach's jitter margins carry weight; and a
#: 1 GHz memory band, which the modes with |k| >= 9 leave.  Then the shipped
#: link under the flagship chain run open loop, whose residual wanders by up
#: to a few hundred kHz in 12 s and takes photons off their teeth; the same
#: chain with every drift five times as strong, whose residual spans about
#: -0.24 to 1.7 MHz over the seeds, several tooth spacings, so that a path
#: that dropped the residual would keep echoes the reference loses; and the
#: locked chain with its beat 120 kHz high, just inside the 144 kHz half
#: tooth width, so that every (lock step, mode) group has its own offset.
#: Then 10 us transmission windows every 20 us, whose edge zones (within
#: the jitter and delay margins of a window's start, or the echo delay plus
#: them of its end) hold 26 % of the window time, so that the signal-only
#: pairs drawn there carry weight.  Last, twice the converter noise per mW
#: (10x the shipped noise in all): a herald rate times reach length of about
#: 0.27, where points that two reaches hold and N0 heralds that something can
#: see occur often, at a herald click rate times dead time of 5e-3
LINKS = {
    "shipped": ({}, _IDEAL),
    "signal_jitter_300ns": ({"detectors.signal.jitter_fwhm": 300e-9}, _IDEAL),
    "memory_band_1ghz": ({"memory.inhomogeneous.fwhm": 1e9}, _IDEAL),
    "open_loop": ({}, LockSettings("simulated", _CHAIN.with_servos_disabled())),
    "open_loop_fast": ({}, LockSettings("simulated", _OPEN_FAST)),
    "beat_120khz_high": ({}, LockSettings("simulated", _BEAT_HIGH)),
    "short_windows": ({"shutter.cycle_period": 20e-6, "shutter.prep_duration": 10e-6}, _IDEAL),
    "noise_10x": ({"converter.noise_rate_per_mw": 2 * 40e3 / 140.0}, _IDEAL),
}


def reference_config(seed: int, edits: dict, lock: LockSettings):
    """A 12.6 s flagship slice (21 cycles: one 20-cycle batch and one
    1-cycle batch) with 5x the converter noise, 2e4 pairs/s, the given
    edits and ``lock``."""
    doc = scenario_to_dict(load_bundled_scenario("multiplexed_25mode_10km"))
    for path, value in edits.items():
        *parents, key = path.split(".")
        functools.reduce(dict.__getitem__, parents, doc)[key] = value
    flagship = scenario_from_dict(doc)
    converter = flagship.converter
    return dataclasses.replace(
        flagship,
        seed=seed,
        duration=12.6,
        converter=dataclasses.replace(converter, noise_rate_per_mw=NOISE_BOOST * converter.noise_rate_per_mw),
        lock=lock,
    ).with_rate(2e4)


def reference_run(cfg, rng: np.random.Generator) -> tuple[np.ndarray, dict]:
    """Histogram counts and the compared counters of one unbatched span."""
    n_cycles = math.ceil(cfg.duration / cfg.shutter.cycle_period)
    windows = cfg.shutter.transmission_windows(0, n_cycles, cfg.duration)
    offsets = cfg.source.mode_offsets()
    converted = cfg.converter.conversion_probability(offsets)
    arm_rate = cfg.converter.arm_noise_rate

    herald_t, mode_idx = sample_pairs(cfg.source, windows, rng)
    signal_t = herald_t + pair_delays(cfg.source, len(herald_t), rng)

    # herald arm: pair photons and every noise photon, all thinned and jittered
    # by the detector
    keep = fiber_passes(cfg.link, len(herald_t), rng)
    keep &= rng.random(len(herald_t)) < converted[mode_idx]
    pair = herald_t[keep]
    noise = iv.sample_poisson(windows, arm_rate, rng)
    det = cfg.detectors.herald
    keep = rng.random(len(pair) + len(noise)) < det.efficiency
    h_t, h_org = detect(np.concatenate([pair, noise])[keep], det, _darks(det, windows, rng), rng, _origins(pair, noise)[keep])

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
    entry_off = entry_off + pipeline.lock_run(cfg, cfg.duration).residual_at(entry_t)

    mem = cfg.memory
    kinds = storage_branches(entry_off, offsets, mem.afc, mem.inhomogeneous, rng)
    exits = exit_times(entry_t, kinds, mem.afc, mem.slow_light_delay)
    stored = kinds[entry_org == ORIGIN_PAIR]
    alive = kinds != KIND_LOST
    det = cfg.detectors.signal
    alive[alive] = rng.random(np.count_nonzero(alive)) < det.efficiency
    s_t, s_org, s_kind = detect(exits[alive], det, _darks(det, windows, rng), rng, entry_org[alive], kinds[alive])
    in_win = iv.contains(windows, s_t)
    s_t, s_org, s_kind = s_t[in_win], s_org[in_win], s_kind[in_win]

    hist = CoincidenceHistogram(**asdict(cfg.histogram))
    accumulate_histogram(hist, h_t, s_t)
    _, in_echo = heralds_in_range(h_t, s_t[s_org == ORIGIN_CONVERSION_NOISE], *cfg.shutter.echo_window)
    pair_kind = s_kind[s_org == ORIGIN_PAIR]
    counters = {
        "pairs_generated": len(herald_t),
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
        "noise_in_echo_window": np.sum(in_echo),
    }
    return hist.counts, {k: int(v) for k, v in counters.items()}


def _darks(det, windows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The detector's dark counts on every transmission window."""
    return iv.sample_poisson(windows, det.dark_rate, rng)


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


@pytest.mark.parametrize("link", LINKS)
def test_engine_matches_brute_force_reference(link):
    eng, ref = {}, {}
    for seed in SEEDS:
        cfg = reference_config(seed, *LINKS[link])
        # the slice must cross a batch edge, or batch independence goes unchecked
        assert len(pipeline._Engine(cfg).batches) >= 2
        raw = pipeline.run_raw(cfg, workers=1)
        e = pooled(raw.histogram.counts, engine_counters(raw.counts), cfg.histogram)
        r = pooled(*reference_run(cfg, np.random.default_rng([seed, 0x5EF])), cfg.histogram)
        for k in e:
            eng[k] = eng.get(k, 0) + e[k]
            ref[k] = ref.get(k, 0) + r[k]
    # where every mode lies inside the memory's band, neither side may send a
    # pair photon out of band; the rest are compared by z-score
    if cfg.memory.inhomogeneous.in_band(cfg.source.mode_offsets()).all():
        assert eng.pop("memory_out_of_band") == ref.pop("memory_out_of_band") == 0
    z = {k: (eng[k] - ref[k]) / math.sqrt(eng[k] + ref[k]) for k in eng}
    table = "\n".join(f"{k:22s} {eng[k]:9d} {ref[k]:9d} {z[k]:+6.2f}" for k in eng)
    assert all(eng[k] + ref[k] > 0 for k in eng), table
    assert all(abs(v) < Z_BOUND for v in z.values()), table
