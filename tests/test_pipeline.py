"""Engine-level checks of the noise shortcuts in ``pipeline._Engine``."""

import ast
import functools
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afclink import intervals as iv
from afclink import pipeline
from afclink.channel import ShutterSchedule, as_closures
from afclink.config import (
    DetectorSettings,
    LockSettings,
    MemorySettings,
    ScenarioConfig,
    bundled_scenarios,
    load_bundled_scenario,
)
from afclink.detection import SPDConfig
from afclink.lockchain import DriftModel, LaserId, LockChainConfig, RfOffsets
from afclink.memory import KIND_ECHO, KIND_LOST, KIND_OUT_OF_BAND, KIND_PROMPT, InhomogeneousProfile, storage_branches
from afclink.source import SourceConfig, sample_pairs


def test_gate_thinned_signal_noise_matches_gate_strata(monkeypatch):
    # The engine samples signal-arm noise on windows ∩ rel at the full arm
    # rate and thins it by the gate.  That must reproduce the stratified
    # process: rate on open ∩ rel, extinction * rate on the closed set, and
    # nothing elsewhere.  With no pairs every memory entry is noise.
    heralds, entries = [], []
    real_closures, real_exit_times = pipeline.as_closures, pipeline.exit_times

    def spy_closures(h, schedule):
        heralds.append(np.array(h))
        return real_closures(h, schedule)

    def spy_exit_times(entry_t, *args):
        entries.append(np.array(entry_t))
        return real_exit_times(entry_t, *args)

    monkeypatch.setattr(pipeline, "as_closures", spy_closures)
    monkeypatch.setattr(pipeline, "exit_times", spy_exit_times)

    totals = np.zeros((2, 2))  # rows open/closed, columns observed/expected
    for seed in range(5):
        cfg = ScenarioConfig(
            name="thinning", seed=seed, duration=30.0,
            source=SourceConfig(total_pair_rate=0.0, n_modes=25),
            shutter=ShutterSchedule(extinction=0.2),
            lock=LockSettings(mode="ideal"),
        )
        rate = cfg.converter.arm_noise_rate
        engine = pipeline._Engine(cfg)
        heralds.clear()
        entries.clear()
        engine.run_range((0, len(engine.batches)))
        assert len(heralds) == len(entries) == len(engine.batches)

        counts = np.zeros((2, 2))
        for (lo, hi), h, t in zip(engine.batches, heralds, entries):
            windows = cfg.shutter.transmission_windows(lo, hi, cfg.duration)
            span = (float(windows[0, 0]), float(windows[-1, 1]))
            closed = iv.intersect(windows, as_closures(h, cfg.shutter))
            lo, hi = cfg.signal_reach
            rel = iv.as_interval_set(h + lo, h + hi)
            open_rel = iv.intersect(iv.intersect(windows, rel), iv.complement(closed, span))
            in_open, in_closed = iv.contains(open_rel, t), iv.contains(closed, t)
            assert np.all(in_open ^ in_closed)
            counts[0] += (in_open.sum(), rate * iv.total_length(open_rel))
            counts[1] += (
                in_closed.sum(), cfg.shutter.extinction * rate * iv.total_length(closed)
            )
        z = (counts[:, 0] - counts[:, 1]) / np.sqrt(counts[:, 1])
        assert np.all(np.abs(z) < 4), (seed, counts, z)
        totals += counts

    z = (totals[:, 0] - totals[:, 1]) / np.sqrt(totals[:, 1])
    assert np.all(np.abs(z) < 4), (totals, z)
    assert totals[1, 1] > 1000  # the closed stratum is resolved


def test_every_stage_draws_from_its_own_stream():
    # two stages that share a stage id would share draws without any error:
    # every _S_* id must be distinct and name the stage of exactly one
    # _stream or _spawn_seed call, and every such call must name one
    tree = ast.parse(Path(pipeline.__file__).read_text(encoding="utf-8"))
    ids = {
        target.id: node.value.value
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name) and target.id.startswith("_S_")
    }
    assert len(ids) >= 2 and len(set(ids.values())) == len(ids), ids
    stages = [
        node.args[1] for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_stream", "_spawn_seed")
    ]
    assert all(isinstance(s, ast.Name) for s in stages), [ast.dump(s) for s in stages]
    assert sorted(s.id for s in stages) == sorted(ids)


def test_signal_reach_covers_a_gate_that_outlasts_the_histogram():
    # a P3 photon (counted, never drawn) is taken to meet an open gate, so
    # the reach must hold every closure even when the gate reopens after
    # tau_max (1.4 us)
    cfg = ScenarioConfig(
        name="late_gate", seed=0, duration=1.2, source=SourceConfig(total_pair_rate=500.0, n_modes=25),
        shutter=ShutterSchedule(echo_window=(900e-9, 1500e-9)),
    )
    lo, hi = cfg.signal_reach
    assert hi == 1500e-9 + cfg.jitter_margin
    h = np.array([0.4, 0.4 + 700e-9])
    closed = as_closures(h, cfg.shutter)
    assert np.all(closed[:, 0] >= h[0] + lo) and np.all(closed[:, 1] <= h[-1] + hi)
    # every shipped histogram outlasts its gate: their reach ends at tau_max
    for name in bundled_scenarios():
        shipped = load_bundled_scenario(name)
        assert shipped.histogram.tau_max > shipped.shutter.echo_window[1]
        assert shipped.signal_reach[1] == shipped.histogram.tau_max + shipped.jitter_margin


@functools.lru_cache(maxsize=None)
def _far_engine(duration: float, gate_end: float, jitter_fwhm: float, dt: float) -> pipeline._Engine:
    return pipeline._Engine(ScenarioConfig(
        name="far", seed=0, duration=duration, source=SourceConfig(total_pair_rate=500.0, n_modes=25),
        shutter=ShutterSchedule(echo_window=(900e-9, gate_end)),
        detectors=DetectorSettings(signal=SPDConfig(dark_rate=300.0, jitter_fwhm=jitter_fwhm)),
        lock=LockSettings(mode="ideal", dt=dt),
    ))


def _overlap(*rows) -> float:
    return max(0.0, min(r[1] for r in rows) - max(r[0] for r in rows))


@settings(max_examples=150, deadline=None)
@given(
    # a window shorter than the guards at the run's end or first in the set
    duration=st.sampled_from([1.2, 0.9 + 5e-7]),
    short_first=st.sampled_from([None, 5e-7, 2e-6, 4e-6]),
    gate_end=st.sampled_from([1.2e-6, 1.5e-6]),
    jitter_fwhm=st.sampled_from([100e-12, 300e-9]),
    dt=st.sampled_from([1.0, 0.1, 0.05, 1e-3]),
    heralds=st.lists(st.tuples(st.integers(0, 9), st.floats(-4e-6, 4e-6)), min_size=1, max_size=8),
    photons=st.lists(st.tuples(st.integers(0, 9), st.floats(-4e-6, 4e-6)), min_size=1, max_size=40),
)
def test_far_path_takes_no_photon_a_herald_or_a_window_edge_can_see(
    duration, short_first, gate_end, jitter_fwhm, dt, heralds, photons
):
    # In each lock step, P1 (inner_f in the reach of a herald), P3 (inner_f
    # outside every reach, whose length far_lengths gives) and the window
    # time outside inner_f add up to the window time, against a naive loop
    # over rows and steps; and an edge zone holds every pair time whose
    # photon can enter outside inner_f.  Heralds and probes sit near the
    # window edges and the lock-step cuts.
    eng = _far_engine(duration, gate_end, jitter_fwhm, dt)
    cfg = eng.cfg
    windows = cfg.shutter.transmission_windows(0, 2, cfg.duration)
    if short_first is not None:
        windows[0, 1] = windows[0, 0] + short_first
    k0 = math.ceil(0.3 / dt)
    anchors = np.concatenate([windows.ravel(), dt * np.arange(k0, k0 + 6)])
    h = np.sort([anchors[i] + x for i, x in heralds])
    lo, hi = cfg.signal_reach
    reach = iv.intersect(windows, iv.as_interval_set(h + lo, h + hi))
    cum = np.empty(len(reach) + 1)
    iv.sample_poisson(reach, 0.0, np.random.default_rng(0), cum)
    inner, edges = eng.zones(windows)
    first, last = eng.batch_steps[0]
    far = eng.far_lengths(inner, first, last, reach, cum)
    assert len(far) == last - first + 1 and np.all(far >= 0)

    m = 36 * cfg.source.coherence_time
    start, end = cfg.jitter_margin + m, -(cfg.memory.echo_delay + (cfg.jitter_margin + m))
    inner_rows = [(w0 + start, w1 + end) for w0, w1 in windows if w1 + end > w0 + start]
    reach_rows = [(max(t + lo, w0), min(t + hi, w1)) for t in h for w0, w1 in windows if _overlap((t + lo, t + hi), (w0, w1))]
    merged = []
    for r0, r1 in sorted(reach_rows):
        if merged and r0 <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], r1))
        else:
            merged.append((r0, r1))
    for i, k in enumerate(range(first, last + 1)):
        step = (-math.inf if k == first else dt * k, math.inf if k == last else dt * (k + 1))
        win = sum(_overlap(w, step) for w in windows)
        p1 = sum(_overlap(a, r, step) for a in inner_rows for r in merged)
        edge = win - sum(_overlap(a, step) for a in inner_rows)
        assert p1 + far[i] + edge == pytest.approx(win, abs=1e-12), (k, p1, far[i], edge, win)

    t = np.array([anchors[i] + x for i, x in photons])
    in_window = np.array([any(w0 <= x < w1 for w0, w1 in windows) for x in t])
    core = np.array([any(a + m <= x < b - m for a, b in inner_rows) for x in t])
    assert np.array_equal(iv.contains(edges, t), in_window & ~core)


def test_grouped_far_draws_match_per_photon_draws():
    # the P3 photons of a set, counted per (mode, lock step) from its
    # lengths by far_outcomes, against photons drawn on the same set and
    # sent through storage_branches plus the efficiency thinning, pooled
    # over seeds.  The chain runs open with a 4 MHz RF mismatch, so its
    # residual walks over teeth, between teeth and out of the pits, and a
    # 1 GHz memory band puts the modes with |k| >= 9 out of band.
    chain = LockChainConfig(
        rf=RfOffsets(f_beat=RfOffsets().f_beat + 4e6),
        drift={laser: DriftModel(sigma=5e5) for laser in LaserId},
    ).with_servos_disabled()
    grouped, per_photon = np.zeros((2, 4), np.int64), np.zeros((2, 4), np.int64)
    classes = np.zeros(3, np.int64)  # photons on a tooth, between teeth, outside a pit
    for seed in range(4):
        cfg = ScenarioConfig(
            name="grouped", seed=seed, duration=60.0, source=SourceConfig(total_pair_rate=5e4, n_modes=25),
            memory=MemorySettings(inhomogeneous=InhomogeneousProfile(fwhm=1e9)),
            lock=LockSettings(mode="simulated", config=chain, dt=1.0),
        )
        eng = pipeline._Engine(cfg)
        rng = np.random.default_rng(100 + seed)
        # a stretch of five of the sixty lock steps, so that a photon read
        # against the wrong step meets another residual
        steps = np.sort(rng.choice(60, 5, replace=False))
        lengths = np.zeros(60)
        lengths[steps] = rng.uniform(0.5, 1.0, 5)

        vec = np.zeros(pipeline._N_SLOTS, np.int64)
        eng.far_outcomes(0, lengths, np.random.default_rng(200 + seed), vec)
        detected = vec[pipeline._DETECTED_KIND:pipeline._DETECTED_KIND + 4]
        assert vec[pipeline._SIGNAL_ORIGIN + pipeline.ORIGIN_PAIR] == detected.sum()
        grouped += (vec[pipeline._MEMORY_KIND:pipeline._MEMORY_KIND + 4], detected)

        t, mode_idx = sample_pairs(eng.signal_only, np.stack([steps, steps + lengths[steps]], axis=1), rng)
        off = eng.mode_offsets[mode_idx] + eng.lock_result.residual_at(t)
        mem = cfg.memory
        kinds = storage_branches(off, eng.mode_offsets, mem.afc, mem.inhomogeneous, rng)
        clicks = (kinds != KIND_LOST) & (rng.random(len(kinds)) < cfg.detectors.signal.efficiency)
        per_photon[0] += np.bincount(kinds, minlength=4)
        per_photon[1] += np.bincount(kinds[clicks], minlength=4)

        afc = mem.afc
        detune = off - eng.mode_offsets[mode_idx]
        in_pit = np.abs(detune) <= afc.pit_halfwidth
        miss = np.abs(detune - afc.tooth_spacing * np.round(detune / afc.tooth_spacing))
        on_tooth = in_pit & (miss <= 0.5 * afc.tooth_fwhm)
        classes += (on_tooth.sum(), (in_pit & ~on_tooth).sum(), (~in_pit).sum())

    assert np.all(classes > 1000), classes
    assert np.all(per_photon[0] > 1000), per_photon
    assert grouped[1, KIND_LOST] == per_photon[1, KIND_LOST] == 0
    # one z per kind, at the memory and at the detector
    kinds = [KIND_ECHO, KIND_PROMPT, KIND_OUT_OF_BAND]
    a = np.concatenate([grouped[0], grouped[1, kinds]])
    b = np.concatenate([per_photon[0], per_photon[1, kinds]])
    z = (a - b) / np.sqrt(a + b)
    assert np.all(np.abs(z) < 4), (grouped, per_photon, z)


# one chunk of the smoke document: faults per batch of batches 1-5, after
# batch 0 has grown the heap to the batch working set
_BATCH_FAULTS = """
import resource
from afclink.config import load_bundled_scenario
from afclink.pipeline import _Engine
engine = _Engine(load_bundled_scenario("multiplexed_25mode_10km_smoke"))
engine.run_range((0, 1))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
engine.run_range((1, 6))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap-trim floor is glibc's")
def test_a_chunk_keeps_its_batch_memory():
    # without the raised trim floor glibc hands each batch's freed working set
    # back to the kernel, and the next batch faults it in again (~380 faults);
    # a fresh interpreter, since an earlier test's large free could have
    # raised the floor for this process already
    src = Path(__file__).resolve().parent.parent / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _BATCH_FAULTS], env={**os.environ, "PYTHONPATH": pythonpath},
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) < 20
