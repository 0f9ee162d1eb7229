"""Engine-level checks of the noise shortcuts in ``pipeline._Engine``."""

import ast
import dataclasses
import functools
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afclink import intervals as iv
from afclink import pipeline
from afclink.channel import ConverterConfig, ShutterSchedule, as_closures
from afclink.config import (
    DetectorSettings,
    LockSettings,
    MemorySettings,
    ScenarioConfig,
    bundled_scenarios,
    load_bundled_scenario,
)
from afclink.detection import (
    ORIGIN_CONVERSION_NOISE,
    ORIGIN_DARK_COUNT,
    ORIGIN_PAIR,
    CoincidenceHistogram,
    SPDConfig,
    dead_time_filter,
    heralds_in_range,
)
from afclink.lockchain import DriftModel, LaserId, LockChainConfig, RfOffsets
from afclink.memory import KIND_ECHO, KIND_LOST, KIND_OUT_OF_BAND, KIND_PROMPT, InhomogeneousProfile, storage_branches
from afclink.source import SourceConfig, sample_pairs


def test_gate_thinned_signal_noise_matches_gate_strata(monkeypatch):
    # The engine draws signal-arm noise on the reach of the detected heralds
    # at the full arm rate and thins it by the gate.  That must reproduce the
    # stratified process: on open ∩ rel the rate the heralds' reach draws give
    # there, extinction times it on the closed set, and nothing elsewhere.
    # A reach draw is Poisson, or Poisson given that it holds a point (N1),
    # or empty (N0), and a point is kept with chance 1 / (the reaches that
    # hold it), so at x the rate is the arm rate times the mean of the
    # heralds' weights 1, 1 / reach_hit and 0 over the reaches that hold x.
    # With no pairs every memory entry is noise.
    heralds, origins, entries = [], [], []
    real_exit_times = pipeline.exit_times

    def spy_exit_times(entry_t, *args):
        entries.append(np.array(entry_t))
        return real_exit_times(entry_t, *args)

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
        real_reach_points = engine.reach_points

        def spy_reach_points(h, org, *args):
            heralds.append(np.array(h))
            origins.append(np.array(org))
            return real_reach_points(h, org, *args)

        engine.reach_points = spy_reach_points
        heralds.clear()
        origins.clear()
        entries.clear()
        engine.run_range((0, len(engine.batches)))
        assert len(heralds) == len(entries) == len(engine.batches)

        counts = np.zeros((2, 2))
        for (lo, hi), h, org, t in zip(engine.batches, heralds, origins, entries):
            windows = cfg.shutter.transmission_windows(lo, hi, cfg.duration)
            span = (float(windows[0, 0]), float(windows[-1, 1]))
            closed = iv.intersect(windows, as_closures(h, cfg.shutter))
            lo, hi = cfg.signal_reach
            rel = iv.as_interval_set(h + lo, h + hi)
            open_rel = iv.intersect(iv.intersect(windows, rel), iv.complement(closed, span))
            in_open, in_closed = iv.contains(open_rel, t), iv.contains(closed, t)
            assert np.all(in_open ^ in_closed)
            # the reach draws' rate on each piece between the strata's and
            # the reaches' edges
            weight = np.select([org == pipeline._ORIGIN_N1, org == ORIGIN_CONVERSION_NOISE], [1 / engine.reach_hit, 0.0], 1.0)
            edges = np.unique(np.concatenate([h + lo, h + hi, open_rel.ravel(), closed.ravel()]))
            mid = 0.5 * (edges[1:] + edges[:-1])
            first, k = heralds_in_range(h, mid, lo, hi)
            cum = np.concatenate([[0.0], np.cumsum(weight)])
            expected = rate * np.diff(edges) * (cum[first + k] - cum[first]) / np.maximum(k, 1)
            counts[0] += (in_open.sum(), expected[iv.contains(open_rel, mid)].sum())
            counts[1] += (
                in_closed.sum(), cfg.shutter.extinction * expected[iv.contains(closed, mid)].sum()
            )
        z = (counts[:, 0] - counts[:, 1]) / np.sqrt(counts[:, 1])
        assert np.all(np.abs(z) < 4), (seed, counts, z)
        totals += counts

    z = (totals[:, 0] - totals[:, 1]) / np.sqrt(totals[:, 1])
    assert np.all(np.abs(z) < 4), (totals, z)
    assert totals[1, 1] > 1000  # the closed stratum is resolved


def test_every_stage_draws_from_its_own_stream(monkeypatch):
    # two stages that share a stage id would share draws without any error:
    # every _S_* id must be distinct and name the stage of exactly one
    # _stream or _spawn_seed call, and every such call must name one.  A
    # stream costs about 23 us to create, so one batch creates at most
    # eight; a new draw takes an existing stage's stream
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

    made = []
    real_stream = pipeline._stream
    monkeypatch.setattr(pipeline, "_stream", lambda *key: made.append(key) or real_stream(*key))
    engine = pipeline._Engine(load_bundled_scenario("multiplexed_25mode_10km_smoke"))
    engine.run_range((1, 2))
    assert len(made) <= 8, made


def test_signal_reach_covers_a_gate_that_outlasts_the_histogram():
    # a P3 photon (counted, never drawn) is taken to meet an open gate, so
    # the reach must hold every closure even when the gate reopens after
    # tau_max (1.4 us)
    cfg = ScenarioConfig(
        name="late_gate", seed=0, duration=1.2, source=SourceConfig(total_pair_rate=500.0, n_modes=25),
        shutter=ShutterSchedule(echo_window=(900e-9, 1500e-9)),
    )
    lo, hi = cfg.signal_reach
    assert hi == 1500e-9 + cfg.detectors.signal.jitter_margin
    h = np.array([0.4, 0.4 + 700e-9])
    closed = as_closures(h, cfg.shutter)
    assert np.all(closed[:, 0] >= h[0] + lo) and np.all(closed[:, 1] <= h[-1] + hi)
    # every shipped histogram outlasts its gate: their reach ends at tau_max
    for name in bundled_scenarios():
        shipped = load_bundled_scenario(name)
        assert shipped.histogram.tau_max > shipped.shutter.echo_window[1]
        assert shipped.signal_reach[1] == shipped.histogram.tau_max + shipped.detectors.signal.jitter_margin


@functools.lru_cache(maxsize=None)
def _far_engine(duration: float, gate_end: float, jitter_fwhm: float, dt: float, noise: float) -> pipeline._Engine:
    # the shipped dead times, whose signal one widens the reach, at the low
    # noise rate; none at the high one, which they would make an invalid
    # document (click rate x dead time above its cap)
    dead = {"dead_time": 0.0} if noise > 1e3 else {}
    return pipeline._Engine(ScenarioConfig(
        name="far", seed=0, duration=duration, source=SourceConfig(total_pair_rate=500.0, n_modes=25),
        converter=ConverterConfig(noise_rate_per_mw=noise),
        shutter=ShutterSchedule(echo_window=(900e-9, gate_end)),
        detectors=DetectorSettings(
            herald=SPDConfig(**dead),
            signal=SPDConfig(dark_rate=300.0, jitter_fwhm=jitter_fwhm, **dead),
        ),
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
    # herald arrival rates times reach length of about 0.03 and 2.7
    noise=st.sampled_from([40e3 / 140.0, 4e6 / 140.0]),
    photons=st.lists(st.tuples(st.integers(0, 9), st.floats(-4e-6, 4e-6)), min_size=1, max_size=40),
)
def test_far_path_takes_no_photon_a_herald_or_a_window_edge_can_see(
    duration, short_first, gate_end, jitter_fwhm, dt, noise, photons
):
    # In each lock step, P3's expected length (far_lengths) is the inner_f
    # time, each point x weighted by the chance exp(-r ov(x)) that none of
    # the heralds, arriving at rate r, lands in x's inverse reach
    # [x - hi, x - lo], ov(x) its overlap with every window, against a naive
    # loop over rows, steps and the pieces on which ov is linear; and an edge
    # zone holds every pair time whose photon can enter outside inner_f.
    # Probes sit near the window edges and the lock-step cuts.
    eng = _far_engine(duration, gate_end, jitter_fwhm, dt, noise)
    cfg = eng.cfg
    windows = cfg.shutter.transmission_windows(0, 2, cfg.duration)
    if short_first is not None:
        windows[0, 1] = windows[0, 0] + short_first
    k0 = math.ceil(0.3 / dt)
    anchors = np.concatenate([windows.ravel(), dt * np.arange(k0, k0 + 6)])
    lo, hi = cfg.signal_reach
    inner, edges = eng.zones(windows)
    first, last = eng.batch_steps[0]
    far = eng.far_lengths(windows, inner, first, last)
    assert len(far) == last - first + 1 and np.all(far >= 0)

    m = 36 * cfg.source.coherence_time
    j = cfg.detectors.signal.jitter_margin
    start, end = j + m, -(cfg.memory.echo_delay + (j + m))
    inner_rows = [(w0 + start, w1 + end) for w0, w1 in windows if w1 + end > w0 + start]
    det = cfg.detectors.herald
    r = cfg.source.total_pair_rate * (det.efficiency * eng.p_signal * cfg.source.weights()).sum()
    r += cfg.converter.arm_noise_rate * det.efficiency + det.dark_rate

    def ov(x):
        return sum(_overlap((x - hi, x - lo), w) for w in windows)

    kinks = sorted(w + d for w in windows.ravel() for d in (lo, hi))
    for i, k in enumerate(range(first, last + 1)):
        step = (-math.inf if k == first else dt * k, math.inf if k == last else dt * (k + 1))
        want = 0.0
        for a in inner_rows:
            p0, p1 = max(a[0], step[0]), min(a[1], step[1])
            cuts = [p0] + [c for c in kinks if p0 < c < p1] + [p1]
            for x0, x1 in zip(cuts[:-1], cuts[1:]):
                if x1 > x0:
                    d = r * (ov(x1) - ov(x0))
                    want += (x1 - x0) * math.exp(-r * ov(x0)) * (-math.expm1(-d) / d if d else 1.0)
        assert far[i] == pytest.approx(want, rel=1e-9, abs=1e-15), (k, far[i], want)

    t = np.array([anchors[i] + x for i, x in photons])
    in_window = np.array([any(w0 <= x < w1 for w0, w1 in windows) for x in t])
    core = np.array([any(a + m <= x < b - m for a, b in inner_rows) for x in t])
    assert np.array_equal(iv.contains(edges, t), in_window & ~core)


@functools.cache
def _reach_engine() -> pipeline._Engine:
    # the reach rate times reach length is about 1.1, so that a noise
    # herald's reach draw holds a point (N1) about two times in three; no
    # dead time, so that the document is valid at that noise
    return pipeline._Engine(ScenarioConfig(
        name="reach", seed=0, duration=12.0, source=SourceConfig(total_pair_rate=500.0, n_modes=25),
        converter=ConverterConfig(noise_rate_per_mw=8e5 / 140.0),
        detectors=DetectorSettings(herald=SPDConfig(dead_time=0.0), signal=SPDConfig(dead_time=0.0)),
        lock=LockSettings(mode="ideal"),
    ))


# bound on |z| of every count compared below, fixed before the first run
_REACH_Z = 5.0
_REACH_DRAWS = 300


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    # herald arrivals on a grid of an eighth of the reach, near and across
    # the edges of two windows, with ties
    arrivals=st.lists(
        st.tuples(st.sampled_from([ORIGIN_PAIR, ORIGIN_DARK_COUNT, ORIGIN_CONVERSION_NOISE]), st.integers(-2, 30)),
        min_size=1, max_size=8,
    ),
    # a dead time of three eighths of the reach loses some of them
    dead=st.sampled_from([0.0, 3 / 8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reach_points_are_a_poisson_draw_on_the_union_of_reaches(arrivals, dead, seed):
    # The mark-and-thin kernel: each detected herald's own reach draw
    # (Poisson for a pair or a dark; for noise, Poisson given that it holds
    # a point with chance reach_hit, else empty), kept inside the windows,
    # each point then kept with chance 1 / (the reaches that hold it).
    # Pooled over draws, its points must be a Poisson process at the reach
    # rate on the windows within the union of the reaches of the heralds the
    # dead time leaves, which a naive loop over the heralds builds.
    eng = _reach_engine()
    lo, hi = eng.cfg.signal_reach
    unit = (hi - lo) / 8
    windows = np.array([[0.0, 12.0], [18.0, 27.0]]) * unit
    order = sorted(arrivals, key=lambda a: a[1])
    t = np.array([k for _, k in order], dtype=float) * unit
    org = np.array([o for o, _ in order], dtype=np.uint8)
    alive = dead_time_filter(t, dead * unit)
    h, org = t[alive], org[alive]

    cuts = np.unique(np.concatenate([h + lo, h + hi, windows.ravel()]))
    mid = 0.5 * (cuts[1:] + cuts[:-1])
    covered = np.array([
        any(x0 + lo <= x < x0 + hi for x0 in h) and any(w0 <= x < w1 for w0, w1 in windows) for x in mid
    ])
    rng = np.random.default_rng(seed)
    got = np.zeros(len(mid))
    for _ in range(_REACH_DRAWS):
        marked = org.copy()
        marked[(org == ORIGIN_CONVERSION_NOISE) & (rng.random(len(org)) < eng.reach_hit)] = pipeline._ORIGIN_N1
        x = eng.reach_points(h, marked, windows, rng)
        assert np.all((x >= cuts[0]) & (x < cuts[-1]))
        got += np.histogram(x, bins=cuts)[0]
    assert np.all(got[~covered] == 0)
    want = _REACH_DRAWS * eng.reach_rate * np.diff(cuts)[covered]
    got = got[covered]
    resolved = want >= 25
    z = (got - want) / np.sqrt(want)
    assert abs((got.sum() - want.sum()) / math.sqrt(want.sum())) < _REACH_Z, (got, want)
    assert np.all(np.abs(z[resolved]) < _REACH_Z), (got, want, z)


def _covers(rows: list, a: float, b: float) -> bool:
    """Whether the union of the half-open ``rows``, sorted by start, holds
    all of [a, b)."""
    reached = a
    for r0, r1 in rows:
        if r0 > reached:
            break
        reached = max(reached, r1)
    return reached >= b


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n_pairs=st.integers(0, 6),
    n_edge=st.integers(1, 6),
    n_darks=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparse_rows_hold_every_herald_arrival_something_drawn_can_see(n_pairs, n_edge, n_darks, seed):
    # The rows U on which herald_arm draws N0 (the centres and half-width it
    # hands to length_below) must hold every N0 arrival whose detection,
    # within the herald jitter margin J of it, a drawn herald can reach
    # through its dead time or a shared reach point, or its pair photon
    # within the delay margin m; the inverse reach [x - hi, x - lo] of every
    # P2 photon x; and the inverse histogram range of every signal dark.
    # Checked against a walk over the rows, at the flagship document on a
    # short run.
    eng = pipeline._Engine(dataclasses.replace(load_bundled_scenario("multiplexed_25mode_10km"), duration=12.0))
    cfg = eng.cfg
    lo, hi = cfg.signal_reach
    det = cfg.detectors.herald
    j, m, h = det.jitter_margin, cfg.delay_margin, cfg.histogram
    windows = cfg.shutter.transmission_windows(0, 3, cfg.duration)
    rng = np.random.default_rng(seed)

    def times(n):
        w = windows[rng.integers(0, len(windows), n)]
        return np.sort(w[:, 0] + (w[:, 1] - w[:, 0]) * rng.random(n))

    pair_t, edge_t, darks = times(n_pairs), times(n_edge), times(n_darks)
    seen = {}
    length_below = iv.length_below

    def spy(centres, half, t):
        seen.update(centres=centres.copy(), half=half)
        return length_below(centres, half, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iv, "length_below", spy)
        h_times, h_org = eng.herald_arm(0, windows, pair_t, edge_t, darks, np.zeros(pipeline._N_SLOTS, np.int64))
    half = seen["half"]
    rows = [(c - half, c + half) for c in seen["centres"]]

    def must_hold(t, widen):
        # dead time, a shared reach point, the pair photon's inverse reach
        for a, b in ((-det.dead_time, det.dead_time), (lo - hi, hi - lo), (-hi - m, m - lo)):
            assert _covers(rows, t + a - widen, t + b + widen), (t, a, b)

    # a pair herald is detected within J of its arrival, and the N0 herald
    # it meets arrives within J of its own detection
    for t in pair_t:
        must_hold(t, 2 * j)
    # an N1 herald's or a herald dark's detection lies within J of its
    # centre, and the N0 herald it meets arrives within J of its detection
    for t in h_times[(h_org == pipeline._ORIGIN_N1) | (h_org == ORIGIN_DARK_COUNT)]:
        must_hold(t, j)
    for x in edge_t:
        assert _covers(rows, x - hi - j, x - lo + j), x
    for d in darks:
        assert _covers(rows, d - h.tau_max - j, d - h.tau_min + j), d


def test_n0_heralds_take_the_jitter():
    # N0 is drawn on U inside the windows and then joins the one jittered
    # detector run: with a 10 ms herald jitter some N0 heralds are detected
    # outside the windows, as the brute force detects any jittered herald
    flagship = load_bundled_scenario("multiplexed_25mode_10km")
    herald = dataclasses.replace(flagship.detectors.herald, jitter_fwhm=10e-3)
    cfg = dataclasses.replace(
        flagship, duration=12.0, detectors=dataclasses.replace(flagship.detectors, herald=herald)
    )
    eng = pipeline._Engine(cfg)
    windows = cfg.shutter.transmission_windows(0, 20, cfg.duration)
    none = np.empty(0)
    h_times, h_org = eng.herald_arm(0, windows, none, none, none, np.zeros(pipeline._N_SLOTS, np.int64))
    n0 = h_times[h_org == ORIGIN_CONVERSION_NOISE]
    assert len(n0) > 0
    assert not iv.contains(windows, n0).all()


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


# one chunk of the flagship at 14 mW pump and 2e4 pairs/s, whose batches
# hold the largest working set: faults per batch of batches 1-5, after batch
# 0 has grown the heap to the batch working set
_BATCH_FAULTS = """
import dataclasses, resource
from afclink.config import load_bundled_scenario
from afclink.pipeline import _Engine
flagship = load_bundled_scenario("multiplexed_25mode_10km")
converter = dataclasses.replace(flagship.converter, pump_power=14.0)
engine = _Engine(dataclasses.replace(flagship, duration=240.0, converter=converter).with_rate(2e4))
engine.run_range((0, 1))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
engine.run_range((1, 6))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap-trim floor is glibc's")
def test_a_chunk_keeps_its_batch_memory():
    # without the raised trim floor glibc hands each batch's freed working set
    # back to the kernel, and the next batch faults it in again (~120 faults);
    # a fresh interpreter, since an earlier test's large free could have
    # raised the floor for this process already
    src = Path(__file__).resolve().parent.parent / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _BATCH_FAULTS], env={**os.environ, "PYTHONPATH": pythonpath},
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) < 20


def test_a_batch_fits_under_the_heap_trim_floor():
    # _BATCH_FAULTS's document: the raised trim floor keeps at most
    # 2 * _HEAP_FLOOR_BYTES of freed batch memory mapped, and a batch that
    # outgrows it is trimmed and faulted in again every batch
    flagship = load_bundled_scenario("multiplexed_25mode_10km")
    converter = dataclasses.replace(flagship.converter, pump_power=14.0)
    engine = pipeline._Engine(dataclasses.replace(flagship, duration=240.0, converter=converter).with_rate(2e4))
    hist = CoincidenceHistogram(**dataclasses.asdict(engine.cfg.histogram))
    vec = np.zeros(pipeline._N_SLOTS, dtype=np.int64)
    engine.run_batch(0, hist, vec)
    tracemalloc.start()
    try:
        engine.run_batch(1, hist, vec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * pipeline._HEAP_FLOOR_BYTES


@pytest.mark.parametrize("name", bundled_scenarios())
def test_an_hour_holds_whole_batches(name):
    # an hour is a whole number of batches, so per-hour rows of a run's
    # counts each hold whole batches
    cfg = load_bundled_scenario(name)
    engine = pipeline._Engine(dataclasses.replace(cfg, duration=4 * pipeline._BATCH_SECONDS))
    lo, hi = engine.batches[0]
    per_hour = 3600.0 / ((hi - lo) * cfg.shutter.cycle_period)
    assert per_hour == pytest.approx(round(per_hour), abs=1e-9)
