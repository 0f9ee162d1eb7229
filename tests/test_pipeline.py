"""Engine-level checks of the noise shortcuts in ``pipeline._Engine``."""

import ast
from pathlib import Path

import numpy as np

from afclink import intervals as iv
from afclink import pipeline
from afclink.channel import ShutterSchedule, as_closures
from afclink.config import LockSettings, ScenarioConfig
from afclink.source import SourceConfig


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
        rate = 0.5 * cfg.converter.noise_rate  # beam-splitter share
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
    # _stream or _derived_seed call, and every such call must name one
    tree = ast.parse(Path(pipeline.__file__).read_text(encoding="utf-8"))
    ids = {
        target.id: node.value.value
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name) and target.id.startswith("_S_")
    }
    assert len(ids) >= 2 and len(set(ids.values())) == len(ids), ids
    stages = [
        node.args[1] for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_stream", "_derived_seed")
    ]
    assert all(isinstance(s, ast.Name) for s in stages), [ast.dump(s) for s in stages]
    assert sorted(s.id for s in stages) == sorted(ids)
