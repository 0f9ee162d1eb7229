import ast
import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from afclink import calibrate, cli, pipeline
from afclink.calibrate import CalibrationError, calibrate_rate, sweep, sweep_csv
from afclink.channel import ConverterConfig
from afclink.cli import main as cli_main
from afclink.config import (
    LockSettings,
    ScenarioConfig,
    ScenarioError,
    bundled_scenarios,
    config_hash,
    load_bundled_scenario,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_dict,
    scenario_to_json,
)
from afclink.detection import CoincidenceHistogram
from afclink.lockchain import LockRunResult, RfOffsets
from afclink.memory import AbsorptionSpectrum
from afclink.reporting import RunReport, analyze, run_scenario
from afclink.source import SourceConfig


def small_cfg(duration=60.0, rate=500.0, seed=777, **kw):
    return ScenarioConfig(
        name="test_small", seed=seed, duration=duration,
        source=SourceConfig(total_pair_rate=rate, n_modes=25),
        lock=LockSettings(mode="ideal"), **kw,
    )


# -- configuration ----------------------------------------------------------

# config_hash of each bundled scenario: decoding must keep every value as the
# document gives it (an int stays an int), or the provenance hash moves
_BUNDLED_HASHES = {
    "lock_12h": "56ce154acc1c75bcb4bd097ff2003da2c861c205cb25c083e1df5f3b1509e671",
    "multiplexed_25mode_10km": "743b52c2c052854ca1c490c724ef5d64e53771ab9bc5315e89d9b5b8ebd06b60",
    "multiplexed_25mode_10km_smoke": "810cb801bc64574dd0a52851e8b8a6e8a672735bcca87b1dec05be2bd49169b5",
    "multiplexed_5mode_5m": "7ab2d795860177317e3c37fcce1cea5fcff817511c7e9fb553723d1bbe5b52ff",
    "single_mode_5m": "f5c0a25566b9c3bbc7e9209b705765efedb45dacd84602f179cbc32d67f987af",
}


def test_json_round_trip():
    assert bundled_scenarios() == sorted(_BUNDLED_HASHES)
    for name, want in _BUNDLED_HASHES.items():
        cfg = load_bundled_scenario(name)
        again = scenario_from_json(scenario_to_json(cfg))
        assert again == cfg, name
        assert config_hash(again) == config_hash(cfg) == want, name


def _keys_match_fields(obj, doc, path):
    """Check that, at ``path`` and below, the keys of the document ``doc``
    are the fields of the dataclass ``obj``."""
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
        assert sorted(doc) == sorted(names), path
        for name in names:
            _keys_match_fields(getattr(obj, name), doc[name], f"{path}.{name}")
    elif isinstance(obj, dict):  # keyed by an enum, encoded as its value
        assert sorted(doc) == sorted(getattr(k, "value", k) for k in obj), path
        for k, v in obj.items():
            key = getattr(k, "value", k)
            _keys_match_fields(v, doc[key], f"{path}.{key}")
    elif isinstance(obj, tuple):
        for i, (o, d) in enumerate(zip(obj, doc)):
            _keys_match_fields(o, d, f"{path}[{i}]")


def test_document_keys_are_the_dataclass_fields():
    # documents map 1:1 onto the dataclasses: at every level, a scenario's
    # encoding holds exactly the fields of the dataclass there
    for name in bundled_scenarios():
        cfg = load_bundled_scenario(name)
        _keys_match_fields(cfg, scenario_to_dict(cfg), name)


def test_simulated_lock_with_a_null_chain_keeps_its_null(tmp_path):
    # a null chain stays null in the loaded object and in its document, and
    # the run takes the default chain, which every bundled document spells out
    spelled = scenario_to_dict(load_bundled_scenario("multiplexed_25mode_10km_smoke"))
    spelled["duration"] = 12.0
    null = json.loads(json.dumps(spelled))
    null["lock"]["config"] = None
    cfg = scenario_from_dict(null)
    assert cfg.lock.config is None
    assert scenario_to_dict(cfg)["lock"]["config"] is None
    for name, doc in (("null", null), ("spelled", spelled)):
        run_scenario(scenario_from_dict(doc), out_dir=str(tmp_path / name), workers=1)
    for f in ("lock_telemetry.csv", "histogram.csv"):
        assert (tmp_path / "null" / f).read_bytes() == (tmp_path / "spelled" / f).read_bytes(), f


def test_unknown_key_rejected_with_path():
    d = scenario_to_dict(load_bundled_scenario("multiplexed_25mode_10km"))
    d["shutter"]["extinctoin"] = 0.5
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(d)
    assert "shutter.extinctoin" in str(err.value)


def test_invalid_value_names_field():
    d = scenario_to_dict(load_bundled_scenario("multiplexed_25mode_10km"))
    d["link"]["loss"] = -1.0
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(d)
    assert "link" in str(err.value)


_LOCK = "lock.config.comb_locks.tpc_pump_1514"

# malformed documents as (key path, value, field the error must name); each
# is rejected at load, none runs or fails mid-run
_MALFORMED = [
    ("source", 5, "source"),
    ("source", "<delete>", "source"),
    ("shutter", [1, 2], "shutter"),
    ("lock.config", 5, "lock.config"),
    ("lock.mode", "simulate", "lock.mode"),
    ("source.n_modes", 25.0, "source.n_modes"),
    ("source.n_modes", True, "source.n_modes"),
    ("source.n_modes", 4, "source.n_modes"),
    ("source.mode_weights", [0.5, "0.5"], "source.mode_weights[1]"),
    ("seed", 1.5, "seed"),
    ("seed", -1, "seed"),
    ("duration", 0, "duration"),
    ("name", None, "name"),
    ("link.length", True, "link.length"),
    ("link.length", float("nan"), "link.length"),
    ("histogram.signal_window", [9e-7, 1e-6, 1.1e-6], "histogram.signal_window"),
    ("histogram.tau_min", 2e-6, "histogram"),
    ("histogram.bin_width", 0, "histogram"),
    ("histogram.noise_window", [1.1e-6, 1.2e-6], "histogram"),
    # a window that holds no whole bin has no counts to report
    ("histogram.bin_width", 1e-6, "histogram"),
    ("histogram.noise_window", [1.155e-6, 1.1551e-6], "histogram"),
    # keys of older documents: one field says each setting, so these are unknown
    (f"{_LOCK}.enabled", "no", f"{_LOCK}.enabled"),
    (f"{_LOCK}.setpoint", 0.0, f"{_LOCK}.setpoint"),
    ("lock.config.monitor_lock.enabled", True, "lock.config.monitor_lock.enabled"),
    ("lock.config.drift.tpc_pump_1514.kind", "random_walk", "lock.config.drift.tpc_pump_1514.kind"),
    (f"{_LOCK}.gain", -1.0, _LOCK),
    ("lock.config.drift.tpc_pump_1515", {}, "lock.config.drift.tpc_pump_1515"),
    ("lock.config.drift.monitor_606", {}, "lock.config.drift.monitor_606"),
    ("memory.afc.mode_offsets", [0.0], "memory.afc.mode_offsets"),
    # the fiber delay is common to both arms and cancels, so the link has none
    ("link.group_index", 1.468, "link.group_index"),
    # an ideal lock runs no chain, so a chain it would ignore is refused
    ("lock.mode", "ideal", "lock.config"),
    # the echo (at 650 ns with 2 MHz teeth) must land in both windows
    ("memory.afc.tooth_spacing", 2e6, "histogram.signal_window"),
    ("shutter.echo_window", [9e-7, 1e-6], "shutter.echo_window"),
    # 10 MHz between modes against a 9 MHz pit half-width: the pits overlap
    ("source.fsr", 10e6, "memory.afc.pit_halfwidth"),
    # converter noise is one field, the rate per mW of pump
    ("converter.noise_rate_ref", 40e3, "converter.noise_rate_ref"),
    ("converter.reference_power", 140.0, "converter.reference_power"),
    ("converter.noise_rate_per_mw", -1.0, "converter"),
    # 10 kHz of herald clicks x 2 us is 2e-2: herald dead-time chains the
    # sparse herald stream cuts would no longer be second order
    ("detectors.herald.dead_time", 2e-6, "detectors.herald.dead_time"),
]


@pytest.mark.parametrize(
    "path, value, field", _MALFORMED, ids=[f"{p}={v}" for p, v, _ in _MALFORMED]
)
def test_malformed_document_rejected_with_path(path, value, field):
    d = scenario_to_dict(load_bundled_scenario("multiplexed_25mode_10km_smoke"))
    *parents, key = path.split(".")
    obj = d
    for p in parents:
        obj = obj[p]
    if value == "<delete>":
        del obj[key]
    else:
        obj[key] = value
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(d)
    assert err.value.field == field


# steps for the leaves that x1.1 would not move or not keep valid in
# test_every_setting_reaches_the_run: a mode count stays odd, the signal
# window's end and the noise window's start sit 5 ns apart, a 10 % wider
# pit takes in too few photons in 6 s, and the gate's opening time is read
# only by the noise_in_echo_window count, whose clicks 900-990 ns after a
# herald are too rare to move at some seeds; opening at 270 ns, still after
# herald_close_delay, moves that count by 11 on average over 30 seeds
_LEAF_STEPS = {
    "source.n_modes": lambda v: v + 2,
    "histogram.signal_window.1": lambda v: 0.99 * v,
    "histogram.noise_window.0": lambda v: 1.01 * v,
    "memory.afc.pit_halfwidth": lambda v: 3 * v,
    "shutter.echo_window.0": lambda v: 0.3 * v,
}


def _leaf_paths(obj, path=()):
    """Key paths of the numbers in a scenario document (a boolean is none)."""
    if isinstance(obj, (dict, list)):
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path


def _reported(doc: dict) -> tuple[str, bytes]:
    """What a run of ``doc`` reports: its summary less the config hash, and
    its histogram counts."""
    rep = run_scenario(scenario_from_dict(doc), workers=1)
    summary = rep.summary_dict()
    del summary["config_sha256"]
    return json.dumps(summary, sort_keys=True), rep.histogram.counts.tobytes()


def test_every_setting_reaches_the_run():
    # each numeric setting of a 6 s smoke slice at 2e4 pairs/s and extinction
    # 0.05, stepped alone, must move the report: a setting no output reads
    # is a dead field
    doc = scenario_to_dict(load_bundled_scenario("multiplexed_25mode_10km_smoke"))
    doc["duration"] = 6.0
    doc["source"]["total_pair_rate"] = 2e4
    doc["shutter"]["extinction"] = 0.05
    # the noise window runs on past the gate's reopening at 1.2 us, so that
    # it holds a resolved floor (about 16 counts, most of them open-gate
    # noise): the shipped 40 ns window holds 1.8 on average over seeds and
    # none at about one seed in five, where no noise-window setting can move
    # the report
    doc["histogram"]["noise_window"] = [1155e-9, 1270e-9]
    base = _reported(doc)
    paths = list(_leaf_paths(doc))
    dead = []
    for path in paths:
        stepped = json.loads(json.dumps(doc))
        obj = stepped
        for k in path[:-1]:
            obj = obj[k]
        name, v = ".".join(map(str, path)), obj[path[-1]]
        if name in _LEAF_STEPS:
            obj[path[-1]] = _LEAF_STEPS[name](v)
        elif isinstance(v, int):
            obj[path[-1]] = v + 1
        else:
            obj[path[-1]] = v * 1.1 if v else 0.1
        if _reported(stepped) == base:
            dead.append(name)
    assert any(p[0] == "lock" for p in paths)  # the simulated chain is scanned too
    assert dead == [], f"of {len(paths)} settings, these reach no output: {dead}"


def test_prep_phase_shorter_than_batch_edge_reach_rejected():
    # batches run independently, which is exact only while the preparation
    # phase between them outlasts the signal reach (tau_max - tau_min +
    # memory delay + signal dead time + 16 jitter sigmas) plus the herald
    # dead time, about 2.72 us here, and the delay margin of 36 coherence
    # times, 0.81 us at the shipped 7.1 MHz linewidth
    d = scenario_to_dict(load_bundled_scenario("multiplexed_25mode_10km"))
    d["shutter"]["prep_duration"] = 2e-6
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(d)
    assert err.value.field == "shutter.prep_duration"
    d["shutter"]["prep_duration"] = 4e-6
    assert scenario_from_dict(d).shutter.prep_duration == 4e-6
    # a 1 Hz linewidth stretches the delay margin to 5.7 s, far past the
    # smoke document's 0.3 s preparation phase: a photon delayed across a
    # batch edge would be gated as if it entered during preparation
    d = scenario_to_dict(load_bundled_scenario("multiplexed_25mode_10km_smoke"))
    d["source"]["linewidth"] = 1.0
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(d)
    assert err.value.field == "shutter.prep_duration"


def test_scenario_rejects_overlapping_pits():
    # the memory prepares one pit per source mode: 10 MHz between modes
    # holds two pits of 4.9 MHz half-width, but not two of 9 MHz
    d = scenario_to_dict(load_bundled_scenario("multiplexed_25mode_10km_smoke"))
    d["source"]["fsr"] = 10e6
    with pytest.raises(ScenarioError, match="pits overlap") as err:
        scenario_from_dict(d)
    assert err.value.field == "memory.afc.pit_halfwidth"
    d["memory"]["afc"]["pit_halfwidth"] = 4.9e6
    assert scenario_from_dict(d).memory.afc.pit_halfwidth == 4.9e6


@pytest.mark.parametrize("dead_time", [1e-6, 5e-6])
def test_signal_dead_time_beyond_the_reach_rejected(dead_time):
    # the signal reach covers one dead time of shadowing, which holds while
    # the signal detector's highest click rate r_max keeps r_max x dead time
    # <= 1e-2; at the reference slice's rates (5x converter noise, 2e4
    # pairs/s) that product is 2.7e-3 at 50 ns, 8.1e-3 at 150 ns, 0.054 at
    # 1 us, 0.27 at 5 us
    d = scenario_to_dict(load_bundled_scenario("multiplexed_25mode_10km"))
    d["converter"]["noise_rate_per_mw"] *= 5
    d["source"]["total_pair_rate"] = 2e4
    d["detectors"]["signal"]["dead_time"] = 150e-9
    assert scenario_from_dict(d).detectors.signal.dead_time == 150e-9
    d["detectors"]["signal"]["dead_time"] = dead_time
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(d)
    assert err.value.field == "detectors.signal.dead_time"


def test_bundled_scenarios_load():
    names = bundled_scenarios()
    for expected in (
        "lock_12h",
        "multiplexed_25mode_10km",
        "multiplexed_5mode_5m",
        "single_mode_5m",
    ):
        assert expected in names
    assert len(names) == 5
    for n in names:
        load_bundled_scenario(n)


def test_few_mode_scenarios_match_mode_plan():
    m5 = load_bundled_scenario("multiplexed_5mode_5m")
    m1 = load_bundled_scenario("single_mode_5m")
    assert m5.link.length == pytest.approx(0.005)
    assert m1.duration == pytest.approx(42 * 3600)
    assert m1.source.total_pair_rate == pytest.approx(m5.source.total_pair_rate / 5)


# -- pipeline ----------------------------------------------------------------

def test_run_deterministic_byte_identical():
    cfg = small_cfg()
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert a.to_json() == b.to_json()
    assert a.histogram.to_csv(a.smoothed) == b.histogram.to_csv(b.smoothed)
    assert a.summary_csv() == b.summary_csv()


# SHA-256 of the seeded payload. A change that keeps the random draw order
# must leave these bytes alone; a change that alters the draw order (or the
# report format) updates the constants and says so in CHANGES.md.
_PINNED_PAYLOADS = {
    "smoke": {
        "report.json": "46bc33e6c6798bc254db8e55be45947c71db455fee60087f1c921c89cff2b5db",
        "histogram.csv": "8e2420deff1c66db03faf58590f947b87281fd3f8659fb23c3de51b2971da7f9",
        "summary.csv": "5feec2894764a3e6d715ad14dc914639adaa2f07747c8d9475415926398b39c7",
    },
    "pair_rich_30s": {
        "report.json": "b80a7e8dc2d3c6f2a58aada9fc43bae744da3f6b686960032b74291763daebad",
        "histogram.csv": "6de1dde12991ac8e5bfa6fd86e1461414493a5d93af784fee60ecc6736a712a6",
        "summary.csv": "5cd387d0072cc455e3eb20ba5126ab3c8c4716a14c2a05741904a6b9a4f690ac",
    },
    "ideal_lock_30s": {
        "report.json": "2e4904102e49031ad0f05e8b64658913fc4ad6e7975b974b293ca6b7d4bdccfd",
        "histogram.csv": "9266a48cbbde5b7c344ec12e8269ad08eaae610d487f89f5b2836cf13d14ffd5",
        "summary.csv": "30428793861f78850c54296d6b055979798a8547911e743f8e89c438f3bfbb34",
    },
}


def test_seeded_payload_is_pinned(tmp_path):
    flagship = load_bundled_scenario("multiplexed_25mode_10km")
    # a pair-dominated slice: a tenth of the converter noise, 2e4 pairs/s
    pair_rich = dataclasses.replace(
        flagship,
        duration=30.0,
        converter=dataclasses.replace(flagship.converter, pump_power=14.0),
    ).with_rate(2e4)
    smoke = load_bundled_scenario("multiplexed_25mode_10km_smoke")
    # the smoke link under an ideal lock, which reports no lock telemetry
    ideal = dataclasses.replace(smoke, duration=30.0, lock=LockSettings(mode="ideal")).with_rate(2e4)
    cfgs = {"smoke": smoke, "pair_rich_30s": pair_rich, "ideal_lock_30s": ideal}
    for name, cfg in cfgs.items():
        out = tmp_path / name
        run_scenario(cfg, out_dir=str(out), workers=1)
        assert (out / "lock_telemetry.csv").exists() == (cfg.lock.mode == "simulated"), name
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in _PINNED_PAYLOADS[name]}
        assert got == _PINNED_PAYLOADS[name], name


def test_empty_last_batch_reports_nothing():
    # at a 0.6 s cycle with 0.3 s of preparation, 12.3 s ends inside the
    # preparation phase of cycle 20, a batch of its own: that batch has no
    # transmission window, and the run reports what the 12 s run reports
    smoke = load_bundled_scenario("multiplexed_25mode_10km_smoke").with_rate(2e4)
    short, long = (dataclasses.replace(smoke, duration=d) for d in (12.0, 12.3))
    assert pipeline._Engine(long).batches[-1] == (20, 21)
    assert len(long.shutter.transmission_windows(20, 21, long.duration)) == 0
    a, b = run_scenario(short, workers=1), run_scenario(long, workers=1)
    assert a.counts["pairs_generated"] > 0
    assert np.array_equal(a.histogram.counts, b.histogram.counts)
    summaries = [rep.summary_dict() for rep in (a, b)]
    for summary in summaries:
        del summary["duration"], summary["config_sha256"]
    assert summaries[0] == summaries[1]


def test_parallel_matches_serial():
    cfg = small_cfg(duration=90.0)
    if hasattr(os, "fork"):
        # the run below must reach the fork pool, not fall back to serial
        assert pipeline._effective_workers(2, len(pipeline._Engine(cfg).batches)) == 2
    a = run_scenario(cfg, workers=1)
    b = run_scenario(cfg, workers=2)
    assert np.array_equal(a.histogram.counts, b.histogram.counts)
    assert a.counts == b.counts


def test_origin_conservation():
    cfg = small_cfg()
    rep = run_scenario(cfg)
    by_origin = rep.counts["signal_by_origin"]
    assert sum(by_origin.values()) == rep.counts["signal_detected"]
    by_origin_h = rep.counts["heralds_by_origin"]
    assert sum(by_origin_h.values()) == rep.counts["heralds_detected"]
    assert set(by_origin) == {"pair", "conversion_noise", "dark_count"}


def test_zero_rate_run_is_degenerate():
    rep = run_scenario(small_cfg(rate=0.0))
    assert rep.counts["pairs_generated"] == 0
    # floor-only histogram: the excess over the noise floor sits inside shot
    # noise and the run is flagged (the reported SNR value is meaningless)
    assert rep.degenerate
    if rep.n_scaled is not None:
        assert abs(rep.s_counts - rep.n_scaled) < 3 * math.sqrt(rep.s_counts + rep.n_scaled) + 1


def test_zero_conversion_still_counts_every_pair():
    # no photon survives the converter, so the thinned source draws no pair;
    # the discarded pairs are still counted, and nothing divides by zero
    cfg = small_cfg(converter=ConverterConfig(efficiency=0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_scenario(cfg)
    expect = cfg.source.total_pair_rate * rep.transmission_time
    assert rep.counts["pairs_generated"] == pytest.approx(expect, abs=5 * math.sqrt(expect))
    assert rep.counts["heralds_by_origin"]["pair"] == 0
    assert rep.counts["signal_by_origin"]["pair"] == 0


def test_opaque_comb_runs_and_echoes_nothing():
    # a comb far deeper than any useful one absorbs every pair photon, all
    # of which arrive in a pit, for good: the run completes and reports
    # neither echo nor prompt
    d = scenario_to_dict(load_bundled_scenario("multiplexed_25mode_10km_smoke"))
    d["memory"]["afc"]["tooth_peak_depth"] = 1e200
    d["duration"] = 6.0
    d["source"]["total_pair_rate"] = 2e4
    rep = run_scenario(scenario_from_dict(d), workers=1)
    assert rep.counts["heralds_by_origin"]["pair"] > 0
    assert rep.counts["memory_outcomes"] == {"echo": 0, "prompt": 0, "out_of_band": 0}
    assert rep.counts["signal_by_origin"]["pair"] == 0


def test_forced_lock_mismatch_kills_echo():
    # a constant matching residual of 2.5 tooth spacings parks every photon
    # between teeth: storage still absorbs, but nothing rephases
    detuned_rf = RfOffsets(f_beat=83.4e6 + 2.875e6)
    base = small_cfg(duration=120.0, rate=2000.0)
    from afclink.lockchain import DriftModel, LockChainConfig
    from afclink.lockchain import DRIVEN_LASERS

    quiet = LockChainConfig(
        rf=detuned_rf,
        drift={laser: DriftModel() for laser in DRIVEN_LASERS},
    )
    cfg = dataclasses.replace(base, lock=LockSettings(mode="simulated", config=quiet))
    rep = run_scenario(cfg)
    ref = run_scenario(dataclasses.replace(base, lock=LockSettings(mode="ideal")))
    assert ref.counts["memory_outcomes"]["echo"] > 50
    assert rep.counts["memory_outcomes"]["echo"] == 0
    assert rep.summary_dict()["lock"]["max_abs_residual_hz"] == pytest.approx(2.875e6, rel=1e-2)


def test_report_files_written(tmp_path):
    out = str(tmp_path / "out")
    rep = run_scenario(small_cfg(), out_dir=out)
    for fname in ("report.json", "histogram.csv", "summary.csv"):
        assert os.path.exists(os.path.join(out, fname))
    payload = json.load(open(os.path.join(out, "report.json")))
    assert payload["S"] == rep.s_counts
    first = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert first[0] == "scenario,S,N,snr,duration_s,seed"


def test_unresolved_noise_floor_report():
    # an empty histogram, built without a run: the floor is unresolved, so
    # the report gives no N and no SNR, says why, and flags the run
    cfg = small_cfg()
    hist = CoincidenceHistogram(**dataclasses.asdict(cfg.histogram))
    rep = analyze(cfg, pipeline.RawRunResult(hist, {}, 0.0, None))
    summary = rep.summary_dict()
    assert summary["snr"] is None
    assert summary["snr_error"] == "noise floor unresolved"
    assert summary["N_scaled"] is None
    assert summary["degenerate"] is True
    assert json.loads(rep.to_json())["snr_error"] == "noise floor unresolved"
    row = next(csv.DictReader(rep.summary_csv().splitlines()))
    assert (row["N"], row["snr"]) == ("", "")


def test_run_report_declares_only_its_document_and_smoothed_curve():
    # a report is the run's outputs plus the document it ran and the smoothed
    # curve; every statistic is read from the histogram, so no field is
    # declared twice and none is stored that the histogram gives
    src = Path(__file__).resolve().parent.parent / "src" / "afclink"
    declared = {}
    for module in ("pipeline", "reporting"):
        for top in ast.parse((src / f"{module}.py").read_text(encoding="utf-8")).body:
            if isinstance(top, ast.ClassDef) and top.name in ("RawRunResult", "RunReport"):
                declared[top.name] = [n.target.id for n in top.body if isinstance(n, ast.AnnAssign)]
    assert declared["RunReport"] == ["cfg", "smoothed"]
    assert [f.name for f in dataclasses.fields(RunReport)] == declared["RawRunResult"] + ["cfg", "smoothed"]


def test_csv_writers_match_per_row_format():
    # the writers format every row in one call; the oracle is the per-row
    # f-string over numpy scalars that they must match byte for byte
    counts = np.random.default_rng(12).integers(0, 50, CoincidenceHistogram().n_bins)
    counts[:3] = (0, 10**6, 1)
    hist = CoincidenceHistogram(counts=counts)  # the first centres are negative
    smoothed = counts / 3.0
    smoothed[3:7] = (1 / 3, 2.5e-7, 5e-7, 1e6 + 1 / 3)
    rows = zip(hist.bin_centers() * 1e9, hist.counts, smoothed)
    assert hist.to_csv(smoothed) == "tau_ns,counts,smoothed\n" + "".join(
        f"{c:.4f},{n},{s:.6f}\n" for c, n, s in rows
    )
    residual = np.array([-1.234e-12, 0.0, 1 / 3, -7.5e-300, 2.875e6])
    # times that no decimal writes exactly, and times past 1e6 s
    for dt in (1 / 3, 250000.125):
        lock = LockRunResult(dt, residual, {})
        assert lock.to_csv() == "t_s,residual_hz\n" + "".join(
            f"{ti:.6f},{ri:.9e}\n" for ti, ri in zip(lock.t, residual)
        )
    # negative offsets that no decimal writes exactly, a zero depth, a depth
    # near the bottom of the float range and whole and repeating ones
    spectrum = AbsorptionSpectrum(-2.5e6 - 1 / 3, 1.25e6, np.array([0.0, 1e-300, 5.0, 1 / 3, 0.0]), 1e6)
    assert spectrum.to_csv() == "offset_hz,optical_depth\n" + "".join(
        f"{f:.3f},{d:.9e}\n" for f, d in zip(spectrum.frequencies(), spectrum.optical_depth)
    )


def test_noise_floor_matches_analytic_expectation():
    # independent oracle for the engine's gate-thinned noise bookkeeping: the
    # histogram floor per bin in a gate-open region is
    #   heralds * rate_detected * bin_width
    # with rate_detected built from first principles, and the gate-closed
    # region is suppressed to extinction * that + darks
    cfg = small_cfg(duration=240.0, rate=500.0)
    rep = run_scenario(cfg, workers=2)
    h = rep.histogram

    inh = cfg.memory.inhomogeneous
    afc = cfg.memory.afc
    half_span = 0.5 * cfg.converter.pm_fwhm

    def transmit(f):
        if abs(f) > inh.fwhm:
            return 1.0
        modes = cfg.source.mode_offsets()
        if np.min(np.abs(f - modes)) <= afc.pit_halfwidth:
            # echo also reaches the detector, just delayed
            return math.exp(-afc.mean_comb_depth) + afc.echo_efficiency
        return math.exp(-float(inh.depth_at(f)))

    mem_pass, _ = quad(transmit, -half_span, half_span, limit=400, points=[-inh.fwhm, inh.fwhm])
    mem_pass /= cfg.converter.pm_fwhm
    noise_det = cfg.converter.arm_noise_rate * mem_pass * cfg.detectors.signal.efficiency

    heralds = rep.counts["heralds_detected"]
    # pre-herald region: the gate is open by default, full flux plus darks
    pair_det = rep.counts["signal_by_origin"]["pair"] / rep.transmission_time
    open_rate = noise_det + cfg.detectors.signal.dark_rate + pair_det
    sl = h._window_slice((-180e-9, -20e-9))
    got_open = float(np.sum(h.counts[sl]))
    want_open = heralds * open_rate * h.bin_width * (sl.stop - sl.start)
    assert got_open == pytest.approx(want_open, abs=5 * math.sqrt(want_open))

    # storage region: closed gate leaks at the extinction plus darks
    closed_rate = cfg.shutter.extinction * noise_det + cfg.detectors.signal.dark_rate
    sl2 = h._window_slice((350e-9, 820e-9))
    got_closed = float(np.sum(h.counts[sl2]))
    want_closed = heralds * closed_rate * h.bin_width * (sl2.stop - sl2.start)
    assert got_closed == pytest.approx(want_closed, abs=5 * math.sqrt(want_closed) + 5)


# -- sweep and calibration ----------------------------------------------------

def test_sweep_requires_numeric_path():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        sweep(cfg, "name", [1, 2])
    with pytest.raises(ValueError):
        sweep(cfg, "source.not_a_field", [1, 2])
    # lock.config is null in an ideal-lock scenario, so the path leads nowhere
    with pytest.raises(ScenarioError) as err:
        sweep(cfg, "lock.config.rf.f_beat", [1e8])
    assert err.value.field == "lock.config.rf.f_beat"


def _refuse_runs(monkeypatch):
    def run_scenario(*args, **kwargs):
        raise AssertionError("a scenario ran before the config error")

    for module in (calibrate, cli):
        monkeypatch.setattr(module, "run_scenario", run_scenario)


def test_sweep_decodes_every_value_before_the_first_run(monkeypatch):
    _refuse_runs(monkeypatch)
    with pytest.raises(ScenarioError) as err:
        sweep(small_cfg(), "link.loss", [0.2, -1])
    assert err.value.field == "link"


def test_sweep_refuses_the_seed(monkeypatch):
    # each run's seed is spawned from the scenario seed, so a swept one would
    # label a row with a seed the row never ran at
    _refuse_runs(monkeypatch)
    with pytest.raises(ScenarioError) as err:
        sweep(small_cfg(), "seed", [1, 2])
    assert err.value.field == "seed"


def test_sweep_rows_and_csv():
    cfg = small_cfg(duration=30.0, rate=2000.0)
    rows = sweep(cfg, "converter.pump_power", [70.0, 140.0], workers=2)
    assert [r["value"] for r in rows] == [70.0, 140.0]
    text = sweep_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0].startswith("value,S,N,snr")
    assert len(lines) == 3
    # a swept list holds commas, so it is quoted into one column
    listed = sweep_csv([{**rows[0], "value": [9e-7, 1.1e-6]}]).splitlines()[1]
    assert next(csv.reader([listed]))[0] == "[9e-07, 1.1e-06]"
    assert len(next(csv.reader([listed]))) == len(lines[0].split(","))
    # the noise floor per herald scales linearly with pump power (the herald
    # count itself also scales, being dominated by converter noise)
    per_herald = [r["signal_conversion_noise"] / r["heralds"] for r in rows]
    assert per_herald[0] / per_herald[1] == pytest.approx(0.5, abs=0.15)


def test_sweep_mode_count_scales_rate_and_plan(monkeypatch):
    # 25 weights rising 1:25 in the document: sweeping to 5 modes runs at a
    # fifth of the pair rate, with uniform weights and 5 comb offsets
    class Ran(Exception):
        pass

    ran = []

    def run_scenario(cfg, workers=None):
        ran.append(cfg)
        raise Ran

    monkeypatch.setattr(calibrate, "run_scenario", run_scenario)
    cfg = small_cfg()
    cfg = dataclasses.replace(cfg, source=dataclasses.replace(cfg.source, mode_weights=tuple(np.arange(1, 26) / 325.0)))
    with pytest.raises(Ran):
        sweep(cfg, "source.n_modes", [5])
    (five,) = ran
    assert five.source.n_modes == 5
    assert five.source.total_pair_rate == pytest.approx(cfg.source.total_pair_rate / 5)
    assert five.source.mode_weights is None


def test_sweep_mode_count_rescales_rate():
    cfg = small_cfg(duration=20.0, rate=5000.0)
    # with 25 weights rising 1:25 in the document, the swept mode count only
    # decodes if sweep drops the weights
    for weights in (None, tuple(np.arange(1, 26) / 325.0)):
        src = dataclasses.replace(cfg.source, mode_weights=weights)
        rows = sweep(dataclasses.replace(cfg, source=src), "source.n_modes", [1, 25], workers=2)
        assert rows[0]["signal_pair"] < rows[1]["signal_pair"]


def test_calibrate_rejects_nonpositive_target():
    with pytest.raises(CalibrationError):
        calibrate_rate(small_cfg(), 0.0)


def _fake_peaks(monkeypatch, model):
    """Make ``measure_echo_peak`` return ``model(rate)``; the returned list
    collects each call's (rate, seed, duration, workers)."""
    calls = []

    def measure(cfg, seed, duration=None, workers=None):
        calls.append((cfg.source.total_pair_rate, seed, duration, workers))
        return model(cfg.source.total_pair_rate)

    monkeypatch.setattr(calibrate, "measure_echo_peak", measure)
    return calls


def test_calibrate_steps_on_pooled_slope(monkeypatch):
    # linear plus an offset: the slope through the origin is biased, so the
    # loop needs several pooled steps before one evaluation lands
    def model(rate):
        return 0.1 * rate + 5.0

    calls = _fake_peaks(monkeypatch, model)
    cal = calibrate_rate(small_cfg(seed=5), 74.0, rel_tol=0.005, calibration_duration=30.0, workers=3)
    rates = [c[0] for c in calls]
    peaks = [model(r) for r in rates]
    assert len(calls) > 2
    assert [c[1] for c in calls] == [calibrate._spawn_seed(5, 7001, k) for k in range(len(calls))]
    assert all(c[2:] == (30.0, 3) for c in calls)
    assert all(abs(m - 74.0) > 0.005 * 74.0 for m in peaks[:-1])
    assert abs(peaks[-1] - 74.0) <= 0.005 * 74.0
    assert cal.source.total_pair_rate == rates[-1]
    for k in range(1, len(rates)):
        slope = sum(r * m for r, m in zip(rates[:k], peaks)) / sum(r * r for r in rates[:k])
        assert rates[k] == 74.0 / slope


def test_calibrate_quadruples_on_nonpositive_peaks(monkeypatch):
    calls = _fake_peaks(monkeypatch, lambda r: -3.0 if r < 1000 else 0.0 if r < 5000 else 0.01 * r)
    cal = calibrate_rate(small_cfg(rate=500.0), 80.0)
    assert [c[0] for c in calls] == [500.0, 2000.0, 8000.0]
    assert cal.source.total_pair_rate == 8000.0


def test_calibrate_error_lists_every_evaluation(monkeypatch):
    # a peak stuck above the target: the rate keeps falling and never lands
    calls = _fake_peaks(monkeypatch, lambda r: 200.0)
    with pytest.raises(CalibrationError) as err:
        calibrate_rate(small_cfg(), 74.0)
    assert len(calls) == 12
    assert str(err.value).count("rate=") == 12
    assert all(f"rate={c[0]:.3g} -> peak=200" in str(err.value) for c in calls)


def test_calibrate_stops_at_a_rate_the_signal_reach_cannot_cover(monkeypatch):
    # a peak stuck below the target: the rate climbs about 6.5x per step until
    # the signal detector's click rate x dead time passes 1e-2 (above about
    # 1.08e6 pairs/s here), and the scenario at that rate is refused, not run;
    # the calibration says so, names the field and lists what it evaluated
    calls = _fake_peaks(monkeypatch, lambda r: 10.0)
    with pytest.raises(CalibrationError) as err:
        calibrate_rate(small_cfg(), 74.0)
    assert isinstance(err.value.__cause__, ScenarioError)
    assert "detectors.signal.dead_time" in str(err.value)
    assert 1 < len(calls) < 12 and max(c[0] for c in calls) < 1.08e6
    assert str(err.value).count("rate=") == len(calls)
    assert all(f"rate={c[0]:.3g} -> peak=10" in str(err.value) for c in calls)


def test_cli_calibrate_refused_rate_is_calibration_error(tmp_path, capsys, monkeypatch):
    _fake_peaks(monkeypatch, lambda r: 10.0)
    code = cli_main(["calibrate", "--config", "multiplexed_25mode_10km_smoke", "--target-peak", "74",
                     "--out", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "calibration" and "detectors.signal.dead_time" in err["message"]


def test_calibrate_converges_and_is_linear():
    cfg = small_cfg(duration=600.0, rate=20000.0, seed=31)
    target1 = 25.0
    cal1 = calibrate_rate(cfg, target1, workers=2)
    cal4 = calibrate_rate(cfg, 4 * target1, workers=2)
    # each converged rate reproduces its target on an independent seed
    from afclink.calibrate import measure_echo_peak

    peak = measure_echo_peak(cal1, seed=987654, workers=2)
    assert peak == pytest.approx(target1, rel=0.2)
    peak4 = measure_echo_peak(cal4, seed=987654, workers=2)
    assert peak4 == pytest.approx(4 * target1, rel=0.2)


# -- CLI -----------------------------------------------------------------------

def test_cli_simulate_and_outputs(tmp_path, capsys):
    out = str(tmp_path / "cli")
    code = cli_main([
        "simulate", "--config", "multiplexed_25mode_10km_smoke",
        "--out", out, "--workers", "2",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "multiplexed_25mode_10km_smoke"
    assert os.path.exists(os.path.join(out, "report.json"))
    assert os.path.exists(os.path.join(out, "lock_telemetry.csv"))


def test_cli_unknown_config_is_structured_error(capsys):
    code = cli_main(["simulate", "--config", "/nope/missing.json"])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["kind"] == "config"


_SWEEP = ["sweep", "--config", "multiplexed_25mode_10km_smoke", "--param"]


@pytest.mark.parametrize("argv, field", [
    (["simulate", "--config", "{bad}"], "source"),
    (["simulate", "--config", "multiplexed_25mode_10km_smoke", "--seed", "-1"], "seed"),
    (_SWEEP + ["link.lenght", "--values", "1"], "link.lenght"),
    (_SWEEP + ["link.loss", "--values", "-1"], "link"),
    (_SWEEP + ["source.n_modes", "--values", "1,3.5"], "source.n_modes"),
    (_SWEEP + ["source.n_modes", "--values", "1,4"], "source.n_modes"),
    (_SWEEP + ["link.loss", "--values", "0.2,x"], "--values"),
    (_SWEEP + ["memory.afc.tooth_spacing", "--values", "1.15e6,2e6"], "histogram.signal_window"),
    (_SWEEP + ["seed", "--values", "1,2"], "seed"),
    (["lockcheck", "--config", "lock_12h", "--hours", "0"], "--hours"),
    (["lockcheck", "--config", "lock_12h", "--hours", "-1"], "--hours"),
    (["simulate", "--config", "multiplexed_25mode_10km_smoke", "--workers", "0"], "--workers"),
    (["calibrate", "--config", "multiplexed_25mode_10km_smoke", "--target-peak", "74",
      "--calibration-duration", "-1"], "--calibration-duration"),
], ids=["source_not_an_object", "negative_seed", "unknown_sweep_path", "refused_sweep_value",
        "fractional_mode_count", "even_mode_count", "unparsed_sweep_values", "echo_off_the_window",
        "swept_seed", "zero_lock_hours", "negative_lock_hours", "zero_workers",
        "negative_calibration_duration"])
def test_cli_config_error_names_field(tmp_path, capsys, monkeypatch, argv, field):
    _refuse_runs(monkeypatch)
    bad = tmp_path / "bad.json"
    d = scenario_to_dict(load_bundled_scenario("multiplexed_25mode_10km_smoke"))
    d["source"] = 5
    bad.write_text(json.dumps(d))
    code = cli_main([a.format(bad=bad) for a in argv])
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["kind"] == "config" and err["field"] == field


def test_cli_lockcheck(tmp_path, capsys):
    out = str(tmp_path / "lock")
    code = cli_main(["lockcheck", "--config", "lock_12h", "--hours", "0.5", "--out", out])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_abs_residual_hz"] < 5e3
    text = open(os.path.join(out, "lock_telemetry.csv")).read()
    assert text.startswith("t_s,residual_hz\n")
    assert len(text.splitlines()) == 1 + 1801  # header, t = 0 and 1800 steps of 1 s
    # the step is the document's lock.dt
    d = scenario_to_dict(load_bundled_scenario("lock_12h"))
    d["lock"]["dt"] = 2.0
    doc = tmp_path / "coarse.json"
    doc.write_text(json.dumps(d))
    assert cli_main(["lockcheck", "--config", str(doc), "--hours", "0.5", "--out", out]) == 0
    assert json.loads(capsys.readouterr().out)["dt"] == 2.0
    text = open(os.path.join(out, "lock_telemetry.csv")).read()
    assert len(text.splitlines()) == 1 + 901
    # an ideal lock has no chain to check
    d["lock"] = {"mode": "ideal", "config": None}
    doc.write_text(json.dumps(d))
    assert cli_main(["lockcheck", "--config", str(doc), "--hours", "0.5"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["field"] == "lock.mode"


def test_cli_lockcheck_writes_the_simulated_realisation(tmp_path, capsys):
    # 0.05 h is the smoke document's 180 s: lockcheck writes the lock
    # realisation that simulate uses, byte for byte
    sim, chk = tmp_path / "simulate", tmp_path / "lockcheck"
    smoke = "multiplexed_25mode_10km_smoke"
    assert cli_main(["simulate", "--config", smoke, "--workers", "1", "--out", str(sim)]) == 0
    capsys.readouterr()
    assert cli_main(["lockcheck", "--config", smoke, "--hours", "0.05", "--out", str(chk)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (chk / "lock_telemetry.csv").read_bytes() == (sim / "lock_telemetry.csv").read_bytes()
    lock = json.loads((sim / "report.json").read_text())["lock"]
    assert {k: summary[k] for k in ("max_abs_residual_hz", "rms_residual_hz")} == lock


def test_cli_afc_plot(tmp_path, capsys):
    out = str(tmp_path / "afc")
    code = cli_main(["afc-plot", "--config", "multiplexed_25mode_10km_smoke", "--out", out])
    assert code == 0
    text = open(os.path.join(out, "afc_spectrum.csv")).read()
    assert text.startswith("offset_hz,optical_depth\n")


# SHA-256 of ``afc-plot``'s spectrum for a comb of 25, 5 and 1 pits: a change
# to how the spectrum lays out its grid or writes its rows must move no byte
_AFC_PLOT_HASHES = {
    "multiplexed_25mode_10km": "b050860ea6a42351e4e8ee3854965189790db8aabc53bbf13e5dc4df18fa5ff2",
    "multiplexed_5mode_5m": "d7cfd7708e92ceec89ca0cf36e24da483fbcdd8a416178cfb1a67c5b2d48ed10",
    "single_mode_5m": "cd09781d1d08eddb8644d7c3e70d045a0feb9124359d9fa9f3a077bca309d9e9",
}


@pytest.mark.parametrize("name", sorted(_AFC_PLOT_HASHES))
def test_afc_plot_is_pinned(tmp_path, capsys, name):
    assert cli_main(["afc-plot", "--config", name, "--out", str(tmp_path)]) == 0
    got = hashlib.sha256((tmp_path / "afc_spectrum.csv").read_bytes()).hexdigest()
    assert got == _AFC_PLOT_HASHES[name]


@pytest.mark.parametrize("argv", [["lockcheck", "--hours", "1"], ["afc-plot"]], ids=["lockcheck", "afc-plot"])
def test_cli_workers_only_where_the_engine_runs(argv):
    # neither subcommand runs the engine, so neither takes --workers
    argv = argv + ["--config", "lock_12h"]
    assert cli.build_parser().parse_args(argv).config == "lock_12h"
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv + ["--workers", "2"])
    assert exc.value.code == 2


def test_cli_sweep(tmp_path, capsys):
    out = str(tmp_path / "sw")
    code = cli_main([
        "sweep", "--config", "multiplexed_25mode_10km_smoke", "--param", "link.length",
        "--values", "0,10", "--out", out, "--workers", "2",
    ])
    assert code == 0
    text = open(os.path.join(out, "sweep.csv")).read()
    assert text.splitlines()[0].startswith("value,")
    assert len(text.splitlines()) == 3


# -- package -------------------------------------------------------------------

def _package_and_users():
    """The package's modules less ``__init__``, and every file that counts
    as a user of them: the package itself, the demos, the benchmark and the
    acceptance gate.  Unit tests do not count."""
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "afclink"
    modules = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    users = [
        *modules,
        *(root / "demos").glob("*.py"),
        *(root / "perfbench").glob("*.py"),
        root / "tests" / "test_acceptance.py",
    ]
    return modules, users


def test_every_export_is_used_outside_tests():
    # each public top-level function, class and constant of the package is
    # referenced by the package itself, a demo, the benchmark or the
    # acceptance gate, outside its own definition; a name only unit tests
    # use is test-only API, and a re-export in ``__init__`` is no use
    modules, users = _package_and_users()
    public = set()
    for path in modules:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                public.add(top.name)
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                public |= {t.id for t in targets if isinstance(t, ast.Name)}
    public = {name for name in public if not name.startswith("_")}
    used = set()
    for path in users:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {n.id for n in ast.walk(top) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            names |= {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)}
            names |= {a.name for n in ast.walk(top) if isinstance(n, ast.ImportFrom) for a in n.names}
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names.discard(top.name)
            used |= names
    assert sorted(public - used) == []


def test_every_public_member_is_used_outside_tests():
    # the same rule for each public method and property of a public class:
    # some file ``_package_and_users`` counts reads an attribute of its name
    # outside the member's own definition
    modules, users = _package_and_users()
    public = set()
    for path in modules:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                public |= {
                    f"{top.name}.{fn.name}"
                    for fn in top.body
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                }
    reads = Counter()
    for path in users:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                reads.subtract(n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute) and n.attr == fn.name)
    assert sorted(m for m in public if reads[m.split(".")[1]] <= 0) == []


# ``main(argv)`` is the one defaulted parameter that only tests pass: the
# console script calls ``main()`` bare so that argparse reads ``sys.argv``,
# and the tests run the CLI in-process with their own argument lists
_TEST_ONLY_PARAMETERS = {"main.argv"}


def test_every_defaulted_parameter_has_a_caller():
    # each defaulted parameter of a public function or method of the package
    # is passed, by keyword or by position, by a call in a file that
    # ``_package_and_users`` counts; a default that only unit tests override
    # is test-only API.  Calls match the callee by name, and a call that
    # spreads ``*args`` or ``**kwargs`` counts as passing every parameter
    modules, users = _package_and_users()
    defaulted = {}  # "function.parameter" -> its position in a call, None if keyword-only
    for path in modules:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, ast.FunctionDef):
                functions = [(top, 0)]
            elif isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                functions = [
                    (fn, 0 if any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list) else 1)
                    for fn in top.body
                    if isinstance(fn, ast.FunctionDef)
                ]
            else:
                continue
            for fn, bound in functions:
                if fn.name.startswith("_"):
                    continue
                positional = fn.args.posonlyargs + fn.args.args
                first = len(positional) - len(fn.args.defaults)
                for i in range(first, len(positional)):
                    defaulted[f"{fn.name}.{positional[i].arg}"] = i - bound
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        defaulted[f"{fn.name}.{arg.arg}"] = None
    passed = set()
    for path in users:
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            spread = any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords)
            keywords = {k.arg for k in call.keywords}
            for key, position in defaulted.items():
                name, param = key.split(".")
                if name == callee and (
                    spread or param in keywords or (position is not None and position < len(call.args))
                ):
                    passed.add(key)
    assert sorted(set(defaulted) - passed) == sorted(_TEST_ONLY_PARAMETERS)


def test_runtime_needs_numpy_alone():
    # the package imports the standard library and numpy, nothing else, and
    # loading it with its CLI pulls in no scipy; scipy is a test dependency
    src = Path(__file__).resolve().parent.parent / "src"
    imported = set()
    for path in (src / "afclink").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert sorted(imported - set(sys.stdlib_module_names)) == ["numpy"]
    probe = "import sys, afclink, afclink.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# a place the benchmark's tracer names but the package no longer binds: the
# pipeline has not imported dead_time_filter by name since detection took
# the dead time over, and its span records through afclink.detection
_STALE_SPAN_PLACES = {"afclink.pipeline.dead_time_filter"}


def test_every_traced_span_resolves():
    # a kernel renamed or moved in src/ would silently zero its per-layer
    # benchmark metric; resolve every place the tracer wraps, as it does
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {
        f"{module}.{attr}"
        for _, places, _ in spans.TARGETS
        for module, attr in places
        if spans.Tracer._resolve(module, attr)[0] is None
    }
    assert missing <= _STALE_SPAN_PLACES
