import ast
import csv
import dataclasses
import hashlib
import json
import math
import os
import warnings
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
from afclink.memory import afc_efficiency
from afclink.reporting import run_scenario
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
    "lock_12h": "16fbb7a0bb0e8c85600e5ff4ca5af2f907a0007ce4696324686ae90678d2f51b",
    "multiplexed_25mode_10km": "c672c7c4121c461af4c2eb0a3fd5d886bbaf1a9e9593466b92201145c6315b75",
    "multiplexed_25mode_10km_smoke": "bf33eccaf80f1d91762824247b71d384d2eff7622beccd800151fd143b7cc308",
    "multiplexed_5mode_5m": "f541ecc480a54dfcfce76e5fd9750bb061db8003c06be2aff18c50532c25637b",
    "single_mode_5m": "93278bd45c251f67f0d80125708399f5d221fa98ac9acfbf05f3e9888e74bc92",
}


def test_json_round_trip():
    assert bundled_scenarios() == sorted(_BUNDLED_HASHES)
    for name, want in _BUNDLED_HASHES.items():
        cfg = load_bundled_scenario(name)
        again = scenario_from_json(scenario_to_json(cfg))
        assert again == cfg, name
        assert config_hash(again) == config_hash(cfg) == want, name


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
    (f"{_LOCK}.enabled", "no", f"{_LOCK}.enabled"),
    ("lock.config.drift.tpc_pump_1515", {}, "lock.config.drift.tpc_pump_1515"),
    ("lock.config.drift.monitor_606", {}, "lock.config.drift.monitor_606"),
    ("memory.afc.mode_offsets", [0.0], "memory.afc.mode_offsets"),
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


def test_prep_phase_shorter_than_batch_edge_reach_rejected():
    # batches run independently, which is exact only while the preparation
    # phase between them outlasts every coincidence and dead-time reach
    # (tau_max - tau_min + memory delay + dead time, about 2.8 us here)
    d = scenario_to_dict(load_bundled_scenario("multiplexed_25mode_10km"))
    d["shutter"]["prep_duration"] = 2e-6
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(d)
    assert err.value.field == "shutter.prep_duration"
    d["shutter"]["prep_duration"] = 4e-6
    assert scenario_from_dict(d).shutter.prep_duration == 4e-6


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
        cfg = load_bundled_scenario(n)
        assert cfg.source.n_modes == len(cfg.memory.afc.mode_offsets)


def test_mode_count_rescale():
    cfg = load_bundled_scenario("multiplexed_25mode_10km")
    five = cfg.with_mode_count(5)
    assert five.source.n_modes == 5
    assert five.source.total_pair_rate == pytest.approx(cfg.source.total_pair_rate / 5)
    assert len(five.memory.afc.mode_offsets) == 5


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
        "report.json": "f2324ac970235efac76f581331a311f27e7dfe00ad001986faa68890d42a4df6",
        "histogram.csv": "d831aaa1d3057c01f02b1d4d51c9c4fc1101b23534ba211674e7cb7d9701fa54",
        "summary.csv": "41828001c5866cae8e60431c5f06961c7c42f3aa0a3c666b85e5a0e336494073",
    },
    "pair_rich_30s": {
        "report.json": "2f1a60467496a48e71d3683015e4b748c3520d5dc1d878f3812a3375053166e0",
        "histogram.csv": "e6e01c969aeeb68c863578c192f03281e3204fa1fa5d76aa646314def04376e0",
        "summary.csv": "fc7ead99a66636fbea7440f27f1daf6a7595a90b5277823198369606c052490b",
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
    cfgs = {"smoke": load_bundled_scenario("multiplexed_25mode_10km_smoke"), "pair_rich_30s": pair_rich}
    for name, cfg in cfgs.items():
        out = tmp_path / name
        run_scenario(cfg, out_dir=str(out), workers=1)
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in _PINNED_PAYLOADS[name]}
        assert got == _PINNED_PAYLOADS[name], name


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


def test_forced_lock_mismatch_kills_echo():
    # a constant matching residual of 2.5 tooth spacings parks every photon
    # between teeth: storage still absorbs, but nothing rephases
    detuned_rf = RfOffsets(f_beat=83.4e6 + 2.875e6)
    base = small_cfg(duration=120.0, rate=2000.0)
    from afclink.lockchain import DriftModel, LockChainConfig
    from afclink.lockchain import DRIVEN_LASERS

    quiet = LockChainConfig(
        rf=detuned_rf,
        drift={laser: DriftModel("random_walk", 0.0) for laser in DRIVEN_LASERS},
    )
    cfg = dataclasses.replace(base, lock=LockSettings(mode="simulated", config=quiet))
    rep = run_scenario(cfg)
    ref = run_scenario(dataclasses.replace(base, lock=LockSettings(mode="ideal")))
    assert ref.counts["memory_outcomes"]["echo"] > 50
    assert rep.counts["memory_outcomes"]["echo"] == 0
    assert rep.lock["max_abs_residual_hz"] == pytest.approx(2.875e6, rel=1e-2)


def test_report_files_written(tmp_path):
    out = str(tmp_path / "out")
    rep = run_scenario(small_cfg(), out_dir=out)
    for fname in ("report.json", "histogram.csv", "summary.csv"):
        assert os.path.exists(os.path.join(out, fname))
    payload = json.load(open(os.path.join(out, "report.json")))
    assert payload["S"] == rep.s_counts
    first = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert first[0] == "scenario,S,N,snr,duration_s,seed"


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
    t = np.array([0.0, 1 / 3, 2.0, 151199.0, 1e6 + 0.5e-6])
    residual = np.array([-1.234e-12, 0.0, 1 / 3, -7.5e-300, 2.875e6])
    lock = LockRunResult(1.0, t, residual, {}, 2.875e6, 1.0)
    assert lock.to_csv() == "t_s,residual_hz\n" + "".join(
        f"{ti:.6f},{ri:.9e}\n" for ti, ri in zip(t, residual)
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
        modes = np.asarray(afc.mode_offsets)
        if np.min(np.abs(f - modes)) <= afc.pit_halfwidth:
            # echo also reaches the detector, just delayed
            eta = afc_efficiency(afc.tooth_peak_depth, afc.finesse, afc.background_depth)
            return math.exp(-afc.mean_comb_depth) + eta
        return math.exp(-float(inh.depth_at(f)))

    mem_pass, _ = quad(transmit, -half_span, half_span, limit=400, points=[-inh.fwhm, inh.fwhm])
    mem_pass /= cfg.converter.pm_fwhm
    noise_det = 0.5 * cfg.converter.noise_rate * mem_pass * cfg.detectors.signal.efficiency

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


def test_sweep_mode_count_rescales_rate():
    cfg = small_cfg(duration=20.0, rate=5000.0)
    # with 25 weights rising 1:25 in the document, the swept mode count only
    # decodes if sweep drops the weights, as with_mode_count does
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
    assert [c[1] for c in calls] == [calibrate._derived_seed(5, 7001, k) for k in range(len(calls))]
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
    calls = _fake_peaks(monkeypatch, lambda r: 10.0)
    with pytest.raises(CalibrationError) as err:
        calibrate_rate(small_cfg(), 74.0)
    assert len(calls) == 12
    assert str(err.value).count("rate=") == 12
    assert all(f"rate={c[0]:.3g} -> peak=10" in str(err.value) for c in calls)


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
], ids=["source_not_an_object", "negative_seed", "unknown_sweep_path", "refused_sweep_value",
        "fractional_mode_count", "even_mode_count", "unparsed_sweep_values"])
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


def test_cli_afc_plot(tmp_path, capsys):
    out = str(tmp_path / "afc")
    code = cli_main(["afc-plot", "--config", "multiplexed_25mode_10km_smoke", "--out", out])
    assert code == 0
    text = open(os.path.join(out, "afc_spectrum.csv")).read()
    assert text.startswith("offset_hz,optical_depth\n")


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

def test_every_export_is_used_outside_tests():
    # each name the package exports is referenced by the package itself, a
    # demo, the benchmark or the acceptance gate, outside its own definition;
    # an export only unit tests call is test-only API
    root = Path(__file__).resolve().parent.parent
    init = root / "src" / "afclink" / "__init__.py"
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    users = [
        *(p for p in (root / "src" / "afclink").glob("*.py") if p != init),
        *(root / "demos").glob("*.py"),
        *(root / "perfbench").glob("*.py"),
        root / "tests" / "test_acceptance.py",
    ]
    used = set()
    for path in users:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)}
            names |= {a.name for n in ast.walk(top) if isinstance(n, ast.ImportFrom) for a in n.names}
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names.discard(top.name)
            used |= names
    assert sorted(exported - used) == []


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
