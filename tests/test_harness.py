import dataclasses
import json
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from afclink.calibrate import CalibrationError, calibrate_rate, sweep, sweep_csv
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
from afclink.lockchain import RfOffsets
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

def test_json_round_trip():
    cfg = load_bundled_scenario("multiplexed_25mode_10km")
    again = scenario_from_json(scenario_to_json(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


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


def test_parallel_matches_serial():
    cfg = small_cfg(duration=90.0)
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


def test_sweep_rows_and_csv():
    cfg = small_cfg(duration=30.0, rate=2000.0)
    rows = sweep(cfg, "converter.pump_power", [70.0, 140.0], workers=2)
    assert [r["value"] for r in rows] == [70.0, 140.0]
    text = sweep_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0].startswith("value,S,N,snr")
    assert len(lines) == 3
    # the noise floor per herald scales linearly with pump power (the herald
    # count itself also scales, being dominated by converter noise)
    per_herald = [r["signal_conversion_noise"] / r["heralds"] for r in rows]
    assert per_herald[0] / per_herald[1] == pytest.approx(0.5, abs=0.15)


def test_sweep_mode_count_rescales_rate():
    cfg = small_cfg(duration=20.0, rate=5000.0)
    rows = sweep(cfg, "source.n_modes", [1, 25], workers=2)
    assert rows[0]["signal_pair"] < rows[1]["signal_pair"]


def test_calibrate_rejects_nonpositive_target():
    with pytest.raises(CalibrationError):
        calibrate_rate(small_cfg(), 0.0)


def test_calibrate_converges_and_is_linear():
    cfg = small_cfg(duration=600.0, rate=20000.0, seed=31)
    target1 = 25.0
    cal1 = calibrate_rate(cfg, target1, workers=2)
    cal4 = calibrate_rate(cfg, 4 * target1, workers=2)
    ratio = cal4.source.total_pair_rate / cal1.source.total_pair_rate
    assert ratio == pytest.approx(4.0, rel=0.15)
    # converged rate reproduces the target on an independent seed
    from afclink.calibrate import measure_echo_peak

    peak = measure_echo_peak(cal1, seed=987654, workers=2)
    assert peak == pytest.approx(target1, rel=0.2)


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
