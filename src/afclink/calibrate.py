"""Rate calibration and parameter sweeps over the scenario pipeline."""

from __future__ import annotations

import dataclasses
import io
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .config import ScenarioConfig, ScenarioError
from .reporting import RunReport, run_scenario


class CalibrationError(RuntimeError):
    pass


def _derived_seed(base_seed: int, tag: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=base_seed, spawn_key=(tag, index)).generate_state(1)[0])


def measure_echo_peak(
    cfg: ScenarioConfig,
    seed: int,
    duration: Optional[float] = None,
    workers: Optional[int] = None,
) -> float:
    """Background-subtracted smoothed echo peak, scaled to cfg.duration.

    The peak statistic is the report's ``peak_above_floor``: the 10-bin
    adjacent average read at the expected echo delay (``peak_at_echo``) minus
    the noise-window floor; linear in the pair rate and unbiased, unlike a
    maximum over noisy bins.
    """
    run_cfg = replace(cfg, seed=seed)
    scale = 1.0
    if duration is not None and duration != cfg.duration:
        run_cfg = replace(run_cfg, duration=duration)
        scale = cfg.duration / duration
    rep = run_scenario(run_cfg, workers=workers)
    return rep.peak["peak_above_floor"] * scale


def calibrate_rate(
    cfg: ScenarioConfig,
    target_peak_counts: float,
    rel_tol: float = 0.10,
    max_iter: int = 12,
    calibration_duration: Optional[float] = None,
    workers: Optional[int] = None,
) -> ScenarioConfig:
    """Bisect the total pair rate until the echo-peak count over the
    configured duration lands within ``rel_tol`` of the target.

    A first run at the configured rate seeds the bracket through the
    linearity of the echo yield; the bracket is then expanded if needed and
    bisected.  Raises CalibrationError with diagnostics if no bracket can
    be established.
    """
    if target_peak_counts <= 0:
        raise CalibrationError("target_peak_counts must be > 0")
    r0 = cfg.source.total_pair_rate
    if r0 <= 0:
        raise CalibrationError("scenario must start from a positive pair rate")

    evals: list[tuple[float, float]] = []

    def f(rate: float, k: int) -> float:
        peak = measure_echo_peak(
            cfg.with_rate(rate), seed=_derived_seed(cfg.seed, 7001, k),
            duration=calibration_duration, workers=workers,
        )
        evals.append((rate, peak))
        return peak

    m0 = f(r0, 0)
    if abs(m0 - target_peak_counts) <= rel_tol * target_peak_counts:
        return cfg.with_rate(r0)
    if m0 <= 0:
        r_guess = 4.0 * r0
    else:
        r_guess = r0 * target_peak_counts / m0

    lo, hi = 0.6 * r_guess, 1.6 * r_guess
    m_lo, m_hi = f(lo, 1), f(hi, 2)
    expansions = 0
    while not (m_lo < target_peak_counts < m_hi):
        expansions += 1
        if expansions > 6:
            raise CalibrationError(
                "could not bracket the target peak count; evaluations: "
                + ", ".join(f"rate={r:.3g} -> peak={m:.3g}" for r, m in evals)
            )
        if m_lo >= target_peak_counts:
            lo *= 0.5
            m_lo = f(lo, 2 + 2 * expansions)
        if m_hi <= target_peak_counts:
            hi *= 2.0
            m_hi = f(hi, 3 + 2 * expansions)

    rate = 0.5 * (lo + hi)
    for k in range(max_iter):
        m = f(rate, 20 + k)
        if abs(m - target_peak_counts) <= rel_tol * target_peak_counts:
            return cfg.with_rate(rate)
        if m < target_peak_counts:
            lo = rate
        else:
            hi = rate
        rate = 0.5 * (lo + hi)
    raise CalibrationError(
        f"bisection did not converge to +/-{rel_tol:.0%} of {target_peak_counts} "
        f"in {max_iter} iterations; evaluations: "
        + ", ".join(f"rate={r:.3g} -> peak={m:.3g}" for r, m in evals)
    )


def _get_path(cfg, path: str):
    obj = cfg
    for part in path.split("."):
        if not dataclasses.is_dataclass(obj) or part not in {f.name for f in dataclasses.fields(obj)}:
            raise ScenarioError(path, "unknown config path")
        obj = getattr(obj, part)
    return obj


def _set_path(cfg, path: str, value):
    parts = path.split(".")
    if len(parts) == 1:
        return replace(cfg, **{parts[0]: value})
    child = getattr(cfg, parts[0])
    return replace(cfg, **{parts[0]: _set_path(child, ".".join(parts[1:]), value)})


def sweep(
    cfg: ScenarioConfig,
    parameter_path: str,
    values: Sequence[float],
    workers: Optional[int] = None,
) -> list[dict]:
    """Run the scenario once per value of a numeric config field.

    Each run uses a seed derived from (scenario seed, value index), so
    toggling a value does not perturb the others.  Sweeping
    ``source.n_modes`` reconfigures the whole multiplexing plan and scales
    the pair rate proportionally (constant rate per mode), mirroring how a
    multiplexed source is pumped harder as modes are added.
    """
    current = _get_path(cfg, parameter_path)
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise ScenarioError(parameter_path, "not a numeric config field")
    rows = []
    for i, v in enumerate(values):
        if parameter_path == "source.n_modes":
            run_cfg = cfg.with_mode_count(int(v))
        else:
            run_cfg = _set_path(cfg, parameter_path, type(current)(v))
        run_cfg = replace(run_cfg, seed=_derived_seed(cfg.seed, 7002, i))
        rep: RunReport = run_scenario(run_cfg, workers=workers)
        rows.append(
            {
                "value": v,
                "S": rep.s_counts,
                "N": rep.n_scaled,
                "snr": rep.snr,
                "signal_pair": rep.counts["signal_by_origin"]["pair"],
                "signal_conversion_noise": rep.counts["signal_by_origin"]["conversion_noise"],
                "signal_dark": rep.counts["signal_by_origin"]["dark_count"],
                "heralds": rep.counts["heralds_detected"],
            }
        )
    return rows


def sweep_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    cols = ["value", "S", "N", "snr", "signal_pair", "signal_conversion_noise", "signal_dark", "heralds"]
    buf.write(",".join(cols) + "\n")
    for r in rows:
        out = []
        for c in cols:
            v = r[c]
            if v is None:
                out.append("")
            elif isinstance(v, float):
                out.append(f"{v:.6g}")
            else:
                out.append(str(v))
        buf.write(",".join(out) + "\n")
    return buf.getvalue()
