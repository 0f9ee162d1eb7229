"""Rate calibration and parameter sweeps over the scenario pipeline."""

from __future__ import annotations

import csv
import io
from dataclasses import replace
from typing import Optional, Sequence

from .config import ScenarioConfig, ScenarioError, scenario_from_dict, scenario_to_dict
from .pipeline import _spawn_seed
from .reporting import RunReport, run_scenario


class CalibrationError(RuntimeError):
    pass


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


#: evaluations ``calibrate_rate`` makes before it gives up
_MAX_EVALUATIONS = 12


def _listing(evals: list[tuple[float, float]]) -> str:
    return "evaluations: " + ", ".join(f"rate={r:.3g} -> peak={m:.3g}" for r, m in evals)


def calibrate_rate(
    cfg: ScenarioConfig,
    target_peak_counts: float,
    rel_tol: float = 0.10,
    calibration_duration: Optional[float] = None,
    workers: Optional[int] = None,
) -> ScenarioConfig:
    """Step the total pair rate until one evaluation's echo-peak count over
    the configured duration lands within ``rel_tol`` of the target.

    Evaluation k runs at the current rate on seed
    ``_spawn_seed(cfg.seed, 7001, k)``, starting from the configured rate.
    After a miss the rate steps to target / s, where s = sum(r m) / sum(r^2)
    is the slope through the origin fitted to every (rate, peak) pair so far:
    the peak statistic is linear in the rate (see ``measure_echo_peak``), so
    pooling the runs averages their scatter out of the step.  While that
    slope is not positive the rate quadruples instead.  Raises
    CalibrationError listing every evaluation after 12 misses, or when the
    scenario refuses a proposed rate (naming the refused field).
    """
    if target_peak_counts <= 0:
        raise CalibrationError("target_peak_counts must be > 0")
    rate = cfg.source.total_pair_rate
    if rate <= 0:
        raise CalibrationError("scenario must start from a positive pair rate")

    evals: list[tuple[float, float]] = []
    for k in range(_MAX_EVALUATIONS):
        try:
            run_cfg = cfg.with_rate(rate)
        except ScenarioError as exc:
            raise CalibrationError(
                f"the scenario refuses the proposed rate {rate:.3g} ({exc}); {_listing(evals)}"
            ) from exc
        peak = measure_echo_peak(
            run_cfg, seed=_spawn_seed(cfg.seed, 7001, k),
            duration=calibration_duration, workers=workers,
        )
        evals.append((rate, peak))
        if abs(peak - target_peak_counts) <= rel_tol * target_peak_counts:
            return run_cfg
        slope = sum(r * m for r, m in evals) / sum(r * r for r, _ in evals)
        rate = target_peak_counts / slope if slope > 0 else 4.0 * rate
    raise CalibrationError(
        f"no evaluation landed within +/-{rel_tol:.0%} of {target_peak_counts} "
        f"in {_MAX_EVALUATIONS} evaluations; {_listing(evals)}"
    )


def sweep(
    cfg: ScenarioConfig,
    parameter_path: str,
    values: Sequence,
    workers: Optional[int] = None,
) -> list[dict]:
    """Run the scenario once per value of the config field at a dotted path.

    Each value is set at the path in the scenario's document and decoded like
    a document, all before the first run, so an unknown path or a refused
    value raises ``ScenarioError`` naming the field without running anything.
    Each run uses a seed spawned from (scenario seed, value index), so
    toggling a value does not perturb the others; ``seed`` itself is refused,
    since a swept seed would be replaced by the spawned one.  Sweeping
    ``source.n_modes`` reconfigures the whole multiplexing plan with uniform
    mode weights and scales the pair rate proportionally (constant rate per
    mode), mirroring how a multiplexed source is pumped harder as modes are
    added.
    """
    if parameter_path == "seed":
        raise ScenarioError("seed", "each run's seed is spawned from the scenario seed")
    *parents, key = parameter_path.split(".")
    rescale = parameter_path == "source.n_modes"
    run_cfgs = []
    for i, v in enumerate(values):
        doc = obj = scenario_to_dict(cfg)
        for part in parents:
            obj = obj.get(part) if isinstance(obj, dict) else None
        if not isinstance(obj, dict):
            raise ScenarioError(parameter_path, "no such config path")
        obj[key] = v
        if rescale:  # the weights become uniform
            doc["source"]["mode_weights"] = None
        run_cfg = scenario_from_dict(doc)
        if rescale:
            src = cfg.source
            run_cfg = run_cfg.with_rate(src.total_pair_rate * run_cfg.source.n_modes / src.n_modes)
        run_cfgs.append(replace(run_cfg, seed=_spawn_seed(cfg.seed, 7002, i)))
    rows = []
    for v, run_cfg in zip(values, run_cfgs):
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
    """Rows as CSV; a swept value that holds commas (a list) is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cols = ["value", "S", "N", "snr", "signal_pair", "signal_conversion_noise", "signal_dark", "heralds"]
    writer.writerow(cols)
    for r in rows:
        writer.writerow(
            "" if v is None else f"{v:.6g}" if isinstance(v, float) else v
            for v in (r[c] for c in cols)
        )
    return buf.getvalue()
