"""Command-line entry points.

Subcommands: simulate, sweep, lockcheck, afc-plot, calibrate.  Configs are
JSON scenario documents; ``--config`` accepts a file path or the name of a
bundled scenario.  Failures exit nonzero after printing a one-line JSON
error object, so scripts can parse outcomes either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .calibrate import CalibrationError, calibrate_rate, sweep, sweep_csv
from .config import (
    ScenarioError,
    bundled_scenarios,
    load_bundled_scenario,
    load_scenario_file,
    scenario_to_json,
)
from .memory import prepare_afc
from .pipeline import lock_run
from .reporting import run_scenario, write_text


def _load_config(spec: str):
    if os.path.exists(spec):
        return load_scenario_file(spec)
    try:
        return load_bundled_scenario(spec)
    except FileNotFoundError:
        raise ScenarioError("--config", f"no such file or bundled scenario: {spec!r}; "
                            f"bundled: {', '.join(bundled_scenarios())}")


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    report = run_scenario(cfg, out_dir=args.out, workers=args.workers)
    print(report.to_json())
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    try:
        values = json.loads(f"[{args.values}]")
    except json.JSONDecodeError as exc:
        raise ScenarioError("--values", f"not a comma-separated list of JSON values: {exc}") from exc
    rows = sweep(cfg, args.param, values, workers=args.workers)
    csv_text = sweep_csv(rows)
    if args.out:
        write_text(args.out, "sweep.csv", csv_text)
    print(csv_text, end="")
    return 0


def _cmd_lockcheck(args) -> int:
    if not args.hours > 0:
        raise ScenarioError("--hours", "must be > 0")
    cfg = _load_config(args.config)
    lock = cfg.lock
    if lock.mode == "ideal":
        raise ScenarioError("lock.mode", "lockcheck runs lock.config, and an ideal lock has none")
    result = lock_run(cfg, args.hours * 3600.0)
    summary = json.dumps({"hours": args.hours, "dt": lock.dt, "seed": cfg.seed, **result.summary()},
                         indent=2, sort_keys=True)
    if args.out:
        write_text(args.out, "lock_telemetry.csv", result.to_csv())
        write_text(args.out, "lock_summary.json", summary)
    print(summary)
    return 0


def _cmd_afc_plot(args) -> int:
    cfg = _load_config(args.config)
    spectrum = prepare_afc(cfg.memory.inhomogeneous, cfg.memory.afc, cfg.source.mode_offsets())
    csv_text = spectrum.to_csv()
    if args.out:
        write_text(args.out, "afc_spectrum.csv", csv_text)
        print(json.dumps({"points": len(spectrum.optical_depth), "out": os.path.join(args.out, "afc_spectrum.csv")}))
    else:
        print(csv_text, end="")
    return 0


def _cmd_calibrate(args) -> int:
    if args.calibration_duration is not None and not args.calibration_duration > 0:
        raise ScenarioError("--calibration-duration", "must be > 0")
    cfg = _load_config(args.config)
    calibrated = calibrate_rate(
        cfg,
        target_peak_counts=args.target_peak,
        calibration_duration=args.calibration_duration,
        workers=args.workers,
    )
    out = {
        "total_pair_rate": calibrated.source.total_pair_rate,
        "target_peak": args.target_peak,
    }
    if args.out:
        write_text(args.out, "calibrated_scenario.json", scenario_to_json(calibrated))
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="afclink", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--config", required=True, help="scenario JSON path or bundled name")
    base.add_argument("--out", default=None, help="output directory")
    engine = argparse.ArgumentParser(add_help=False, parents=[base])
    engine.add_argument("--workers", type=int, default=None, help="parallel batch workers")

    p = sub.add_parser("simulate", parents=[engine], help="run one scenario end to end")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", parents=[engine], help="sweep one config field")
    p.add_argument("--param", required=True, help="dotted config path, e.g. source.n_modes")
    p.add_argument("--values", required=True, help="comma-separated JSON values, e.g. 1,5,25")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("lockcheck", parents=[base], help="simulate the document's lock chain alone, at its lock.dt")
    p.add_argument("--hours", type=float, required=True)
    p.set_defaults(func=_cmd_lockcheck)

    p = sub.add_parser("afc-plot", parents=[base], help="export the prepared comb spectrum as CSV")
    p.set_defaults(func=_cmd_afc_plot)

    p = sub.add_parser("calibrate", parents=[engine], help="step the pair rate to a target echo peak")
    p.add_argument("--target-peak", type=float, required=True)
    p.add_argument("--calibration-duration", type=float, default=None,
                   help="shorter duration for calibration runs (target scales linearly)")
    p.set_defaults(func=_cmd_calibrate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "workers", None) is not None and args.workers < 1:
            raise ScenarioError("--workers", "must be >= 1")
        return args.func(args)
    except ScenarioError as exc:
        print(json.dumps({"error": {"kind": "config", "field": exc.field, "message": str(exc)}}))
        return 2
    except CalibrationError as exc:
        print(json.dumps({"error": {"kind": "calibration", "message": str(exc)}}))
        return 3
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": {"kind": type(exc).__name__, "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
