"""The benchmark's workloads: how each one is built from a bundled scenario
and a seed, its main call, and the check every run's outputs must pass.

Only the worker process imports ``afclink``; this module imports it (and
numpy) lazily so that the orchestrator stays free of numpy and scipy.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

#: seed of every bundled scenario; ``--seed 0`` reproduces it exactly
BASE_SEED = 20240611

#: a key count may differ from its reference by this many standard
#: deviations of the difference of two independent Poisson draws
POISSON_SIGMAS = 6.0
ECHO_TOLERANCE_S = 5e-9
LOCK_RESIDUAL_LIMIT_HZ = 5e3


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    #: simulated span of one engine call; None runs the scenario's duration
    slice_s: Optional[float]
    engine: bool
    pump_power_mw: Optional[float] = None
    pair_rate: Optional[float] = None


# why each workload exists is in BENCHMARK.json and perfbench/README.md
WORKLOADS = {w.name: w for w in (
    Workload("flagship_noise", "multiplexed_25mode_10km", 120.0, True),
    Workload("pair_rich", "multiplexed_25mode_10km", 240.0, True,
             pump_power_mw=14.0, pair_rate=2e4),
    Workload("lockcheck", "single_mode_5m", None, False),
)}

#: files of one main call that must be byte-identical across worker counts
#: and repeats
PAYLOAD_FILES = {
    True: ("report.json", "histogram.csv", "summary.csv", "lock_telemetry.csv"),
    False: ("lock_telemetry.csv", "lock_summary.json"),
}


def build_config(w: Workload, seed: int):
    """The ScenarioConfig the program sees for this workload and seed."""
    from afclink.config import load_bundled_scenario

    cfg = dataclasses.replace(load_bundled_scenario(w.scenario), seed=BASE_SEED + seed)
    if w.slice_s is not None:
        cfg = dataclasses.replace(cfg, duration=w.slice_s)
    if w.pump_power_mw is not None:
        cfg = dataclasses.replace(
            cfg, converter=dataclasses.replace(cfg.converter, pump_power=w.pump_power_mw)
        )
    if w.pair_rate is not None:
        cfg = cfg.with_rate(w.pair_rate)
    return cfg


def run_main(w: Workload, cfg, out_dir: str, workers: int) -> None:
    """The workload's main call, including writing its outputs to ``out_dir``."""
    from afclink import lockchain, reporting

    if w.engine:
        reporting.run_scenario(cfg, out_dir=out_dir, workers=workers)
        return
    # mirrors `afclink lockcheck --out`; workers do not apply
    result = lockchain.simulate_lock_run(cfg.lock.config, cfg.duration, cfg.lock.dt, cfg.seed)
    summary = {
        "hours": cfg.duration / 3600.0,
        "dt": cfg.lock.dt,
        "seed": cfg.seed,
        "max_abs_residual_hz": result.max_abs_residual,
        "rms_residual_hz": result.rms_residual,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "lock_telemetry.csv"), "w", encoding="utf-8") as fh:
        fh.write(result.to_csv())
    with open(os.path.join(out_dir, "lock_summary.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True))


def read_payload(w: Workload, out_dir: str) -> dict:
    """{file name: bytes} of one main call; a missing file reads as None."""
    payload = {}
    for name in PAYLOAD_FILES[w.engine]:
        path = os.path.join(out_dir, name)
        payload[name] = open(path, "rb").read() if os.path.exists(path) else None
    return payload


def key_counts(report: dict) -> dict:
    counts = report["counts"]
    return {
        "heralds_detected": counts["heralds_detected"],
        "signal_detected": counts["signal_detected"],
        "S": report["S"],
        "N": report["N_raw"],
        "echoes_detected": counts["detected_outcomes"]["echo"],
    }


def echo_gap(histogram_csv: bytes, storage_time: float) -> float:
    """Delay of the echo structure behind the prompt structure, in seconds.

    It is the lag, searched within 50 ns of ``storage_time``, that maximises
    the cross-correlation of the floor-subtracted prompt region (20-400 ns)
    with the histogram.  The peaks are tens of ns wide, so this uses every
    count in them; the argmax of a lightly smoothed peak wanders by several
    ns from seed to seed on a slice this short.
    """
    import numpy as np

    rows = np.loadtxt(io.BytesIO(histogram_csv), delimiter=",", skiprows=1, ndmin=2)
    tau, counts = rows[:, 0] * 1e-9, rows[:, 1]
    bin_width = tau[1] - tau[0]
    prompt = np.flatnonzero((tau > 20e-9) & (tau < 400e-9))
    shape = counts[prompt] - np.median(counts[prompt])
    centre = int(round(storage_time / bin_width))
    span = int(round(50e-9 / bin_width))
    lags = [lag for lag in range(centre - span, centre + span + 1)
            if prompt[-1] + lag < len(counts)]
    scores = [float(np.dot(shape, counts[prompt + lag])) for lag in lags]
    return lags[int(np.argmax(scores))] * bin_width


def check_outputs(
    w: Workload,
    reference: dict,
    storage_time: float,
    n_steps: int,
    w1: dict,
    w2: Optional[dict],
) -> list[str]:
    """Problems with one run's outputs; an empty list means the run is correct.

    ``w1``/``w2`` are the payloads written at ``workers=1``/``workers=2``
    (``w2`` is None where workers do not apply); ``reference`` holds the key
    counts recorded for this workload at its default seed.
    """
    missing = [name for name, data in w1.items() if data is None]
    if missing:
        return [f"outputs not written: {', '.join(missing)}"]
    problems = []
    if w2 is not None and w1 != w2:
        differ = sorted(name for name in w1 if w1[name] != w2.get(name))
        problems.append(f"workers=1 and workers=2 payloads differ: {', '.join(differ)}")
    if w.engine:
        counts = key_counts(json.loads(w1["report.json"]))
        for key, ref in reference.items():
            bound = POISSON_SIGMAS * math.sqrt(2.0 * max(ref, 1))
            if abs(counts[key] - ref) > bound:
                problems.append(f"{key} = {counts[key]} is outside {ref} +- {bound:.0f}")
    if w.name == "pair_rich":
        gap = echo_gap(w1["histogram.csv"], storage_time)
        if abs(gap - storage_time) > ECHO_TOLERANCE_S:
            problems.append(
                f"echo lands {gap * 1e9:.2f} ns after the prompt peak, "
                f"not {storage_time * 1e9:.2f} +- {ECHO_TOLERANCE_S * 1e9:.0f} ns"
            )
    if not w.engine:
        summary = json.loads(w1["lock_summary.json"])
        if not abs(summary["max_abs_residual_hz"]) < LOCK_RESIDUAL_LIMIT_HZ:
            problems.append(
                f"max |residual| {summary['max_abs_residual_hz']:.0f} Hz is not under "
                f"{LOCK_RESIDUAL_LIMIT_HZ:.0f} Hz"
            )
        rows = w1["lock_telemetry.csv"].count(b"\n") - 1
        if rows != n_steps + 1:
            problems.append(f"lock telemetry has {rows} rows, not {n_steps + 1}")
    return problems
