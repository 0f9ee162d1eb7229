"""afclink benchmark: host seconds per simulated hour on closed-loop
workloads, with per-layer self times from a separate traced run.

    python3 perfbench/run.py --workload flagship_noise --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload, lockcheck too

Prints one table per workload (median, quartiles and sample count of every
metric, plus failed_run_ratio) and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  Raw samples, provenance and (traced) spans
go to ``.perfbench_out/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: fresh interpreters started per run to time set-up
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
#: a main call in flight when --seconds runs out still finishes
WORKER_GRACE_S = 120

SELF_PER_SIM_HOUR = (
    "intervals.sample_poisson", "intervals.intersect", "intervals.complement",
    "intervals.as_interval_set", "intervals.contains", "channel.as_closures",
    "detection.dead_time_filter", "detection.accumulate_histogram",
    "memory.storage_branches", "memory.exit_times", "pipeline.run_raw",
)
SELF_PER_CALL = (
    "lockchain.simulate_lock_run", "lockchain.LockRunResult.to_csv",
    "reporting.analyze", "reporting.RunReport.write",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _run_child(cmd: list[str], timeout: float) -> tuple[float, str]:
    """Run ``cmd`` in its own process group; return (wall s, last stdout line).

    On a timeout the whole group (including forked pool workers) is killed
    and waited for."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:3])} timed out after {timeout:.0f} s")
    wall = time.perf_counter() - t0
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd[1:])} exited with code {proc.returncode}")
    return wall, lines[-1]


def _worker_cmd(*args: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), *args]


def _probe(name: str) -> dict:
    wall, line = _run_child(_worker_cmd("--probe", "--workload", name), PROBE_TIMEOUT_S)
    return {"wall_s": wall, **json.loads(line)}


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def summarize(values: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    values = sorted(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end_samples(probes: list[dict], worker: dict, good: list[dict], engine: bool) -> dict:
    hours = worker["sim_hours"]
    w1 = [r["w1_s"] / hours for r in good]
    rss = worker["peak_rss_kib"]
    return {
        "setup_s": [p["wall_s"] for p in probes],
        "wall_s_per_sim_hour": w1,
        # workers do not apply to the lock integrator: .w2 repeats w1 there
        "wall_s_per_sim_hour.w2": [r["w2_s"] / hours for r in good] if engine else w1,
        # shared copy-on-write pages count once per process: an upper bound
        "peak_rss_mib": [(rss["self"] + rss["children"]) / 1024.0],
    }


def layer_metrics(r: dict, hours: float, engine: bool) -> dict:
    """Per-layer metrics of one traced repeat; engine-only metrics read 0
    on a workload without the engine."""
    self_s, counts, report = r["self_s"], r["counts"], r["report_counts"] or {}

    def count(name: str, key: str) -> int:
        return counts.get(name, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {f"{n}.self_s_per_sim_hour": self_s.get(n, 0.0) / hours for n in SELF_PER_SIM_HOUR}
    m.update({f"{n}.self_s": self_s.get(n, 0.0) for n in SELF_PER_CALL})
    heralds = report.get("heralds_detected", 0)
    photons = count("memory.storage_branches", "in")
    m.update({
        "intervals.sample_poisson.points": count("intervals.sample_poisson", "out") / hours,
        "intervals.as_interval_set.merge_ratio": ratio(
            count("intervals.as_interval_set", "out"), count("intervals.as_interval_set", "in")
        ),
        "channel.as_closures.closures": count("channel.as_closures", "out") / hours,
        "detection.dead_time_filter.kept_ratio": ratio(
            count("detection.dead_time_filter", "out"), count("detection.dead_time_filter", "in")
        ),
        "detection.accumulate_histogram.coincidences": (r["coincidences"] or 0) / hours,
        "memory.storage_branches.photons": photons / hours,
        "pipeline.heralds_detected": heralds / hours,
        "pipeline.herald_noise_fraction": ratio(
            report.get("heralds_by_origin", {}).get("conversion_noise", 0), heralds
        ),
        "source.pairs_generated": report.get("pairs_generated", 0) / hours,
        "pipeline.signal_arm_yield": ratio(report.get("signal_detected", 0), photons),
        "pipeline.parallel_speedup": ratio(r["w1_s"], r["w2_s"]) if engine else 0.0,
        "lockchain.simulate_lock_run.us_per_step": ratio(
            1e6 * self_s.get("lockchain.simulate_lock_run", 0.0),
            count("lockchain.simulate_lock_run", "steps"),
        ),
        "trace.overhead_s": r["traced_s"] - r["w1_s"],
    })
    return m


def per_layer_samples(probes: list[dict], worker: dict, good: list[dict], engine: bool) -> dict:
    rows = [layer_metrics(r, worker["sim_hours"], engine) for r in good]
    samples = {name: [row[name] for row in rows] for name in rows[0]}
    samples["import_s"] = [p["import_s"] for p in probes]
    samples["config.load_bundled_scenario.s"] = [p["load_s"] for p in probes]
    return samples


def load_metric_units(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    w = WORKLOADS[name]
    units = load_metric_units(trace)
    out_dir = os.path.join(ROOT, ".perfbench_out", f"{name}.seed{seed}.trace{trace}")
    os.makedirs(out_dir, exist_ok=True)
    provenance = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "loadavg_start": _loadavg(),
    }

    # half the set-up probes run before the measurement and half after it,
    # so that their median spans the run's window of host load
    probes = [_probe(name) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    _, line = _run_child(
        _worker_cmd(
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", out_dir,
        ),
        seconds + WORKER_GRACE_S,
    )
    worker = json.loads(line)
    probes += [_probe(name) for _ in range(SETUP_PROBES // 2)]
    provenance.update({
        "loadavg_end": _loadavg(),
        "versions": worker["versions"],
        "payload_sha256": worker["payload_sha256"],
        "missing_wrap_targets": worker["missing_wrap_targets"],
    })

    reps = worker["repeats"]
    failed = [r for r in reps if r["problems"]]
    good = [r for r in reps if not r["problems"] and not r["warmup"]]
    if not good:
        raise BenchError(f"{name}: no repeat passed the output check")
    collect = per_layer_samples if trace else end_to_end_samples
    samples = collect(probes, worker, good, w.engine)
    if set(samples) != set(units):
        raise BenchError(f"metrics {sorted(set(samples) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {
            m: {"value": summarize(samples[m])["median"], "unit": units[m]} for m in units
        },
    }
    record = {
        "provenance": provenance,
        "summary": {m: {**summarize(v), "unit": units[m]} for m, v in samples.items()},
        "failed_run_ratio": len(failed) / len(reps),
        "problems": [p for r in failed for p in r["problems"]],
        "probes": probes,
        "repeats": reps,
        "result": result,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _print_table(record, units)
    return result


def _print_table(record: dict, units: dict) -> None:
    p, res = record["provenance"], record["result"]
    print(
        f"perfbench {p['workload']}  seed {p['seed']}  trace {p['trace']}  "
        f"nproc {p['nproc']}  loadavg {p['loadavg_start']} -> {p['loadavg_end']}"
    )
    for name in units:
        s = record["summary"][name]
        print(
            f"  {name:<48} {s['median']:>12.6g} {units[name]:<8} "
            f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}"
        )
    print(
        f"  {'failed_run_ratio':<48} {record['failed_run_ratio']:>12.6g} {'ratio':<8} "
        f"{res['failed']} of {res['attempted']} runs"
    )
    if p["missing_wrap_targets"]:
        print(f"  missing wrap targets: {', '.join(p['missing_wrap_targets'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; the scenario seed is the bundled one plus this")
    ap.add_argument("--seconds", type=float, default=50.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "afclink", "__init__.py")):
        print("perfbench: no afclink sources under src/ in this checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
