"""Run the benchmark once per seed on each workload and report, for every
metric, the median, quartiles and spread (q3 - q1) / median over the runs,
against the bound in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 0-9 --trace 0
    python3 perfbench/spread.py --seeds 0-9 --trace 0 --baseline perfbench/baseline.json

``--baseline`` merges the summary into that file (one entry per trace
setting and workload), which is how perfbench/baseline.json was recorded.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--baseline", help="JSON file to merge the summary into")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["per_layer" if args.trace else "end_to_end"]}

    summary = {}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units = {}
        attempted = failed = 0
        walls = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            shown = result["metrics"].items() if args.trace == 0 else ()
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s "
                  + " ".join(f"{n}={m['value']:.5g}" for n, m in shown), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                          "spread": spread, "unit": units[name]}
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE"))
            print(f"  {workload:<15} {name:<50} median {med:<12.6g} {units[name]:<8} "
                  f"spread {spread:7.4f}  bound {bound}  {verdict}")
        summary[workload] = {"metrics": rows, "runs": len(args.seeds), "attempted": attempted,
                             "failed": failed, "max_run_wall_s": max(walls)}
        print(f"  {workload}: {attempted} repeats, {failed} failed, longest run {max(walls):.1f} s",
              flush=True)

    if args.baseline:
        path = args.baseline
        doc = json.load(open(path, encoding="utf-8")) if os.path.exists(path) else {}
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() if os.path.isdir(os.path.join(ROOT, ".git")) else None
        recorded = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
        section = doc.setdefault(f"trace{args.trace}", {})
        for workload, entry in summary.items():
            section[workload] = {"recorded": recorded, "git_commit": git, "nproc": os.cpu_count(),
                                 "seeds": args.seeds, "seconds": args.seconds, **entry}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
