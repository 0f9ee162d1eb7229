"""Runs inside a fresh interpreter that the orchestrator (run.py) starts.

``--probe`` times ``import afclink`` and loading the workload's scenario,
prints them and exits at once, so the orchestrator's wall clock around the
process is the set-up time from a fresh interpreter.

Without ``--probe`` it runs the workload in a closed loop (one caller; each
main call starts after the previous one ended) for ``--seconds``, checks the
outputs of every repeat and prints one JSON line of raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
import traceback

import spans
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_afclink():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import afclink

    if not os.path.abspath(afclink.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise ImportError(f"afclink resolved outside this checkout: {afclink.__file__}")
    return afclink


def probe(workload: str) -> None:
    t0 = time.perf_counter()
    _import_afclink()
    from afclink.config import load_bundled_scenario

    t1 = time.perf_counter()
    load_bundled_scenario(wl.WORKLOADS[workload].scenario)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}), flush=True)
    os._exit(0)  # interpreter teardown is not part of set-up


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


class Bench:
    def __init__(self, workload: str, seed: int, out_root: str):
        self.w = wl.WORKLOADS[workload]
        self.cfg = wl.build_config(self.w, seed)
        self.hours = self.cfg.duration / 3600.0
        self.out_root = out_root
        with open(os.path.join(os.path.dirname(__file__), "reference.json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)["key_counts"].get(self.w.name, {})
        self.storage_time = self.cfg.memory.afc.storage_time
        self.n_steps = int(round(self.cfg.duration / self.cfg.lock.dt))
        self.first_payload = None

    def timed(self, tag: str, workers: int) -> tuple[float, dict]:
        out = _fresh_dir(os.path.join(self.out_root, tag))
        t0 = time.perf_counter()
        wl.run_main(self.w, self.cfg, out, workers)
        wall = time.perf_counter() - t0
        return wall, wl.read_payload(self.w, out)

    def check(self, w1: dict, w2, *others: dict) -> list[str]:
        problems = wl.check_outputs(
            self.w, self.reference, self.storage_time, self.n_steps, w1, w2
        )
        if self.first_payload is None:
            self.first_payload = w1
        for p in (w1, *others):
            if p != self.first_payload:
                problems.append("payload differs from the first repeat of the same inputs")
                break
        return problems

    def repeat(self, rep: int) -> dict:
        """One untraced repeat: workers=1 and (engine only) workers=2, in
        alternating order."""
        order = (1, 2) if rep % 2 == 0 else (2, 1)
        walls, payloads = {}, {}
        for workers in order if self.w.engine else (1,):
            walls[workers], payloads[workers] = self.timed(f"w{workers}", workers)
        problems = self.check(payloads[1], payloads.get(2))
        return {"w1_s": walls[1], "w2_s": walls.get(2), "problems": problems}

    def traced_repeat(self, rep: int, tracer) -> dict:
        """Untraced workers=1, traced workers=1 and untraced workers=2."""
        u1, p_u1 = self.timed("w1", 1)
        tracer.run = rep
        tracer.install()
        try:
            t1, p_t1 = self.timed("traced", 1)
        finally:
            tracer.uninstall()
        u2, p_u2 = self.timed("w2", 2) if self.w.engine else (None, None)
        problems = self.check(p_u1, p_u2, p_t1)
        if p_t1 != p_u1:
            problems.append("traced payload differs from the untraced one")
        return {
            "w1_s": u1,
            "w2_s": u2,
            "traced_s": t1,
            "self_s": spans.self_times(tracer.spans, rep),
            "counts": spans.count_totals(tracer.spans, rep),
            "report_counts": json.loads(p_u1["report.json"])["counts"] if self.w.engine else None,
            "coincidences": histogram_total(p_u1["histogram.csv"]) if self.w.engine else None,
            "problems": problems,
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out", "work"))
    args = ap.parse_args(argv)
    if args.probe:
        probe(args.workload)

    afclink = _import_afclink()
    import numpy
    import resource
    import scipy

    bench = Bench(args.workload, args.seed, args.out)
    tracer = spans.Tracer() if args.trace else None
    reps = []
    deadline = None
    rep = 0
    while deadline is None or time.perf_counter() < deadline:
        try:
            if tracer is None:
                result = bench.repeat(rep)
            else:
                result = bench.traced_repeat(rep, tracer)
        except Exception as exc:  # a failing main call counts as a failed run
            traceback.print_exc()
            result = {"problems": [f"{type(exc).__name__}: {exc}"]}
        result["warmup"] = deadline is None
        for problem in result["problems"]:
            print(f"perfbench: {args.workload} repeat {rep}: {problem}", file=sys.stderr)
        reps.append(result)
        rep += 1
        if deadline is None:  # the first repeat warms caches and lazy imports
            deadline = time.perf_counter() + args.seconds

    if tracer is not None:
        tracer.write(os.path.join(args.out, "spans.jsonl"))
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "sim_hours": bench.hours,
        "repeats": reps,
        "peak_rss_kib": {"self": usage_self, "children": usage_children},
        "payload_sha256": _sha256s(bench.first_payload),
        "missing_wrap_targets": tracer.missing if tracer is not None else [],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "afclink": afclink.__version__,
        },
    }), flush=True)
    return 0


def histogram_total(histogram_csv: bytes) -> int:
    """Sum of the counts column of histogram.csv: every coincidence that
    accumulate_histogram added in one main call."""
    return sum(int(line.split(b",")[1]) for line in histogram_csv.splitlines()[1:])


def _sha256s(payload) -> dict:
    return {
        name: hashlib.sha256(data).hexdigest() if data is not None else None
        for name, data in (payload or {}).items()
    }


if __name__ == "__main__":
    sys.exit(main())
