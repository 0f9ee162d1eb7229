"""Fast self-tests of the benchmark harness; they do not import afclink.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)["key_counts"]


def _span(name, start, end, parent, run=0):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": run, "counts": None}


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        s = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 4.0, 0),
            _span("b", 3.0, 6.0, 0),  # overlaps a: covered once
            _span("c", 1.0, 2.0, 1),
            _span("a", 7.0, 12.0, 0),  # reaches past its parent: clipped
            _span("root", 0.0, 1.0, -1, run=1),
        ]
        got = spans.self_times(s, run=0)
        self.assertAlmostEqual(got["root"], 10.0 - 5.0 - 3.0)
        self.assertAlmostEqual(got["a"], (3.0 - 1.0) + 5.0)
        self.assertAlmostEqual(got["b"], 3.0)
        self.assertAlmostEqual(got["c"], 1.0)
        self.assertAlmostEqual(spans.self_times(s)["root"], 2.0 + 1.0)

    def test_tracer_wraps_restores_and_reports_missing(self):
        mod = types.ModuleType("perfbench_fake")
        mod.inner = lambda x: [x] * x
        mod.outer = lambda x: mod.inner(x) + mod.inner(1)
        sys.modules[mod.__name__] = mod
        try:
            tracer = spans.Tracer([
                ("fake.outer", [(mod.__name__, "outer")], None),
                ("fake.inner", [(mod.__name__, "inner")], spans._len_of_result),
                ("fake.gone", [(mod.__name__, "gone"), ("no_such_module_x", "f")], None),
            ])
            original = mod.outer
            tracer.install()
            self.assertEqual(mod.outer(3), [3, 3, 3, 1])
            tracer.uninstall()
            self.assertIs(mod.outer, original)
            self.assertEqual(tracer.missing, [f"{mod.__name__}.gone", "no_such_module_x.f"])
            self.assertEqual([s["name"] for s in tracer.spans],
                             ["fake.outer", "fake.inner", "fake.inner"])
            self.assertEqual([s["parent"] for s in tracer.spans], [-1, 0, 0])
            self.assertEqual(spans.count_totals(tracer.spans), {"fake.inner": {"out": 4}})
        finally:
            del sys.modules[mod.__name__]


class MetricNameTest(unittest.TestCase):
    NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

    def test_names_are_valid_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
        names += [w["name"] for w in SPEC["workloads"]]
        for name in names:
            self.assertRegex(name, self.NAME)
            self.assertTrue(re.fullmatch(r"[A-Za-z0-9_.-]+", name))
        self.assertEqual(len(names), len(set(names)))
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(wl.WORKLOADS))

    def test_harness_computes_exactly_the_declared_metrics(self):
        repeat = {"w1_s": 2.0, "w2_s": 1.0, "traced_s": 2.1, "self_s": {}, "counts": {},
                  "report_counts": None, "coincidences": None}
        probes = [{"wall_s": 0.6, "import_s": 0.5, "load_s": 0.001}]
        worker = {"sim_hours": 0.5, "peak_rss_kib": {"self": 1024, "children": 0}}
        for engine in (True, False):
            e2e = run.end_to_end_samples(probes, worker, [repeat], engine)
            layer = run.per_layer_samples(probes, worker, [repeat], engine)
            self.assertEqual(set(e2e), {m["name"] for m in SPEC["end_to_end"]})
            self.assertEqual(set(layer), {m["name"] for m in SPEC["per_layer"]})
        self.assertEqual(e2e["wall_s_per_sim_hour"], [4.0])

    def test_quartiles(self):
        s = run.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
        self.assertEqual((s["median"], s["n"]), (3.0, 5))
        self.assertLess(s["q1"], s["median"])
        self.assertGreater(s["q3"], s["median"])


def _engine_payload(counts: dict, echo_gap_s: float) -> dict:
    report = {
        "S": counts["S"],
        "N_raw": counts["N"],
        "counts": {
            "heralds_detected": counts["heralds_detected"],
            "signal_detected": counts["signal_detected"],
            "detected_outcomes": {"echo": counts["echoes_detected"]},
        },
    }
    rows = ["tau_ns,counts,smoothed"]
    for i in range(1600):
        tau = -200.0 + i
        smoothed = 50 * math.exp(-abs(tau - 150.0) / 20) + 30 * math.exp(
            -abs(tau - 150.0 - echo_gap_s * 1e9) / 20)
        rows.append(f"{tau:.4f},{round(smoothed)},{smoothed:.6f}")
    return {
        "report.json": json.dumps(report).encode(),
        "histogram.csv": ("\n".join(rows) + "\n").encode(),
        "summary.csv": b"scenario,S,N,snr,duration_s,seed\n",
        "lock_telemetry.csv": b"t_s,residual_hz\n",
    }


def _lock_payload(max_residual_hz: float, n_steps: int) -> dict:
    rows = "".join(f"{k:.6f},0\n" for k in range(n_steps + 1))
    return {
        "lock_telemetry.csv": ("t_s,residual_hz\n" + rows).encode(),
        "lock_summary.json": json.dumps({"max_abs_residual_hz": max_residual_hz}).encode(),
    }


class OutputCheckTest(unittest.TestCase):
    STORAGE = 1 / 1.15e6

    def check(self, name, w1, w2, n_steps=0):
        return wl.check_outputs(
            wl.WORKLOADS[name], REFERENCE.get(name, {}), self.STORAGE, n_steps, w1, w2
        )

    def test_clean_outputs_pass(self):
        for name in ("flagship_noise", "pair_rich"):
            p = _engine_payload(REFERENCE[name], self.STORAGE)
            self.assertEqual(self.check(name, p, dict(p)), [])
        self.assertEqual(self.check("lockcheck", _lock_payload(2600.0, 5), None, 5), [])

    def test_perturbed_counts_are_rejected(self):
        counts = dict(REFERENCE["flagship_noise"], heralds_detected=int(
            REFERENCE["flagship_noise"]["heralds_detected"] * 1.05))
        p = _engine_payload(counts, self.STORAGE)
        problems = self.check("flagship_noise", p, p)
        self.assertEqual(len(problems), 1)
        self.assertIn("heralds_detected", problems[0])

    def test_worker_count_mismatch_is_rejected(self):
        p = _engine_payload(REFERENCE["flagship_noise"], self.STORAGE)
        q = dict(p, **{"summary.csv": p["summary.csv"] + b" "})
        self.assertIn("summary.csv", " ".join(self.check("flagship_noise", p, q)))

    def test_misplaced_echo_is_rejected(self):
        p = _engine_payload(REFERENCE["pair_rich"], self.STORAGE + 10e-9)
        self.assertIn("echo lands", " ".join(self.check("pair_rich", p, p)))

    def test_missing_file_is_rejected(self):
        p = dict(_engine_payload(REFERENCE["pair_rich"], self.STORAGE), **{"report.json": None})
        self.assertIn("report.json", " ".join(self.check("pair_rich", p, p)))

    def test_lock_residual_and_length_are_checked(self):
        self.assertTrue(self.check("lockcheck", _lock_payload(6000.0, 5), None, 5))
        self.assertTrue(self.check("lockcheck", _lock_payload(100.0, 4), None, 5))


if __name__ == "__main__":
    unittest.main()
