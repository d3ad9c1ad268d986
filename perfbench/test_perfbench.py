"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q      (about 20 s)

They run the program in child processes, so run them from the root of a
checkout.
"""

from __future__ import annotations

import json
import unittest

import run
from run import Proc, Workload, compute_ok, per_layer, tail, verify_failures

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _proc(stdout, code=0) -> Proc:
    return Proc(code, json.dumps(stdout).encode(), 0.0, 0.0, 0, None)


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly between two traced runs."""
    return (name.endswith(("_calls", "_builds")) or name.startswith("exactnum.")
            or name in ("bridge.jobs", "chromallt.orientations"))


class GateTest(unittest.TestCase):
    jobs = [["check_as", 1, None], ["check_cqs", 2, 2]]

    def reports(self, *statuses):
        return [{"check": c, "n": n, "q": q, "status": s, "witness": None}
                for (c, n, q), s in zip(self.jobs, statuses)]

    def test_verify_all_pass(self):
        self.assertEqual(verify_failures(_proc(self.reports("pass", "pass")), self.jobs), 0)

    def test_verify_counts_each_kind_of_failure(self):
        self.assertEqual(verify_failures(_proc(self.reports("pass", "fail")), self.jobs), 1)
        self.assertEqual(verify_failures(_proc(self.reports("pass")), self.jobs), 1)
        extra = self.reports("pass", "pass") + [dict(self.reports("pass")[0], n=9)]
        self.assertEqual(verify_failures(_proc(extra), self.jobs), 1)
        dup = self.reports("pass", "pass") + self.reports("pass")
        self.assertEqual(verify_failures(_proc(dup), self.jobs), 1)
        self.assertEqual(verify_failures(_proc(self.reports("pass", "pass"), code=1), self.jobs), 2)
        self.assertEqual(verify_failures(Proc(0, b"not json", 0.0, 0.0, 0, None), self.jobs), 2)

    def test_compute_exact_match(self):
        want = {"basis": "PT", "coeffs": [{"partition": [1], "value": "1"}]}
        self.assertTrue(compute_ok(_proc(want), want))
        other = {"basis": "PT", "coeffs": [{"partition": [1], "value": "2"}]}
        self.assertFalse(compute_ok(_proc(other), want))
        self.assertFalse(compute_ok(_proc(want, code=2), want))

    def test_expected_job_lists(self):
        jobs = json.loads(run.EXPECTED_JOBS.read_text())
        self.assertEqual(len(jobs["verify_default"]), 76)
        self.assertEqual(len(jobs["verify_deep"]), 88)


class DefinitionTest(unittest.TestCase):
    def test_tail_has_ten_beyond(self):
        value, label = tail([float(i) for i in range(78)])
        self.assertEqual(value, 67.0)
        self.assertEqual(label, "p87.2 (10 of 78 beyond)")
        self.assertEqual(tail([float(i) for i in range(40)])[0], 29.0)

    def test_short_runs_keep_a_quarter_beyond(self):
        self.assertEqual(tail([5.0, 1.0, 4.0, 2.0, 6.0, 3.0]), (4.0, "p66.7 (2 of 6 beyond)"))
        self.assertEqual(tail([9.0, 8.0]), (9.0, "p100.0 (0 of 2 beyond)"))
        self.assertEqual(tail([7.0]), (7.0, "p100.0 (0 of 1 beyond)"))

    def test_timings_are_scaled_to_the_reference_speed(self):
        for slowdown in (1.0, 2.0):
            def proc(latency, setup):
                return Proc(0, b"", latency, setup, 1024, None, run.STARTUP_REF_S * slowdown)

            iters = [run.Iteration(wall=w, procs=[proc(w, 0.1)]) for w in (2.0, 3.0, 4.0)]
            metrics, samples = run.end_to_end(iters, [proc(0.1, 0.1)])
            self.assertAlmostEqual(metrics["wall_s"][0], 3.0 / slowdown)
            self.assertAlmostEqual(metrics["setup_s"][0], 0.1 / slowdown)
            self.assertAlmostEqual(metrics["req_p50_s"][0], 3.0 / slowdown)
            self.assertAlmostEqual(metrics["req_tail_s"][0], 3.0 / slowdown)
            self.assertEqual(metrics["peak_rss_mb"][0], 1.0)
            self.assertEqual(samples["measured"]["wall_s"], 3.0)

    def test_batches_repeat_per_seed_and_keep_their_mix(self):
        a, b = Workload("compute_cold", 7), Workload("compute_cold", 7)
        self.assertEqual([a.batch() for _ in range(3)], [b.batch() for _ in range(3)])
        mix = sorted(v for v, _ in Workload("compute_cold", 8).batch())
        self.assertEqual(mix, sorted(v for v, _ in a.batch()))
        self.assertEqual(len(mix), 13)

    def test_benchmark_json_names_the_printed_metrics(self):
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
        self.assertEqual(names, [name for name, _ in run.END_TO_END])
        self.assertEqual([m["name"] for m in BENCHMARK["workloads"]], list(run.GATED))


class TracedCountsTest(unittest.TestCase):
    """Two traced runs of the same workload give identical counts."""

    def check_workload(self, name):
        runs = []
        for _ in range(2):
            wl = Workload(name, seed=1)
            it = wl.run_once(wl.requests(), trace=True)
            self.assertEqual(it.failed, 0)
            runs.append(per_layer([p.trace for p in it.procs], 0.0))
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual({k: u for k, (_, u) in runs[0].items()}, declared)
        counts = [{k: v for k, (v, _) in r.items() if is_count(k)} for r in runs]
        self.assertEqual(counts[0], counts[1])
        return counts[0]

    def test_verify_default_counts_repeat(self):
        counts = self.check_workload("verify_default")
        self.assertEqual(counts["bridge.jobs"], 76)

    def test_compute_cold_counts_repeat(self):
        counts = self.check_workload("compute_cold")
        self.assertEqual(counts["bridge.jobs"], 0)
        self.assertEqual(counts["fqoracle.induce_calls"], 0)
        self.assertEqual(counts["chromallt.orientations"],
                         len(run.SIZES) * sum(2 ** a for a in run.AS_AREAS))
        self.assertEqual(counts["chromallt.as_calls"], len(run.SIZES) * len(run.AS_AREAS))


if __name__ == "__main__":
    unittest.main()
