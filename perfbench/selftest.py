#!/usr/bin/env python3
"""Self-tests of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

They make one untraced and one traced pass of every workload, about a minute
in all.  The file is not named test_*.py, so the repository's own test suite
does not collect it.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

import run
import tracing
import workloads

SEED = 7

# Wrapped names each workload must reach: a renamed function or a changed
# call path then fails here instead of reading zero in the traced metrics.
EXPECTED_HITS = {
    "grid-certify": (
        "cli.main", "scenarios.run_plane", "scenarios.run_double_solid",
        "scenarios.run_highdim", "families.plane_family", "families.double_solid_family",
        "families.ci_family_highdim", "defect.audit_nodes", "defect.defect",
        "defect.tangent_codim", "defect.certify_min_nodes_p4",
        "defect.certify_min_nodes_double_solid", "ideals.points_hilbert",
        "linalg.IntForwardEchelon.add", "linalg.det",
        "polynomials.GradedPoly.partial_derivative", "polynomials.GradedPoly.evaluate",
        "macaulay.binomial",
    ),
    "random-control": (
        "cli.main", "defect.defect", "ideals.points_hilbert",
        "linalg.IntForwardEchelon.add", "linalg.Echelon.add",
    ),
    "gorenstein-chain": (
        "ideals.restricted_point_pieces", "ideals.ancestor_profile",
        "ideals.functional_kills_products", "linalg.Echelon.add",
        "linalg.Echelon.kernel_of_rows", "linalg.IntForwardEchelon.add",
        "polynomials.GradedPoly.evaluate", "macaulay.binomial", "macaulay.upper_growth",
    ),
}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(run.ROOT)
        cls.golden = json.loads(run.GOLDEN.read_text(encoding="utf-8"))["reports"]
        cls.runs = {}
        for workload in workloads.WORKLOADS:
            instances = run.set_up(workload, SEED)[1]
            tracer = tracing.Tracer()
            plain = run.run_pass(workload, SEED)
            traced = run.run_pass(workload, SEED, tracer)
            cls.runs[workload] = (instances, plain, traced, tracer)

    def test_traced_and_untraced_reports_are_byte_identical(self):
        for workload, (_, plain, traced, _) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertEqual(plain.errors, {})
                self.assertEqual(traced.errors, {})
                self.assertEqual(plain.reports, traced.reports)

    def test_every_set_up_and_instance_has_a_reference_time(self):
        for workload, (instances, plain, traced, _) in self.runs.items():
            for result in (plain, traced):
                with self.subTest(workload=workload, traced=result.traced):
                    self.assertEqual(set(result.ref), {inst.label for inst in instances})
                    self.assertGreater(min(result.ref.values()), 0)
                    self.assertGreater(result.setup_ref, 0)

    def test_reports_pass_golden_and_oracle_checks(self):
        dk = workloads.import_program(run.SRC)
        for workload, (instances, plain, traced, _) in self.runs.items():
            with self.subTest(workload=workload):
                failed, problems = run.check_reports(
                    instances, [plain, traced], self.golden[workload], dk)
                self.assertEqual((failed, problems), (0, []))

    def test_each_wrapped_name_is_hit(self):
        for workload, names in EXPECTED_HITS.items():
            stats = self.runs[workload][3].stats
            for name in names:
                with self.subTest(workload=workload, name=name):
                    self.assertGreater(stats[name].calls, 0)
        expected = {n for names in EXPECTED_HITS.values() for n in names}
        self.assertLessEqual(set(tracing.FUNCTIONS) | set(tracing.METHODS), expected)

    def test_self_times_are_nonnegative_and_fit_in_wall_time(self):
        for workload, (_, _, traced, tracer) in self.runs.items():
            with self.subTest(workload=workload):
                for name, stats in tracer.stats.items():
                    self.assertGreaterEqual(stats.self_s, -1e-9, name)
                    self.assertLessEqual(stats.self_s, stats.total_s + 1e-9, name)
                self_s = sum(stats.self_s for stats in tracer.stats.values())
                self.assertLessEqual(self_s, sum(traced.seconds.values()))

    def test_missing_name_fails_install_and_restores_the_program(self):
        dk = workloads.import_program(run.SRC)
        original = dk.ideals.points_hilbert
        tracer = tracing.Tracer()
        saved = tracing.FUNCTIONS
        tracing.FUNCTIONS = saved + ("ideals.no_such_function",)
        try:
            with self.assertRaises(AttributeError):
                tracer.install()
        finally:
            tracing.FUNCTIONS = saved
        self.assertIs(dk.ideals.points_hilbert, original)
        self.assertIs(sys.modules["defectk.defect"].points_hilbert, original)


if __name__ == "__main__":
    unittest.main()
