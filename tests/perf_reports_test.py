#!/usr/bin/env python3
"""Each JSON report tools/perf_baseline reads carries every path its
gate tables name.

Runs the five benches that print a JSON report at test size, reads
each report the way the tool does (stdout as one JSON document with
the expected schema), and requires every GATES, LIMITS and
SEEDS_STABLE path of that bench's section to match at least one
value. A bench that renames or drops a gated key fails here, not only
in CI's perf-baseline job.

Usage: perf_reports_test.py BUILD_DIR
"""

import sys
import unittest

from perf_baseline_test import pb  # tools/perf_baseline, loaded

BUILD = None  # set from the command line

# (bench, schema, test-size arguments)
BENCHES = [
    ("micro_kernel", "san-micro-kernel-v4", ["--events", "20000"]),
    ("incast_policy", "san-incast-policy-v1", []),
    ("latency_lineage", "san-latency-lineage-v1",
     ["--overhead-reps", "1", "--overhead-iters", "1"]),
    ("lb_scale", "san-lb-scale-v1", ["--quick", "--lb-flows", "2000"]),
    ("fabric_scale", "san-fabric-scale-v1", ["--quick"]),
]


def gated_paths(section):
    """The gate-table paths under @section, relative to its report."""
    rows = ([g.path for g in pb.GATES] + [l.path for l in pb.LIMITS]
            + [pb.SEEDS_STABLE])
    prefix = section + "."
    return [p[len(prefix):] for p in rows if p.startswith(prefix)]


class ReportsCarryEveryGatedPath(unittest.TestCase):
    def test_every_bench_section_has_gates(self):
        for bench, _, _ in BENCHES:
            self.assertTrue(gated_paths(bench), bench)

    def test_each_report_matches_its_gated_paths(self):
        for bench, schema, args in BENCHES:
            with self.subTest(bench=bench):
                report = pb.measure_json(BUILD, bench, schema, *args)
                for path in gated_paths(bench):
                    self.assertTrue(pb.expand(report, path),
                                    f"{bench}.{path}")


if __name__ == "__main__":
    BUILD = sys.argv.pop(1)
    unittest.main()
