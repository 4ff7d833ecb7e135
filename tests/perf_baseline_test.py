#!/usr/bin/env python3
"""Tests for tools/perf_baseline's two gate tables, worked against the
committed BENCH_15.json baseline.

Run directly (python3 tests/perf_baseline_test.py) or through ctest.
"""

import contextlib
import copy
import importlib.machinery
import importlib.util
import io
import json
import os
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool():
    loader = importlib.machinery.SourceFileLoader(
        "perf_baseline", os.path.join(ROOT, "tools", "perf_baseline"))
    spec = importlib.util.spec_from_loader(loader.name, loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


pb = load_tool()
TOL = 0.15
EPS = 1e-6


def bench15():
    with open(os.path.join(ROOT, "BENCH_15.json")) as f:
        return json.load(f)


def put(tree, path, value):
    *parents, leaf = path.split(".")
    for key in parents:
        tree = tree[key]
    tree[leaf] = value


def drop(tree, path):
    *parents, leaf = path.split(".")
    for key in parents:
        tree = tree[key]
    del tree[leaf]


class GateTables(unittest.TestCase):
    def setUp(self):
        self.base = bench15()

    def test_every_row_matches_a_baseline_path(self):
        for gate in pb.GATES:
            self.assertTrue(pb.expand(self.base, gate.path), gate.path)
        for limit in pb.LIMITS:
            self.assertTrue(pb.expand(self.base, limit.path), limit.path)
        self.assertTrue(pb.expand(self.base, pb.SEEDS_STABLE))

    def test_baseline_against_itself_passes(self):
        self.assertEqual(pb.check(self.base, self.base, TOL), [])

    def test_each_gated_value_fails_just_past_its_bound(self):
        for gate in pb.GATES:
            tol = TOL if gate.tolerance is None else gate.tolerance
            for path, base in pb.expand(self.base, gate.path):
                sign = -1 if gate.better == "higher" else 1
                bound = base * (1 + sign * tol)
                for step, fails in ((EPS, True), (-EPS, False)):
                    cur = copy.deepcopy(self.base)
                    put(cur, path,
                        bound + sign * max(abs(bound), 1.0) * step)
                    bad = pb.check(cur, self.base, TOL)
                    self.assertEqual(bool(bad), fails, (path, bad))
                    if fails:
                        self.assertEqual(len(bad), 1, bad)
                        self.assertTrue(bad[0].startswith(path + ":"))

    def test_peak_flows_may_not_drop_at_all(self):
        cur = copy.deepcopy(self.base)
        path = "lb_scale.modes.active.peak_flows"
        put(cur, path, pb.lookup(self.base, path) - 1)
        self.assertEqual(len(pb.check(cur, self.base, TOL)), 1)

    def test_path_missing_from_current_run_fails(self):
        for gate in pb.GATES:
            path = pb.expand(self.base, gate.path)[0][0]
            cur = copy.deepcopy(self.base)
            drop(cur, path)
            self.assertEqual(pb.check(cur, self.base, TOL),
                             [f"{path}: missing from current run"])

    def test_section_absent_from_baseline_is_skipped(self):
        for section in ("micro_kernel", "incast_policy",
                        "latency_lineage", "lb_scale", "fabric_scale",
                        "parallel"):
            base = copy.deepcopy(self.base)
            del base[section]
            cur = copy.deepcopy(self.base)
            del cur[section]
            self.assertEqual(pb.check(cur, base, TOL), [], section)

    def test_skipped_parallel_section_is_not_compared(self):
        skipped = {"skipped": True, "reason": "host has 2 core(s)"}
        slow = copy.deepcopy(self.base)
        put(slow, "parallel.speedup", 0.0)
        base = copy.deepcopy(self.base)
        base["parallel"] = dict(skipped)
        self.assertEqual(pb.check(slow, base, TOL), [])
        cur = copy.deepcopy(self.base)
        cur["parallel"] = dict(skipped)
        self.assertEqual(pb.check(cur, self.base, TOL), [])
        self.assertEqual(len(pb.check(slow, self.base, TOL)), 1)


def check_limits(current, bounds):
    with contextlib.redirect_stdout(io.StringIO()):
        return pb.check_limits(current, bounds)


class LimitTable(unittest.TestCase):
    def setUp(self):
        self.cur = bench15()
        # Every bound sits exactly at the current value, so all pass.
        self.bounds = {}
        for limit in pb.LIMITS:
            values = [v for _, v in pb.expand(self.cur, limit.path)]
            pick = min if limit.kind == "min" else max
            self.bounds[limit.flag] = pick(values)

    def test_each_limit_passes_at_and_fails_past_its_bound(self):
        self.assertEqual(check_limits(self.cur, self.bounds), [])
        for limit in pb.LIMITS:
            bounds = dict(self.bounds)
            b = bounds[limit.flag]
            sign = 1 if limit.kind == "min" else -1
            bounds[limit.flag] = b + sign * max(abs(b), 1.0) * EPS
            bad = check_limits(self.cur, bounds)
            self.assertEqual(len(bad), 1, (limit.flag, bad))
            self.assertIn("--" + limit.flag.replace("_", "-"), bad[0])

    def test_skipped_parallel_section_is_not_limited(self):
        self.cur["parallel"] = {"skipped": True}
        self.assertEqual(check_limits(self.cur, self.bounds), [])

    def test_unstable_seeds_fail(self):
        path = pb.expand(self.cur, pb.SEEDS_STABLE)[0][0]
        put(self.cur, path, False)
        bad = check_limits(self.cur, self.bounds)
        self.assertEqual(len(bad), 1, bad)
        self.assertTrue(bad[0].startswith(path + ":"))


if __name__ == "__main__":
    unittest.main()
