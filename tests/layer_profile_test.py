#!/usr/bin/env python3
"""Tests for tools/layer_profile's flat-profile parser and its layer
rule, worked on a canned `gprof -b -p` excerpt.

Run directly (python3 tests/layer_profile_test.py) or through ctest.
"""

import importlib.machinery
import importlib.util
import os
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool():
    loader = importlib.machinery.SourceFileLoader(
        "layer_profile", os.path.join(ROOT, "tools", "layer_profile"))
    spec = importlib.util.spec_from_loader(loader.name, loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


lp = load_tool()

# The shape of `gprof -b -p --no-demangle` output for perfbench_driver
# read against a copy with dotted symbols renamed; self seconds sum to
# 10.00. The last three rows have no call counts.
FLAT = """\
Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls  ms/call  ms/call  name
 30.00      3.00     3.00 120000000     0.00     0.00  _ZN3san3mem5Cache6accessEmb
 12.00      4.20     1.20 96000000     0.00     0.00  _ZN3san3mem6LruSet5touchEm
  9.00      5.10     0.90 30000000     0.00     0.00  _ZNSt6vectorIN3san3sim6detail8EventRefESaIS3_EE9push_backERKS3_
  8.00      5.90     0.80  4000000     0.00     0.00  _ZN3san3sim6detail8heapPushINS1_8EventRefEEEvRSt6vectorIT_SaIS5_EES5_
  7.00      6.60     0.70  2000000     0.00     0.00  _ZZN3san4apps11runHashJoinENS0_4ModeERKNS0_14HashJoinParamsEENKUlRNS_6active14HandlerContextEE_clES7_
  6.00      7.20     0.60  1000000     0.00     0.00  _ZN3san2io11StorageNode13handleRequestEPZNS1_13handleRequestENS0_9IoRequestEE60_ZN3san2io11StorageNode13handleRequestENS0_9IoRequestE_Frame_actor
  5.00      7.70     0.50  3000000     0.00     0.00  _ZN3san3sim15BasicEventQueueINS0_6detail15LadderSchedulerEE4stepEv_part_0
  4.00      8.10     0.40  5000000     0.00     0.00  _ZN3san3netltERKNS0_4LinkES3_
  4.00      8.50     0.40       10    40.00    40.00  _ZN3san3mem12_GLOBAL__N_18setCountERKNS0_11CacheParamsE
  3.00      8.80     0.30  1000000     0.00     0.00  _ZNK3san3obs12ChromeTracer4emitEiRKNS_3sim10TraceEventE
  3.00      9.10     0.30  7000000     0.00     0.00  _ZNSt17_Function_handlerIFN3san3sim4TaskERNS0_4host4HostEmmmEZNS0_4apps11runHashJoinEvEUlS5_mmmE_E9_M_invokeERKSt9_Any_dataS5_OmSE_SE_
  3.00      9.40     0.30       40     7.50     7.50  _ZN12_GLOBAL__N_116HashJoinWorkload3runEPN3san3mem12MemorySystemE
  2.00      9.60     0.20                             _ZN3san3mem5Cache6accessEmb_cold
  2.00      9.80     0.20                             frame_dummy
  2.00     10.00     0.20                             _ZN3san7helpersIiEEvv
"""


class FlatProfile(unittest.TestCase):
    def test_every_row_is_read(self):
        rows = lp.parse_flat(FLAT)
        self.assertEqual(len(rows), 15)
        self.assertEqual(rows[0], ("_ZN3san3mem5Cache6accessEmb", 3.00))
        self.assertEqual(rows[-2], ("frame_dummy", 0.20))
        self.assertAlmostEqual(sum(s for _, s in rows), 10.00)

    def test_a_function_belongs_to_the_namespace_that_defines_it(self):
        # std:: code with san template arguments is other; a lambda and
        # a coroutine body belong to the function that defines them; a
        # function directly in san:: names no layer.
        want = ["mem", "mem", "other", "sim", "apps", "io", "sim", "net",
                "mem", "obs", "other", "other", "mem", "other", "other"]
        got = [lp.layer_of(name) for name, _ in lp.parse_flat(FLAT)]
        self.assertEqual(got, want)

    def test_layers_sum_to_the_whole_profile(self):
        layers = lp.split_layers(lp.parse_flat(FLAT))
        self.assertEqual(list(layers),
                         ["mem", "sim", "apps", "io", "net", "obs",
                          "other"])
        self.assertAlmostEqual(layers["mem"], 4.80)
        self.assertAlmostEqual(layers["other"], 1.90)
        lines, record = lp.report(layers, iterations=40)
        self.assertEqual(record["iterations"], 40)
        self.assertEqual(record["self_s"], 10.0)
        mem = record["layers"]["mem"]
        self.assertEqual(mem, {"share_pct": 48.0, "self_s": 4.8,
                               "self_ms_per_iter": 120.0})
        self.assertAlmostEqual(
            sum(l["share_pct"] for l in record["layers"].values()), 100.0)
        self.assertEqual(len(lines), 1 + len(layers))
        self.assertTrue(lines[1].startswith("mem"))
        self.assertIn("48.0%", lines[1])


if __name__ == "__main__":
    unittest.main()
