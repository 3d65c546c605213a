#!/usr/bin/env python3
"""Interface test of spk_bench on shrunken (--smoke) cells.

    python3 benchmark/test_bench.py [path/to/spk_bench]

Registered as a ctest in benchmark/CMakeLists.txt. For every workload
in BENCHMARK.json it checks that spk_bench emits exactly the declared
metrics with their units, that no cell breaks an invariant, that the
traced run's one-thread passes reproduce the multi-thread snapshots
bit for bit and write a valid Chrome trace, and that sim_digest
repeats for a seed and changes with it.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXE = Path(sys.argv[1]) if len(sys.argv) > 1 else \
    ROOT / "build-bench" / "spk_bench"
OUT = EXE.parent / "test-out"


def drive(workload, seed, traced=False):
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--smoke", "--out", str(OUT)]
    if traced:
        cmd.append("--traced")
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=60).stdout
    return json.loads(out.strip().splitlines()[-1])


class BenchmarkInterface(unittest.TestCase):
    def check_declared(self, result, section):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        self.assertEqual(got, want)

    def check_clean(self, result):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["info"]["cell_error_pct"], 0)

    def test_workloads(self):
        OUT.mkdir(exist_ok=True)
        for w in SPEC["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                first = drive(name, 1)
                self.check_declared(first, "end_to_end")
                self.check_clean(first)
                digest = first["info"]["sim_digest"]
                self.assertEqual(drive(name, 1)["info"]["sim_digest"],
                                 digest)
                self.assertNotEqual(drive(name, 2)["info"]["sim_digest"],
                                    digest)

                traced = drive(name, 1, traced=True)
                self.check_declared(traced, "per_layer")
                self.check_clean(traced)
                self.assertTrue(traced["info"]["snapshots_identical"])
                self.assertEqual(traced["info"]["sim_digest"], digest)
                trace = json.loads(
                    Path(traced["info"]["trace_file"]).read_text())
                cells = [e for e in trace["traceEvents"]
                         if e["name"] == "cell"]
                self.assertEqual(len(cells), traced["attempted"])
                for e in trace["traceEvents"]:
                    self.assertEqual(e["ph"], "X")
                    self.assertGreaterEqual(e["dur"], 0)


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1])
