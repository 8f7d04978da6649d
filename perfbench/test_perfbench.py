"""Self-tests of the benchmark; run from the repository root with

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

import checks
import run
from workloads import HELD_OUT_SEED, WORKLOADS, Workload

TINY = Workload(
    name="smoke",
    pool=(None,),
    held_out=None,
    build=lambda variant, rng: [["enumerate", "3", "4"], ["perm", "4"]],
    layers=("cli", "simplex", "abacus", "partitions", "perms"),
)


def cli_stdout(*args: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    return subprocess.run([*run.CLI, *args], env=env, capture_output=True, check=True, timeout=120).stdout


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class ChecksTest(unittest.TestCase):
    def test_real_outputs_pass(self):
        for args in (["enumerate", "3", "4"], ["enumerate", "4", "7", "--summary"], ["perm", "4"],
                     ["search-age", "3", "--b-list", "4,7"], ["ehrhart", "3"],
                     ["verify", "anderson", "--a-max", "3", "--b-max", "5", "--summary"]):
            problems, _ = checks.check(args, cli_stdout(*args))
            self.assertEqual(problems, [], args)

    def test_tampered_outputs_fail(self):
        out = cli_stdout("enumerate", "3", "4").decode()
        for bad in (out.replace('"count":5', '"count":6'),
                    out.replace('"size":0', '"size":1', 1),
                    out.replace('"average_size":"2"', '"average_size":"3"'),
                    "\n".join(out.splitlines()[1:]),
                    "not json"):
            problems, _ = checks.check(["enumerate", "3", "4"], bad.encode())
            self.assertNotEqual(problems, [], bad[:60])
        perm = cli_stdout("perm", "4").decode().replace('"total":24', '"total":25')
        self.assertNotEqual(checks.check(["perm", "4"], perm.encode())[0], [])

    def test_workload_inputs_follow_the_seed(self):
        for w in WORKLOADS.values():
            self.assertEqual(w.commands(3), w.commands(3))
            ordinary = {json.dumps(w.commands(s)) for s in range(1, 40)}
            self.assertNotIn(json.dumps(w.commands(HELD_OUT_SEED)), ordinary, w.name)


class SmokeTest(unittest.TestCase):
    def runner(self):
        runner = run.Runner(time.monotonic() + 120)
        self.addCleanup(runner.__exit__)
        return runner

    def test_every_metric_is_named_with_its_unit(self):
        runner = self.runner()
        ballast = bytearray(b"x" * (150 << 20))  # the benchmark's own memory must not show in its children
        values, _ = run.end_to_end(runner, TINY.commands(1), 0.5, time.perf_counter())
        del ballast
        self.assertEqual(runner.failures, [])
        self.assertEqual({n: run.END_TO_END[n] for n in values}, declared("end_to_end"))
        self.assertTrue(all(v > 0 for v in values.values()), values)
        self.assertLess(values["peak_rss_mb"], 100)

        values, _ = run.per_layer(runner, TINY, TINY.commands(1))
        self.assertEqual(runner.failures, [])
        self.assertEqual({n: run.per_layer_unit(n) for n in values}, declared("per_layer"))
        for layer in TINY.layers:
            self.assertGreater(values[f"{layer}.self_s"], 0, layer)

    def test_tampered_output_counts_as_failed(self):
        runner = self.runner()
        saved = run.CLI
        run.CLI = [sys.executable, str(run.HERE / "fake_cli.py")]
        try:
            run.end_to_end(runner, TINY.commands(1), 0.5, time.perf_counter())
        finally:
            run.CLI = saved
        self.assertGreater(runner.attempted, 0)
        self.assertTrue(any(f.startswith("enumerate 3 4: count 6") for f in runner.failures), runner.failures)
        self.assertFalse(any(f.startswith("perm") for f in runner.failures), runner.failures)

    def test_refuses_to_run_without_the_sources(self):
        bare = run.HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "algebra", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
