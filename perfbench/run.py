"""corelattice benchmark: time fixed CLI workloads end to end, or trace them layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The seed picks the inputs from the
workload's pool (``workloads.py``); every command's output is checked
against closed forms (``checks.py``) before any timing is reported.

``--trace 0`` runs whole passes over the workload, each command in a fresh
``python -m corelattice.cli`` process and one child at a time, until the
next pass would overrun ``--seconds``, and reports the end-to-end metrics
as medians over the passes.  ``--trace 1`` runs one pass in-process
through ``corelattice.cli.main`` twice, in fresh processes, first untraced
and then traced (``tracer.py``), and reports the per-layer metrics.

Every metric is printed by name with its unit; a record of the run, with
each command's stdout sha256 and the machine it ran on, goes to
``perfbench/out/``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLI = [sys.executable, "-m", "corelattice.cli"]
TRACER = [sys.executable, str(HERE / "tracer.py")]
SETUP_COMMAND = ["enumerate", "2", "1", "--summary"]
SETUP_REPS = 2  # before each pass, and again after the last
RUN_LIMIT_S = 170  # every child is killed in time for the run to end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"_s": "s", "ratio": "ratio", "bytes_out": "B"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class Runner:
    """Runs one child at a time through ``spawner.py``, checks it, and keeps the failure count."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.stdout_path = HERE / "out" / "stdout.tmp"
        self.stdout_path.parent.mkdir(exist_ok=True)
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True, cwd=ROOT,
                                        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.wait(timeout=30)
        self.spawner.stdout.close()
        self.stdout_path.unlink(missing_ok=True)

    def spawn(self, program: list[str], args: list[str]) -> dict:
        """Run one child to completion: wall, time to first stdout line, max RSS, CPU, output."""
        request = {"argv": program + args, "stdout": str(self.stdout_path),
                   "timeout": max(1.0, self.deadline - time.monotonic())}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended unexpectedly")
        return {"args": args, **json.loads(reply), "stdout": self.stdout_path.read_bytes()}

    def fail(self, what: str, why: str):
        self.failures.append(f"{what}: {why}")

    def command(self, args: list[str]) -> dict:
        """Run one CLI command and check it; a failure is counted, not raised."""
        run = self.spawn(CLI, args)
        self.attempted += 1
        problems, facts = checks.check(args, run["stdout"])
        problems = self._process_problems(run) + problems
        if problems:
            self.fail(" ".join(args), "; ".join(problems))
        run["facts"] = facts
        run["sha256"] = hashlib.sha256(run.pop("stdout")).hexdigest()
        return run

    def in_process(self, commands: list[list[str]], *flags: str) -> dict | None:
        """Run the commands in one tracer child; count each command and check its verdicts."""
        run = self.spawn(TRACER, ["--commands", json.dumps(commands), *flags])
        self.attempted += len(commands)
        problems = self._process_problems(run)
        try:
            report = json.loads(run["stdout"].decode("utf-8").splitlines()[-1])
        except (ValueError, IndexError):
            problems.append("no report")
        if problems:
            for args in commands:
                self.fail(" ".join(args), "; ".join(problems))
            return None
        for result in report["commands"]:
            found = list(result["problems"])
            if result["rc"]:
                found.append(f"exit code {result['rc']}")
            if result["traceback"]:
                found.append("traceback")
            if found:
                self.fail(" ".join(result["argv"]), "; ".join(found))
        report["cpu_s"] = run["cpu_s"]
        return report

    @staticmethod
    def _process_problems(run: dict) -> list[str]:
        problems = []
        if run["timed_out"]:
            problems.append("timed out")
        elif run["rc"] != 0:
            problems.append(f"exit code {run['rc']}")
        if run["traceback"]:
            problems.append("traceback on stderr")
        return problems


def measure_setup(runner: Runner) -> list[float]:
    return [runner.command(SETUP_COMMAND)["wall_s"] for _ in range(SETUP_REPS)]


def end_to_end(runner: Runner, commands: list[list[str]], seconds: float, started: float) -> tuple[dict, dict]:
    """Whole passes until the next would overrun ``seconds``, with set-up runs spread between them."""
    setup, passes = [], []
    while True:
        setup += measure_setup(runner)
        pass_start = time.perf_counter()
        runs = [runner.command(args) for args in commands]
        passes.append({"runs": runs, "elapsed_s": time.perf_counter() - pass_start})
        per_pass = statistics.mean(p["elapsed_s"] for p in passes)
        if time.perf_counter() - started + per_pass > seconds or runner.failures:
            break
    setup += measure_setup(runner)
    walls = [sum(r["wall_s"] for r in p["runs"]) for p in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p["runs"]) for p in passes),
    }
    cores = [sum(r["facts"].get("cores", 0) for r in p["runs"]) for p in passes]
    extra = {
        "samples": len(passes),
        "setup_walls_s": setup,
        # measured and printed, but not among BENCHMARK.json's bounded metrics (see README.md)
        "first_record_s": statistics.median(sum(r["first_s"] for r in p["runs"]) for p in passes),
        "cores_per_s": statistics.median(c / w for c, w in zip(cores, walls)) if any(cores) else None,
        "passes": [p["runs"] for p in passes],
    }
    return metrics, extra


def per_layer(runner: Runner, workload, commands: list[list[str]]) -> tuple[dict, dict]:
    out = HERE / "out"
    untraced = runner.in_process(commands)
    traced = runner.in_process(commands, "--trace", "--spans", str(out / f"spans-{workload.name}.tsv"))
    if untraced is None or traced is None:
        return {}, {}
    metrics = dict(traced["metrics"])
    metrics["cli.bytes_out"] = sum(r["bytes"] for r in traced["commands"])
    metrics["cli.cpu_s"] = untraced["cpu_s"]
    metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    for layer in workload.layers:
        if not traced["spans_per_layer"][layer] or not metrics[f"{layer}.self_s"] > 0:
            runner.fail("trace", f"layer {layer} recorded no span on {workload.name}")
    extra = {"spans_per_layer": traced["spans_per_layer"], "untraced_wall_s": untraced["wall_s"],
             "traced_wall_s": traced["wall_s"],
             "sha256": {" ".join(r["argv"]): r["sha256"] for r in traced["commands"]}}
    return metrics, extra


def machine() -> dict:
    """Where and on what code the run happened."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:  # Linux only; the model is informational
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "corelattice").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": model,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "corelattice" / "cli.py").is_file():
        print(f"error: no corelattice sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed)
    with Runner(time.monotonic() + RUN_LIMIT_S) as runner:
        if args.trace:
            values, extra = per_layer(runner, workload, commands)
            units = {name: per_layer_unit(name) for name in values}
        else:
            values, extra = end_to_end(runner, commands, args.seconds, started)
            units = END_TO_END
    failed = len(runner.failures)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "variant": workload.variant(args.seed), "commands": commands, "machine": machine(),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
        "attempted": runner.attempted, "failed": failed, "failures": runner.failures, **extra,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "out" / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  variant {record['variant']}  trace {args.trace}")
    print("  commands: " + " | ".join(" ".join(c) for c in commands))
    for n, v in values.items():
        print(f"  {n:34} {v:>16.6g} {units[n]}")
    if not args.trace:
        print(f"  {'(samples)':34} {extra['samples']:>16} passes, setup {len(extra['setup_walls_s'])} runs")
        print(f"  {'first_record_s':34} {extra['first_record_s']:>16.6g} s")
        if extra["cores_per_s"] is not None:
            print(f"  {'cores_per_s':34} {extra['cores_per_s']:>16.6g} 1/s")
    print(f"  {'fail_ratio':34} {failed / max(runner.attempted, 1):>16.6g} ratio ({failed}/{runner.attempted})")
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    print(f"  record: perfbench/out/{name}")

    print(json.dumps({"correct": failed == 0 and bool(values), "attempted": max(runner.attempted, 1),
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
