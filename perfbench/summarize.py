"""Summarise the run records in perfbench/out/ into one JSON document.

    python3 perfbench/summarize.py > perfbench/baseline.json

For each workload: the seeds run, and per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
over the records found; per-layer metrics the same over the traced runs.
Also the stdout sha256 of every command seen, to compare CLI output across
commits byte for byte.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def describe(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "n": len(values)}


def summarize(records: list[dict]) -> dict:
    workloads: dict[str, dict] = {}
    machines = {json.dumps(r["machine"], sort_keys=True) for r in records}
    digests: dict[str, set] = {}
    for r in records:
        for run in (run for runs in r.get("passes", []) for run in runs):
            digests.setdefault(" ".join(run["args"]), set()).add(run["sha256"])
        for command, digest in r.get("sha256", {}).items():
            digests.setdefault(command, set()).add(digest)
    for r in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        w = workloads.setdefault(r["workload"], {"seeds": [], "failed": 0, "attempted": 0, "metrics": {}})
        if r["trace"] == 0:
            w["seeds"].append(r["seed"])
        w["failed"] += r["failed"]
        w["attempted"] += r["attempted"]
        for name, m in r["metrics"].items():
            w["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for w in workloads.values():
        w["metrics"] = {name: {"unit": m["unit"], **describe(m["values"])} for name, m in w["metrics"].items()}
    return {"machines": [json.loads(m) for m in sorted(machines)], "workloads": workloads,
            "stdout_sha256": {command: sorted(d) for command, d in sorted(digests.items())}}


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-seed*-trace*.json"))]
    if not records:
        print(f"no run records in {OUT}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(records), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
