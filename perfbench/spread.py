"""Measure run-to-run spread and record it next to each bound.

    python3 perfbench/spread.py [--out PATH]

Runs the command of ``BENCHMARK.json`` ten times on every workload, with
seeds 1 to 10, and writes ``perfbench/spread.json``: for every
end-to-end metric the quartiles of its values, the spread (third minus
first quartile, as a share of the median) and the metric's bound.  A later
change whose difference from its parent is within the spread cannot be
told from noise and is reported unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import env

RUNS = 10


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "bound": bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(env.ROOT / "perfbench" / "spread.json"))
    args = parser.parse_args(argv)
    env.pin_threads()
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "runs": RUNS,
              "environment": env.record(), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(spec, workload, seed) for seed in range(1, RUNS + 1)]
        if not all(r["correct"] and r["failed"] == 0 for r in results):
            print(f"{workload}: failed runs", file=sys.stderr)
            return 1
        record["workloads"][workload] = {
            name: summarize([r["metrics"][name]["value"] for r in results], bound)
            for name, bound in bounds.items()}
        for name, s in record["workloads"][workload].items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']})", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
