"""Cost and outcome of the greedy ansatz optimizer, before and after a change
to its per-segment search.

    python3 bench/optimizer.py --src <other checkout>/src --out <record>.json

Runs the sources under ``--src`` (recorded as "parent") and this checkout's
``src/`` (recorded as "change"), each run in a fresh interpreter with
OPENBLAS_NUM_THREADS = OMP_NUM_THREADS = 1, alternating which side runs
first, and writes one JSON record:

- ``fit``: the configuration of the benchmark's ``fit`` job (N=40, k=2,
  10 segments, 200 evaluation steps, linear ramp), REPEATS runs per
  side.  Each run records the objective evaluations (``nfev``), the seconds
  spent inside ``ansatz.minimize`` (``search_s``), the whole ``optimize``
  call (``optimize_s``, which adds the zero-drive baselines, the segment
  carry and the final re-propagation), the min fidelity and the schedule;
  the record holds the medians, every run's times, whether every run wrote
  the same schedule, and the largest |dx| between the two sides' schedules;
- ``fig2``: the ``fig2`` band sweep (N=80, k = 1..4, 40 segments, each k
  warm-started from the previous optimum, 4000 evaluation steps), once per
  side: per k the same quantities, plus the sweep's wall time;
- ``environment``: versions, BLAS build and thread settings, from
  ``perfbench/env.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import env  # noqa: E402  (perfbench/env.py)

RAMP = "linear:0.75,0.5"
FIT = {"n": 40, "bands": [2], "segments": 10, "eval_steps": 200, "ramp": RAMP}
FIG2 = {"n": 80, "bands": [1, 2, 3, 4], "segments": 40, "eval_steps": 4000, "ramp": RAMP}
REPEATS = 3

CHILD = """
import json, sys, time
import cdlmg.ansatz
from cdlmg import ModelParams, RampSchedule

task = json.loads(sys.argv[1])
search = {"s": 0.0}
scipy_minimize = cdlmg.ansatz.minimize

def timed_minimize(*args, **kwargs):
    start = time.perf_counter()
    try:
        return scipy_minimize(*args, **kwargs)
    finally:
        search["s"] += time.perf_counter() - start

cdlmg.ansatz.minimize = timed_minimize
params = ModelParams(task["n"], 0.0, RampSchedule.parse(task["ramp"]))
runs, warm = [], None
sweep_start = time.perf_counter()
for k in task["bands"]:
    search["s"] = 0.0
    start = time.perf_counter()
    result = cdlmg.ansatz.optimize(params, k=k, segments=task["segments"],
                                   eval_steps=task["eval_steps"], warm_start=warm)
    runs.append({"k": k, "nfev": result.nfev, "search_s": search["s"],
                 "optimize_s": time.perf_counter() - start,
                 "min_fidelity": result.trajectory.min_fidelity,
                 "final_fidelity": result.trajectory.final_fidelity,
                 "schedule": result.coefficients.values.tolist()})
    warm = result.coefficients.values
print(json.dumps({"runs": runs, "wall_s": time.perf_counter() - sweep_start}))
"""


def measure(src: Path, task: dict) -> dict:
    """Run one optimizer task in a fresh interpreter on the sources under `src`."""
    child_env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
                     OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(task)], env=child_env,
                         capture_output=True, text=True, timeout=3600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def alternate(sides: dict, task: dict, repeats: int) -> dict:
    """`repeats` runs per side, the order of the sides rotating each round."""
    names = list(sides)
    runs = {name: [] for name in names}
    for r in range(repeats):
        for name in names[r % len(names):] + names[:r % len(names)]:
            runs[name].append(measure(sides[name], task))
            print(name, json.dumps([{key: run[key] for key in
                                     ("k", "nfev", "search_s", "min_fidelity")}
                                    for run in runs[name][-1]["runs"]]), flush=True)
    return runs


def max_abs_dx(a: list, b: list) -> float:
    return max(abs(x - y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b))


def table(sides: dict, task: dict, repeats: int) -> dict:
    """Per band count: each side's medians and runs, and the schedules' gap."""
    measured = alternate(sides, task, repeats)
    rows = []
    for i, k in enumerate(task["bands"]):
        row = {"k": k}
        for name, reps in measured.items():
            per_k = [rep["runs"][i] for rep in reps]
            row[name] = {
                "nfev": per_k[0]["nfev"],
                "search_s": statistics.median(r["search_s"] for r in per_k),
                "search_s_runs": [r["search_s"] for r in per_k],
                "optimize_s": statistics.median(r["optimize_s"] for r in per_k),
                "optimize_s_runs": [r["optimize_s"] for r in per_k],
                "min_fidelity": per_k[0]["min_fidelity"],
                "final_fidelity": per_k[0]["final_fidelity"],
                "same_schedule_every_run": (
                    all(r["schedule"] == per_k[0]["schedule"] for r in per_k)
                    if len(per_k) > 1 else None),
            }
        row["max_abs_dx_change_vs_parent"] = max_abs_dx(
            measured["parent"][0]["runs"][i]["schedule"],
            measured["change"][0]["runs"][i]["schedule"])
        rows.append(row)
    walls = {name: statistics.median(rep["wall_s"] for rep in reps)
             for name, reps in measured.items()}
    return {"config": task, "repeats": repeats, "by_k": rows, "wall_s": walls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="src/ directory of the checkout to compare against")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    parent, change = args.src.resolve(), ROOT / "src"
    if not (parent / "cdlmg" / "ansatz.py").is_file():
        print(f"error: no cdlmg sources under {parent}", file=sys.stderr)
        return 2
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sides = {"parent": parent, "change": change}
    record = {
        "command": "python3 bench/optimizer.py --src <parent>/src --out <file>",
        "environment": env.record(),
        "threads": {"OPENBLAS_NUM_THREADS": 1, "OMP_NUM_THREADS": 1},
        "fit": table(sides, FIT, REPEATS),
        "fig2": table(sides, FIG2, 1),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
