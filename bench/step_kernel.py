"""Cost of one ``evolve`` step, before and after a change to the step, at
sizes on both sides of ``TRIDIAGONAL_MIN_DIM``.

    python3 bench/step_kernel.py --src <other checkout>/src --out <record>.json

Times the sources under ``--src`` (recorded as "parent") and this checkout's
``src/`` (recorded as "change"), each measurement in a fresh interpreter with
OPENBLAS_NUM_THREADS = OMP_NUM_THREADS = 1, alternating which side runs
first, and writes one JSON record:

- ``steps``: microseconds per step of ``evolve`` (its ``wall_time_s``, the
  tracked-run setup included, over the step count) for bare, hp,
  truncated:1 and exact_cd on the linear ramp at each N of SIZES.  Each of
  REPEATS interpreters per side times RUNS runs after one warm-up and keeps
  the fastest, since a shared host only ever adds time; the record holds
  the median of those and every interpreter's value, with the final
  fidelity and the norm error;
  ``change_all_tridiagonal`` is the change with the threshold lowered to 2,
  so that every H0 block goes to stevd.  ``evolve`` steps by a
  Chebyshev expansion and solves no step eigenproblem, so the threshold
  reaches only the H0 solve inside the CD block of truncated:1 and
  exact_cd; bare and hp read the same on both;
- ``fig1a``: wall time of the fig1a preset (four protocols at N=100, 51
  states per block) at FIG_STEPS steps, serial (CDLMG_THREADS=1) and on the
  figure pool (CDLMG_THREADS=2), with the change as committed (dense below
  the threshold) and with the threshold lowered to 2 (stevd);
  ``fig1a_pool_speedup`` is the serial over the pooled median of each, so
  a value above 1 says the pool still pays;
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
PROTOCOLS = ("bare", "hp", "truncated:1", "exact_cd")
# N -> steps per timed run; N=126 is the smallest size whose tracked block
# reaches 64 states.
SIZES = {100: 200, 126: 200, 140: 200, 200: 100, 300: 60, 1000: 20}
REPEATS = 3
RUNS = 5
FIG_STEPS = 1000
FIG_REPEATS = 5

CHILD = """
import json, sys, time
task = json.loads(sys.argv[1])
if task["min_dim"] is not None:
    import cdlmg.counterdiabatic
    cdlmg.counterdiabatic.TRIDIAGONAL_MIN_DIM = task["min_dim"]
from cdlmg import ModelParams, RampSchedule, evolve
from cdlmg.figures import run_figure
if task["kind"] == "step":
    params = ModelParams(task["n"], 0.0, RampSchedule.parse(task["ramp"]))
    evolve(params, task["protocol"], 2)
    runs = [evolve(params, task["protocol"], task["steps"]) for _ in range(task["runs"])]
    traj = runs[-1]
    out = {"us_per_step": 1e6 * min(r.info["wall_time_s"] for r in runs) / task["steps"],
           "final_fidelity": traj.final_fidelity,
           "max_norm_error": traj.info["max_norm_error"]}
else:
    start = time.perf_counter()
    run_figure("fig1a", steps=task["steps"])
    out = {"wall_s": time.perf_counter() - start}
print(json.dumps(out))
"""


def measure(src: Path, task: dict, threads: str = "1") -> dict:
    """Run one task in a fresh interpreter on the sources under `src`."""
    child_env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
                     OMP_NUM_THREADS="1", CDLMG_THREADS=threads)
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(task)], env=child_env,
                         capture_output=True, text=True, timeout=1800, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def alternate(sides: dict, task_of, repeats: int, threads: str = "1") -> dict:
    """`repeats` runs per side, the order of the sides rotating each round."""
    names = list(sides)
    runs = {name: [] for name in names}
    for r in range(repeats):
        for name in names[r % len(names):] + names[:r % len(names)]:
            src, min_dim = sides[name]
            runs[name].append(measure(src, task_of(min_dim), threads))
    return runs


def step_table(sides: dict) -> list:
    rows = []
    for n, steps in SIZES.items():
        for protocol in PROTOCOLS:
            runs = alternate(sides, lambda min_dim: {
                "kind": "step", "n": n, "ramp": RAMP, "protocol": protocol,
                "steps": steps, "runs": RUNS, "min_dim": min_dim}, REPEATS)
            row = {"n": n, "block_states": n // 2 + 1, "protocol": protocol, "steps": steps}
            for name, rs in runs.items():
                row[name] = {
                    "us_per_step": statistics.median(r["us_per_step"] for r in rs),
                    "us_per_step_runs": [r["us_per_step"] for r in rs],
                    "final_fidelity": rs[0]["final_fidelity"],
                    "max_norm_error": max(r["max_norm_error"] for r in rs)}
            rows.append(row)
            print(json.dumps({k: row[k] for k in ("n", "protocol")}),
                  {name: round(row[name]["us_per_step"]) for name in runs}, flush=True)
    return rows


def fig1a_table(change: Path) -> list:
    sides = {"dense_below_threshold": (change, None), "all_tridiagonal": (change, 2)}
    rows = []
    for threads in ("1", "2"):
        runs = alternate(sides, lambda min_dim: {
            "kind": "fig1a", "steps": FIG_STEPS, "min_dim": min_dim}, FIG_REPEATS, threads)
        row = {"cdlmg_threads": int(threads), "steps": FIG_STEPS}
        for name, rs in runs.items():
            walls = [r["wall_s"] for r in rs]
            row[name] = {"wall_s": statistics.median(walls), "wall_s_runs": walls}
        rows.append(row)
        print(json.dumps(row), flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="src/ directory of the checkout to compare against")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    parent, change = args.src.resolve(), ROOT / "src"
    if not (parent / "cdlmg" / "dynamics.py").is_file():
        print(f"error: no cdlmg sources under {parent}", file=sys.stderr)
        return 2
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path.insert(0, str(change))
    from cdlmg.counterdiabatic import TRIDIAGONAL_MIN_DIM

    record = {
        "command": "python3 bench/step_kernel.py --src <parent>/src --out <file>",
        "tridiagonal_min_dim": TRIDIAGONAL_MIN_DIM,
        "ramp": RAMP,
        "environment": env.record(),
        "threads": {"OPENBLAS_NUM_THREADS": 1, "OMP_NUM_THREADS": 1,
                    "CDLMG_THREADS": "1, except the pooled fig1a runs (2)"},
        "steps": step_table({"parent": (parent, None), "change": (change, None),
                             "change_all_tridiagonal": (change, 2)}),
        "fig1a": fig1a_table(change),
    }
    serial, pooled = record["fig1a"]
    record["fig1a_pool_speedup"] = {
        name: serial[name]["wall_s"] / pooled[name]["wall_s"]
        for name in ("dense_below_threshold", "all_tridiagonal")}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
