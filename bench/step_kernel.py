"""Cost of one ``evolve`` step and of the fig1a preset, before and after a
change to the step or to the CD eigensolve.

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
  fidelity and the norm error.  Only truncated:1 and exact_cd solve an
  eigenproblem per step (the H0 block inside the CD term);
- ``fig1a``: wall time of the fig1a preset (four protocols at N=100, 51
  states per block) at FIG_STEPS steps, the fastest of FIG_RUNS runs in
  each of FIG_REPEATS interpreters per side, and their median.  Every child
  gets CDLMG_THREADS=2, the setting the benchmark pins (perfbench/env.py):
  a parent that runs the preset's protocols on a thread pool sizes it from
  that variable, and sources that run them serially ignore it;
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
# N -> steps per timed run.  N=100 (51 states per block) and N=126 (64)
# bracket the size below which sources before the change solved the CD
# term's H0 block with numpy's dense eigh instead of LAPACK stevd.
SIZES = {100: 200, 126: 200, 140: 200, 200: 100, 300: 60, 1000: 20}
REPEATS = 3
RUNS = 5
FIG_STEPS = 1000
FIG_REPEATS = 8
FIG_RUNS = 3

CHILD = """
import json, sys, time
task = json.loads(sys.argv[1])
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
    walls = []
    for _ in range(task["runs"]):
        start = time.perf_counter()
        run_figure("fig1a", steps=task["steps"])
        walls.append(time.perf_counter() - start)
    out = {"wall_s": min(walls)}
print(json.dumps(out))
"""


def measure(src: Path, task: dict) -> dict:
    """Run one task in a fresh interpreter on the sources under `src`."""
    child_env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
                     OMP_NUM_THREADS="1", CDLMG_THREADS="2")
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(task)], env=child_env,
                         capture_output=True, text=True, timeout=1800, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def alternate(sides: dict, task: dict, repeats: int) -> dict:
    """`repeats` runs per side, the order of the sides rotating each round."""
    names = list(sides)
    runs = {name: [] for name in names}
    for r in range(repeats):
        for name in names[r % len(names):] + names[:r % len(names)]:
            runs[name].append(measure(sides[name], task))
    return runs


def step_table(sides: dict) -> list:
    rows = []
    for n, steps in SIZES.items():
        for protocol in PROTOCOLS:
            runs = alternate(sides, {"kind": "step", "n": n, "ramp": RAMP, "protocol": protocol,
                                     "steps": steps, "runs": RUNS}, REPEATS)
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


def fig1a_row(sides: dict) -> dict:
    runs = alternate(sides, {"kind": "fig1a", "steps": FIG_STEPS, "runs": FIG_RUNS},
                     FIG_REPEATS)
    row = {"steps": FIG_STEPS, "runs_per_interpreter": FIG_RUNS}
    for name, rs in runs.items():
        walls = [r["wall_s"] for r in rs]
        row[name] = {"wall_s": statistics.median(walls), "wall_s_runs": walls}
    print(json.dumps(row), flush=True)
    return row


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
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", CDLMG_THREADS="2")
    sides = {"parent": parent, "change": change}
    record = {
        "command": "python3 bench/step_kernel.py --src <parent>/src --out <file>",
        "ramp": RAMP,
        "environment": env.record(),
        "threads": {"OPENBLAS_NUM_THREADS": 1, "OMP_NUM_THREADS": 1, "CDLMG_THREADS": 2},
        "steps": step_table(sides),
        "fig1a": fig1a_row(sides),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
