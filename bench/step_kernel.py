"""Cost of one ``evolve`` step, of a shared CD run, of the fig1a preset and
of a gap table, before and after a change to the step, the CD eigensolve or
the spectra.

    python3 bench/step_kernel.py --src <other checkout>/src --out <record>.json

Times the sources under ``--src`` (recorded as "parent") and this checkout's
``src/`` (recorded as "change"), each measurement in a fresh interpreter with
OPENBLAS_NUM_THREADS = OMP_NUM_THREADS = 1, in alternating rounds
(``bench/rounds.py``).  Writes one JSON record:

- ``steps``: microseconds per step of ``evolve`` (its ``wall_time_s``, the
  tracked-run setup included, over the step count) for bare, hp,
  truncated:1 and exact_cd on the linear ramp at each N of SIZES.  Each of
  REPEATS interpreters per side times RUNS runs after one warm-up and keeps
  the fastest, since a shared host only ever adds time; the record holds
  the median of those and every interpreter's value, with the final
  fidelity and the norm error, and ``ratio``: the median, quartiles and
  range of the rounds' change/parent ratios.  Only truncated:1 and
  exact_cd solve an eigenproblem per step (the H0 block inside the CD
  term);
- ``shared``: microseconds per step of exact_cd and truncated:1 run
  together on one tracked run (``evolve_all``, the wall time of the whole
  call over the step count; sources without it run ``evolve`` per
  protocol on one ``TrackedRun``) at each N of SHARED_SIZES, as the
  ``steps`` rows are timed, with both final fidelities.  At N=300 and
  N=1000 the dense chunk is one step, where the heap has been seen to give
  pages back between chunks;
- ``lockstep``: microseconds per step of bare and hp run together on one
  tracked run (``evolve_all``, timed as the ``shared`` rows) at each N of
  SIZES, where the two protocols plan chunks of one size and one band
  width;
- ``fig1a``: wall time of the fig1a preset (four protocols at N=100, 51
  states per block) at FIG_STEPS steps, the fastest of FIG_RUNS runs in
  each of FIG_REPEATS interpreters per side, their median, and the same
  ``ratio`` summary;
- ``gaps``: microseconds per field point of ``gap_series`` on GAP_POINTS
  fields in [0.5, 1.5] at each N of GAP_SIZES, the fastest of RUNS runs
  in each of GAP_REPEATS interpreters per side, their median and the
  ``ratio`` summary;
- every row holds each side's ``peak_rss_mb``: the median over its
  interpreters of the peak resident memory, imports included, and
  ``minor_faults_runs``: each interpreter's minor page faults over its timed
  runs (``getrusage`` before and after), with their median ``minor_faults``.
  A run that gives its heap back to the system between steps faults its
  pages in again, and shows here as thousands of faults where a few hundred
  are usual;
- ``environment``: versions, BLAS build and thread settings, from
  ``perfbench/env.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

from rounds import alternate, ratio_summary

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import env  # noqa: E402  (perfbench/env.py)

RAMP = "linear:0.75,0.5"
PROTOCOLS = ("bare", "hp", "truncated:1", "exact_cd")
# N -> steps per timed run: the presets' size (51 states per block), 64
# states, the benchmark's large sector (151) and 501 states.
SIZES = {100: 200, 126: 200, 300: 60, 1000: 20}
# With 3 rounds the medians could not resolve differences under about 25%.
# Over 20 rounds (BENCH_16.json) every round put hp at N=300 below 1
# (quartiles 0.42-0.43), and 17 of 20 put bare at N=100 below 1 (quartiles
# 0.77-0.82): its timed runs, 200 steps of about 0.18 ms, are the shortest.
REPEATS = 20
RUNS = 5
SHARED_PROTOCOLS = ("exact_cd", "truncated:1")
SHARED_SIZES = {100: 200, 300: 60, 1000: 20}
LOCKSTEP_PROTOCOLS = ("bare", "hp")
FIG_STEPS = 1000
FIG_REPEATS = 10
FIG_RUNS = 3
# N -> the large_sector benchmark's spectrum size (151 states per block) and
# 501 states
GAP_SIZES = (300, 1000)
GAP_POINTS = 50
GAP_REPEATS = 10

CHILD = """
import json, resource, sys, time
import numpy as np
task = json.loads(sys.argv[1])
from cdlmg import ModelParams, RampSchedule, evolve, gap_series
from cdlmg.figures import run_figure

def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

if task["kind"] == "gap":
    params, grid = ModelParams(task["n"], 0.0), np.linspace(0.5, 1.5, task["points"])
    gap_series(params, grid)
    faults = minor_faults()
    walls = []
    for _ in range(task["runs"]):
        start = time.perf_counter()
        gap_series(params, grid)
        walls.append(time.perf_counter() - start)
    out = {"us_per_point": 1e6 * min(walls) / task["points"]}
elif task["kind"] == "step":
    params = ModelParams(task["n"], 0.0, RampSchedule.parse(task["ramp"]))
    evolve(params, task["protocol"], 2)
    faults = minor_faults()
    runs = [evolve(params, task["protocol"], task["steps"]) for _ in range(task["runs"])]
    traj = runs[-1]
    out = {"us_per_step": 1e6 * min(r.info["wall_time_s"] for r in runs) / task["steps"],
           "final_fidelity": traj.final_fidelity,
           "max_norm_error": traj.info["max_norm_error"]}
elif task["kind"] == "shared":
    try:
        from cdlmg import evolve_all
    except ImportError:  # sources from before it: evolve per protocol on one run
        from cdlmg.dynamics import TrackedRun

        def evolve_all(params, protocols, steps):
            run = TrackedRun(params, steps)
            return {p: evolve(params, p, run) for p in protocols}
    params = ModelParams(task["n"], 0.0, RampSchedule.parse(task["ramp"]))
    evolve_all(params, task["protocols"], 2)
    faults = minor_faults()
    walls = []
    for _ in range(task["runs"]):
        start = time.perf_counter()
        curves = evolve_all(params, task["protocols"], task["steps"])
        walls.append(time.perf_counter() - start)
    out = {"us_per_step": 1e6 * min(walls) / task["steps"],
           "final_fidelity": [traj.final_fidelity for traj in curves.values()],
           "max_norm_error": max(traj.info["max_norm_error"] for traj in curves.values())}
else:
    faults = minor_faults()
    walls = []
    for _ in range(task["runs"]):
        start = time.perf_counter()
        run_figure("fig1a", steps=task["steps"])
        walls.append(time.perf_counter() - start)
    out = {"wall_s": min(walls)}
out["minor_faults"] = minor_faults() - faults
out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(out))
"""


def memory(runs: list) -> dict:
    """A side's median peak memory and each interpreter's minor faults."""
    faults = [r["minor_faults"] for r in runs]
    return {"peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "minor_faults": statistics.median(faults), "minor_faults_runs": faults}


def step_row(sides: dict, task: dict, key: str) -> dict:
    """One row of per-step times: the task's runs alternating between the
    sides, each side's medians and the ratio summary."""
    runs = alternate(CHILD, sides, task, REPEATS)
    row = {"n": task["n"], "block_states": task["n"] // 2 + 1, key: task[key],
           "steps": task["steps"]}
    for name, rs in runs.items():
        row[name] = {
            "us_per_step": statistics.median(r["us_per_step"] for r in rs),
            "us_per_step_runs": [r["us_per_step"] for r in rs],
            "final_fidelity": rs[0]["final_fidelity"],
            "max_norm_error": max(r["max_norm_error"] for r in rs),
            **memory(rs)}
    row["ratio"] = ratio_summary(row["parent"]["us_per_step_runs"],
                                 row["change"]["us_per_step_runs"])
    print(json.dumps({k: row[k] for k in ("n", key)}),
          {name: round(row[name]["us_per_step"]) for name in runs},
          "ratio {median:.3f} [{q1:.3f}, {q3:.3f}]".format(**row["ratio"]), flush=True)
    return row


def step_table(sides: dict) -> list:
    return [step_row(sides, {"kind": "step", "n": n, "ramp": RAMP, "protocol": protocol,
                             "steps": steps, "runs": RUNS}, "protocol")
            for n, steps in SIZES.items() for protocol in PROTOCOLS]


def shared_table(sides: dict, protocols: tuple, sizes: dict) -> list:
    return [step_row(sides, {"kind": "shared", "n": n, "ramp": RAMP,
                             "protocols": protocols, "steps": steps, "runs": RUNS},
                     "protocols")
            for n, steps in sizes.items()]


def fig1a_row(sides: dict) -> dict:
    runs = alternate(CHILD, sides, {"kind": "fig1a", "steps": FIG_STEPS, "runs": FIG_RUNS},
                     FIG_REPEATS)
    row = {"steps": FIG_STEPS, "runs_per_interpreter": FIG_RUNS}
    for name, rs in runs.items():
        walls = [r["wall_s"] for r in rs]
        row[name] = {"wall_s": statistics.median(walls), "wall_s_runs": walls, **memory(rs)}
    row["ratio"] = ratio_summary(row["parent"]["wall_s_runs"], row["change"]["wall_s_runs"])
    print(json.dumps(row), flush=True)
    return row


def gap_table(sides: dict) -> list:
    rows = []
    for n in GAP_SIZES:
        task = {"kind": "gap", "n": n, "points": GAP_POINTS, "runs": RUNS}
        runs = alternate(CHILD, sides, task, GAP_REPEATS)
        row = {"n": n, "block_states": n // 2 + 1, "points": GAP_POINTS}
        for name, rs in runs.items():
            per_point = [r["us_per_point"] for r in rs]
            row[name] = {"us_per_point": statistics.median(per_point),
                         "us_per_point_runs": per_point, **memory(rs)}
        row["ratio"] = ratio_summary(row["parent"]["us_per_point_runs"],
                                     row["change"]["us_per_point_runs"])
        print(json.dumps({"n": n}), {name: round(row[name]["us_per_point"]) for name in runs},
              "ratio {median:.3f} [{q1:.3f}, {q3:.3f}]".format(**row["ratio"]), flush=True)
        rows.append(row)
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
    sides = {"parent": parent, "change": change}
    record = {
        "command": "python3 bench/step_kernel.py --src <parent>/src --out <file>",
        "ramp": RAMP,
        "environment": env.record(),
        "threads": {"OPENBLAS_NUM_THREADS": 1, "OMP_NUM_THREADS": 1},
        "steps": step_table(sides),
        "shared": shared_table(sides, SHARED_PROTOCOLS, SHARED_SIZES),
        "lockstep": shared_table(sides, LOCKSTEP_PROTOCOLS, SIZES),
        "fig1a": fig1a_row(sides),
        "gaps": gap_table(sides),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
