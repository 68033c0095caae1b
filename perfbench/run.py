"""Benchmark of the cdlmg CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``harness.py``) against the checkout's ``src/`` in
this interpreter, checks every output against ``references.json``, and
prints one JSON object as the last line of standard output:

- ``--trace 0``: ``setup_s`` (least import time of ``cdlmg.cli`` over
  SETUP_PROBES fresh interpreters, half before and half after the
  workload: host load only ever adds to it, and on a shared host it comes
  in phases of seconds to minutes),
  ``wall_s`` (median wall time of one repetition of the workload's jobs),
  ``peak_rss_mb`` (peak resident memory of this process) and
  ``infidelity`` (of the workload's approximate drive: 1 - min fidelity
  of the optimized ansatz on drives_n100, 1 - final fidelity of hp on
  large_sector);
- ``--trace 1``: the per-layer metrics of ``spans.py`` from the traced
  repetition of median wall time, plus ``trace.overhead_frac``, the median
  traced over the median untraced repetition, minus 1.

``attempted`` counts job runs and ``failed`` those that exited nonzero or
failed a check, so fail_frac = failed / attempted.  The thread settings,
versions and every failed check go to a record under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import env

env.pin_threads()

SETUP_PROBES = 10
PROBE = ("import time; t = time.perf_counter(); import cdlmg.cli; "
         "print(time.perf_counter() - t)")


def measure_setup(probes: int) -> list:
    """Import time of cdlmg.cli in `probes` fresh interpreters."""
    times = []
    for _ in range(probes):
        out = subprocess.run([sys.executable, "-c", PROBE], cwd=env.ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (env.SRC / "cdlmg" / "cli.py").is_file():
        print(f"error: no cdlmg sources under {env.SRC}", file=sys.stderr)
        return 2

    import harness

    if args.workload not in harness.WORKLOADS["full"]:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(harness.WORKLOADS['full'])}", file=sys.stderr)
        return 2
    refs = json.loads((env.ROOT / "perfbench" / "references.json").read_text())
    outdir = env.ROOT / ".perfbench"
    setup = [] if args.trace else measure_setup(SETUP_PROBES // 2)
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         refs["workloads"][args.workload], outdir / "work" / args.workload)
    if not args.trace:
        setup += measure_setup(SETUP_PROBES - SETUP_PROBES // 2)
    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = min(setup)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (outdir / "results").mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": env.record(), "setup_probes_s": setup,
              **{k: result[k] for k in ("attempted", "failed", "reps", "rep_walls_s", "problems")},
              "metrics": metrics}
    (outdir / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result.get("tracer") is not None:
        result["tracer"].dump(outdir / "results" / f"{tag}.spans.jsonl")

    units = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for group in ("end_to_end", "per_layer")
               for m in units[group]}
    print("environment", json.dumps(record["environment"]))
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(f"fail_frac {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} ops, {result['reps']} repetitions)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of.get(name, '')}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
