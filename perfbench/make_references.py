"""Regenerate ``perfbench/references.json``.

    python3 perfbench/make_references.py

For every job that propagates, the job runs once as the benchmark runs it
and once at ``REFINE`` times its steps.  The refined fidelities, sampled at
``CHECKPOINTS + 1`` grid points, are the reference; the tolerance is the
largest distance of the unrefined run from them, so a more accurate
integrator passes and a less accurate one fails.  The fit job's reported
fidelities are compared, when the benchmark runs, with a refined
propagation of the schedules it wrote; only their tolerances are stored.
Gap tables are stored as computed, with tolerance ``GAP_TOL``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import env

env.pin_threads()

import harness  # noqa: E402  (threads must be pinned before numpy loads)


def _sample(values, stride: int, tol: float) -> dict:
    return {"stride": stride, "values": [float(v) for v in values], "tol": tol}


def _run(job, workdir: Path) -> Path:
    outdir = workdir / job.name
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    code, _, output = harness.run_job(job, 0, outdir)
    if code != 0:
        raise RuntimeError(f"{job.name} exited {code}: {output}")
    return outdir


def job_references(job, workdir: Path) -> dict:
    if job.kind == "trajectories":
        steps = job.steps()
        if steps % harness.CHECKPOINTS:
            raise ValueError(f"{job.name}: {steps} steps not a multiple of {harness.CHECKPOINTS}")
        stride = steps // harness.CHECKPOINTS
        plain = harness.read_trajectories(_run(job, workdir / "plain"))
        fine = harness.read_trajectories(
            _run(job.with_steps(harness.REFINE * steps), workdir / "refined"))
        refs = {}
        for label, series in plain.items():
            reference = fine[label][::harness.REFINE * stride]
            tol = float(abs(series[::stride] - reference).max())
            refs[label] = _sample(reference, stride, tol)
        return refs
    if job.kind == "fit":
        outdir = _run(job, workdir / "plain")
        report = json.loads((outdir / "fit_report.json").read_text())
        refined = harness.repropagate_fit(job, outdir)
        return {key: {"tol": abs(report[key] - value), "seed_value": report[key],
                      "refined_value": value}
                for key, value in refined.items()}
    if job.kind == "spectrum":
        header, table = harness.read_table(_run(job, workdir / "plain") / "gaps.csv")
        stride = max(1, len(table) // 20)
        return {column: _sample(table[::stride, i], stride, harness.GAP_TOL)
                for i, column in enumerate(header) if column.startswith("gap")}
    return {}


def generate(scale: str, workdir: Path) -> dict:
    """References for every job of every workload at one scale."""
    return {workload: {job.name: job_references(job, workdir / workload) for job in jobs}
            for workload, jobs in harness.WORKLOADS[scale].items()}


def main() -> int:
    workdir = env.ROOT / ".perfbench" / "references"
    refs = {"refine": harness.REFINE, "checkpoints": harness.CHECKPOINTS,
            "environment": env.record(), "workloads": generate("full", workdir)}
    shutil.rmtree(workdir, ignore_errors=True)
    path = Path(__file__).resolve().parent / "references.json"
    path.write_text(json.dumps(refs, indent=1) + "\n")
    for workload, jobs in refs["workloads"].items():
        for job, job_refs in jobs.items():
            for label, ref in job_refs.items():
                print(f"{workload}/{job}/{label}: tol {ref['tol']:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
