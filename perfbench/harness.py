"""Workloads, their correctness checks, and the timed repetition loop.

A workload is a fixed list of CLI jobs, run in this process through
``cdlmg.cli.main``.  A repetition runs every job once; the loop repeats
until the next repetition would overrun the measuring time, and reports
medians over repetitions.  After every job its outputs are checked against
``references.json``; a job fails on a nonzero exit code or on any failed
check.

Workloads (the seed goes to every job's ``--seed``; only the optimizer
uses it, and its output does not depend on it at this commit).  Step
counts are a quarter of the CLI default or less, and the optimizer runs its
minimum of 10 segments, so that a repetition takes a few seconds and a run
takes the median of several: on a shared 2-core machine the time of one
repetition varies by up to a third.

- drives_n100: the paper's headline comparison, the fig1a preset (bare,
  exact_cd, truncated:1, hp at N=100 on the figures thread pool), plus the
  operator-sum rebuild at N=20, which reassembles the exact term and
  decomposes it every step, one decomposition, and a small run of the
  greedy 2-band ansatz optimizer at N=40 with a one-sinusoid fit.  The only
  workload that runs the exact-CD assembly, the thread pool and the
  optimizer.  The optimizer is kept small: Python-bound code slows most
  when the host is busy, and a workload dominated by it did not repeat
  within a quarter.
- large_sector: N=300, where every sector matrix is tridiagonal but solved
  dense: bare and hp propagation plus a gap table.  No exact CD, no
  optimizer.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cdlmg.cli
from cdlmg import AnsatzDrive, BandCoefficients, ModelParams, RampSchedule, evolve
from cdlmg.figures import max_workers

import spans

RAMP = "linear:0.75,0.5"

# Reference fidelities come from runs at REFINE times the job's steps,
# sampled at CHECKPOINTS + 1 evenly spaced grid points.
REFINE = 4
CHECKPOINTS = 50
# Added to every reference tolerance: fifty times the largest fidelity
# difference measured between OpenBLAS kernels (OPENBLAS_CORETYPE Haswell
# and Sandybridge against the default, 2e-13), so that running on another
# CPU fails no check.
ROUNDING = 1e-11
# Gap tables have no step size; eigenvalues must match to this.
GAP_TOL = 1e-8


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    kind: str  # "trajectories" | "fit" | "spectrum" | "decompose"
    limits: dict = field(default_factory=dict)  # physics pass/fail checks

    def command(self, seed: int, outdir: Path) -> list:
        return [*self.argv, "--seed", str(seed), "--out", str(outdir)]

    def steps(self) -> int:
        return int(self.argv[self.argv.index("--steps") + 1])

    def with_steps(self, steps: int) -> "Job":
        argv = list(self.argv)
        argv[argv.index("--steps") + 1] = str(steps)
        return Job(self.name, tuple(argv), self.kind, self.limits)


def _evolve(n, protocols, steps):
    argv = ["evolve", "--n", str(n), "--ramp", RAMP, "--steps", str(steps)]
    for p in protocols:
        argv += ["--protocol", p]
    return tuple(argv)


def _workloads(fig_steps, n_dec, dec_steps, n_fit, fit_steps, n_large, large_steps,
               gap_points):
    return {
        "drives_n100": (
            Job("fig1a", ("evolve", "--figure", "fig1a", "--steps", str(fig_steps)),
                "trajectories", {"min_fidelity_at_least": {"exact_cd": 0.999}}),
            Job("decomposed", _evolve(n_dec, ["decomposed:2", "truncated:2"], dec_steps),
                "trajectories", {"equal": ["decomposed_2", "truncated_2", 1e-8]}),
            Job("decompose", ("decompose", "--n", str(n_dec), "--ramp", RAMP, "--t", "0.5",
                              "--bands", "2"),
                "decompose", {"max_residual": 1e-10}),
            Job("fit", ("fit", "--n", str(n_fit), "--bands", "2", "--harmonics", "1",
                        "--ramp", RAMP, "--segments", "10", "--steps", str(fit_steps)),
                # acceptance criterion 5's bound at N=40
                "fit", {"max_discrepancy": 0.015}),
        ),
        "large_sector": (
            Job("evolve_large", _evolve(n_large, ["bare", "hp"], large_steps),
                "trajectories", {"final_fidelity_order": ["hp", "bare"]}),
            Job("spectrum_large", ("spectrum", "--n", str(n_large), "--h-min", "0.5",
                                   "--h-max", "1.5", "--h-points", str(gap_points)),
                "spectrum", {"degenerate_at_first_h": ["gap01", 1e-3]}),
        ),
    }


WORKLOADS = {
    "full": _workloads(1000, 20, 100, 40, 200, 300, 250, 50),
    # toy sizes for the self-test: same jobs and code paths, seconds to run
    "toy": _workloads(100, 6, 50, 6, 100, 40, 50, 20),
}


# --------------------------------------------------------------------------
# checks

def read_table(path: Path) -> tuple[list, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_trajectories(outdir: Path) -> dict:
    """Fidelity series by trajectory file stem (``trajectory_<label>.csv``)."""
    return {p.stem[len("trajectory_"):]: read_table(p)[1][:, 2]
            for p in sorted(outdir.glob("trajectory_*.csv"))}


def _check_reference(got: np.ndarray, ref: dict, label: str) -> list:
    expected = np.asarray(ref["values"])
    if got.shape != expected.shape:
        return [f"{label}: shape {got.shape}, reference {expected.shape}"]
    deviation = float(np.max(np.abs(got - expected)))
    if not deviation <= ref["tol"] + ROUNDING:
        return [f"{label}: deviates {deviation:.3e} from reference (tol {ref['tol']:.3e})"]
    return []


def check_trajectories(job: Job, outdir: Path, refs: dict, record: dict) -> list:
    series = read_trajectories(outdir)
    if sorted(series) != sorted(refs):
        return [f"trajectories {sorted(series)}, references {sorted(refs)}"]
    problems = []
    for label, ref in refs.items():
        if len(series[label]) != job.steps() + 1:
            problems.append(f"{label}: {len(series[label])} rows for {job.steps()} steps")
            continue
        problems += _check_reference(series[label][::ref["stride"]], ref, label)
    for label, floor in job.limits.get("min_fidelity_at_least", {}).items():
        if not series[label].min() >= floor:
            problems.append(f"{label}: min fidelity {series[label].min():.6f} < {floor}")
    if "equal" in job.limits:
        a, b, tol = job.limits["equal"]
        gap = float(np.max(np.abs(series[a] - series[b])))
        if not gap <= tol:
            problems.append(f"{a} vs {b}: fidelities differ by {gap:.2e} > {tol}")
    if "final_fidelity_order" in job.limits:
        hi, lo = job.limits["final_fidelity_order"]
        if not series[hi][-1] > series[lo][-1]:
            problems.append(f"final fidelity of {hi} not above {lo}")
    record["min_fidelity"] = {k: float(v.min()) for k, v in series.items()}
    record["final_fidelity"] = {k: float(v[-1]) for k, v in series.items()}
    return problems


def check_spectrum(job: Job, outdir: Path, refs: dict, record: dict) -> list:
    header, table = read_table(outdir / "gaps.csv")
    problems = []
    for column, ref in refs.items():
        if column not in header:
            problems.append(f"gaps.csv lacks {column}")
            continue
        problems += _check_reference(table[::ref["stride"], header.index(column)], ref, column)
    column, tol = job.limits["degenerate_at_first_h"]
    if column in header and not table[0, header.index(column)] < tol:
        problems.append(f"{column} at h={table[0, 0]} is {table[0, header.index(column)]:.2e}")
    return problems


def check_decompose(job: Job, outdir: Path, refs: dict, record: dict) -> list:
    payload = json.loads((outdir / "decomposition.json").read_text())
    bands = payload["bands"]
    problems = [] if bands else ["no bands decomposed"]
    for b, band in bands.items():
        if not band["residual"] <= job.limits["max_residual"]:
            problems.append(f"band {b}: residual {band['residual']:.2e}")
    return problems


def check_fit(job: Job, outdir: Path, refs: dict, record: dict) -> list:
    report = json.loads((outdir / "fit_report.json").read_text())
    record["report"] = report
    if not report["max_fidelity_discrepancy"] <= job.limits["max_discrepancy"]:
        return [f"fit discrepancy {report['max_fidelity_discrepancy']:.4g} "
                f"> {job.limits['max_discrepancy']}"]
    return []


def _option(argv, name):
    return argv[argv.index(name) + 1]


def repropagate_fit(job: Job, outdir: Path) -> dict:
    """Min fidelities of the optimized and the fitted schedule written by a
    fit job, propagated at REFINE times the job's steps."""
    argv = job.argv
    ramp = RampSchedule.parse(_option(argv, "--ramp"))
    params = ModelParams(int(_option(argv, "--n")), 0.0, ramp)
    _, rows = read_table(outdir / "schedule_optimized.csv")
    boundaries = ramp.grid(int(_option(argv, "--segments")))
    optimized = BandCoefficients(boundaries, rows[:, 1:])
    if not np.allclose(optimized.midpoints, rows[:, 0], rtol=0, atol=1e-12):
        raise ValueError("schedule midpoints do not match the segment grid")
    fit = json.loads((outdir / "harmonic_fit.json").read_text())
    t = optimized.midpoints
    pulse = sum(a * np.sin(w * t + p) for a, w, p in zip(fit["a"], fit["omega"], fit["phi"]))
    fitted = optimized.with_band_values(fit["band"], pulse)
    steps = REFINE * job.steps()
    return {
        "optimized_min_fidelity": evolve(params, AnsatzDrive(optimized), steps,
                                         store_states=False).min_fidelity,
        "fitted_min_fidelity": evolve(params, AnsatzDrive(fitted), steps,
                                      store_states=False).min_fidelity,
    }


def check_fit_refined(job: Job, outdir: Path, refs: dict, report: dict) -> list:
    """The fit job's reported fidelities against a finer propagation of the
    schedules it wrote, to within the seed's own step-size error."""
    refined = repropagate_fit(job, outdir)
    problems = []
    for key, value in refined.items():
        deviation = abs(report[key] - value)
        if not deviation <= refs[key]["tol"] + ROUNDING:
            problems.append(f"{key}: {report[key]:.9f} vs {value:.9f} at {REFINE}x steps "
                            f"(tol {refs[key]['tol']:.3e})")
    return problems


CHECKS = {"trajectories": check_trajectories, "spectrum": check_spectrum,
          "decompose": check_decompose, "fit": check_fit}


# --------------------------------------------------------------------------
# repetitions

def run_job(job: Job, seed: int, outdir: Path) -> tuple[int, float, str]:
    """Run one job through the CLI; returns (exit code, seconds, output)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        start = time.perf_counter()
        try:
            code = cdlmg.cli.main(job.command(seed, outdir))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - start
    return code, elapsed, buffer.getvalue()


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _traced_job(job, seed, outdir, tracer):
    """Run a job inside a ``cli.main`` span; its time is the span's."""
    with tracer.span("cli.main") as span:
        code, _, output = run_job(job, seed, outdir)
    return code, span.end - span.start, output


def run_rep(jobs, seed: int, workdir: Path, refs: dict, tracer=None) -> dict:
    rep = {"wall_s": 0.0, "bytes_written": 0, "jobs": []}
    for job in jobs:
        outdir = workdir / job.name
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        if tracer is None:
            code, elapsed, output = run_job(job, seed, outdir)
        else:
            code, elapsed, output = _traced_job(job, seed, outdir, tracer)
        record = {"job": job.name, "exit": code, "seconds": elapsed, "problems": []}
        if code != 0:
            record["problems"].append(f"exit code {code}: {output.strip()[-500:]}")
        else:
            try:
                record["problems"] += CHECKS[job.kind](job, outdir, refs.get(job.name, {}), record)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                record["problems"].append(f"unreadable output: {exc!r}")
        rep["wall_s"] += elapsed
        rep["bytes_written"] += _bytes_under(outdir)
        rep["jobs"].append(record)
    return rep


def run(workload: str, seed: int, seconds: float, trace: bool, workload_refs: dict,
        workdir: Path, scale: str = "full") -> dict:
    """Repeat the workload for `seconds`; returns counts, metrics and details.

    `workload_refs` maps job names to their references.

    With `trace`, repetitions alternate untraced and traced (at least one
    of each) and the metrics are the per-layer ones.
    """
    jobs = WORKLOADS[scale][workload]
    reps, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(reps) % 2 == 1:
            tracer = spans.Tracer()
            tracer.install()
            try:
                rep = run_rep(jobs, seed, workdir, workload_refs, tracer)
            finally:
                tracer.uninstall()
            rep["layers"] = spans.layer_metrics(tracer.spans, rep["wall_s"], max_workers())
            rep["tracer"] = tracer
            traced.append(rep)
        else:
            rep = run_rep(jobs, seed, workdir, workload_refs)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed + max(r["wall_s"] for r in reps) > seconds and not (trace and not traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The fit job's re-propagation is slow and allocates; run it once, on
    # the last repetition's files, after peak memory is read.
    for job in jobs:
        if job.kind == "fit":
            last = reps[-1]["jobs"][jobs.index(job)]
            reports = {json.dumps(r["jobs"][jobs.index(job)].get("report"), sort_keys=True)
                       for r in reps}
            if len(reports) > 1:
                last["problems"].append("fit reports differ between repetitions")
            elif last["exit"] == 0 and not last["problems"]:
                last["problems"] += check_fit_refined(job, workdir / job.name,
                                                      workload_refs[job.name], last["report"])

    records = [rec for r in reps for rec in r["jobs"]]
    failed = sum(1 for rec in records if rec["problems"])
    result = {"attempted": len(records), "failed": failed, "reps": len(reps),
              "rep_walls_s": [r["wall_s"] for r in reps],
              "problems": [f"{rec['job']}: {p}" for rec in records for p in rec["problems"]]}
    untraced_wall = statistics.median(r["wall_s"] for r in reps if "layers" not in r)
    if trace:
        # One whole repetition, the traced one of median wall time, so that
        # its layer times add up to its wall time.
        chosen = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
        metrics = dict(chosen["layers"])
        metrics["cli.bytes_written"] = chosen["bytes_written"]
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) / untraced_wall - 1.0)
        result["tracer"] = chosen["tracer"]
    else:
        metrics = {"wall_s": untraced_wall, "peak_rss_mb": peak_rss_mb,
                   "infidelity": _infidelity(workload, reps[-1])}
    result["metrics"] = metrics
    return result


def _infidelity(workload: str, rep: dict) -> float:
    """Infidelity of the workload's approximate drive.

    On drives_n100, 1 - min fidelity of the optimized schedule (exact_cd's
    is rounding, about 1e-13).  On large_sector, 1 - final fidelity of hp,
    about 0.8: hp's min fidelity there is a physics constant near 0.05, so
    its complement sits too close to 1 to show a relative rise.
    """
    records = {rec["job"]: rec for rec in rep["jobs"]}
    if workload == "drives_n100":
        report = records["fit"].get("report")
        return 1.0 - report["optimized_min_fidelity"] if report else 1.0
    return 1.0 - records["evolve_large"].get("final_fidelity", {}).get("hp", 0.0)
