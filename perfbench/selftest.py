"""Self-test of the benchmark at toy sizes; takes under a minute.

    python3 perfbench/selftest.py

Generates toy references, runs every workload untraced and traced through
the same code as the benchmark, and checks that every metric named in
``BENCHMARK.json`` is emitted, that the layer wall shares add up to the
traced wall time, that spans keep their parents across the figures thread
pool, and that a perturbed reference is counted as a failed job.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import env

env.pin_threads()

import harness  # noqa: E402  (threads must be pinned before numpy loads)
import make_references  # noqa: E402
import run  # noqa: E402


def _names(group: str) -> set:
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[group]}


def _perturb(workload_refs: dict) -> dict:
    """Shift the first stored reference value of the workload by far more
    than its tolerance."""
    refs = copy.deepcopy(workload_refs)
    for job_refs in refs.values():
        for ref in job_refs.values():
            if "values" in ref:
                ref["values"][0] += 100 * ref["tol"] + 1e-3
                return refs
            if "tol" in ref:
                ref["tol"] = -1.0  # no deviation can pass
                return refs
    raise AssertionError("workload has no reference to perturb")


def main() -> int:
    workdir = env.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    refs = make_references.generate("toy", workdir / "references")
    setup = run.measure_setup(1)
    expect(len(setup) == 1 and setup[0] > 0, f"setup probe {setup}")
    end_to_end, per_layer = _names("end_to_end"), _names("per_layer")

    for workload in harness.WORKLOADS["toy"]:
        plain = harness.run(workload, 3, 0.0, False, refs[workload], workdir / "work", "toy")
        jobs = len(harness.WORKLOADS["toy"][workload])
        expect(plain["failed"] == 0 and plain["attempted"] == jobs,
               f"{workload}: {plain['failed']} of {plain['attempted']} failed {plain['problems']}")
        expect(set(plain["metrics"]) | {"setup_s"} == end_to_end,
               f"{workload}: end-to-end metrics {sorted(plain['metrics'])}")

        traced = harness.run(workload, 3, 0.0, True, refs[workload], workdir / "work", "toy")
        m = traced["metrics"]
        expect(traced["failed"] == 0 and traced["reps"] == 2,
               f"{workload} traced: {traced['failed']} failed in {traced['reps']} repetitions")
        expect(set(m) == per_layer, f"{workload}: per-layer metrics differ from BENCHMARK.json "
                                    f"by {sorted(set(m) ^ per_layer)}")
        shares = sum(v for k, v in m.items() if k.endswith(".wall_share_s"))
        expect(abs(shares - m["trace.wall_s"]) < 1e-9,
               f"{workload}: wall shares sum to {shares:.6f} of {m['trace.wall_s']:.6f} s")
        expect(m["cli.self_s"] > 0 and m["cli.bytes_written"] > 0, f"{workload}: cli layer seen")

        wrong = harness.run(workload, 3, 0.0, False, _perturb(refs[workload]),
                            workdir / "work", "toy")
        expect(wrong["failed"] >= 1, f"{workload}: perturbed reference fails "
                                     f"{wrong['failed']} of {wrong['attempted']} jobs")

        if workload == "drives_n100":
            expect(m["counterdiabatic.cd_block_calls"] > 0
                   and m["band_operators.decompose_calls"] > 0
                   and m["spin_algebra.build_spin_ops_calls"] > 0,
                   "drives: CD and decomposition spans")
            expect(0 < m["figures.pool_efficiency"] <= 1
                   and m["figures.self_s"] < 0.5 * m["figures.run_figure_s"],
                   f"drives: pool children keep their parent (efficiency "
                   f"{m['figures.pool_efficiency']:.2f}, self {m['figures.self_s']:.4f} of "
                   f"{m['figures.run_figure_s']:.4f} s)")
            expect(m["ansatz.starts"] > 0 and m["ansatz.nfev"] > 0 and m["ansatz.lsq_nfev"] > 0
                   and 0 < m["ansatz.winning_nfev_frac"] <= 1,
                   f"drives: {m['ansatz.starts']} optimizer starts, {m['ansatz.nfev']} evals, "
                   f"winning share {m['ansatz.winning_nfev_frac']:.2f}")
        if workload == "large_sector":
            expect(m["spectrum.gap_series_calls"] == 1 and m["spectrum.ground_series_points"] > 0
                   and m["dynamics.steps"] > 0 and m["ansatz.starts"] == 0
                   and m["counterdiabatic.cd_block_calls"] == 0,
                   "large: gap table and ground series spans, no CD or optimizer")

    shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
