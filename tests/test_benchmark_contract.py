"""What the benchmark under ``perfbench/`` uses of the library.

The benchmark is kept fixed between its own revisions, so a change to the
library must keep what it imports and calls: ``figures.max_workers``,
``BandCoefficients.with_band_values`` and ``.midpoints``,
``evolve(..., store_states=False)`` and the ``--seed`` option of every CLI
command.  A change that drops one of them fails here, not only in a
benchmark run.
"""

import importlib
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_harness_imports_and_runs_its_fit_job(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = importlib.import_module("harness")  # imports max_workers and cdlmg names
    assert harness.max_workers() >= 1
    # the toy fit job: the CLI with --seed, then the refined re-propagation
    # of its schedules through with_band_values, midpoints and evolve
    job = next(j for j in harness.WORKLOADS["toy"]["drives_n100"] if j.kind == "fit")
    code, _, output = harness.run_job(job, 7, tmp_path)
    assert code == 0, output
    assert "--seed" in job.command(7, tmp_path)
    report = json.loads((tmp_path / "fit_report.json").read_text())
    refined = harness.repropagate_fit(job, tmp_path)
    assert set(refined) == {"optimized_min_fidelity", "fitted_min_fidelity"}
    for key, value in refined.items():
        assert 0.0 <= value <= 1.0
        assert abs(value - report[key]) < 1e-3
