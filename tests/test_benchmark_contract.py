"""What the benchmark under ``perfbench/`` uses of the library.

The benchmark is kept fixed between its own revisions, so a change to the
library must keep what it imports and calls: ``figures.max_workers``,
``BandCoefficients.with_band_values`` and ``.midpoints``,
``evolve(..., store_states=False)``, the ``--seed`` option of every CLI
command, and ``minimize`` and ``least_squares`` among ``cdlmg.ansatz``'s
attributes, where its tracer finds and wraps them.  A change that drops one
of them fails here, not only in a benchmark run.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import scipy.optimize

import cdlmg.ansatz as ansatz
from cdlmg import ModelParams, RampSchedule

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


OPTIMIZERS = ("minimize", "least_squares")


def _unbind_optimizers(monkeypatch):
    # back to a fresh import's state, where neither name is bound yet
    for name in OPTIMIZERS:
        monkeypatch.delitem(vars(ansatz), name, raising=False)


def test_tracer_finds_the_optimizers_bound_on_first_use(monkeypatch):
    # cdlmg.ansatz loads scipy.optimize on first use, yet the benchmark's
    # tracer wraps the scipy functions it finds in vars(cdlmg.ansatz) when it
    # is installed (after an untraced repetition): its ansatz.search_s,
    # ansatz.nfev and ansatz.lsq_nfev come from those wrappers
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    _unbind_optimizers(monkeypatch)
    assert ansatz.minimize is scipy.optimize.minimize
    assert ansatz.least_squares is scipy.optimize.least_squares

    params = ModelParams(8, 0.0, RampSchedule.linear(0.75, 0.5))
    times = np.linspace(0.0, 1.0, 40)
    values = 0.3 * np.sin(5.0 * times + 0.2)
    calls = (lambda: ansatz.optimize(params, k=1, segments=10, opt_steps_per_segment=2,
                                     eval_steps=20),
             lambda: ansatz.fit_harmonics(times, values, 1))
    for call in calls:
        _unbind_optimizers(monkeypatch)
        call()
        for name in OPTIMIZERS:
            assert vars(ansatz)[name] is getattr(scipy.optimize, name)

    tracer = spans.Tracer()
    tracer.install()
    try:
        for call in calls:
            call()
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"ansatz.minimize", "ansatz.least_squares"} <= names

    # a name replaced before first use is kept through the call
    _unbind_optimizers(monkeypatch)
    recorded = []

    def recording(*args, **kwargs):
        recorded.append(args)
        return scipy.optimize.least_squares(*args, **kwargs)

    monkeypatch.setitem(vars(ansatz), "least_squares", recording)
    ansatz.fit_harmonics(times, values, 1)
    assert len(recorded) == 1
    assert vars(ansatz)["least_squares"] is recording
    assert vars(ansatz)["minimize"] is scipy.optimize.minimize
