"""Alternating fresh-interpreter measurements, shared by the bench scripts.

A bench script compares the sources under its ``--src`` ("parent") with
this checkout's ``src/`` ("change").  A round runs one interpreter per
side, the side that goes first alternating from round to round, so the
round's change/parent ratio compares two runs made seconds apart: on a
shared host, whose load comes in phases, that ratio is steadier than either
side's times.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def measure(child: str, src: Path, task: dict) -> dict:
    """Run the `child` program on `task` in a fresh interpreter on the
    sources under `src`, BLAS on one thread; returns the JSON object that
    it prints last."""
    child_env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
                     OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", child, json.dumps(task)], env=child_env,
                         capture_output=True, text=True, timeout=3600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def alternate(child: str, sides: dict, task: dict, repeats: int, report=None) -> dict:
    """`repeats` runs of the task per side, the order of the sides rotating
    each round; ``report(name, result)``, when given, sees every run."""
    names = list(sides)
    runs = {name: [] for name in names}
    for r in range(repeats):
        for name in names[r % len(names):] + names[:r % len(names)]:
            runs[name].append(measure(child, sides[name], task))
            if report is not None:
                report(name, runs[name][-1])
    return runs


def ratio_summary(parent: list, change: list) -> dict:
    """Median, quartiles and range of the rounds' change/parent ratios."""
    ratios = [c / p for p, c in zip(parent, change)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(ratios), "max": max(ratios),
            "rounds": ratios}
