"""Start-up cost of the cdlmg CLI: import time and memory of ``cdlmg.cli``
and the end-to-end wall time of whole commands, before and after a change to
what the package imports.

    python3 bench/startup.py --src <other checkout>/src --out <record>.json

Runs the sources under ``--src`` (recorded as "parent") and this checkout's
``src/`` (recorded as "change"), one fresh interpreter per measurement with
OPENBLAS_NUM_THREADS = OMP_NUM_THREADS = 1, in alternating rounds
(``bench/rounds.py``), REPEATS rounds per row.  Writes one JSON record whose
rows are:

- ``import``: ``import cdlmg.cli`` alone;
- ``spectrum``, ``evolve``: the benchmark's large_sector jobs, a 50-point
  gap table at N=300 and bare + hp at N=300 over 250 steps;
- ``fit``: a toy ``cdlmg fit`` (N=6, two bands, one harmonic, 10 segments,
  100 steps), the one command here that optimizes and fits.

Each row holds, per side, every interpreter's ``wall_s`` (from before
``import cdlmg.cli`` until the command returns; for ``import``, the import
alone), ``peak_rss_mb`` (``ru_maxrss`` at the end), ``minor_faults``
(``ru_minflt`` at the end), ``modules`` (entries of ``sys.modules``),
``scipy_linalg``, ``scipy_optimize`` and ``scipy_special`` (whether
``scipy.linalg``, ``scipy.optimize`` and ``scipy.special`` were loaded by
the end), their medians, and the ``ratio`` summary of the rounds'
change/parent wall times and peak memory.  ``environment`` holds versions,
BLAS build and thread settings from ``perfbench/env.py``.
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
REPEATS = 20
COMMANDS = {
    "import": None,
    "spectrum": ["spectrum", "--n", "300", "--h-min", "0.5", "--h-max", "1.5",
                 "--h-points", "50"],
    "evolve": ["evolve", "--n", "300", "--ramp", RAMP, "--steps", "250",
               "--protocol", "bare", "--protocol", "hp"],
    "fit": ["fit", "--n", "6", "--bands", "2", "--harmonics", "1", "--ramp", RAMP,
            "--segments", "10", "--steps", "100"],
}

CHILD = """
import contextlib, io, json, resource, shutil, sys, tempfile, time
argv = json.loads(sys.argv[1])["argv"]
start = time.perf_counter()
import cdlmg.cli
if argv is not None:
    out = tempfile.mkdtemp()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cdlmg.cli.main(argv + ["--out", out])
    finally:
        shutil.rmtree(out)
    if code != 0:
        raise SystemExit(f"exit code {code}")
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"wall_s": wall,
                  "peak_rss_mb": usage.ru_maxrss / 1024,
                  "minor_faults": usage.ru_minflt,
                  "modules": len(sys.modules),
                  "scipy_linalg": "scipy.linalg" in sys.modules,
                  "scipy_optimize": "scipy.optimize" in sys.modules,
                  "scipy_special": "scipy.special" in sys.modules}))
"""


def row(sides: dict, name: str) -> dict:
    runs = alternate(CHILD, sides, {"argv": COMMANDS[name]}, REPEATS)
    out = {"command": name, "argv": COMMANDS[name]}
    for side, rs in runs.items():
        out[side] = {"wall_s": statistics.median(r["wall_s"] for r in rs),
                     "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rs),
                     "minor_faults": statistics.median(r["minor_faults"] for r in rs),
                     "modules": statistics.median(r["modules"] for r in rs),
                     "scipy_linalg": sorted({r["scipy_linalg"] for r in rs}),
                     "scipy_optimize": sorted({r["scipy_optimize"] for r in rs}),
                     "scipy_special": sorted({r["scipy_special"] for r in rs}),
                     "wall_s_runs": [r["wall_s"] for r in rs],
                     "peak_rss_mb_runs": [r["peak_rss_mb"] for r in rs]}
    out["ratio"] = {metric: ratio_summary(out["parent"][f"{metric}_runs"],
                                          out["change"][f"{metric}_runs"])
                    for metric in ("wall_s", "peak_rss_mb")}
    print(name, {side: (round(out[side]["wall_s"], 3), round(out[side]["peak_rss_mb"], 1))
                 for side in runs},
          " ".join("{} {median:.3f} [{q1:.3f}, {q3:.3f}]".format(m, **r)
                   for m, r in out["ratio"].items()), flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="src/ directory of the checkout to compare against")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    parent, change = args.src.resolve(), ROOT / "src"
    if not (parent / "cdlmg" / "cli.py").is_file():
        print(f"error: no cdlmg sources under {parent}", file=sys.stderr)
        return 2
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sides = {"parent": parent, "change": change}
    record = {
        "command": "python3 bench/startup.py --src <parent>/src --out <file>",
        "environment": env.record(),
        "threads": {"OPENBLAS_NUM_THREADS": 1, "OMP_NUM_THREADS": 1},
        "rows": [row(sides, name) for name in COMMANDS],
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
