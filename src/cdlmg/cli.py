"""Command-line front end: evolve / spectrum / optimize / fit / decompose.

Every run writes CSV data files plus a JSON manifest echoing the options of
its command, so a run can be replayed exactly.  Files are written
atomically (temp file + rename).  Exit codes: 0 success, 1 invalid
configuration (argparse usage errors included), 2 numerical failure (one of
NUMERICAL_FAILURES); any other exception is a bug and propagates with its
traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, output
from .ansatz import DEFAULT_SEGMENTS, evaluate_fit, fit_harmonics, optimize
from .band_operators import decompose_band, solve_first_band_beta
from .counterdiabatic import band_table, exact_cd
from .dynamics import DEFAULT_STEPS, evolve_all
from .errors import (
    ConvergenceError,
    DecompositionError,
    NormError,
    StructureError,
    ValidationError,
)
from .figures import FIGURES, run_figure
from .ramps import RampSchedule
from .spectrum import gap_series
from .spin_algebra import ModelParams

__all__ = ["main"]

# Failures of a valid run (exit code 2).
NUMERICAL_FAILURES = (ConvergenceError, DecompositionError, NormError,
                      StructureError, np.linalg.LinAlgError)


def _model(args) -> ModelParams:
    """The model a command without --figure runs; spectrum's has no ramp."""
    if args.n is None:
        raise ValidationError("--n is required for this command")
    if args.command == "spectrum":
        return ModelParams(args.n, args.gamma)
    if args.ramp is None:
        raise ValidationError(f"--ramp is required for {args.command}")
    return ModelParams(args.n, args.gamma, RampSchedule.parse(args.ramp))


def _stem(label: str) -> str:
    """File-name stem of a trajectory label: 'truncated(1)' -> 'truncated_1'."""
    return label.replace("(", "_").replace(")", "").replace("=", "")


@functools.cache  # git is asked once per process
def _code_version() -> str:
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).parent).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        described = ""
    return f"cdlmg {__version__}" + (f" ({described})" if described else "")


def _write_json(path: Path, payload) -> None:
    output.atomic_write(path, json.dumps(payload, indent=2) + "\n")


def _write_manifest(options: dict, extra: dict, wall_time: float) -> None:
    manifest = {
        "config": options,
        "version": _code_version(),
        "wall_time_s": wall_time,
        **extra,
    }
    _write_json(Path(options["out"]) / "manifest.json", manifest)


def _run_preset(args) -> dict:
    """Run the --figure preset.  A preset fixes its own model, so an option
    it would ignore is rejected rather than echoed into the manifest.
    evolve takes no --bands and optimize no --protocol."""
    given = {"--n": args.n is not None,
             "--gamma": args.gamma != FIGURES[args.figure].gamma,
             "--ramp": args.ramp is not None,
             "--bands": getattr(args, "bands", None) is not None,
             "--protocol": bool(getattr(args, "protocols", None))}
    ignored = [opt for opt, is_given in given.items() if is_given]
    if ignored:
        raise ValidationError(
            f"--figure {args.figure} fixes its own model; drop {', '.join(ignored)}")
    return run_figure(args.figure, steps=args.steps, segments=args.segments)


# --------------------------------------------------------------------------
# subcommands

def _cmd_evolve(args) -> dict:
    outdir = Path(args.out)
    if (args.segments != DEFAULT_SEGMENTS
            and (args.figure is None or FIGURES[args.figure].kind == "protocols")):
        raise ValidationError("--segments sets the optimizer's time segments, "
                              "and this run optimizes nothing; drop it")
    finals = {}
    if args.figure:
        trajectories = _run_preset(args)
    else:
        params = _model(args)
        if not args.protocols:
            raise ValidationError("at least one --protocol is required")
        trajectories = evolve_all(params, args.protocols, args.steps)
    files = []
    for label, traj in trajectories.items():
        path = outdir / f"trajectory_{_stem(label)}.csv"
        traj.to_csv(path)
        files.append(path.name)
        finals[label] = traj.final_fidelity
        print(f"{label}: final fidelity {traj.final_fidelity:.6f} "
              f"(min {traj.min_fidelity:.6f})")
    return {"files": files, "final_fidelity": finals}


def _cmd_spectrum(args) -> dict:
    outdir = Path(args.out)
    params = _model(args)
    if not args.h_max > args.h_min:
        raise ValidationError("--h-max must exceed --h-min")
    if args.h_points < 2:
        raise ValidationError("--h-points must be >= 2")
    grid = np.linspace(args.h_min, args.h_max, args.h_points)
    table = gap_series(params, grid)
    path = outdir / "gaps.csv"
    table.to_csv(path)
    for pair in table.pairs:
        print(f"gap{pair[0]}{pair[1]}: min {table.gap(pair).min():.3e} "
              f"max {table.gap(pair).max():.3e}")
    return {"files": [path.name]}


def _cmd_optimize(args) -> dict:
    outdir = Path(args.out)
    files, summary = [], {}
    if args.figure:
        trajectories = _run_preset(args)
    else:
        if args.bands is None:
            raise ValidationError("--bands is required for optimize")
        result = optimize(_model(args), k=args.bands, segments=args.segments,
                          eval_steps=args.steps)
        trajectories = {result.trajectory.protocol: result.trajectory}
    for label, traj in trajectories.items():
        safe = _stem(label)
        coeffs = traj.info["coefficients"]
        cpath = outdir / f"schedule_{safe}.csv"
        coeffs.to_csv(cpath)
        files.append(cpath.name)
        jpath = outdir / f"schedule_{safe}.json"
        _write_json(jpath, coeffs.to_json_dict())
        files.append(jpath.name)
        tpath = outdir / f"trajectory_{safe}.csv"
        traj.to_csv(tpath)
        files.append(tpath.name)
        summary[label] = {"min_fidelity": traj.min_fidelity,
                          "final_fidelity": traj.final_fidelity,
                          "nfev": traj.info["nfev"],
                          "warnings": traj.info["optimizer_warnings"]}
        print(f"{label}: min fidelity {traj.min_fidelity:.6f}")
    return {"files": files, "results": summary}


def _cmd_fit(args) -> dict:
    outdir = Path(args.out)
    params = _model(args)
    c = args.harmonics
    result = optimize(params, k=args.bands, segments=args.segments,
                      eval_steps=args.steps)
    times, series = result.coefficients.band_series(1)
    fit = fit_harmonics(times, series, c)
    evaluation = evaluate_fit(fit, result.coefficients, result.trajectory)
    files = []
    spath = outdir / "schedule_optimized.csv"
    result.coefficients.to_csv(spath)
    files.append(spath.name)
    fpath = outdir / "harmonic_fit.json"
    _write_json(fpath, fit.to_json_dict())
    files.append(fpath.name)
    report = {
        "n": params.n, "harmonics": c,
        "fit_rms_residual": fit.residual,
        "max_fidelity_discrepancy": evaluation.discrepancy,
        "optimized_min_fidelity": evaluation.reference.min_fidelity,
        "fitted_min_fidelity": evaluation.trajectory.min_fidelity,
    }
    rpath = outdir / "fit_report.json"
    _write_json(rpath, report)
    files.append(rpath.name)
    print(f"harmonics={c}: max fidelity discrepancy "
          f"{evaluation.discrepancy:.6f} (fit rms {fit.residual:.4g})")
    return {"files": files, "report": report, "nfev": result.nfev}


def _cmd_decompose(args) -> dict:
    outdir = Path(args.out)
    if args.bands is not None and args.bands < 1:
        raise ValidationError(f"--bands must be >= 1, got {args.bands}")
    params = _model(args)
    ramp = params.ramp
    t_eval = args.t_eval if args.t_eval is not None else ramp.t_start
    if not ramp.t_start <= t_eval <= ramp.t_end:
        raise ValidationError(
            f"--t {t_eval} outside the ramp's [{ramp.t_start}, {ramp.t_end}]")
    h = float(ramp.h(t_eval))
    hdot = float(ramp.hdot(t_eval))
    term = exact_cd(params, h, hdot)
    table = band_table(term)
    bands = sorted(table.bands)
    if args.bands is not None:
        bands = [b for b in bands if b <= args.bands]
    payload = {"n": params.n, "gamma": params.gamma, "h": h, "hdot": hdot,
               "bands": {}}
    beta, residuals = solve_first_band_beta(params.sector)
    payload["first_band_beta"] = beta.tolist()
    payload["first_band_beta_residual"] = float(residuals.max())
    for b in bands:
        dec = decompose_band(table, b)
        payload["bands"][str(b)] = {
            "terms": dec.to_json_list(),
            "residual": dec.residual,
        }
        print(f"band {b}: {len(dec.terms)} operators, residual {dec.residual:.2e}")
    path = outdir / "decomposition.json"
    _write_json(path, payload)
    return {"files": [path.name]}


# --------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdlmg",
        description="Counterdiabatic driving of the LMG model: evolution, "
                    "spectra, pulse optimization, operator decompositions.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ramp=True, steps=True):
        p.add_argument("--n", type=int, help="particle count")
        p.add_argument("--gamma", type=float, default=0.0, help="anisotropy")
        if ramp:
            p.add_argument("--ramp", help="field schedule, e.g. linear:0.75,0.5")
        if steps:
            p.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                           help="propagation steps (default %(default)s)")
            p.add_argument("--segments", type=int, default=DEFAULT_SEGMENTS,
                           help="optimizer time segments (default %(default)s)")
        p.add_argument("--seed", type=int, default=0,
                       help="no effect; accepted (>= 0) for existing command lines")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("evolve", help="propagate one or more protocols")
    common(p)
    p.add_argument("--protocol", action="append", dest="protocols", default=[],
                   help="bare | exact_cd | truncated:k | hp | decomposed:k "
                        "(repeatable)")
    p.add_argument("--figure", choices=sorted(FIGURES),
                   help="run a named preset instead of explicit parameters")

    p = sub.add_parser("spectrum", help="energy-gap table over a field grid")
    common(p, ramp=False, steps=False)
    p.add_argument("--h-min", type=float, dest="h_min", required=True)
    p.add_argument("--h-max", type=float, dest="h_max", required=True)
    p.add_argument("--h-points", type=int, dest="h_points", default=500)

    p = sub.add_parser("optimize", help="optimize banded-ansatz coefficients")
    common(p)
    p.add_argument("--bands", type=int, help="number of ansatz bands")
    p.add_argument("--figure", choices=["fig2", "fig3a"],
                   help="run an optimizer preset")

    p = sub.add_parser("fit", help="harmonic fit of the optimized band-1 pulse")
    common(p)
    p.add_argument("--bands", type=int, default=1)
    p.add_argument("--harmonics", type=int, choices=(1, 2, 3), required=True,
                   help="number of sinusoids")

    p = sub.add_parser("decompose", help="physical-operator decomposition of "
                                         "the exact driving term")
    common(p, steps=False)
    p.add_argument("--bands", type=int, help="highest band to decompose")
    p.add_argument("--t", type=float, dest="t_eval",
                   help="ramp time at which to evaluate (default t_start)")
    return parser


_HANDLERS = {
    "evolve": _cmd_evolve,
    "spectrum": _cmd_spectrum,
    "optimize": _cmd_optimize,
    "fit": _cmd_fit,
    "decompose": _cmd_decompose,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: usage error, or --help/--version
        if exc.code:
            return 1
        raise
    try:
        if args.seed < 0:
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        t0 = time.perf_counter()
        extra = _HANDLERS[args.command](args)
        _write_manifest(vars(args), extra, time.perf_counter() - t0)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
