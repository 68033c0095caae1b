"""Named benchmark scenarios bundling (N, gamma, ramp, protocols).

Each preset reproduces one standard comparison: ``fig1a`` and the ``s1*``
variants drive N=100 through (or near) the transition with the four driving
protocols; ``fig2`` sweeps the band count of the optimized ansatz at N=80;
``fig3a`` sweeps system size for the single-band ansatz.  Every preset runs
in the calling thread; the protocol presets run their protocols on one
ground series (`evolve_all`), stepping exact CD and the truncated drive in
lockstep on one eigensolve of the tracked block per midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .ansatz import DEFAULT_SEGMENTS, OptimizeResult, optimize
from .dynamics import (DEFAULT_STEPS, Bare, ExactCD, HPCorrection, Trajectory, Truncated,
                       evolve_all)
from .errors import ValidationError
from .ramps import RampSchedule
from .spin_algebra import ModelParams

__all__ = ["FigureSpec", "FIGURES", "run_figure"]

_COMPARISON_PROTOCOLS = (ExactCD(), Truncated(1), HPCorrection(), Bare())


@dataclass(frozen=True)
class FigureSpec:
    figure_id: str
    n: int
    gamma: float
    ramp: RampSchedule
    kind: str  # "protocols" | "band_sweep" | "size_sweep"
    protocols: tuple = ()
    band_counts: tuple = ()
    sizes: tuple = ()


FIGURES: Dict[str, FigureSpec] = {
    "fig1a": FigureSpec("fig1a", 100, 0.0, RampSchedule.linear(0.75, 0.5),
                        "protocols", protocols=_COMPARISON_PROTOCOLS),
    "fig2": FigureSpec("fig2", 80, 0.0, RampSchedule.linear(0.75, 0.5),
                       "band_sweep", band_counts=(1, 2, 3, 4)),
    "fig3a": FigureSpec("fig3a", 10, 0.0, RampSchedule.linear(0.75, 0.5),
                        "size_sweep", sizes=(10, 20, 40, 80, 100)),
    "s1a": FigureSpec("s1a", 100, 0.0, RampSchedule.linear(0.55, 0.3),
                      "protocols", protocols=_COMPARISON_PROTOCOLS),
    "s1b": FigureSpec("s1b", 100, 0.0, RampSchedule.linear(1.25, -0.5),
                      "protocols", protocols=_COMPARISON_PROTOCOLS),
    "s1c": FigureSpec("s1c", 100, 0.0, RampSchedule.quadratic(0.75, 0.5),
                      "protocols", protocols=_COMPARISON_PROTOCOLS),
    "s1d": FigureSpec("s1d", 100, 0.0, RampSchedule.tanh_ramp(0.75, 0.5, 5.0),
                      "protocols", protocols=_COMPARISON_PROTOCOLS),
}


# The presets run serially.  This function stays only because the benchmark
# harness (perfbench/harness.py) imports it to scale its pool-efficiency metric.
def max_workers() -> int:
    """Trajectories a preset runs at once: always 1."""
    return 1


def run_figure(figure_id: str, *, steps: int = DEFAULT_STEPS,
               segments: int = DEFAULT_SEGMENTS) -> Dict[str, Trajectory]:
    """Execute all curves of one preset; returns trajectories keyed by label.

    The optimizer presets return ``optimize``'s trajectories, which carry
    the optimized schedules in ``info["coefficients"]``.
    """
    if figure_id not in FIGURES:
        raise ValidationError(
            f"unknown figure {figure_id!r}; expected one of {sorted(FIGURES)}")
    spec = FIGURES[figure_id]

    if spec.kind == "protocols":
        return evolve_all(ModelParams(spec.n, spec.gamma, spec.ramp), spec.protocols, steps)

    if spec.kind == "band_sweep":
        params = ModelParams(spec.n, spec.gamma, spec.ramp)
        out: Dict[str, Trajectory] = {}
        warm = None
        for k in spec.band_counts:
            result: OptimizeResult = optimize(
                params, k=k, segments=segments, eval_steps=steps,
                warm_start=warm)
            warm = result.coefficients.values
            out[result.trajectory.protocol] = result.trajectory
        return out

    # size sweep, single band
    out = {}
    for size in spec.sizes:
        params = ModelParams(size, spec.gamma, spec.ramp)
        result = optimize(params, k=1, segments=segments, eval_steps=steps)
        out[f"N={size}"] = result.trajectory
    return out
