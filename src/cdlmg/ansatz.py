"""Hybrid banded-ansatz optimization and harmonic pulse fits.

The driving ansatz populates the even-offset bands of the S_z basis with one
real coefficient per band (constant along the band).  Coefficients are
piecewise constant over time segments and chosen greedily: holding earlier
segments fixed, each segment's coefficients maximize the fidelity with the
tracked ground state at the segment's end time, searched with one L-BFGS-B
run on the exact gradient of that fidelity.  The gradient is carried forward
with the state through the segment by `evolve`'s own stepping loop
(`dynamics._steps`), which plans the segment's steps a chunk at a time in
one buffer per evaluation, and the segment's end state is carried on to the
next segment.  The ansatz drive is a band matrix
(``SectorFrame.ansatz_bands``), but the block that carries the gradient is
built dense from it and from H0's band matrix: at the optimizer's sizes (21
to 41 states) one dense product of that block costs less than the banded
products it would take.

The optimization itself runs on a coarsened grid (a few propagation steps
per segment); the returned trajectory re-evaluates the optimized schedule on
the full integration grid.

``scipy.optimize`` loads on the first ``optimize`` or ``fit_harmonics`` call
(or the first read of ``ansatz.minimize`` or ``ansatz.least_squares``), not at
import: no other command needs it, and it is most of an import's modules and
memory.  It also brings in the ``scipy.linalg`` package, which nothing else
in cdlmg imports (`cdlmg._lapack` loads LAPACK's wrapper module alone).  The
two names still become module attributes, bound only where
unbound, because callers wrap them in place: the benchmark's tracer wraps the
scipy functions it finds among this module's attributes, and tests and
``bench/optimizer.py`` replace them to record or cap the searches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import output
from .dynamics import (DEFAULT_STEPS, AnsatzDrive, TrackedRun, Trajectory, _chunk_steps,
                       _steps, evolve)
from .errors import ValidationError
from .spin_algebra import ModelParams

__all__ = [
    "BandCoefficients",
    "OptimizeResult",
    "HarmonicFit",
    "FitEvaluation",
    "optimize",
    "fit_harmonics",
    "evaluate_fit",
]

MIN_SEGMENTS = 10
DEFAULT_SEGMENTS = 40
OPT_STEPS_PER_SEGMENT = 10
# L-BFGS-B's projected-gradient tolerance.  The infidelity is flat near a
# segment's optimum: at the default, 1e-5, the search stopped up to 8e-4 away
# from it on the benchmark's fit job (N=40, k=2).
GRADIENT_TOL = 1e-8
_OPTIMIZERS = ("least_squares", "minimize")


def _bind_optimizers() -> None:
    """Bind scipy.optimize's `least_squares` and `minimize` in this module,
    leaving a name that is already bound (a caller's wrapper) as it is."""
    unbound = [name for name in _OPTIMIZERS if name not in globals()]
    if unbound:
        import scipy.optimize
        globals().update({name: getattr(scipy.optimize, name) for name in unbound})


def __getattr__(name: str):
    if name in _OPTIMIZERS:
        _bind_optimizers()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class BandCoefficients:
    """Piecewise-constant band coefficients x_i(t) on a segmented time axis."""

    boundaries: np.ndarray  # (segments+1,) ascending times
    values: np.ndarray = field(repr=False)  # (segments, num_bands)

    def __post_init__(self):
        boundaries = np.asarray(self.boundaries, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if boundaries.ndim != 1 or values.ndim != 2 or len(boundaries) != len(values) + 1:
            raise ValidationError("boundaries must have one more entry than value rows")
        if not np.all(np.diff(boundaries) > 0):
            raise ValidationError("segment boundaries must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValidationError("band coefficients must be finite")
        object.__setattr__(self, "boundaries", boundaries)
        object.__setattr__(self, "values", values)

    @property
    def segments(self) -> int:
        return len(self.values)

    @property
    def num_bands(self) -> int:
        return self.values.shape[1]

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.boundaries[:-1] + self.boundaries[1:])

    def segment_of(self, t) -> np.ndarray:
        return np.clip(np.searchsorted(self.boundaries, t, side="right") - 1,
                       0, self.segments - 1)

    def _column(self, band: int) -> int:
        if not 1 <= band <= self.num_bands:
            raise ValidationError(f"band {band} outside 1..{self.num_bands}")
        return band - 1

    def band_series(self, band: int = 1):
        """(segment midpoints, x_band values) for one band."""
        return self.midpoints, self.values[:, self._column(band)]

    def with_band_values(self, band: int, new_values: np.ndarray) -> "BandCoefficients":
        values = self.values.copy()
        values[:, self._column(band)] = new_values
        return BandCoefficients(self.boundaries, values)

    def to_csv(self, path) -> None:
        output.write_csv(path, ["t"] + [f"x_{b}" for b in range(1, self.num_bands + 1)],
                         [self.midpoints, *self.values.T])

    def to_json_dict(self) -> dict:
        return {"boundaries": self.boundaries.tolist(),
                "values": self.values.tolist()}


@dataclass(frozen=True)
class OptimizeResult:
    coefficients: BandCoefficients
    trajectory: Trajectory
    nfev: int
    warnings: tuple = ()


def _segment_infidelity(h0_segment: np.ndarray, ansatz, patterns: np.ndarray,
                        x: np.ndarray, dt: float, psi: np.ndarray, target: np.ndarray):
    """1 - |a|^2, its gradient in x and psi_end, for a = <target|psi_end> after
    the segment's steps exp(-i dt H_j), H_j = H0_j + sum_b x_b P_b, applied to
    psi.  h0_segment stacks the H0_j as dense blocks, ansatz(x) gives
    sum_b x_b P_b as a band matrix, and patterns stacks the dense P_b.

    The gradient is exact, in forward mode (as in GOAT): the stacked vector
    [d psi/dx_1; ...; d psi/dx_k; psi] is stepped by `evolve`'s loop
    (`dynamics._steps`) on the block upper-triangular matrices with H_j on
    every diagonal block and P_b in the last block column of block row b,
    written a chunk at a time into the loop's buffer, since the upper-right
    block of exp(-i dt [[H, P], [0, H]]) is the derivative of exp(-i dt H)
    along P (Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)).  Then
    d|a|^2/dx_b = 2 Re(conj(a) <target|d psi_end/dx_b>).
    """
    k, dim = len(x), len(psi)
    h = h0_segment + ansatz(x).dense()
    chunk = _chunk_steps(((k + 1) * dim) ** 2 * 16)

    def write(blocks, lo, hi):
        blocks = blocks.reshape(hi - lo, k + 1, dim, k + 1, dim)
        blocks[:] = 0
        for b in range(k + 1):
            blocks[:, b, :, b] = h[lo:hi]
        blocks[:, :k, :, k] = patterns

    state = np.concatenate([np.zeros(k * dim, dtype=complex), psi])
    for [(state, _)] in _steps([(None, write)], np.full(len(h), dt), state, chunk):
        pass  # the loop carries the stacked state to the segment's end
    states = state.reshape(k + 1, dim)
    overlaps = states @ target.conj()
    a = overlaps[-1]
    return 1.0 - abs(a) ** 2, -2.0 * np.real(np.conj(a) * overlaps[:-1]), states[-1]


def optimize(params: ModelParams, k: int = 1, segments: int = DEFAULT_SEGMENTS, *,
             opt_steps_per_segment: int = OPT_STEPS_PER_SEGMENT,
             eval_steps: int = DEFAULT_STEPS,
             warm_start: Optional[np.ndarray] = None) -> OptimizeResult:
    """Greedy per-segment optimization of the banded ansatz coefficients
    along params.ramp.

    Each segment's (x_1..x_k) maximize the fidelity at the segment end via
    one L-BFGS-B run on the exact gradient (`_segment_infidelity`), started
    from row s of `warm_start` when given (e.g. the optimum of a run with
    fewer bands, padded with zeros), else from the previous segment's
    optimum (zeros for the first segment).  The next segment starts from the
    state that optimum leaves, which the same helper returns.  The schedule
    is then re-propagated on the fine grid for the returned trajectory, whose
    ``info["coefficients"]`` holds it; ``nfev`` counts the objective
    evaluations, each one value and gradient.
    """
    if segments < MIN_SEGMENTS:
        raise ValidationError(f"need at least {MIN_SEGMENTS} segments, got {segments}")
    if k < 1:
        raise ValidationError(f"band count must be >= 1, got {k}")
    if warm_start is not None:
        warm_start = np.asarray(warm_start, dtype=float)
        if warm_start.ndim != 2 or warm_start.shape[0] != segments:
            raise ValidationError("warm_start must be 2-D with one row per segment")
        if not np.all(np.isfinite(warm_start)):
            raise ValidationError("warm_start must be finite")
        if warm_start.shape[1] < k:
            warm_start = np.hstack(
                [warm_start, np.zeros((segments, k - warm_start.shape[1]))])
        warm_start = warm_start[:, :k]

    run = TrackedRun(params, segments * opt_steps_per_segment)
    frame, times, grounds = run.frame, run.times, run.grounds
    frame.check_bands(k)
    dt = times[1] - times[0]
    patterns = frame.ansatz_bands(np.eye(k)).dense()
    _bind_optimizers()

    psi = run.start_state
    schedule = np.zeros((segments, k))
    warnings: list[str] = []
    nfev = 0
    prev = np.zeros(k)
    for s in range(segments):
        lo, hi = s * opt_steps_per_segment, (s + 1) * opt_steps_per_segment
        h0_segment = frame.h0_bands(run.h_mid[lo:hi]).dense()
        target = grounds[hi]

        def segment(x):
            return _segment_infidelity(h0_segment, frame.ansatz_bands, patterns, x, dt, psi,
                                       target)

        baseline = segment(np.zeros(k))[0]
        start = warm_start[s] if warm_start is not None else prev
        result = minimize(lambda x: segment(x)[:2], start, jac=True,
                          method="L-BFGS-B", options={"gtol": GRADIENT_TOL})
        nfev += 1 + result.nfev
        if result.fun >= baseline - 1e-12:
            warnings.append(
                f"segment {s}: no improvement over zero drive (F={1 - baseline:.6f})")
        schedule[s] = prev = result.x
        psi = segment(prev)[2]

    coefficients = BandCoefficients(times[::opt_steps_per_segment], schedule)
    trajectory = evolve(params, AnsatzDrive(coefficients), eval_steps)
    trajectory.info["optimizer_warnings"] = list(warnings)
    trajectory.info["nfev"] = nfev
    trajectory.info["coefficients"] = coefficients
    return OptimizeResult(coefficients, trajectory, nfev, tuple(warnings))


# --------------------------------------------------------------------------
# harmonic fits

@dataclass(frozen=True)
class HarmonicFit:
    """Sum of c free sinusoids a_m sin(w_m t + phi_m) fitted to a series."""

    amplitudes: np.ndarray
    omegas: np.ndarray
    phases: np.ndarray
    residual: float
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    band: int = 1
    converged: bool = True

    @property
    def harmonics(self) -> int:
        return len(self.amplitudes)

    def evaluate(self, t) -> np.ndarray:
        """The fitted pulse at the 1-D times t."""
        return _harmonic_model(self.amplitudes, self.omegas, self.phases,
                               np.asarray(t, dtype=float))

    def to_json_dict(self) -> dict:
        return {
            "a": self.amplitudes.tolist(),
            "omega": self.omegas.tolist(),
            "phi": self.phases.tolist(),
            "residual": self.residual,
            "band": self.band,
            "converged": self.converged,
        }


def _harmonic_model(a: np.ndarray, w: np.ndarray, p: np.ndarray,
                    t: np.ndarray) -> np.ndarray:
    """sum_m a_m sin(w_m t + p_m) at the 1-D times t."""
    return (a[:, None] * np.sin(np.outer(w, t) + p[:, None])).sum(axis=0)


def _matching_pursuit_init(t: np.ndarray, y: np.ndarray, c: int) -> np.ndarray:
    """Greedy single-frequency scans: each pass picks the grid frequency whose
    sine/cosine pair best explains the residual, by `lstsq`'s residual sum of
    squares.  One batched pass screens the grid first: the sum of squares
    left after projecting the residual on every frequency's pair, through
    the pair's singular vectors, those that `lstsq`'s default cutoff drops
    left out.  Only frequencies whose screened sum lies within
    1e-9 |residual|^2 of the least are then scored by `lstsq`, in grid
    order: the screen's sums differ from `lstsq`'s by rounding alone, so the
    scan picks what scoring every frequency would, bit for bit."""
    span = t[-1] - t[0]
    omega_grid = np.linspace(0.1 / span, 0.95 * np.pi * len(t) / span, 700)
    arguments = np.multiply.outer(omega_grid, t)
    bases, singular, _ = np.linalg.svd(
        np.stack([np.sin(arguments), np.cos(arguments)], axis=-1), full_matrices=False)
    bases *= (singular > np.finfo(float).eps * max(len(t), 2) * singular[:, :1])[:, None, :]
    resid = y.astype(float).copy()
    amps, omegas, phases = [], [], []
    for _ in range(c):
        projected = (bases @ (resid @ bases)[..., None])[..., 0]
        screen = np.sum((resid - projected) ** 2, axis=1)
        near = screen <= screen.min() + 1e-9 * (resid @ resid)
        best = None
        for w in omega_grid[near]:
            design = np.column_stack([np.sin(w * t), np.cos(w * t)])
            coef, *_ = np.linalg.lstsq(design, resid, rcond=None)
            rss = float(np.sum((resid - design @ coef) ** 2))
            if best is None or rss < best[0]:
                best = (rss, w, coef)
        _, w, (sin_c, cos_c) = best
        amps.append(float(np.hypot(sin_c, cos_c)))
        omegas.append(float(w))
        phases.append(float(np.arctan2(cos_c, sin_c)))
        resid = resid - (sin_c * np.sin(w * t) + cos_c * np.cos(w * t))
    return np.concatenate([amps, omegas, phases])


def fit_harmonics(times, values, c: int) -> HarmonicFit:
    """Nonlinear least-squares fit of c sinusoids with free frequencies.

    Initial frequencies come from the dominant peaks of greedy frequency
    scans; one joint refinement then releases all 3c parameters.
    ``converged`` is that refinement's success within 20000 evaluations;
    when it does not succeed, the point it stopped at is returned.
    """
    if not 1 <= c <= 3:
        raise ValidationError(f"harmonic count must be 1, 2 or 3, got {c}")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ValidationError("times and values must be matching 1-D arrays")
    if len(times) < 3 * c + 1:
        raise ValidationError(f"need more than {3 * c} samples to fit {c} harmonics")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise ValidationError("times and values must be finite")
    if times[-1] == times[0]:
        raise ValidationError("times must span a nonzero interval")
    _bind_optimizers()
    sol = least_squares(lambda x: _harmonic_model(*x.reshape(3, c), times) - values,
                        _matching_pursuit_init(times, values, c), max_nfev=20000)
    amplitudes, omegas, phases = sol.x.reshape(3, c)
    return HarmonicFit(
        amplitudes=amplitudes, omegas=omegas, phases=phases,
        residual=float(np.sqrt(np.mean(sol.fun ** 2))),
        times=times.copy(), values=values.copy(), converged=bool(sol.success))


@dataclass(frozen=True)
class FitEvaluation:
    trajectory: Trajectory
    reference: Trajectory
    discrepancy: float  # max_t (F_reference - F_fit)


def evaluate_fit(fit: HarmonicFit, schedule: BandCoefficients,
                 reference: Trajectory) -> FitEvaluation:
    """Drive the evolution with the fitted band-1 pulse and compare it with
    `reference`, the trajectory of `schedule` (e.g. ``optimize``'s).

    The fit replaces the band-1 values at the schedule's segment midpoints
    (same time discretization as the optimized schedule) and is propagated
    on the reference's grid, so a fit that reproduces the series exactly
    yields an identical trajectory.
    """
    fitted = schedule.with_band_values(fit.band, fit.evaluate(schedule.midpoints))
    fitted_traj = evolve(reference.params, AnsatzDrive(fitted), reference.times)
    discrepancy = float(np.max(reference.fidelity - fitted_traj.fidelity))
    return FitEvaluation(fitted_traj, reference, discrepancy)
