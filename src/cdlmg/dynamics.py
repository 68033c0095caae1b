"""Schrödinger evolution under the ramped LMG Hamiltonian plus a chosen
driving protocol, with fidelity tracked against the instantaneous ground
state.

The integrator steps with the midpoint propagator exp(-i H(t_mid) dt),
applied to the state through a Chebyshev expansion summed to machine
precision (`_chebyshev_step`), which needs only products of the step's block
with a vector and no eigensolve.  It is the one step kernel: `evolve` runs
it on the drive's block, and the optimizer's search (`ansatz`) on a block
upper-triangular extension of it that carries the gradient along.  Both the
bare Hamiltonian and every driving protocol here preserve excitation-number
parity, and the initial state is the tracked ground state (parity-pure), so
the evolution is carried out inside that parity block; this is an exact
reduction, not an approximation.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.special import jv

from . import output
from .band_operators import decomposition_gate
from .counterdiabatic import band_table, exact_cd, hp_coefficient, sector_cd_block
from .errors import ConvergenceError, NormError, ValidationError
from .spectrum import sector_ground_series
from .spin_algebra import ModelParams, SectorFrame, parity_frames

__all__ = [
    "Bare",
    "ExactCD",
    "Truncated",
    "HPCorrection",
    "AnsatzDrive",
    "DecomposedDrive",
    "Trajectory",
    "evolve",
    "fidelity",
    "parse_protocol",
]

DEFAULT_STEPS = 4000
CONVERGENCE_TOL = 1e-6
MAX_REFINEMENTS = 3
NORM_TOL = 1e-8
_LOG_EPS = math.log(np.finfo(float).eps)


# --------------------------------------------------------------------------
# protocols

@dataclass(frozen=True)
class Bare:
    label: str = "bare"


@dataclass(frozen=True)
class ExactCD:
    label: str = "exact_cd"


@dataclass(frozen=True)
class Truncated:
    bands: int

    def __post_init__(self):
        if self.bands < 1:
            raise ValidationError(f"band count must be >= 1, got {self.bands}")

    @property
    def label(self) -> str:
        return f"truncated({self.bands})"


@dataclass(frozen=True)
class HPCorrection:
    label: str = "hp"


@dataclass(frozen=True)
class AnsatzDrive:
    coefficients: "BandCoefficients"  # noqa: F821  (lives in cdlmg.ansatz)

    @property
    def label(self) -> str:
        return f"ansatz(k={self.coefficients.num_bands})"


@dataclass(frozen=True)
class DecomposedDrive(Truncated):
    """The truncated(k) drive, gated at every midpoint by the operator
    decomposition: bands 1..k of the full exact term must be rebuilt by their
    dressing families to RECONSTRUCTION_TOL, else DecompositionError."""

    @property
    def label(self) -> str:
        return f"decomposed({self.bands})"


Protocol = Union[Bare, ExactCD, Truncated, HPCorrection, AnsatzDrive, DecomposedDrive]

_PROTOCOL_ALIASES = {"bare": Bare, "exact": ExactCD, "exact_cd": ExactCD, "hp": HPCorrection}


def parse_protocol(spec) -> Protocol:
    """Accept protocol objects or CLI strings like 'bare', 'exact_cd',
    'truncated:2', 'decomposed:1'."""
    if not isinstance(spec, str):
        return spec
    name, _, arg = spec.partition(":")
    if name in _PROTOCOL_ALIASES:
        if arg:
            raise ValidationError(f"protocol {name!r} takes no argument")
        return _PROTOCOL_ALIASES[name]()
    if name in ("truncated", "decomposed"):
        if not arg:
            raise ValidationError(f"protocol {name!r} needs a band count, e.g. '{name}:1'")
        try:
            k = int(arg)
        except ValueError as exc:
            raise ValidationError(f"bad band count {arg!r} for protocol {name!r}") from exc
        return Truncated(k) if name == "truncated" else DecomposedDrive(k)
    raise ValidationError(
        f"unknown protocol {spec!r}; expected bare, exact_cd, truncated:k, hp, decomposed:k")


# --------------------------------------------------------------------------
# drive assembly and the step kernel

def _drive(frame: SectorFrame, protocol: Protocol):
    """Set a protocol up for one run.  Returns drive(t_mid, h, hdot), the
    block of the driving term at one midpoint, or None for no drive."""
    if isinstance(protocol, Bare):
        return lambda t, h, hdot: None
    if isinstance(protocol, ExactCD):
        return lambda t, h, hdot: sector_cd_block(frame, h, hdot)
    if isinstance(protocol, Truncated):
        keep = frame.truncation_mask(protocol.bands)
        if isinstance(protocol, DecomposedDrive):
            check = decomposition_gate(frame.params.sector, protocol.bands)
            frames = parity_frames(frame.params)
        else:
            check = None

        def truncated(t, h, hdot):
            if check is None:
                return np.where(keep, sector_cd_block(frame, h, hdot), 0.0)
            full = exact_cd(frame.params, h, hdot, frames=frames)
            check(band_table(full))
            return np.where(keep, full[frame.ix], 0.0)
        return truncated
    if isinstance(protocol, HPCorrection):
        def hp(t, h, hdot):
            c = hp_coefficient(frame.params.n, frame.params.gamma, h, hdot)
            return None if c == 0.0 else c * frame.b0_block
        return hp
    if isinstance(protocol, AnsatzDrive):
        coefficients = protocol.coefficients
        patterns = frame.band_patterns(coefficients.num_bands)
        return lambda t, h, hdot: np.tensordot(
            coefficients.values_at(t), patterns, axes=(0, 0))
    raise ValidationError(f"unsupported protocol {protocol!r}")


def _chebyshev_step(h: np.ndarray, dt: float, psi: np.ndarray):
    """exp(-i h dt) psi for a Hermitian block h, and the number of Chebyshev
    terms summed (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).

    Gershgorin discs put the spectrum inside [c - r, c + r].  With
    x = (h - c)/r and z = r dt,
    exp(-i h dt) = exp(-i c dt) sum_k e_k (-i)^k J_k(z) T_k(x), e_0 = 1 and
    e_k = 2, which holds for z of either sign.  Since |T_k(x) psi| <= |psi| and
    |J_k(z)| <= (|z|/2)^k / k!, terms are added until that bound falls below
    machine epsilon; h = c*I takes the zeroth term alone.

    h may also be block upper-triangular with one Hermitian H on every
    diagonal block, as in the optimizer's gradient (`ansatz`).  Its spectrum
    is H's, so the Gershgorin interval of the whole matrix still bounds it.
    The off-diagonal blocks of T_k(x) grow at most as k^2 (Markov's
    inequality), far slower than the bound on J_k falls, so the same
    stopping rule holds.
    """
    diag = np.diagonal(h).real
    radius = np.abs(h).sum(axis=1) - np.abs(diag)
    lo, hi = np.min(diag - radius), np.max(diag + radius)
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    z = half * dt
    terms, log_bound = 0, 0.0  # log of the bound on |J_terms(z)|
    while _LOG_EPS <= log_bound < math.inf:  # a NaN or infinite z stops at once
        terms += 1
        log_bound += math.log(0.5 * abs(z) / terms) if z else -math.inf
    k = np.arange(terms)
    coeffs = np.where(k == 0, 1.0, 2.0) * (-1j) ** k * jv(k, z) * np.exp(-1j * centre * dt)
    if terms == 1:
        return coeffs[0] * psi, terms
    # the recurrence T_k = 2x T_{k-1} - T_{k-2} on two real columns when h is
    # real, so that a real block is never cast to complex
    dim = len(psi)
    two_x = h * (2.0 / half)
    two_x.flat[::dim + 1] -= 2.0 * centre / half
    work = np.empty((terms, dim, 2 if np.isrealobj(h) else 1), dtype=h.dtype)
    work[0] = psi.view(float).reshape(dim, 2) if np.isrealobj(h) else psi[:, None]
    np.matmul(two_x, work[0], out=work[1])
    work[1] *= 0.5
    for j in range(2, terms):
        np.matmul(two_x, work[j - 1], out=work[j])
        work[j] -= work[j - 2]
    return coeffs @ work.view(complex).reshape(terms, dim), terms


# --------------------------------------------------------------------------
# trajectories

@dataclass(frozen=True)
class Trajectory:
    """Result of one propagation: grid and fidelity series."""

    times: np.ndarray
    h_values: np.ndarray
    fidelity: np.ndarray
    states: Optional[np.ndarray] = field(default=None, repr=False)
    protocol: str = ""
    params: Optional[ModelParams] = None
    info: dict = field(default_factory=dict)

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelity[-1])

    @property
    def min_fidelity(self) -> float:
        return float(self.fidelity.min())

    def to_csv(self, path) -> None:
        output.write_csv(path, ["t", "h", "fidelity"],
                         zip(self.times, self.h_values, self.fidelity))


def fidelity(state: np.ndarray, ground: np.ndarray) -> float:
    """Squared overlap |<ground|state>|^2 with a single tracked vector."""
    return float(abs(np.vdot(ground, state)) ** 2)


class _TrackedRun:
    """What `evolve` and `ansatz.optimize` share for one run of params.ramp
    on `grid`, an integer step count (uniform grid) or an explicit 1-D array
    of at least two times inside the ramp's domain: the tracked block, the
    field at the grid points, the field and its rate at the step midpoints,
    and the sign-aligned ground series with its first vector as the start
    state.
    Each step's H0 block is built when the step runs, from
    ``frame.h0_blocks(h_mid[k])``."""

    def __init__(self, params: ModelParams, grid):
        ramp = params.ramp
        if ramp is None:
            raise ValidationError("the model has no ramp (ModelParams.ramp)")
        if isinstance(grid, (int, np.integer)) and not isinstance(grid, bool):
            self.times = ramp.grid(int(grid))
        else:
            if np.ndim(grid) != 1 or len(grid) < 2:
                raise ValidationError("grid must be an int or a 1-D array of >= 2 times")
            self.times = np.asarray(grid, dtype=float)
            if not np.all((ramp.t_start <= self.times) & (self.times <= ramp.t_end)):
                raise ValidationError(
                    f"grid times must be finite and inside the ramp's "
                    f"[{ramp.t_start}, {ramp.t_end}]")
        self.frame = SectorFrame.tracked(params)
        self.h_values = np.atleast_1d(ramp.h(self.times))
        self.grounds, _ = sector_ground_series(self.frame, self.h_values)
        self.t_mid = 0.5 * (self.times[:-1] + self.times[1:])
        self.h_mid = np.atleast_1d(ramp.h(self.t_mid))
        self.hd_mid = np.atleast_1d(ramp.hdot(self.t_mid))
        self.start_state = self.grounds[0].astype(complex)


def _propagate(params: ModelParams, protocol: Protocol, grid,
               store_states: bool) -> Trajectory:
    t0 = _time.perf_counter()
    run = _TrackedRun(params, grid)
    drive = _drive(run.frame, protocol)
    times = run.times
    dts = np.diff(times)

    psi = run.start_state
    fid = np.empty(len(times))
    fid[0] = fidelity(psi, run.grounds[0])
    states = np.empty((len(times), run.frame.dim), dtype=complex) if store_states else None
    if store_states:
        states[0] = psi
    norm_err = 0.0
    matvecs = 0
    for k in range(len(run.t_mid)):
        h0 = run.frame.h0_blocks(run.h_mid[k])[0]
        block = drive(run.t_mid[k], run.h_mid[k], run.hd_mid[k])
        h_tot = h0 if block is None else h0 + block
        psi, terms = _chebyshev_step(h_tot, dts[k], psi)
        matvecs += terms
        fid[k + 1] = fidelity(psi, run.grounds[k + 1])
        err = abs(np.linalg.norm(psi) - 1.0)
        if not err <= NORM_TOL:  # a NaN norm fails too
            raise NormError(f"state norm drifted by {err:.2e} > {NORM_TOL:.0e} "
                            f"at step {k + 1} of {len(run.t_mid)}")
        norm_err = max(norm_err, err)
        if store_states:
            states[k + 1] = psi

    info = {
        "steps": len(run.t_mid),
        "dt": float(np.max(np.abs(dts))),
        "max_norm_error": norm_err,
        "matvecs": matvecs,
        "wall_time_s": _time.perf_counter() - t0,
    }
    return Trajectory(
        times=times,
        h_values=run.h_values,
        fidelity=fid,
        states=run.frame.embed(states) if store_states else None,
        protocol=getattr(protocol, "label", str(protocol)),
        params=params,
        info=info,
    )


def evolve(params: ModelParams, protocol, grid=DEFAULT_STEPS, *,
           store_states: bool = False, converge: bool = False) -> Trajectory:
    """Propagate the tracked ground state of H0(h(t_start)) along params.ramp.

    `grid` is an integer step count (uniform grid) or an explicit time
    array.  With ``store_states=True`` the trajectory keeps the state at
    every grid point (full basis).  With ``converge=True`` the step count is doubled until
    the final fidelity changes by less than CONVERGENCE_TOL, at most
    MAX_REFINEMENTS times, and the converged run is returned; failure to
    converge raises ConvergenceError with a suggested step size.  A state
    norm drifting from 1 by more than NORM_TOL raises NormError.
    """
    protocol = parse_protocol(protocol)
    if converge and not np.isscalar(grid):
        raise ValidationError("converge=True requires an integer step count")
    traj = _propagate(params, protocol, grid, store_states)
    if not converge:
        return traj
    steps = traj.info["steps"]
    for _ in range(MAX_REFINEMENTS):
        finer = _propagate(params, protocol, 2 * steps, store_states)
        delta = abs(finer.final_fidelity - traj.final_fidelity)
        if delta < CONVERGENCE_TOL:
            finer.info["converged"] = True
            finer.info["convergence_delta"] = delta
            return finer
        traj, steps = finer, 2 * steps
    raise ConvergenceError(
        f"final fidelity still changing by {delta:.2e} after {steps} steps; "
        f"try dt <= {params.ramp.duration / (4 * steps):.2e}")
