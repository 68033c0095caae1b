"""Schrödinger evolution under the ramped LMG Hamiltonian plus a chosen
driving protocol, with fidelity tracked against the instantaneous ground
state.

The integrator steps with the midpoint propagator exp(-i H(t_mid) dt),
applied to the state through a Chebyshev expansion summed to machine
precision (`_StepPlan`), which needs only products of the step's block with
a vector and no eigensolve.  One stepping loop (`_steps`) runs it for
`evolve_all`, on the drive's blocks, and for the optimizer's search
(`ansatz`), on a block upper-triangular extension of them that carries the
gradient along.  A protocol has a ``label`` and ``setup(run)``, which
returns (chunk, w, write): write(blocks, lo, hi), for hi - lo <= chunk,
writes the blocks H0 + drive of steps lo..hi-1 at the `TrackedRun`'s
midpoints into a view of the stepping loop's buffers: a `BandMatrix` stack
(steps, 2w+1, dim) for band half-width w (H0 with the hp, truncated or
ansatz drive), whose products cost O(w dim), or for w None dense blocks
(steps, dim, dim), as exact_cd's (H0's tridiagonal as the real part, the
CD term i (V W) V^T from `counterdiabatic.sector_cd_block` as the
imaginary part) and the optimizer's extension.  `evolve_all` steps several
protocols on one run in lockstep; `evolve` is its one-protocol case.

The loop plans a run's steps a chunk at a time, and the protocols that plan
one chunk size step as one stream.  Its members of one band width are
written into one stack (steps, members, 2w+1, dim), and one pass gives
every step's and member's Gershgorin interval, term count, Bessel
coefficients and scaled block; each step then runs one recurrence for the
whole stack (`_planned_step`), in which every member sees the arithmetic of
its step planned alone.  A dense member is planned on its own.  One
rule sizes every chunk (`_chunk_steps`): at most CHUNK_STEPS steps and
CHUNK_BYTES of blocks; the readers of the CD factors plan the run's window
of them (`TrackedRun.cd_chunk`), so that a midpoint's eigenproblem is solved
once for all of them.  Both the bare Hamiltonian and
every driving protocol here preserve excitation-number parity, and the
initial state is the tracked ground state (parity-pure), so the evolution
is carried out inside that parity block; this is an exact reduction, not
an approximation.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from . import output
from .band_operators import decomposition_gate
from .counterdiabatic import (_cd_factors, hp_coefficient, parity_band_table, sector_cd_bands,
                             sector_cd_block)
from .errors import ConvergenceError, NormError, ValidationError
from .spectrum import sector_ground_series
from .spin_algebra import BandMatrix, ModelParams, SectorFrame

__all__ = [
    "Bare",
    "ExactCD",
    "Truncated",
    "HPCorrection",
    "AnsatzDrive",
    "DecomposedDrive",
    "Trajectory",
    "TrackedRun",
    "evolve",
    "evolve_all",
    "fidelity",
    "parse_protocol",
]

DEFAULT_STEPS = 4000
CONVERGENCE_TOL = 1e-6
MAX_REFINEMENTS = 3
NORM_TOL = 1e-8
# A chunk of steps planned in one pass (`_steps`) holds at most CHUNK_STEPS
# steps and CHUNK_BYTES of stacked blocks.  On bare and hp at 51 and 151
# states, 32 steps ran within 10% of 64 and 128 per step, and peaked at about
# 60% and 35% of their memory.  The byte bound caps the dense blocks of
# exact_cd and of the optimizer's gradient, and so the run's window of CD
# factors (`TrackedRun.cd_chunk`).  It holds CHUNK_STEPS of exact_cd's blocks
# at the presets' 51 states (1.33 MB), so that fig1a's CD readers plan the
# chunks of bare and hp and truncated:1 stacks with them: its 1000-step run
# plans 32 chunks per stream where it planned 167 at 256 KiB.  2 MiB
# measured no faster at 64 and 151 states or in the optimizer at N=80, k=4,
# and peaked 2 MB higher there.
CHUNK_STEPS = 32
CHUNK_BYTES = CHUNK_STEPS * 51 * 51 * 16
_LOG_EPS = math.log(np.finfo(float).eps)
# Miller's recurrence (`_bessel_coefficients`) starts this many orders above
# a step's term count.  Against mpmath at 50 digits, for z up to 1000, the
# start's own error was 6e-18 at 0 orders and 1.6e-21 at 4.
_MILLER_PAD = 4
# One order of the recurrence took about 2 us as one numpy pass over a chunk
# of 1 to 32 steps, and 0.11 to 0.2 us per step on Python floats (2-vCPU
# host), so a chunk runs it in numpy only when its steps' orders add up to
# this many times the longest's.
_VECTOR_STEPS = 16
_UNIT_POWERS = np.array([2, -2j, -2, 2j])  # e_k (-i)^k for k = 0, 1, 2, 3 mod 4, k > 0


# --------------------------------------------------------------------------
# protocols (see the module docstring for what one provides)

def _band_setup(run: "TrackedRun", w: int, drive):
    """`setup` of a band protocol of half-width w, whose write zeroes the
    view (steps, 2w+1, dim), writes H0's bands and lets drive(data, lo, hi)
    add steps lo..hi-1's drive."""
    frame = run.frame

    def write(data, lo, hi):
        data[:] = 0
        data[:, w - 1:w + 2] = frame.h0_bands(run.h_mid[lo:hi]).data
        drive(data, lo, hi)
    return _chunk_steps((2 * w + 1) * frame.dim * 16), w, write


@dataclass(frozen=True)
class Bare:
    label = "bare"

    def setup(self, run):
        return _band_setup(run, 1, lambda data, lo, hi: None)


@dataclass(frozen=True)
class ExactCD:
    label = "exact_cd"

    def setup(self, run):
        frame, dim = run.frame, run.frame.dim

        def exact(blocks, lo, hi):
            for block, factors in zip(blocks, run.cd_factors(lo, hi)):
                sector_cd_block(factors, out=block)
            flat = blocks.reshape(hi - lo, -1).real
            flat[:, ::dim + 1] = frame.h0_diagonals(run.h_mid[lo:hi])
            flat[:, 1::dim + 1] = flat[:, dim::dim + 1] = frame.h0_off
        return run.cd_chunk, None, exact


@dataclass(frozen=True)
class Truncated:
    bands: int

    def __post_init__(self):
        if self.bands < 1:
            raise ValidationError(f"band count must be >= 1, got {self.bands}")

    @property
    def label(self) -> str:
        return f"truncated({self.bands})"

    def setup(self, run):
        drive = self._drive(run.frame)

        def truncated(data, lo, hi):
            for row, factors, h, hdot in zip(data, run.cd_factors(lo, hi),
                                             run.h_mid[lo:hi], run.hd_mid[lo:hi]):
                row += drive(factors, h, hdot).data
        # sector_cd_bands' width; the chunk is the run's window of CD factors
        _, w, write = _band_setup(run, min(self.bands, run.frame.dim - 1), truncated)
        return run.cd_chunk, w, write

    def _drive(self, frame):
        """The drive at one midpoint, drive(factors, h, hdot), from the
        tracked block's CD factors there."""
        return lambda factors, h, hdot: sector_cd_bands(factors, self.bands)


@dataclass(frozen=True)
class HPCorrection:
    label = "hp"

    def setup(self, run):
        n, gamma = run.params.n, run.params.gamma

        def hp(data, lo, hi):
            c = [hp_coefficient(n, gamma, h, hdot)
                 for h, hdot in zip(run.h_mid[lo:hi], run.hd_mid[lo:hi])]
            data += np.array(c)[:, None, None] * run.frame.b0_bands.data
        return _band_setup(run, 1, hp)


@dataclass(frozen=True)
class AnsatzDrive:
    coefficients: "BandCoefficients"  # noqa: F821  (lives in cdlmg.ansatz)

    @property
    def label(self) -> str:
        return f"ansatz(k={self.coefficients.num_bands})"

    def setup(self, run):
        coefficients = self.coefficients
        k = coefficients.num_bands
        run.frame.check_bands(k)
        w = max(k, 1)

        def ansatz(data, lo, hi):
            data[:, w - k:w + k + 1] += run.frame.ansatz_bands(
                coefficients.values[coefficients.segment_of(run.t_mid[lo:hi])]).data
        return _band_setup(run, w, ansatz)


@dataclass(frozen=True)
class DecomposedDrive(Truncated):
    """The truncated(k) drive, gated at every midpoint by the operator
    decomposition: bands 1..k of the full exact term must be rebuilt by their
    dressing families to RECONSTRUCTION_TOL, else DecompositionError."""

    @property
    def label(self) -> str:
        return f"decomposed({self.bands})"

    def _drive(self, frame):
        # the gate reads bands 1..k of both parity blocks; the tracked
        # block's are the drive
        k = self.bands
        check = decomposition_gate(frame.params.sector, k)
        other = SectorFrame(frame.params, 1 - frame.idx[0])

        def drive(factors, h, hdot):
            bands = sector_cd_bands(factors, k)
            blocks = [(frame, bands)]
            if other.dim >= 2:
                blocks.append((other, sector_cd_bands(_cd_factors(other, h, hdot), k)))
            check(parity_band_table(blocks))
            return bands
        return drive


_PROTOCOL_ALIASES = {"bare": Bare, "exact": ExactCD, "exact_cd": ExactCD, "hp": HPCorrection}


def parse_protocol(spec):
    """Accept protocol objects or CLI strings like 'bare', 'exact_cd',
    'truncated:2', 'decomposed:1'; anything else raises ValidationError."""
    if not isinstance(spec, str):
        if not hasattr(spec, "setup"):
            raise ValidationError(f"a protocol is a name or a protocol object, got {spec!r}")
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
# the step kernel

def _chunk_steps(block_bytes: int) -> int:
    """Steps per chunk for blocks of block_bytes each, one at least."""
    return max(1, min(CHUNK_STEPS, CHUNK_BYTES // block_bytes))


def _gershgorin(h) -> tuple:
    """Interval holding the spectrum of the Hermitian h, a `BandMatrix` or a
    dense matrix, from Gershgorin's discs: its diagonal plus and minus the
    absolute off-diagonal row sums.  A stack of matrices (leading axes)
    gives one interval each."""
    if isinstance(h, BandMatrix):
        diag, rows = h.data[..., h.width, :].real, np.add.reduce(np.abs(h.data), axis=-2)
    else:
        diag, rows = np.diagonal(h, axis1=-2, axis2=-1).real, np.abs(h).sum(axis=-1)
    radius = rows - np.abs(diag)
    return (diag - radius).min(axis=-1), (diag + radius).max(axis=-1)


def _term_count(z: float) -> int:
    """Chebyshev terms summed for z = r dt: terms are added until the bound
    (|z|/2)^k / k! on |J_k(z)| falls below machine epsilon."""
    terms, log_bound = 0, 0.0  # log of the bound on |J_terms(z)|
    while _LOG_EPS <= log_bound < math.inf:  # a NaN or infinite z stops at once
        terms += 1
        log_bound += math.log(0.5 * abs(z) / terms) if z else -math.inf
    return terms


def _bessel_coefficients(z: np.ndarray, terms: list) -> np.ndarray:
    """Row j holds e_k (-i)^k J_k(z_j), e_0 = 1 and e_k = 2, for k up to the
    largest term count, by Miller's backward recurrence (Gautschi, SIAM
    Rev. 9, 24 (1967)): the ratios r_k = J_k/J_{k-1} =
    z/(2k - z r_{k+1}), started from r = 0 above order terms[j] +
    _MILLER_PAD; their running products J_k/J_0; and the normalization
    J_0 + 2 sum_k J_2k = 1, summed in ascending order.  z = 0 gives [1] and
    a NaN z NaN.  A step's values depend on its own z and term count alone:
    the ratios take the same operations whether they run over the whole
    chunk in numpy or step by step on Python floats (`_VECTOR_STEPS`), and
    orders above a step's start are exact zeros."""
    top = [t + _MILLER_PAD for t in terms]
    orders = np.arange(max(top) + 1)
    ratios = np.zeros((len(orders), len(top)))  # row k holds every step's r_k
    if sum(top) >= _VECTOR_STEPS * len(orders):
        zk = np.where(orders[:, None] <= top, z, 0.0)
        r = np.zeros(len(top))
        for k in range(len(orders) - 1, 0, -1):
            r = np.divide(zk[k], 2.0 * k - zk[k] * r, out=ratios[k])
    else:
        for j, (x, start) in enumerate(zip(z.tolist(), top)):
            r, column = 0.0, []
            for k in range(start, 0, -1):
                r = x / (2.0 * k - x * r)
                column.append(r)
            ratios[start:0:-1, j] = column
    ratios[0] = 1.0
    bessel = np.multiply.accumulate(ratios, axis=0)
    bessel /= 1.0 + 2.0 * np.add.accumulate(bessel[2::2], axis=0)[-1]
    most = max(terms)
    units = _UNIT_POWERS[orders[:most] % 4]
    units[0] = 1.0
    # C order: a step's sum by BLAS (`_planned_step`) depends on the row's
    # stride, which would otherwise be the chunk's length
    return np.multiply(bessel[:most].T, units, order="C")


class _StepPlan:
    """The Chebyshev steps exp(-i h_jm dt_j) (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967 (1984)) of a batch of Hermitian h_jm, step j of member
    m: a complex `BandMatrix` stack (steps, members, 2w+1, dim), or dense
    blocks (steps, members, D, D) of one member.

    Gershgorin discs put the spectrum of h inside [c - r, c + r].  With
    x = (h - c)/r and z = r dt, exp(-i h dt) = exp(-i c dt) sum_k e_k
    (-i)^k J_k(z) T_k(x), e_0 = 1 and e_k = 2, for z of either sign.
    Since |T_k(x) psi| <= |psi| and |J_k(z)| <= (|z|/2)^k / k!, terms are
    added until that bound falls below machine epsilon (`_term_count`);
    h = c*I takes the zeroth term alone.  A dense h may also be block
    upper-triangular with one Hermitian H on every diagonal block, as in
    the optimizer's gradient (`ansatz`).  Its spectrum is H's, so the
    Gershgorin interval of the whole matrix still bounds it.  The
    off-diagonal blocks of T_k(x) grow at most as k^2 (Markov's
    inequality), far slower than the bound on J_k falls, so the same
    stopping rule holds.

    The plan holds each step's term counts ``terms[j][m]`` and coefficients
    ``coeffs[j, m, :terms[j][m]]``, all from one `_bessel_coefficients`
    call; the scaled operators 2x_jm = scale_jm h_jm - shift_jm, written over
    the h_jm in place; and one term buffer ``work`` (members, terms, dim),
    sized by the largest term count, whose rows ``rows[k]`` (members, dim)
    hold every member's term k, with ``product(two_x, src, dst)``, which
    writes 2x times rows[src] to rows[dst].  `_planned_step` runs one
    step's recurrence for all members at once; each member's entries see
    the arithmetic of that step planned alone, so results depend neither
    on the chunks nor on the other members."""

    def __init__(self, h, dts: np.ndarray):
        lo, hi = _gershgorin(h)
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        dts = dts[:, None]
        z = half * dts
        # term counts by a scalar loop per step: for a batch of one, as
        # large dense blocks are planned, it took 2 us against 14 us for a
        # vectorized count at 51 states
        self.terms = [[_term_count(x) for x in row] for row in z.tolist()]
        counts = [t for row in self.terms for t in row]
        most = max(counts)
        self.coeffs = (_bessel_coefficients(z.ravel(), counts).reshape(z.shape + (-1,))
                       * np.exp(-1j * centre * dts)[..., None])
        if most == 1:
            return
        # a one-term step's zero or NaN half-width scales its whole block to
        # NaN, which the recurrence its stack's other members run carries
        # without an invalid operation, and which its own sum never reads
        with np.errstate(divide="ignore", invalid="ignore"):
            scale, shift = 2.0 / half, 2.0 * centre / half
            if isinstance(h, BandMatrix):
                self._band_terms(h, scale, shift, most)
            else:
                self._dense_terms(h, scale, shift, most)

    def _dense_terms(self, h, scale, shift, terms):
        steps, members, dim = h.shape[0], h.shape[1], h.shape[-1]
        self.two_x = np.multiply(h, scale.astype(complex)[..., None, None], out=h)
        self.two_x.reshape(steps, members, -1)[..., ::dim + 1] -= shift[..., None]
        self.work = np.empty((members, terms, dim), dtype=complex)
        self.rows = list(self.work.swapaxes(0, 1))
        vectors = list(self.work[0])  # one member: its dense block's products

        def product(two_x, src, dst):
            np.matmul(two_x[0], vectors[src], out=vectors[dst])
        self.product = product

    def _band_terms(self, h, scale, shift, terms):
        """Each member's term rows are padded by w zeros on each side, so
        that row src seen through a sliding window of width dim holds, in
        window w + o, the entries x[i + o] that offset o multiplies: a
        product is one multiply of the step's stack by those windows and
        one sum over the 2w+1 offsets, for all members.  The scaled stack
        is complex even when real: complex products measured faster than
        mixed real-complex ones at 51 to 501 states, and than real ones on
        split real and imaginary parts at 51."""
        w, members, dim = h.width, h.data.shape[1], h.data.shape[-1]
        self.two_x = np.multiply(h.data, scale.astype(complex)[..., None, None], out=h.data)
        self.two_x[:, :, w] -= shift[..., None]
        padded = np.zeros((members, terms, dim + 2 * w), dtype=complex)
        member, row, step = padded.strides
        windows = list(np.ndarray((terms, members, 2 * w + 1, dim), complex, padded, 0,
                                  (row, member, step, step)))
        self.work = padded[..., w:w + dim]
        self.rows = rows = list(self.work.swapaxes(0, 1))
        scratch = np.empty((members, 2 * w + 1, dim), dtype=complex)

        def product(two_x, src, dst):
            np.multiply(two_x, windows[src], out=scratch)
            np.add.reduce(scratch, axis=1, out=rows[dst])
        self.product = product


def _planned_step(plan: _StepPlan, j: int, psi: np.ndarray):
    """Step j of the plan applied to the members' states psi (members, dim):
    exp(-i h_jm dt_j) psi_m by the recurrence T_k = 2x T_{k-1} - T_{k-2},
    run once for all members up to the largest term count, each member
    summing only its own terms; returns the states and each member's number
    of terms summed."""
    terms, coeffs = plan.terms[j], plan.coeffs[j]
    most = max(terms)
    if most > 1:
        two_x, rows, product = plan.two_x[j], plan.rows, plan.product
        rows[0][:] = psi
        product(two_x, 0, 1)
        rows[1] *= 0.5
        for i in range(2, most):
            product(two_x, i - 1, i)
            rows[i] -= rows[i - 2]
    out = np.empty_like(psi)
    for m, t in enumerate(terms):
        if t == 1:
            np.multiply(coeffs[m, 0], psi[m], out=out[m])
        else:
            np.matmul(coeffs[m, :t], plan.work[m, :t], out=out[m])
    return out, terms


def _steps(members: list, dts: np.ndarray, psi: np.ndarray, chunk: int):
    """Step the members, each from the state psi, in lockstep: yield after
    each step exp(-i h_jm dt_j) the list of every member's (state, terms
    summed), in the order of `members`.  Member m is a protocol's (w, write)
    (module docstring), dim = len(psi), written `chunk` steps at a time.
    Members of one band width step as one stack, a dense member alone.

    The loop owns every block: one buffer (steps, members, ...) per stack
    for the whole run, which each chunk overwrites once the previous chunk's
    plan (which scaled it in place) is done.  New blocks per chunk, or a plan
    freed before the next one is built, let the heap give pages back and
    fault them in again: exact_cd faulted 578 pages against 35 over five
    200-step runs at N=100 (`bench/step_kernel.py`), and an optimizer
    evaluation 150 more at N=80, k=2, and took 20% longer."""
    dim, steps = len(psi), min(chunk, len(dts))
    groups = {}  # (w, -1) for band width w, (None, m) for dense member m: its members
    for m, (w, _) in enumerate(members):
        groups.setdefault((w, -1 if w is not None else m), []).append(m)
    stacks = []  # (members, w, buffer)
    for (w, _), group in groups.items():
        shape = (dim, dim) if w is None else (2 * w + 1, dim)
        stacks.append((group, w, np.empty((steps, len(group)) + shape, complex)))
    states = [np.array([psi] * len(group)) for group, _, _ in stacks]
    terms = [None] * len(stacks)
    slots = sorted((m, s, row) for s, (group, _, _) in enumerate(stacks)
                   for row, m in enumerate(group))
    for lo in range(0, len(dts), chunk):
        hi = min(lo + chunk, len(dts))
        for group, _, buffer in stacks:
            for slot, m in enumerate(group):
                members[m][1](buffer[:hi - lo, slot], lo, hi)
        plans = [_StepPlan(buffer[:hi - lo] if w is None else BandMatrix(buffer[:hi - lo]),
                           dts[lo:hi]) for _, w, buffer in stacks]
        for j in range(hi - lo):
            for s, plan in enumerate(plans):
                states[s], terms[s] = _planned_step(plan, j, states[s])
            yield [(states[s][row], terms[s][row]) for _, s, row in slots]


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
        output.write_csv(path, ["t", "h", "fidelity"], [self.times, self.h_values, self.fidelity])


def fidelity(state: np.ndarray, ground: np.ndarray) -> float:
    """Squared overlap |<ground|state>|^2 with a single tracked vector."""
    return float(abs(np.vdot(ground, state)) ** 2)


class TrackedRun:
    """What the propagations of one run of params.ramp on `grid`, an integer
    step count (uniform grid) or an explicit 1-D array of at least two times
    inside the ramp's domain, share: the tracked block, the field at the
    grid points, the field and its rate at the step midpoints, and the
    sign-aligned ground series with its first vector as the start state.
    `evolve_all` steps its protocols on one, as `ansatz.optimize` steps its
    segments on one.  The protocols that read `cd_factors` plan chunks of
    ``cd_chunk`` steps, the steps whose factors (V and V W, real) take the
    bytes of as many dense complex blocks, so that they all read the same
    windows."""

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
        self.params = params
        self.frame = SectorFrame.tracked(params)
        self.h_values = np.atleast_1d(ramp.h(self.times))
        self.grounds, _ = sector_ground_series(self.frame, self.h_values)
        self.t_mid = 0.5 * (self.times[:-1] + self.times[1:])
        self.h_mid = np.atleast_1d(ramp.h(self.t_mid))
        self.hd_mid = np.atleast_1d(ramp.hdot(self.t_mid))
        self.start_state = self.grounds[0].astype(complex)
        self.cd_chunk = _chunk_steps(self.frame.dim ** 2 * 16)
        self._window, self._factors = None, []

    def cd_factors(self, lo: int, hi: int) -> list:
        """The CD factors (V, V W) of the tracked block at midpoints lo..hi-1,
        solved on the first read of that window and kept until another
        window is read, which replaces them a midpoint at a time: freed whole,
        a window went back to the system and was faulted in again (27726
        faults against 1411 over five 60-step truncated:1 runs at N=300)."""
        if self._window != (lo, hi):
            self._window = None
            del self._factors[hi - lo:]
            for i, (h, hdot) in enumerate(zip(self.h_mid[lo:hi], self.hd_mid[lo:hi])):
                del self._factors[i:i + 1]
                self._factors.insert(i, _cd_factors(self.frame, h, hdot))
            self._window = (lo, hi)
        return self._factors


def _propagate(run: TrackedRun, protocols: list, store_states: bool) -> list:
    """Step the protocols along the run in lockstep, one trajectory each: one
    `_steps` stream per chunk size, its members the protocols that plan it."""
    times, count = run.times, len(protocols)
    dts = np.diff(times)
    steps = len(dts)
    labels = [p.label for p in protocols]

    fid = np.empty((count, len(times)))
    fid[:, 0] = fidelity(run.start_state, run.grounds[0])
    states = np.empty((count, len(times), run.frame.dim), dtype=complex) if store_states else None
    if store_states:
        states[:, 0] = run.start_state
    norm_err, matvecs = [0.0] * count, [0] * count
    groups = {}  # chunk -> the protocols that plan it, and their (w, write)
    for i, p in enumerate(protocols):
        chunk, w, write = p.setup(run)
        groups.setdefault(chunk, []).append((i, (w, write)))
    order = [i for group in groups.values() for i, _ in group]
    streams = [_steps([member for _, member in group], dts, run.start_state, chunk)
               for chunk, group in groups.items()]
    for k, stepped in enumerate(zip(*streams), 1):
        for i, (psi, terms) in zip(order, chain.from_iterable(stepped)):
            matvecs[i] += terms
            fid[i, k] = fidelity(psi, run.grounds[k])
            err = abs(np.linalg.norm(psi) - 1.0)
            if not err <= NORM_TOL:  # a NaN norm fails too
                raise NormError(f"{labels[i]}: state norm drifted by {err:.2e} > "
                                f"{NORM_TOL:.0e} at step {k} of {steps}")
            norm_err[i] = max(norm_err[i], err)
            if store_states:
                states[i, k] = psi

    return [Trajectory(
        times=times,
        h_values=run.h_values,
        fidelity=fid[i],
        states=run.frame.embed(states[i]) if store_states else None,
        protocol=labels[i],
        params=run.params,
        info={"steps": steps, "dt": float(np.max(np.abs(dts))),
              "max_norm_error": norm_err[i], "matvecs": matvecs[i]},
    ) for i in range(count)]


def evolve_all(params: ModelParams, protocols, grid=DEFAULT_STEPS, *,
               store_states: bool = False) -> dict:
    """Propagate the tracked ground state along params.ramp under each of
    `protocols`, on one `TrackedRun`; returns {label: Trajectory}, in the
    protocols' order.  An empty list, a string in place of the list, and
    two protocols with one label ('exact' and 'exact_cd') raise
    ValidationError.

    The run's ground series is solved once, and the protocols step in
    lockstep, each on its own `setup`'s chunk; those of one chunk size and
    one band width step as one stack (`_steps`), and those that read the CD
    factors (exact_cd, truncated:k and decomposed:k) share one eigensolve of
    the tracked block per midpoint (`TrackedRun.cd_factors`).
    Every trajectory is bitwise the one `evolve` gives for its protocol
    alone.  `grid` and `store_states` are as for `evolve`, and every
    ``info["wall_time_s"]`` is the whole call's.
    """
    t0 = _time.perf_counter()
    if isinstance(protocols, str):
        raise ValidationError(f"protocols must be a list of protocols, got the string "
                              f"{protocols!r}")
    protocols = [parse_protocol(p) for p in protocols]
    if not protocols:
        raise ValidationError("no protocol given")
    labels = [p.label for p in protocols]
    for label in labels:
        if labels.count(label) > 1:
            raise ValidationError(f"protocol {label} is given more than once")
    trajectories = _propagate(TrackedRun(params, grid), protocols, store_states)
    wall = _time.perf_counter() - t0
    for traj in trajectories:
        traj.info["wall_time_s"] = wall
    return {traj.protocol: traj for traj in trajectories}


def evolve(params: ModelParams, protocol, grid=DEFAULT_STEPS, *,
           store_states: bool = False, converge: bool = False) -> Trajectory:
    """Propagate the tracked ground state of H0(h(t_start)) along params.ramp
    under one protocol: `evolve_all` with that protocol alone.

    `grid` is an integer step count (uniform grid) or an explicit time
    array.  With ``store_states=True`` the trajectory keeps the state at
    every grid point (full basis).  With ``converge=True`` the step count is
    doubled until the final fidelity changes by less than CONVERGENCE_TOL,
    at most MAX_REFINEMENTS times, and the converged run is returned;
    failure to converge raises ConvergenceError with a suggested step size.
    A state norm drifting from 1 by more than NORM_TOL raises NormError.
    """
    if converge and not np.isscalar(grid):
        raise ValidationError("converge=True requires an integer step count")
    (traj,) = evolve_all(params, [protocol], grid, store_states=store_states).values()
    if not converge:
        return traj
    steps = traj.info["steps"]
    for _ in range(MAX_REFINEMENTS):
        (finer,) = evolve_all(params, [protocol], 2 * steps,
                              store_states=store_states).values()
        delta = abs(finer.final_fidelity - traj.final_fidelity)
        if delta < CONVERGENCE_TOL:
            finer.info["converged"] = True
            finer.info["convergence_delta"] = delta
            return finer
        traj, steps = finer, 2 * steps
    raise ConvergenceError(
        f"final fidelity still changing by {delta:.2e} after {steps} steps; "
        f"try dt <= {params.ramp.duration / (4 * steps):.2e}")
