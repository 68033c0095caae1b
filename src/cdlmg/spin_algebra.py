"""Collective spin operators and the LMG Hamiltonian on the symmetric sector.

All matrices act on the (N+1)-dimensional maximum-angular-momentum subspace
of N spin-1/2 particles, in the S_z eigenbasis |0>, ..., |N>.  Basis
conventions used throughout the package:

* |k> has S_z eigenvalue m = k - N/2, so |N> is the all-up state and is the
  ground state for a large positive field.
* S_+|k> = sqrt(S(S+1) - m(m+1)) |k+1> with S = N/2.
* The excitation-number parity of |k> is the parity of k; `parity_indices`
  gives the basis indices of each parity.

Every Hamiltonian and driving term of the package preserves that parity, so
the other modules work inside one parity block through `SectorFrame`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .ramps import RampSchedule

__all__ = [
    "DickeSector",
    "SpinOperators",
    "ModelParams",
    "build_spin_ops",
    "build_h0",
    "parity_indices",
    "place_band",
    "SectorFrame",
    "parity_frames",
]


@dataclass(frozen=True)
class DickeSector:
    """Maximum-angular-momentum sector of N spin-1/2 particles."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"particle count must be >= 1, got {self.n}")

    @property
    def dim(self) -> int:
        return self.n + 1

    @property
    def spin(self) -> float:
        """Total spin S = N/2."""
        return self.n / 2

    @property
    def m_values(self) -> np.ndarray:
        """S_z eigenvalues k - N/2 in basis order."""
        return np.arange(self.dim) - self.spin


@dataclass(frozen=True)
class SpinOperators:
    """The five collective spin matrices for one sector."""

    sector: DickeSector
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    splus: np.ndarray
    sminus: np.ndarray

    def sxsy_plus_sysx(self) -> np.ndarray:
        """(SxSy + SySx): the first-band operator B_0 and the harmonic-limit
        driving term."""
        return self.sx @ self.sy + self.sy @ self.sx


@dataclass(frozen=True)
class ModelParams:
    """LMG model parameters: size N, anisotropy gamma, field schedule."""

    n: int
    gamma: float = 0.0
    ramp: Optional[RampSchedule] = None

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"model requires N >= 2, got {self.n}")
        if not 0 <= self.gamma < np.inf:
            raise ValidationError(f"anisotropy must be finite and >= 0, got {self.gamma}")

    @property
    def sector(self) -> DickeSector:
        return DickeSector(self.n)


def _ladder_coefficients(n: int) -> np.ndarray:
    s = n / 2
    m = np.arange(n) - s
    return np.sqrt(s * (s + 1) - m * (m + 1))


def build_spin_ops(sector: DickeSector) -> SpinOperators:
    """Angular-momentum matrices for total spin S = N/2 in the S_z basis."""
    n, dim = sector.n, sector.dim
    sp = np.zeros((dim, dim))
    sp[np.arange(1, dim), np.arange(n)] = _ladder_coefficients(n)
    sm = sp.T.copy()
    sx = (sp + sm) / 2
    sy = (sp - sm) / 2j
    sz = np.diag(sector.m_values)
    return SpinOperators(sector, sx, sy, sz, sp, sm)


def build_h0(params: ModelParams, h: float) -> np.ndarray:
    """LMG Hamiltonian -(2/N)(Sx^2 + gamma*Sy^2) - 2h*Sz in the full basis,
    from dense spin matrices: the independent check of `SectorFrame`.

    The constant shift (1+gamma)/2 relating this form to the pairwise spin
    sum is omitted; fidelities never depend on it.
    """
    ops = build_spin_ops(params.sector)
    sx, sy = ops.sx, ops.sy
    interaction = (-(2.0 / params.n) * ((sx @ sx) + params.gamma * (sy @ sy))).real
    return interaction - 2.0 * h * np.diag(params.sector.m_values)


def parity_indices(sector: DickeSector, parity: int) -> np.ndarray:
    """Basis indices with excitation number k = parity (mod 2)."""
    if parity not in (0, 1):
        raise ValidationError("parity must be 0 (even) or 1 (odd)")
    return np.arange(parity, sector.dim, 2)


def place_band(out: np.ndarray, offset: int, upper, lower) -> np.ndarray:
    """Write `upper` on the offset superdiagonal and `lower` on the offset
    subdiagonal of the last two axes of `out`; returns `out`."""
    rows = np.arange(out.shape[-1] - offset)
    out[..., rows, rows + offset] = upper
    out[..., rows + offset, rows] = lower
    return out


class SectorFrame:
    """One excitation-parity block of the Dicke sector.

    The only code that knows the block layout: its basis indices, how block
    vectors and matrices sit in the full basis (``embed``, ``ix``), H0 and
    (SxSy+SySx) restricted to the block, and bands in block coordinates,
    where full-basis offset 2b is block offset b.

    Both blocks are tridiagonal, with closed-form entries from the ladder
    coefficients c_k = <k+1|S_+|k>: full-basis states k and k+2 are coupled
    through c_k c_{k+1}.  H0 is held as its field-free diagonal ``h0_diag``
    and block band 1 ``h0_off``; ``h0_blocks`` and ``b0_block`` give the
    dense matrices the step kernel works on.
    """

    def __init__(self, params: ModelParams, parity: int):
        sector = params.sector
        self.params = params
        self.idx = parity_indices(sector, parity)
        self.dim = len(self.idx)
        self.ix = np.ix_(self.idx, self.idx)
        self.m_diag = sector.m_values[self.idx]
        ladder = _ladder_coefficients(params.n)
        pair = ladder[self.idx[:-1]] * ladder[self.idx[:-1] + 1]
        s, n, gamma = sector.spin, params.n, params.gamma
        self.h0_diag = -((1.0 + gamma) / n) * (s * (s + 1) - self.m_diag ** 2)
        self.h0_off = -((1.0 - gamma) / (2 * n)) * pair
        self.b0_block = place_band(np.zeros((self.dim, self.dim), dtype=complex),
                                   1, 0.5j * pair, -0.5j * pair)

    @classmethod
    def tracked(cls, params: ModelParams) -> "SectorFrame":
        """Block of the tracked ground state: parity N mod 2, the one connected
        continuously to the unique large-field ground state |N>."""
        return cls(params, params.n % 2)

    def h0_diagonals(self, h_values) -> np.ndarray:
        """Diagonal of the H0 block at each field value, (len(h), dim)."""
        h_values = np.atleast_1d(np.asarray(h_values, dtype=float))
        return self.h0_diag - 2.0 * h_values[:, None] * self.m_diag

    def h0_blocks(self, h_values) -> np.ndarray:
        """H0 restricted to the block at each field value, (len(h), dim, dim).

        The propagation loop calls this once per step; writing the three
        diagonals as stride-(dim + 1) slices of the flattened blocks keeps the
        call cheap.
        """
        diagonals = self.h0_diagonals(h_values)
        out = np.zeros(diagonals.shape + (self.dim,))
        flat = out.reshape(len(diagonals), -1)
        stride = self.dim + 1
        flat[:, ::stride] = diagonals
        flat[:, 1::stride] = self.h0_off
        flat[:, self.dim::stride] = self.h0_off
        return out

    def band_patterns(self, k: int) -> np.ndarray:
        """Unit-coefficient matrices of bands 1..k, (k, dim, dim)."""
        if k > self.params.n // 2:
            raise ValidationError(
                f"{k} bands exceed floor(N/2) = {self.params.n // 2}")
        pats = np.zeros((k, self.dim, self.dim), dtype=complex)
        for b in range(1, k + 1):
            place_band(pats[b - 1], b, 1j, -1j)
        return pats

    def truncation_mask(self, k: int) -> np.ndarray:
        """Entries of bands 1..k."""
        keep = np.zeros((self.dim, self.dim), dtype=bool)
        for b in range(1, min(k, self.dim - 1) + 1):
            place_band(keep, b, True, True)
        return keep

    def embed(self, sector_vecs: np.ndarray) -> np.ndarray:
        """Lift (..., dim) block vectors to the full basis."""
        out = np.zeros(sector_vecs.shape[:-1] + (self.params.sector.dim,),
                       dtype=sector_vecs.dtype)
        out[..., self.idx] = sector_vecs
        return out


def parity_frames(params: ModelParams) -> tuple:
    """The even and the odd parity block of params, as SectorFrames."""
    return SectorFrame(params, 0), SectorFrame(params, 1)
