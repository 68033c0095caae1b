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
    "BandMatrix",
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


class BandMatrix:
    """A Hermitian band matrix held as its centred diagonal stack.

    ``data`` has shape (2w+1, dim): row w + o holds offset o, so
    data[w + o, i] = A[i, i + o], and entries whose i + o falls outside the
    matrix are zero.  A product with a vector and the Gershgorin discs then
    cost O(w dim) (`dynamics._StepPlan`).  Leading axes, as in
    (steps, 2w+1, dim), stack matrices of one width, as `dynamics` plans a
    chunk of steps; only ``from_uppers`` and ``dense`` write the layout.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = data

    @classmethod
    def from_uppers(cls, diagonal, uppers) -> "BandMatrix":
        """The matrix with this diagonal and superdiagonals 1..w (arrays or
        scalars), and their conjugates below: Hermitian by construction.
        The diagonal's leading axes, which the uppers broadcast against,
        stack matrices."""
        diagonal = np.asarray(diagonal)
        dim, w = diagonal.shape[-1], len(uppers)
        data = np.zeros(diagonal.shape[:-1] + (2 * w + 1, dim),
                        dtype=np.result_type(diagonal, *uppers))
        data[..., w, :] = diagonal
        for o, upper in enumerate(uppers, 1):
            data[..., w + o, :max(dim - o, 0)] = upper
            data[..., w - o, o:] = np.conj(upper)
        return cls(data)

    @property
    def width(self) -> int:
        return self.data.shape[-2] // 2

    def dense(self) -> np.ndarray:
        """The (..., dim, dim) matrices of the stack, their diagonals written
        as strided slices."""
        w, lead, dim = self.width, self.data.shape[:-2], self.data.shape[-1]
        out = np.zeros(lead + (dim, dim), dtype=self.data.dtype)
        flat = out.reshape(lead + (-1,))
        for o in range(-min(w, dim - 1), min(w, dim - 1) + 1):
            lo, count = max(0, -o), dim - abs(o)
            start = lo * (dim + 1) + o
            flat[..., start::dim + 1][..., :count] = self.data[..., w + o, lo:lo + count]
        return out


class SectorFrame:
    """One excitation-parity block of the Dicke sector.

    The only code that knows the block layout: its basis indices, how block
    vectors and matrices sit in the full basis (``embed``, ``ix``), and the
    banded operators on the block, where full-basis offset 2b is block
    offset b.

    H0, (SxSy+SySx) and the ansatz drive are band matrices in block
    coordinates, with closed-form entries from the ladder coefficients
    c_k = <k+1|S_+|k>: full-basis states k and k+2 are coupled through
    c_k c_{k+1}.  The frame holds each as a `BandMatrix`: H0 as
    ``h0_bands(h)`` from its field-free diagonal ``h0_diag`` and block band
    1 ``h0_off``, the (SxSy+SySx) block as ``b0_bands``, and the ansatz
    drive as ``ansatz_bands(x)``, each stacked for many fields or rows of x.
    Two blocks are dense matrices instead: the exact CD block
    (`counterdiabatic.sector_cd_block`), which fills the whole block and is
    written, with H0's tridiagonal from ``h0_diagonals`` and ``h0_off`` as
    its real part, straight into exact_cd's step buffer, and the
    optimizer's gradient block (`ansatz`), built from the ``dense()`` stacks
    because at its sizes one dense product costs less than the banded
    products it replaces; one loop steps both (`dynamics`).
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
        self.b0_bands = BandMatrix.from_uppers(np.zeros(self.dim), [0.5j * pair])

    @classmethod
    def tracked(cls, params: ModelParams) -> "SectorFrame":
        """Block of the tracked ground state: parity N mod 2, the one connected
        continuously to the unique large-field ground state |N>."""
        return cls(params, params.n % 2)

    def h0_diagonals(self, h_values) -> np.ndarray:
        """Diagonal of the H0 block at each field value, (len(h), dim)."""
        h_values = np.atleast_1d(np.asarray(h_values, dtype=float))
        return self.h0_diag - 2.0 * h_values[:, None] * self.m_diag

    def h0_bands(self, h) -> BandMatrix:
        """H0 on the block at field h, tridiagonal: ``h0_diag - 2h m_diag`` with
        ``h0_off`` beside it; an array of fields gives the stack of these."""
        h = np.asarray(h, dtype=float)[..., None]
        return BandMatrix.from_uppers(self.h0_diag - 2.0 * h * self.m_diag, [self.h0_off])

    def check_bands(self, k: int) -> None:
        """Raise ValidationError unless the ansatz can have k bands: the
        block has bands 1..floor(N/2)."""
        if k > self.params.n // 2:
            raise ValidationError(f"{k} bands exceed floor(N/2) = {self.params.n // 2}")

    def ansatz_bands(self, x) -> BandMatrix:
        """The ansatz drive sum_b x_b P_b of bands 1..k = len(x), where P_b
        is i on block band b and -i on band -b.  Rows of a 2-D x, as
        (steps, k), give the stack of their drives."""
        x = np.asarray(x, dtype=float)
        self.check_bands(x.shape[-1])
        return BandMatrix.from_uppers(np.zeros(x.shape[:-1] + (self.dim,)),
                                      [1j * xb[..., None] for xb in np.moveaxis(x, -1, 0)])

    def embed(self, sector_vecs: np.ndarray) -> np.ndarray:
        """Lift (..., dim) block vectors to the full basis."""
        out = np.zeros(sector_vecs.shape[:-1] + (self.params.sector.dim,),
                       dtype=sector_vecs.dtype)
        out[..., self.idx] = sector_vecs
        return out


def parity_frames(params: ModelParams) -> tuple:
    """The even and the odd parity block of params, as SectorFrames."""
    return SectorFrame(params, 0), SectorFrame(params, 1)
