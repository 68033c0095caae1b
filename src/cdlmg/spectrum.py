"""Instantaneous spectra of H0: ground-state tracking through the degenerate
phase and energy-gap tables, solved on the tridiagonal parity blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from . import output
from .errors import ValidationError
from .spin_algebra import ModelParams, SectorFrame, parity_frames

__all__ = [
    "GapTable",
    "gap_series",
]


def sector_ground_series(frame: SectorFrame, h_values: np.ndarray):
    """Lowest eigenvector of the frame's block at each field value,
    sign-aligned along the sequence.  Returns (vectors, energies) with
    vectors in block coordinates."""
    diagonals = frame.h0_diagonals(h_values)
    grounds = np.empty(diagonals.shape)
    energies = np.empty(len(diagonals))
    for j, diagonal in enumerate(diagonals):
        energy, vector = eigh_tridiagonal(diagonal, frame.h0_off,
                                          select="i", select_range=(0, 0))
        energies[j], grounds[j] = energy[0], vector[:, 0]
    lead = np.argmax(np.abs(grounds[0]))
    if grounds[0, lead] < 0:
        grounds[0] = -grounds[0]
    for j in range(1, len(grounds)):
        if grounds[j - 1] @ grounds[j] < 0:
            grounds[j] = -grounds[j]
    return grounds, energies


@dataclass(frozen=True)
class GapTable:
    """Energy differences E_j - E_i over a field grid."""

    h_values: np.ndarray
    pairs: tuple
    gaps: np.ndarray  # (len(h_values), len(pairs))

    def gap(self, pair) -> np.ndarray:
        return self.gaps[:, self.pairs.index(tuple(pair))]

    def to_csv(self, path) -> None:
        output.write_csv(path, ["h"] + [f"gap{i}{j}" for i, j in self.pairs],
                         ((h, *gaps) for h, gaps in zip(self.h_values, self.gaps)))


DEFAULT_GAP_PAIRS = ((0, 1), (2, 3), (4, 5))


def gap_series(params: ModelParams, h_grid: Sequence[float]) -> GapTable:
    """Eigenvalue differences on a sorted h grid for the level pairs of
    DEFAULT_GAP_PAIRS that fit in the spectrum.

    The spectrum at each field value is the merged spectra of the two parity
    blocks, which H0 does not couple.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.ndim != 1:
        raise ValidationError("h grid must be 1-D")
    if h_grid.size == 0:
        raise ValidationError("h grid is empty")
    if not np.all(np.isfinite(h_grid)):
        raise ValidationError("h grid must be finite")
    if np.any(np.diff(h_grid) < 0):
        raise ValidationError("h grid must be sorted ascending")
    pairs = tuple(p for p in DEFAULT_GAP_PAIRS if p[1] < params.sector.dim)
    frames = parity_frames(params)
    energies = np.sort([
        np.concatenate([eigvalsh_tridiagonal(frame.h0_diagonals(h)[0], frame.h0_off)
                        for frame in frames])
        for h in h_grid], axis=1)
    gaps = np.stack([energies[:, j] - energies[:, i] for i, j in pairs], axis=1)
    return GapTable(h_grid, pairs, gaps)
