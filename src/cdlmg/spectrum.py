"""Instantaneous spectra of H0: ground-state tracking through the degenerate
phase and energy-gap tables, solved on the tridiagonal parity blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from . import output
from ._lapack import dstebz, dstein
from .errors import ValidationError
from .spin_algebra import ModelParams, SectorFrame, parity_frames

__all__ = [
    "GapTable",
    "gap_series",
]


def sector_ground_series(frame: SectorFrame, h_values: np.ndarray):
    """Lowest eigenvector of the frame's block at each field value,
    sign-aligned along the sequence.  Returns (vectors, energies) with
    vectors in block coordinates.  The blocks are solved by LAPACK stebz and
    stein from `cdlmg._lapack`."""
    diagonals = frame.h0_diagonals(h_values)
    if not np.all(np.isfinite(diagonals)):
        raise ValidationError("field values must be finite")
    grounds = np.empty(diagonals.shape)
    energies = np.empty(len(diagonals))
    off = frame.h0_off
    for j, diagonal in enumerate(diagonals):
        # the lowest eigenvalue by bisection, then its vector by inverse
        # iteration: what eigh_tridiagonal(select="i") runs, without its
        # per-call argument handling
        m, energy, iblock, isplit, info = dstebz(diagonal, off, 2, 0.0, 0.0, 1, 1, 0.0, "B")
        if info == 0:
            vector, info = dstein(diagonal, off, energy[:m], iblock, isplit)
        if info != 0:
            raise LinAlgError(f"tridiagonal ground state at h = {h_values[j]} "
                              f"failed (LAPACK info {info})")
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
        pair = tuple(pair)
        if pair not in self.pairs:
            raise ValidationError(f"no gap {pair} in the table; it has {self.pairs}")
        return self.gaps[:, self.pairs.index(pair)]

    def to_csv(self, path) -> None:
        output.write_csv(path, ["h"] + [f"gap{i}{j}" for i, j in self.pairs],
                         ((h, *gaps) for h, gaps in zip(self.h_values, self.gaps)))


DEFAULT_GAP_PAIRS = ((0, 1), (2, 3), (4, 5))


def gap_series(params: ModelParams, h_grid: Sequence[float]) -> GapTable:
    """Eigenvalue differences on a sorted h grid for the level pairs of
    DEFAULT_GAP_PAIRS that fit in the spectrum.

    H0 does not couple the two parity blocks, so at each field value they
    sit side by side as one tridiagonal of the whole sector, joined by an
    exact zero where LAPACK stebz splits it, and one bisection returns the
    lowest levels the pairs reach, across both blocks in ascending order.
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
    levels = max(j for _, j in pairs) + 1
    even, odd = parity_frames(params)
    diagonals = np.hstack([even.h0_diagonals(h_grid), odd.h0_diagonals(h_grid)])
    off = np.concatenate([even.h0_off, [0.0], odd.h0_off])
    energies = np.empty((len(h_grid), levels))
    for row, diagonal, h in zip(energies, diagonals, h_grid):
        # the lowest levels by bisection, solved by index
        _, energy, _, _, info = dstebz(diagonal, off, 2, 0.0, 0.0, 1, levels, 0.0, "E")
        if info != 0:
            raise LinAlgError(f"tridiagonal levels at h = {h} failed (LAPACK info {info})")
        row[:] = energy[:levels]
    gaps = np.stack([energies[:, j] - energies[:, i] for i, j in pairs], axis=1)
    return GapTable(h_grid, pairs, gaps)
