"""Instantaneous spectra: ground-state tracking through the degenerate phase
and energy-gap tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import output
from .errors import ValidationError
from .spin_algebra import ModelParams, SectorFrame

__all__ = [
    "GroundTrack",
    "GapTable",
    "track_ground",
    "gap_series",
]


@dataclass(frozen=True)
class GroundTrack:
    """Ground state followed continuously along a schedule.

    In the degenerate phase the two lowest levels have opposite
    excitation-number parity; the track holds the state in the parity sector
    of N itself, which is the one connected continuously to the unique
    large-field ground state.
    """

    times: np.ndarray
    h_values: np.ndarray
    vectors: np.ndarray = field(repr=False)  # (len(times), dim), full basis
    energies: np.ndarray = field(repr=False)


def sector_ground_series(frame: SectorFrame, h_values: np.ndarray):
    """Lowest eigenvector of the frame's block at each field value,
    sign-aligned along the sequence.  Returns (vectors, energies) with
    vectors in block coordinates."""
    energies_all, vectors_all = np.linalg.eigh(frame.h0_blocks(h_values))
    grounds = vectors_all[:, :, 0]
    lead = np.argmax(np.abs(grounds[0]))
    if grounds[0, lead] < 0:
        grounds[0] = -grounds[0]
    for j in range(1, len(grounds)):
        if grounds[j - 1] @ grounds[j] < 0:
            grounds[j] = -grounds[j]
    return grounds, energies_all[:, 0]


def track_ground(params: ModelParams, times: np.ndarray) -> GroundTrack:
    """Follow the ground state along params.ramp by overlap continuity."""
    if params.ramp is None:
        raise ValidationError("the model has no ramp (ModelParams.ramp)")
    times = np.asarray(times, dtype=float)
    h_values = params.ramp.h(times)
    frame = SectorFrame.tracked(params)
    grounds, energies = sector_ground_series(frame, h_values)
    return GroundTrack(times, np.atleast_1d(h_values), frame.embed(grounds), energies)


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
    if h_grid.size == 0:
        raise ValidationError("h grid is empty")
    if np.any(np.diff(h_grid) < 0):
        raise ValidationError("h grid must be sorted ascending")
    pairs = tuple(p for p in DEFAULT_GAP_PAIRS if p[1] < params.sector.dim)
    energies = np.sort(np.concatenate(
        [np.linalg.eigvalsh(SectorFrame(params, parity).h0_blocks(h_grid))
         for parity in (0, 1)], axis=1), axis=1)
    gaps = np.stack([energies[:, j] - energies[:, i] for i, j in pairs], axis=1)
    return GapTable(h_grid, pairs, gaps)
