"""Shared test helpers: independent oracles kept deliberately separate from
the package's own construction paths."""

import os

# One BLAS thread, set before numpy loads its BLAS: the suite's matrices are
# small, and more threads only contend for the cores.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from cdlmg import ModelParams, build_h0
from cdlmg.spin_algebra import parity_indices


def two_by_two_block(params: ModelParams, h: float, idx) -> np.ndarray:
    """Extract a 2x2 parity block of H0 directly from the full matrix."""
    mat = build_h0(params, h).real
    return mat[np.ix_(idx, idx)]


def block_mixing_angle(params: ModelParams, h: float, idx) -> float:
    """Ground-state mixing angle of a 2x2 block, oriented so the component
    on the higher-m basis state is positive: ground = sin(a)|lo> + cos(a)|hi>."""
    block = two_by_two_block(params, h, idx)
    _, vectors = np.linalg.eigh(block)
    ground = vectors[:, 0]
    if ground[1] < 0:
        ground = -ground
    return float(np.arctan2(ground[0], ground[1]))


def block_angle_rate_fd(params: ModelParams, h: float, hdot: float, idx,
                        dh: float = 1e-6) -> float:
    """Finite-difference d(angle)/dt, the independent oracle for the
    two-level driving coefficient."""
    lo = block_mixing_angle(params, h - dh, idx)
    hi = block_mixing_angle(params, h + dh, idx)
    return (hi - lo) / (2 * dh) * hdot


def even_projector(n: int) -> np.ndarray:
    """Diagonal 0/1 projector onto the even excitation numbers k of the
    N-particle sector."""
    return np.diag((np.arange(n + 1) % 2 == 0).astype(float))


def parity_blocks(n: int):
    """Index pairs of the two-dimensional parity blocks for N = 2, 3."""
    sector_idx = {p: parity_indices(ModelParams(n, 0.0).sector, p) for p in (0, 1)}
    return [idx for idx in sector_idx.values() if len(idx) == 2]


def lstsq_frequency_scan(t: np.ndarray, y: np.ndarray, c: int) -> np.ndarray:
    """The greedy frequency scan of `ansatz._matching_pursuit_init` scored by
    `lstsq` at every grid frequency, the oracle for its batched screen."""
    span = t[-1] - t[0]
    omega_grid = np.linspace(0.1 / span, 0.95 * np.pi * len(t) / span, 700)
    resid = y.astype(float).copy()
    amps, omegas, phases = [], [], []
    for _ in range(c):
        best = None
        for w in omega_grid:
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


@pytest.fixture
def linear_ramp():
    from cdlmg import RampSchedule
    return RampSchedule.linear(0.75, 0.5)
