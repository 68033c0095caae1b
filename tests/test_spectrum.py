import numpy as np
import pytest

from cdlmg import (
    ModelParams,
    RampSchedule,
    ValidationError,
    build_h0,
    gap_series,
)
import cdlmg.spectrum
from cdlmg.counterdiabatic import _cd_factors
from cdlmg.spectrum import dstebz, sector_ground_series
from cdlmg.spin_algebra import SectorFrame, parity_frames


def test_diagonalize_h0_degenerate_pair():
    # N=2, gamma=0, h=0: the degenerate pair {-1, -1} of H0 = -Sx^2 lies
    # in different parity blocks
    params = ModelParams(2, 0.0)
    even, odd = (np.linalg.eigvalsh(SectorFrame(params, p).h0_bands(0.0).dense())
                 for p in (0, 1))
    assert np.allclose(even, [-1.0, 0.0], atol=1e-12)
    assert np.allclose(odd, [-1.0], atol=1e-12)


@pytest.mark.parametrize("n,h", [(6, 0.4), (11, 1.3), (2, 0.0), (100, 0.0), (100, 1.3)])
def test_reconstruction(n, h):
    # the two closed-form parity blocks of the frame, put back in the full
    # basis, are the dense H0 up to rounding
    for gamma in (0.2, 0.95):
        params = ModelParams(n, gamma)
        full = build_h0(params, h)
        rebuilt = np.zeros_like(full)
        for parity in (0, 1):
            frame = SectorFrame(params, parity)
            rebuilt[frame.ix] = frame.h0_bands(h).dense()
        floor = 8 * np.finfo(float).eps * max(1.0, np.max(np.abs(full)))
        assert np.max(np.abs(rebuilt - full)) <= floor


def test_ground_continuity_across_transition():
    # the tracked ground state moves continuously through the transition;
    # halving the grid leaves the endpoint unchanged
    ramp = RampSchedule.linear(0.75, 0.5)
    params = ModelParams(100, 0.0, ramp)

    def tracked_ground(points):
        h_values = ramp.h(np.linspace(0.0, 1.0, points))
        vectors, _ = sector_ground_series(SectorFrame.tracked(params), h_values)
        return vectors[-1], np.einsum("ij,ij->i", vectors[:-1], vectors[1:]).min()

    ground_fine, worst_fine = tracked_ground(2000)
    assert worst_fine > 0.999
    ground_coarse, _ = tracked_ground(1000)
    assert abs(np.vdot(ground_fine, ground_coarse)) > 1 - 1e-6


def test_track_ground_matches_unique_ground_at_large_field():
    ramp = RampSchedule.linear(1.25, 0.5)  # h in [1.25, 1.75], no degeneracy
    params = ModelParams(60, 0.0, ramp)
    frame = SectorFrame.tracked(params)
    grounds, energies = sector_ground_series(frame, ramp.h(ramp.grid(50)))
    full_energies, vectors = np.linalg.eigh(build_h0(params, ramp.h(ramp.t_end)))
    overlap = abs(np.vdot(frame.embed(grounds)[-1], vectors[:, 0]))
    assert overlap > 1 - 1e-8
    assert abs(energies[-1] - full_energies[0]) < 1e-12


def test_track_ground_successive_overlaps():
    ramp = RampSchedule.linear(0.75, 0.5)
    params = ModelParams(40, 0.0, ramp)
    vectors, _ = sector_ground_series(SectorFrame.tracked(params), ramp.h(ramp.grid(200)))
    overlaps = np.abs(np.einsum("ij,ij->i", vectors[:-1], vectors[1:]))
    assert overlaps.min() > 0.5


def test_gap_series_validation_and_export(tmp_path):
    params = ModelParams(20, 0.0)
    with pytest.raises(ValidationError):
        gap_series(params, [])
    # a 2-D grid would return gaps at its first column under 2-D h_values
    for bad in ([1.0, 0.5], [0.5, np.inf], [np.nan], [[0.5, 0.9], [1.2, 1.5]], 0.7):
        with pytest.raises(ValidationError):
            gap_series(params, bad)
    table = gap_series(params, np.linspace(0.5, 1.5, 11))
    assert table.gaps.shape == (11, 3)
    assert np.all(table.gap((0, 1)) >= 0)
    csv_path = tmp_path / "gaps.csv"
    table.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "h,gap01,gap23,gap45"
    assert len(lines) == 12


@pytest.mark.parametrize("n,gamma", [(2, 0.0), (3, 0.0), (4, 0.0), (5, 0.0), (9, 0.0),
                                     (41, 0.0), (40, 0.3), (301, 0.0)])
def test_gap_series_matches_full_spectrum(n, gamma):
    # merged parity-block spectra against the full-basis H0, for the default
    # level pairs that fit in the N+1 levels: at N=5 every level of the two
    # 3-state blocks, at N=301 two 151-state blocks; at h = 0.5 levels of
    # opposite parity are degenerate to rounding
    params = ModelParams(n, gamma)
    h_grid = np.linspace(0.5, 1.5, 7)
    table = gap_series(params, h_grid)
    pairs = {2: ((0, 1),), 3: ((0, 1), (2, 3)), 4: ((0, 1), (2, 3))}.get(
        n, ((0, 1), (2, 3), (4, 5)))
    assert table.pairs == pairs
    for row, h in enumerate(h_grid):
        energies = np.linalg.eigvalsh(build_h0(params, h))
        expected = [energies[j] - energies[i] for i, j in pairs]
        assert np.allclose(table.gaps[row], expected, rtol=0, atol=1e-10)


def test_gap_series_one_bisection_per_field_point(monkeypatch):
    # both parity blocks are solved together, in one stebz call per field
    calls = []

    def counting(*args):
        calls.append(args)
        return dstebz(*args)

    monkeypatch.setattr("cdlmg.spectrum.dstebz", counting)
    gap_series(ModelParams(30, 0.0), np.linspace(0.5, 1.5, 9))
    assert len(calls) == 9


def test_gap_table_rejects_pair_it_lacks():
    table = gap_series(ModelParams(3, 0.0), [0.5, 1.0])
    assert table.pairs == ((0, 1), (2, 3))
    with pytest.raises(ValidationError, match=r"\(\(0, 1\), \(2, 3\)\)"):
        table.gap((4, 5))


def test_solvers_leave_h0_off_unchanged(monkeypatch):
    # frame.h0_off is the one store of H0's off-diagonal, handed to LAPACK
    # by the CD factors, the ground series and the gap table: a wrapper that
    # overwrites its e argument (scipy's dstemr does) would corrupt it
    params = ModelParams(100, 0.0)
    frames = parity_frames(params)
    kept = [frame.h0_off.copy() for frame in frames]
    monkeypatch.setattr(cdlmg.spectrum, "parity_frames", lambda p: frames)
    grid = np.linspace(0.5, 1.5, 5)
    for _ in range(2):
        for frame in frames:
            _cd_factors(frame, 1.1, 0.5)
            sector_ground_series(frame, grid)
        gap_series(params, grid)
    for frame, off in zip(frames, kept):
        assert frame.h0_off.tobytes() == off.tobytes()
