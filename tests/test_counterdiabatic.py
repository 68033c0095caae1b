import numpy as np
import pytest
from numpy.linalg import LinAlgError
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dstevd

from cdlmg import (
    DickeSector,
    ModelParams,
    StructureError,
    ValidationError,
    analytic_cd,
    band_table,
    build_h0,
    build_spin_ops,
    exact_cd,
    hp_coefficient,
)
from cdlmg.counterdiabatic import (_cd_factors, parity_band_table, sector_cd_bands,
                                   sector_cd_block)
from cdlmg.spin_algebra import SectorFrame, parity_frames, parity_indices
from conftest import block_angle_rate_fd, even_projector


def sxsy_plus_sysx(n: int) -> np.ndarray:
    ops = build_spin_ops(DickeSector(n))
    return ops.sx @ ops.sy + ops.sy @ ops.sx


# --------------------------------------------------------------------------
# exact term

@pytest.mark.parametrize("h", [0.3, 0.8, 1.2, 2.0])
def test_exact_cd_two_particles_is_single_rotation(h):
    params = ModelParams(2, 0.0)
    rate = block_angle_rate_fd(params, h, hdot=0.5, idx=[0, 2])
    term = exact_cd(params, h, 0.5)
    assert np.max(np.abs(term - rate * sxsy_plus_sysx(2))) < 1e-6


def test_exact_cd_zero_rate_is_zero():
    term = exact_cd(ModelParams(7, 0.0), 0.9, 0.0)
    assert np.max(np.abs(term)) == 0.0


def test_exact_cd_three_particles_two_rotations():
    # two independent 2x2 rotations; collective-operator combination has
    # weights (rate_even + rate_odd)/(2*sqrt(3)) on B0 and
    # (rate_odd - rate_even)/sqrt(3) on B1
    params = ModelParams(3, 0.0)
    h, hdot = 0.7, 0.5
    rate_even = block_angle_rate_fd(params, h, hdot, idx=[0, 2])
    rate_odd = block_angle_rate_fd(params, h, hdot, idx=[1, 3])
    ops = build_spin_ops(DickeSector(3))
    sx, sy, sz = ops.sx, ops.sy, ops.sz
    b0, b1 = sx @ sy + sy @ sx, sx @ sy @ sz + sz @ sy @ sx
    combo = ((rate_even + rate_odd) / (2 * np.sqrt(3)) * b0
             + (rate_odd - rate_even) / np.sqrt(3) * b1)
    term = exact_cd(params, h, hdot)
    assert np.max(np.abs(term - combo)) < 1e-6


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("h", [0.2, 0.8, 1.2, 2.0])
def test_analytic_forms_match_exact(n, h):
    params = ModelParams(n, 0.0)
    exact = exact_cd(params, h, 0.5)
    closed = analytic_cd(params, h, 0.5)
    assert np.max(np.abs(exact - closed)) < 1e-8


def test_analytic_only_small_sizes():
    with pytest.raises(ValidationError):
        analytic_cd(ModelParams(4, 0.0), 0.8, 0.5)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 25), gamma=st.floats(0, 0.9), h=st.floats(0.1, 2.0),
       hdot=st.floats(-1.0, 1.0))
def test_exact_cd_structure_invariants(n, gamma, h, hdot):
    params = ModelParams(n, gamma)
    mat = exact_cd(params, h, hdot)
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
    assert np.max(np.abs(np.diagonal(mat))) < 1e-12
    pi_e = even_projector(n)
    assert np.max(np.abs(mat @ pi_e - pi_e @ mat)) < 1e-10


def test_exact_cd_eigenbasis_round_trip():
    # conjugating by the sector-resolved eigenbasis recovers the
    # i <m|dH0/dt|n> / (E_n - E_m) form
    params = ModelParams(9, 0.0)
    h, hdot = 1.1, 0.5
    term = exact_cd(params, h, hdot)
    sector = params.sector
    for parity in (0, 1):
        idx = parity_indices(sector, parity)
        block = build_h0(params, h)[np.ix_(idx, idx)]
        energies, vectors = np.linalg.eigh(block)
        m = vectors.T @ np.diag(-2 * hdot * sector.m_values[idx]) @ vectors
        de = energies[None, :] - energies[:, None]
        expected = np.where(np.abs(de) > 1e-12, 1j * m / np.where(de == 0, 1, de), 0)
        np.fill_diagonal(expected, 0)
        got = vectors.T @ term[np.ix_(idx, idx)] @ vectors
        assert np.max(np.abs(got - expected)) < 1e-10


def _frame_h0(frame, h):
    """The frame's H0 block as a dense matrix, from its diagonal and band 1."""
    off = frame.h0_off
    return np.diag(frame.h0_diagonals(h)[0]) + np.diag(off, 1) + np.diag(off, -1)


def _dense_cd_reference(frame, h0, hdot):
    """sector_cd_block's term built from numpy's dense eigh, for a block with
    no degenerate levels to zero."""
    energies, vectors = np.linalg.eigh(h0)
    m = vectors.T @ (frame.m_diag[:, None] * vectors) * (-2.0 * hdot)
    de = energies[None, :] - energies[:, None]
    np.fill_diagonal(de, 1.0)
    w = m / de
    np.fill_diagonal(w, 0.0)
    expected = vectors @ (1j * w) @ vectors.T
    np.fill_diagonal(expected, 0.0)
    return expected


@pytest.mark.parametrize("h", [0.6, 1.0, 1.3])
def test_sector_cd_block_large_sector_matches_dense_reference(h):
    # the H0 block (3, 11, 51 and 151 states) is solved by LAPACK stevd; the
    # reference builds the same term from numpy's dense eigh
    for n in (4, 20, 100, 300):
        frame = SectorFrame.tracked(ModelParams(n, 0.0))
        h0, hdot = _frame_h0(frame, h), 0.5
        assert np.min(np.diff(np.linalg.eigvalsh(h0))) > 0.1  # no degenerate cluster to zero
        got = sector_cd_block(_cd_factors(frame, h, hdot))
        assert np.max(np.abs(got - _dense_cd_reference(frame, h0, hdot))) < 1e-12


@pytest.mark.parametrize("kind", ["real", "split", "diagonal", "small", "two"])
def test_sector_cd_block_tridiagonal_path(kind, monkeypatch):
    # every H0 block, from 2 states up, is solved by one LAPACK stevd call on
    # its diagonal and frame.h0_off, also where that subdiagonal splits the
    # block or vanishes (gamma = 1)
    solved = []
    monkeypatch.setattr("cdlmg.counterdiabatic.dstevd",
                        lambda *a, **kw: solved.append(a) or dstevd(*a, **kw))
    dim = {"small": 11, "two": 2}.get(kind, 69)
    frame = SectorFrame.tracked(ModelParams(2 * dim - 2, 1.0 if kind == "diagonal" else 0.0))
    assert frame.dim == dim
    if kind == "split":
        frame.h0_off[dim // 2] = 0.0
    h0, hdot = _frame_h0(frame, 1.1), 0.5
    assert np.count_nonzero(np.diagonal(h0, -1)) == {"split": dim - 2, "diagonal": 0}.get(
        kind, dim - 1)
    got = sector_cd_block(_cd_factors(frame, 1.1, hdot))
    assert np.max(np.abs(got - _dense_cd_reference(frame, h0, hdot))) < 1e-12
    assert len(solved) == 1 and solved[0][1] is frame.h0_off


def test_failed_tridiagonal_solve_raises(monkeypatch):
    # a nonzero LAPACK info is an error, not a spectrum
    monkeypatch.setattr("cdlmg.counterdiabatic.dstevd",
                        lambda d, e: (np.zeros(len(d)), np.eye(len(d)), 3))
    with pytest.raises(LinAlgError, match="LAPACK info 3"):
        sector_cd_block(_cd_factors(SectorFrame.tracked(ModelParams(10, 0.0)), 1.1, 0.5))


# --------------------------------------------------------------------------
# band table

def test_band_table_two_particles():
    params = ModelParams(2, 0.0)
    h, hdot = 0.8, 0.5
    table = band_table(exact_cd(params, h, hdot))
    assert set(table.bands) == {1}
    rate = block_angle_rate_fd(params, h, hdot, idx=[0, 2])
    # (SxSy+SySx) carries +i on its offset-2 superdiagonal entry for N=2
    assert table.bands[1][0] == pytest.approx(rate, abs=1e-6)


def test_band_table_zero_matrix_is_empty():
    table = band_table(np.zeros((5, 5)))
    assert table.bands == {}
    assert np.max(np.abs(table.reconstruct())) == 0.0


def test_band_table_rejects_odd_offset_content():
    mat = np.zeros((5, 5), dtype=complex)
    mat[0, 1] = 1j
    mat[1, 0] = -1j
    with pytest.raises(StructureError):
        band_table(mat)


def test_first_band_dominates():
    table = band_table(exact_cd(ModelParams(10, 0.0), 0.9, 0.5))
    peaks = {i: np.max(np.abs(x)) for i, x in table.bands.items()}
    assert max(peaks[i] for i in range(2, 6)) / peaks[1] < 1.0


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 20), h=st.floats(0.2, 1.8))
def test_band_table_round_trip(n, h):
    term = exact_cd(ModelParams(n, 0.0), h, 0.5)
    rebuilt = band_table(term).reconstruct()
    assert np.max(np.abs(rebuilt - term)) < 1e-12


@pytest.mark.parametrize("n", [2, 9, 20])
def test_parity_band_table_matches_exact_table(n):
    # the bands of both parity blocks interleave into exact_cd's band table
    params = ModelParams(n, 0.0)
    frames = [f for f in parity_frames(params) if f.dim >= 2]
    for h, hdot in ((0.8, 0.5), (1.0, -0.3), (1.3, 0.5)):
        reference = band_table(exact_cd(params, h, hdot)).bands
        got = parity_band_table([(f, sector_cd_bands(_cd_factors(f, h, hdot), 3))
                                 for f in frames]).bands
        assert set(got) == set(range(1, min(3, n // 2) + 1))
        for b, x in got.items():
            assert np.max(np.abs(x - reference[b])) < 1e-14


# --------------------------------------------------------------------------
# harmonic-limit correction

def test_hp_zero_rate():
    assert hp_coefficient(50, 0.0, 1.25, 0.0) == 0.0


def test_hp_coefficient_above_transition_chain_rule():
    # frozen: -hdot*(2h-1)/(4N(h-1)(h-gamma)) at gamma=0, h=1.25, hdot=0.5, N=100
    assert hp_coefficient(100, 0.0, 1.25, 0.5) == pytest.approx(-0.006, abs=1e-15)
    # symbolic chain-rule oracle: c = -wdot / (2 N w)
    h, gamma, hdot, n = sympy.symbols("h gamma hdot n", positive=True)
    w = 2 * sympy.sqrt((h - 1) * (h - gamma))
    c = -sympy.diff(w, h) * hdot / (2 * n * w)
    for hv in (1.1, 1.6, 2.4):
        expected = float(c.subs({h: hv, gamma: 0.3, hdot: 0.7, n: 80}))
        assert hp_coefficient(80, 0.3, hv, 0.7) == pytest.approx(expected, rel=1e-12)


def test_hp_coefficient_below_transition():
    # fixed-sign branch: -|hdot| h / (2N(1-h^2)); magnitude equals the
    # frequency chain rule for w = 2 sqrt((1-h^2)(1-gamma))
    assert hp_coefficient(100, 0.0, 0.8, 0.5) == pytest.approx(-1.0 / 180.0, abs=1e-15)
    h, gamma, hdot, n = sympy.symbols("h gamma hdot n", positive=True)
    w = 2 * sympy.sqrt((1 - h**2) * (1 - gamma))
    magnitude = sympy.Abs(sympy.diff(w, h) * hdot / (2 * n * w))
    for hv in (0.3, 0.65, 0.95):
        expected = float(magnitude.subs({h: hv, gamma: 0.4, hdot: 0.7, n: 60}))
        assert hp_coefficient(60, 0.4, hv, 0.7) == pytest.approx(-expected, rel=1e-12)
        # independent of ramp direction below the transition
        assert (hp_coefficient(60, 0.4, hv, -0.7)
                == hp_coefficient(60, 0.4, hv, 0.7))


def test_hp_correction_matrix_shape():
    # the hp drive is hp_coefficient times the frame's (SxSy+SySx) block
    params = ModelParams(40, 0.0)
    full = sxsy_plus_sysx(40)
    for parity in (0, 1):
        frame = SectorFrame(params, parity)
        b0 = frame.b0_bands.dense()
        assert np.max(np.abs(b0 - full[frame.ix])) < 1e-14
        assert np.max(np.abs(b0 - b0.conj().T)) <= 1e-12


def test_hp_rejections():
    assert hp_coefficient(40, 0.0, 1.0005, 0.5) == 0.0  # switched off
    with pytest.raises(ValidationError):
        hp_coefficient(40, 1.2, 0.8, 0.5)
    with pytest.raises(ValidationError):
        hp_coefficient(40, 0.0, -0.5, 0.5)
