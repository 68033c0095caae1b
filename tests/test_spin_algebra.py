import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlmg import (
    DickeSector,
    ModelParams,
    ValidationError,
    band_table,
    build_h0,
    build_spin_ops,
)
from cdlmg.spin_algebra import BandMatrix, SectorFrame
from conftest import even_projector


def test_sector_basics():
    sector = DickeSector(5)
    assert sector.dim == 6
    assert sector.spin == 2.5
    assert np.allclose(sector.m_values, np.arange(6) - 2.5)
    with pytest.raises(ValidationError):
        DickeSector(0)


def test_spin_half_matrices():
    ops = build_spin_ops(DickeSector(1))
    assert np.allclose(ops.sx, [[0, 0.5], [0.5, 0]])
    assert np.allclose(ops.sy, [[0, 0.5j], [-0.5j, 0]])
    assert np.allclose(ops.sz, [[-0.5, 0], [0, 0.5]])


def test_spin_one_sz_ladder():
    ops = build_spin_ops(DickeSector(2))
    assert np.allclose(ops.sz, np.diag([-1.0, 0.0, 1.0]))
    # raising operator fills the subdiagonal with sqrt(2)
    assert np.allclose(ops.splus[1, 0], np.sqrt(2))
    assert np.allclose(ops.splus[2, 1], np.sqrt(2))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 24])
def test_angular_momentum_algebra(n):
    ops = build_spin_ops(DickeSector(n))
    sx, sy, sz = ops.sx, ops.sy, ops.sz
    comm = sx @ sy - sy @ sx - 1j * sz
    assert np.max(np.abs(comm)) < 1e-12
    assert ops.splus.conj().T == pytest.approx(ops.sminus)
    for op in (sx, sy, sz):
        assert np.max(np.abs(op - op.conj().T)) <= 1e-12


@pytest.mark.parametrize("n", [2, 5, 11, 40])
def test_casimir(n):
    ops = build_spin_ops(DickeSector(n))
    s = n / 2
    total = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
    assert np.max(np.abs(total - s * (s + 1) * np.eye(n + 1))) < 1e-10


def test_h0_small_field_spectrum():
    # N=2, gamma=0, h=0: H0 = -Sx^2 on spin 1, eigenvalues {-1, -1, 0}
    params = ModelParams(2, 0.0)
    energies = np.linalg.eigvalsh(build_h0(params, 0.0))
    assert np.allclose(energies, [-1.0, -1.0, 0.0], atol=1e-12)


def test_h0_large_field_polarizes():
    params = ModelParams(100, 0.0)
    energies, vectors = np.linalg.eigh(build_h0(params, 2.0))
    ground = vectors[:, 0]
    assert abs(ground[-1]) ** 2 > 0.9  # |N> dominates


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 30), gamma=st.floats(0, 0.95), h=st.floats(0.05, 2.5))
def test_h0_parity_symmetry(n, gamma, h):
    params = ModelParams(n, gamma)
    h0 = build_h0(params, h)
    pi_e = even_projector(n)
    assert np.max(np.abs(h0 - h0.conj().T)) <= 1e-12
    assert np.max(np.abs(h0 @ pi_e - pi_e @ h0)) <= 1e-12


def test_operator_matrix_checks():
    # band_table reads the sector from the array's shape
    for bad in (np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3, 3))):
        with pytest.raises(ValidationError):
            band_table(bad)
    assert band_table(np.zeros((3, 3))).sector == DickeSector(2)


def test_model_params_validation():
    with pytest.raises(ValidationError):
        ModelParams(1, 0.0)
    for gamma in (-0.1, np.nan, np.inf):
        with pytest.raises(ValidationError):
            ModelParams(4, gamma)


@pytest.mark.parametrize("n", [8, 9])
def test_sector_frame_band_layout(n):
    # full-basis band b (offset 2b) is block band b (offset b) in each
    # parity block; the ansatz drive fills exactly bands 1..k, and
    # (SxSy+SySx) fills exactly band 1
    params = ModelParams(n, 0.0)
    k = 3
    for parity in (0, 1):
        frame = SectorFrame(params, parity)
        for b in range(1, k + 1):
            full = 1j * np.eye(n + 1, k=2 * b) - 1j * np.eye(n + 1, k=-2 * b)
            assert np.array_equal(full[frame.ix], frame.ansatz_bands(np.eye(k)[b - 1]).dense())
        x = np.array([0.3, -1.2, 0.7])
        drive = frame.ansatz_bands(x)
        assert drive.width == k
        offsets = np.subtract.outer(np.arange(frame.dim), np.arange(frame.dim))
        band1 = np.abs(offsets) == 1
        assert np.array_equal(drive.dense() != 0, (np.abs(offsets) >= 1) & (np.abs(offsets) <= k))
        b0 = frame.b0_bands.dense()
        assert np.all(b0[~band1] == 0)
        assert np.all(b0[band1] != 0)
    with pytest.raises(ValidationError):
        SectorFrame(params, 0).ansatz_bands(np.zeros(n // 2 + 1))


def test_band_matrix_layout():
    # row w + o of the stack holds offset o; the dense form keeps every
    # entry, and a stack of two matrices gives the stack of their dense forms
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3, 7):
        for w in (0, 1, 2, 4):
            diagonal = rng.normal(size=dim)
            uppers = [rng.normal(size=max(dim - o, 0)) + 1j * rng.normal(size=max(dim - o, 0))
                      for o in range(1, w + 1)]
            band = BandMatrix.from_uppers(diagonal, uppers)
            expected = np.diag(diagonal).astype(complex)
            for o, upper in enumerate(uppers, 1):
                if o < dim:
                    expected += np.diag(upper, o) + np.diag(upper.conj(), -o)
            assert band.data.shape == (2 * w + 1, dim)
            assert np.array_equal(band.dense(), expected)
            other = BandMatrix.from_uppers(
                rng.normal(size=dim), [rng.normal(size=max(dim - o, 0)) for o in range(1, w + 1)])
            pair = BandMatrix(np.stack([band.data, other.data]))
            assert np.array_equal(pair.dense(), np.stack([expected, other.dense()]))


@pytest.mark.parametrize("n", [2, 3, 20, 21])
def test_h0_bands_of_many_fields_stack_single_fields(n):
    # an array of fields gives, bitwise, the stack of the one-field matrices
    # and of their dense forms
    h = np.array([0.3, 1.0, 1.7])
    for frame in (SectorFrame(ModelParams(n, 0.4), parity) for parity in (0, 1)):
        stack = frame.h0_bands(h)
        assert np.array_equal(stack.data, np.stack([frame.h0_bands(x).data for x in h]))
        assert np.array_equal(stack.dense(), np.stack([frame.h0_bands(x).dense() for x in h]))
