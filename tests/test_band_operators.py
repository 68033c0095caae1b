import numpy as np
import pytest

from cdlmg import (
    BandTable,
    DickeSector,
    ModelParams,
    OperatorDecomposition,
    ValidationError,
    band_table,
    build_spin_ops,
    decompose_band,
    exact_cd,
    solve_first_band_beta,
)
from cdlmg.band_operators import _band_family
from conftest import block_angle_rate_fd, even_projector


def spin_products(n):
    ops = build_spin_ops(DickeSector(n))
    return ops.sx, ops.sy, ops.sz


# dense references for the closed-form band family, from the spin matrices

def _power(mat, p):
    return np.linalg.matrix_power(mat, p)


def dense_bj(ops, j):
    """B_j: Sz^{j/2} (SxSy+SySx) Sz^{j/2} (j even), Sz^p SxSy Sz^q +
    Sz^q SySx Sz^p with p, q = (j-1)/2, (j+1)/2 (j odd)."""
    zlo = _power(ops.sz, j // 2)
    if j % 2 == 0:
        return zlo @ (ops.sx @ ops.sy + ops.sy @ ops.sx) @ zlo
    zhi = _power(ops.sz, j // 2 + 1)
    return zlo @ ops.sx @ ops.sy @ zhi + zhi @ ops.sy @ ops.sx @ zlo


def dense_generator(ops, b):
    """G_b = i(S-^{2b} - S+^{2b})."""
    return 1j * (_power(ops.sminus, 2 * b) - _power(ops.splus, 2 * b))


def dense_dressing(ops, b, j):
    """Sz^{j/2} G_b Sz^{j/2} (j even), Sz^p G_b Sz^q + Sz^q G_b Sz^p (j odd)."""
    gen, zlo = dense_generator(ops, b), _power(ops.sz, j // 2)
    if j % 2 == 0:
        return zlo @ gen @ zlo
    zhi = _power(ops.sz, j // 2 + 1)
    return zlo @ gen @ zhi + zhi @ gen @ zlo


def assert_column_matches(column, dense, b):
    # the closed-form column is the dense operator's offset-2b band
    band = np.diagonal(dense, 2 * b).imag
    assert np.max(np.abs(column - band)) <= 1e-14 * np.max(np.abs(band))


def test_bj_definitions():
    sx, sy, sz = spin_products(5)
    design = _band_family(DickeSector(5), 1)[1]
    assert_column_matches(design[:, 0], sx @ sy + sy @ sx, 1)
    assert_column_matches(design[:, 1], sx @ sy @ sz + sz @ sy @ sx, 1)
    assert_column_matches(design[:, 2], sz @ (sx @ sy + sy @ sx) @ sz, 1)


@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_bj_hermitian_single_band(n):
    # every B_j is one Hermitian, parity-preserving band, which its column
    # holds
    ops = build_spin_ops(DickeSector(n))
    pi_e = even_projector(n)
    design = _band_family(DickeSector(n), 1)[1]
    assert design.shape == (n - 1, n - 1)
    for j in range(n - 1):
        bj = dense_bj(ops, j)
        assert np.max(np.abs(bj - bj.conj().T)) <= 1e-12
        assert np.max(np.abs(bj @ pi_e - pi_e @ bj)) <= 1e-10
        table = band_table(bj)
        assert set(table.bands) <= {1}
        assert_column_matches(design[:, j], bj, 1)


def test_band_generator_small_cases():
    # b=1, N=2: i(S-^2 - S+^2) = 2 (SxSy + SySx), the B_0 column doubled
    sx, sy, _ = spin_products(2)
    gen = dense_generator(build_spin_ops(DickeSector(2)), 1)
    assert np.allclose(gen, 2 * (sx @ sy + sy @ sx))
    assert_column_matches(2 * _band_family(DickeSector(2), 1)[1][:, 0], gen, 1)
    # b=2, N=4: single offset-4 entry of magnitude 24
    gen4 = dense_generator(build_spin_ops(DickeSector(4)), 2)
    assert gen4[0, 4] == pytest.approx(24j)
    assert _band_family(DickeSector(4), 2)[1][0, 0] == pytest.approx(24)


@pytest.mark.parametrize("n,b", [(4, 1), (4, 2), (7, 3), (10, 5)])
def test_band_generator_structure(n, b):
    ops = build_spin_ops(DickeSector(n))
    gen = dense_generator(ops, b)
    assert np.max(np.abs(gen - gen.conj().T)) <= 1e-12
    pi_e = even_projector(n)
    assert np.max(np.abs(gen @ pi_e - pi_e @ gen)) <= 1e-10
    mat = gen.copy()
    rows = np.arange(n + 1 - 2 * b)
    mat[rows, rows + 2 * b] = 0
    mat[rows + 2 * b, rows] = 0
    assert np.max(np.abs(mat)) == 0.0  # only offset-2b diagonals populated
    if b >= 2:  # band 1 takes the B_j (test_bj_hermitian_single_band)
        design = _band_family(DickeSector(n), b)[1]
        for j in range(n - 2 * b + 1):
            assert_column_matches(design[:, j], dense_dressing(ops, b, j), b)


@pytest.mark.parametrize("n", [12, 17, 24])
def test_band_family_matches_dense_dressings(n):
    # the closed-form columns of bands 1..3 against the dense products
    ops = build_spin_ops(DickeSector(n))
    for b in (1, 2, 3):
        design = _band_family(DickeSector(n), b)[1]
        for j in range(design.shape[1]):
            dense = dense_bj(ops, j) if b == 1 else dense_dressing(ops, b, j)
            assert_column_matches(design[:, j], dense, b)


def test_first_band_beta_three_particles():
    beta, residuals = solve_first_band_beta(DickeSector(3))
    val0 = 1 / (2 * np.sqrt(3))
    val1 = 1 / np.sqrt(3)
    assert beta[0, 0] == pytest.approx(val0, abs=1e-10)
    assert beta[1, 0] == pytest.approx(val0, abs=1e-10)
    assert abs(beta[0, 1]) == pytest.approx(val1, abs=1e-10)
    assert beta[0, 1] == pytest.approx(-beta[1, 1], abs=1e-12)
    assert residuals.max() < 1e-10


def test_first_band_beta_two_particles():
    # single elementary pattern equals (SxSy+SySx) itself
    beta, residuals = solve_first_band_beta(DickeSector(2))
    assert beta.shape == (1, 1)
    assert beta[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert residuals.max() < 1e-12
    # consistency with the exact two-particle driving term
    params = ModelParams(2, 0.0)
    rate = block_angle_rate_fd(params, 0.8, 0.5, idx=[0, 2])
    term = exact_cd(params, 0.8, 0.5)
    b0 = dense_bj(build_spin_ops(DickeSector(2)), 0)
    assert np.max(np.abs(term - rate * beta[0, 0] * b0)) < 1e-6


@pytest.mark.parametrize("n", range(2, 13))
def test_first_band_beta_residual_sweep(n):
    _, residuals = solve_first_band_beta(DickeSector(n))
    assert residuals.max() < 1e-10


def test_decompose_zero_target():
    # an all-zero band and a band the table lacks
    for bands in ({2: np.zeros(3)}, {}):
        dec = decompose_band(BandTable(DickeSector(6), bands), 2)
        assert dec.terms == []
        assert dec.residual == 0.0


def test_decompose_rejects_stray_weight():
    # band 2 of the seven-state sector has 7 - 4 = 3 entries
    with pytest.raises(ValidationError):
        decompose_band(BandTable(DickeSector(6), {2: np.ones(5)}), 2)


def test_decompose_band_one_recovers_rotation_weights():
    # three-particle first band decomposes over B0, B1 with the two-level
    # rotation rates combined as in the beta solve
    params = ModelParams(3, 0.0)
    h, hdot = 0.7, 0.5
    rate_even = block_angle_rate_fd(params, h, hdot, idx=[0, 2])
    rate_odd = block_angle_rate_fd(params, h, hdot, idx=[1, 3])
    term = exact_cd(params, h, hdot)
    dec = decompose_band(band_table(term), 1)
    coeffs = {t.label: t.coefficient for t in dec.terms}
    assert coeffs["(SxSy+SySx)"] == pytest.approx(
        (rate_even + rate_odd) / (2 * np.sqrt(3)), abs=1e-6)
    assert coeffs["SxSySz+SzSySx"] == pytest.approx(
        (rate_odd - rate_even) / np.sqrt(3), abs=1e-6)


def test_decompose_four_particles_matches_printed_form():
    # first band with entries (x11, x12, x13) expands over three operators
    sector = DickeSector(4)
    x11, x12, x13 = 0.7, -0.3, 1.9
    mat = np.zeros((5, 5), dtype=complex)
    for row, x in ((0, x11), (1, x12), (2, x13)):
        mat[row, row + 2] = 1j * x
        mat[row + 2, row] = -1j * x
    dec = decompose_band(BandTable(sector, {1: np.array([x11, x12, x13])}), 1)
    coeffs = {t.label: t.coefficient for t in dec.terms}
    s6 = 2 * np.sqrt(6)
    assert coeffs["(SxSy+SySx)"] == pytest.approx((x11 + x13) / s6, abs=1e-12)
    assert coeffs["SxSySz+SzSySx"] == pytest.approx((x13 - x11) / s6, abs=1e-12)
    assert coeffs["Sz(SxSy+SySx)Sz"] == pytest.approx(
        (x11 + x13) / s6 - x12 / 3, abs=1e-12)
    assert np.max(np.abs(dec.reconstruct() - mat)) < 1e-10


def test_decompose_higher_band_self_consistency():
    term = exact_cd(ModelParams(6, 0.0), 0.9, 0.5)
    table = band_table(term)
    target = BandTable(table.sector, {2: table.bands[2]}).reconstruct()
    dec = decompose_band(table, 2)
    assert dec.residual < 1e-10
    rebuilt = dec.reconstruct()
    assert np.max(np.abs(rebuilt - target)) < 1e-10
    pi_e = even_projector(6)
    assert np.max(np.abs(rebuilt @ pi_e - pi_e @ rebuilt)) <= 1e-10


def test_empty_decomposition_reconstructs_to_zeros():
    sector = DickeSector(6)
    dec = OperatorDecomposition(sector, 2, [])
    assert np.array_equal(dec.reconstruct(), np.zeros((7, 7), dtype=complex))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_full_round_trip_over_all_bands(n):
    term = exact_cd(ModelParams(n, 0.0), 0.85, 0.5)
    table = band_table(term)
    total = np.zeros((n + 1, n + 1), dtype=complex)
    for b in table.bands:
        total += decompose_band(table, b).reconstruct()
    assert np.max(np.abs(total - term)) < 1e-9


def test_decomposition_json_export():
    term = exact_cd(ModelParams(4, 0.0), 0.8, 0.5)
    dec = decompose_band(band_table(term), 1)
    payload = dec.to_json_list()
    assert all(set(entry) == {"label", "coefficient"} for entry in payload)
