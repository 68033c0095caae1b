"""Physical-operator realizations of the banded driving terms.

Band b of a driving term (offset 2b in the S_z basis) is spanned by the
Hermitian generator G_b = i(S_-^{2b} - S_+^{2b}) dressed with symmetrized
S_z powers.  For the first band the dressing family reduces to

    B_j = Sz^{j/2} (SxSy + SySx) Sz^{j/2}                      (j even)
    B_j = Sz^{(j-1)/2} SxSy Sz^{(j+1)/2} + h.c. ordering       (j odd)

and the coefficients expressing each elementary band pattern in this family
follow from a small linear solve.

``_band_family`` gives band b's dressing family as the family's entries on
that band, in closed form from the ladder coefficients, for
``decompose_band``, ``solve_first_band_beta`` and ``decomposition_gate``.
A decomposition holds each term's band column only; its ``reconstruct()``
builds the matrix of the whole sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import DecompositionError, ValidationError
from .counterdiabatic import BandTable
from .spin_algebra import DickeSector, _ladder_coefficients

__all__ = [
    "DecompositionTerm",
    "OperatorDecomposition",
    "solve_first_band_beta",
    "decompose_band",
    "decomposition_gate",
]

RECONSTRUCTION_TOL = 1e-10
BETA_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class DecompositionTerm:
    """A dressed operator: i*column on its band's offset 2b, -i*column on -2b."""

    coefficient: float
    column: np.ndarray = field(repr=False)
    label: str


@dataclass(frozen=True)
class OperatorDecomposition:
    """Expansion of one band of a driving term over physical operators."""

    sector: DickeSector
    band: int
    terms: List[DecompositionTerm] = field(repr=False)
    residual: float = 0.0

    def reconstruct(self) -> np.ndarray:
        """The driving term of the one band sum_j c_j column_j."""
        band = np.sum([t.coefficient * t.column for t in self.terms], axis=0)
        return BandTable(self.sector, {self.band: band}).reconstruct()

    def to_json_list(self) -> list[dict]:
        return [{"label": t.label, "coefficient": t.coefficient} for t in self.terms]


def _sz(p: int) -> str:
    return "" if p == 0 else "Sz" if p == 1 else f"Sz^{p}"


def _band_family(sector: DickeSector, b: int):
    """Band b's dressing labels and design matrix, whose column j is the
    imaginary part of dressing j's offset-2b superdiagonal, in closed form:
    with g_i = c_i ... c_{i+2b-1} (ladder coefficients) and m_i = i - N/2,
    Sz^p G_b Sz^q carries i g_i m_i^p m_{i+2b}^q at (i, i+2b).  For b=1 the
    dressings of G_1 coincide with the B_j up to normalization; the B_j are
    used, under their first-band labels: (SxSy+SySx) is G_1/2, and SxSy and
    SySx each carry i g_i/4 at (i, i+2)."""
    rows = sector.dim - 2 * b
    ladder = _ladder_coefficients(sector.n)
    g = np.prod([ladder[o:o + rows] for o in range(2 * b)], axis=0)
    lo, hi = sector.m_values[:rows, None], sector.m_values[2 * b:, None]
    p, odd_j = np.arange(rows) // 2, np.arange(rows) % 2 == 1
    dressing = np.where(odd_j, lo ** p * hi ** (p + 1) + lo ** (p + 1) * hi ** p, (lo * hi) ** p)
    design = (np.where(odd_j, 0.25, 0.5) if b == 1 else 1.0) * g[:, None] * dressing
    if b == 1:
        even, odd = "{0}(SxSy+SySx){0}", "{0}SxSy{1}+{1}SySx{0}"
    else:
        gen = f"i(S-^{2*b}-S+^{2*b})"
        even, odd = "{0}" + gen + "{0}", "{0}" + gen + "{1}+sym"
    labels = [(odd if j % 2 else even).format(_sz(j // 2), _sz(j // 2 + 1))
              for j in range(rows)]
    return labels, design


def _scaled_lstsq(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least squares with column equilibration and one refinement step;
    the S_z dressings span many orders of magnitude at larger N."""
    scale = np.linalg.norm(design, axis=0)
    scale[scale == 0] = 1.0
    scaled = design / scale
    sol, *_ = np.linalg.lstsq(scaled, target, rcond=None)
    sol += np.linalg.lstsq(scaled, target - scaled @ sol, rcond=None)[0]
    return sol / scale


def solve_first_band_beta(sector: DickeSector):
    """Coefficients beta[i][j] expanding each elementary first-band pattern
    over the B_j family.

    The elementary pattern E_i carries +i at entry (i-1, i+1) and -i at its
    transpose, nothing else.  Returns ``(beta, residuals)`` with
    ``beta[i-1, j]`` the coefficient of B_j in E_i; raises
    DecompositionError when any least-squares residual exceeds tolerance.
    """
    if sector.n < 2:
        raise ValidationError("first-band solve needs N >= 2")
    design = _band_family(sector, 1)[1]
    rows = design.shape[0]
    beta, residuals = np.zeros((rows, design.shape[1])), np.zeros(rows)
    for i in range(rows):
        target = np.zeros(rows)
        target[i] = 1.0
        sol = _scaled_lstsq(design, target)
        beta[i] = sol
        residuals[i] = float(np.linalg.norm(design @ sol - target))
    if residuals.max() > BETA_RESIDUAL_TOL:
        raise DecompositionError(
            f"first-band solve residual {residuals.max():.3e} > {BETA_RESIDUAL_TOL:.0e} "
            f"at N={sector.n}")
    return beta, residuals


def _fit_band(design: np.ndarray, target: np.ndarray, b: int, n: int):
    """Family coefficients fitting `target` and their residual, which must
    not exceed RECONSTRUCTION_TOL (else DecompositionError)."""
    coeffs = _scaled_lstsq(design, target)
    residual = float(np.linalg.norm(design @ coeffs - target))
    if residual > RECONSTRUCTION_TOL:
        raise DecompositionError(
            f"band-{b} decomposition residual {residual:.3e} > "
            f"{RECONSTRUCTION_TOL:.0e} over {design.shape[1]} dressed operators at N={n}")
    return coeffs, residual


def decompose_band(table, b: int) -> OperatorDecomposition:
    """Express band b of a `BandTable` as a sum of S_z-dressed generators.

    A band the table lacks, or one within RECONSTRUCTION_TOL of zero, gives
    an empty decomposition.  Raises ValidationError when the band vector is
    not dim - 2b long, and DecompositionError when the dressing family
    cannot reproduce it to RECONSTRUCTION_TOL (the residual and family size
    are in the message).
    """
    sector = table.sector
    if not 1 <= b <= sector.n // 2:
        raise ValidationError(f"band index b={b} outside [1, {sector.n // 2}]")
    target_vec = table.bands.get(b, np.zeros(sector.dim - 2 * b))
    if len(target_vec) != sector.dim - 2 * b:
        raise ValidationError(
            f"band {b} has {len(target_vec)} entries, expected {sector.dim - 2 * b}")
    if np.max(np.abs(target_vec)) <= RECONSTRUCTION_TOL:
        return OperatorDecomposition(sector, b, [], 0.0)
    labels, design = _band_family(sector, b)
    coeffs, residual = _fit_band(design, target_vec, b, sector.n)
    terms = [DecompositionTerm(float(c), column, label)
             for c, column, label in zip(coeffs, design.T, labels)]
    return OperatorDecomposition(sector, b, terms, residual)


def decomposition_gate(sector: DickeSector, k: int):
    """Build the design matrices of bands 1..k once; returns check(table),
    which raises DecompositionError, as decompose_band would, when a band of
    the BandTable is not rebuilt by its dressing family."""
    designs = {b: _band_family(sector, b)[1] for b in range(1, min(k, sector.n // 2) + 1)}

    def check(table) -> None:
        for b, design in designs.items():
            vec = table.bands.get(b)
            if vec is not None and np.max(np.abs(vec)) > RECONSTRUCTION_TOL:
                _fit_band(design, vec, b, sector.n)
    return check
