"""Counterdiabatic driving of the Lipkin-Meshkov-Glick model.

Collective-spin operators and spectra, exact and approximate transitionless
driving terms, physical-operator decompositions of their banded structure,
time-dependent Schrödinger propagation with fidelity tracking, and a hybrid
banded-ansatz pulse optimizer with harmonic fits.
"""

__version__ = "0.1.0"

from .ansatz import (
    BandCoefficients,
    FitEvaluation,
    HarmonicFit,
    OptimizeResult,
    evaluate_fit,
    fit_harmonics,
    optimize,
)
from .band_operators import (
    OperatorDecomposition,
    decompose_band,
    solve_first_band_beta,
)
from .counterdiabatic import (
    BandTable,
    analytic_cd,
    band_table,
    exact_cd,
    hp_coefficient,
)
from .dynamics import (
    AnsatzDrive,
    Bare,
    DecomposedDrive,
    ExactCD,
    HPCorrection,
    Trajectory,
    Truncated,
    evolve,
    evolve_all,
    fidelity,
    parse_protocol,
)
from .errors import (
    ConvergenceError,
    DecompositionError,
    NormError,
    StructureError,
    ValidationError,
)
from .figures import FIGURES, run_figure
from .ramps import RampSchedule
from .spectrum import GapTable, gap_series
from .spin_algebra import (
    DickeSector,
    ModelParams,
    SpinOperators,
    build_h0,
    build_spin_ops,
)

__all__ = [
    "__version__",
    # spin algebra
    "DickeSector", "ModelParams", "SpinOperators", "build_spin_ops", "build_h0",
    # spectrum
    "GapTable", "gap_series",
    # counterdiabatic
    "BandTable", "exact_cd", "band_table", "hp_coefficient", "analytic_cd",
    # band operators
    "OperatorDecomposition", "solve_first_band_beta", "decompose_band",
    # dynamics
    "RampSchedule", "Trajectory", "evolve", "evolve_all", "fidelity", "parse_protocol",
    "Bare", "ExactCD", "Truncated", "HPCorrection", "AnsatzDrive",
    "DecomposedDrive",
    # ansatz
    "BandCoefficients", "OptimizeResult", "HarmonicFit", "FitEvaluation",
    "optimize", "fit_harmonics", "evaluate_fit",
    # figures
    "FIGURES", "run_figure",
    # errors
    "ValidationError", "StructureError",
    "ConvergenceError", "DecompositionError", "NormError",
]
