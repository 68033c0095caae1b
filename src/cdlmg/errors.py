"""Exception types shared across the package.

Validation errors signal bad inputs (CLI exit code 1); the RuntimeError
subclasses signal numerical failures of an otherwise valid run (exit code 2).
"""


class ValidationError(ValueError):
    """Invalid parameters or configuration."""


class StructureError(RuntimeError):
    """A driving term violates the expected banded structure.

    Raised when odd-offset or diagonal content exceeds tolerance, which
    would falsify the banded form the extraction relies on.
    """


class ConvergenceError(RuntimeError):
    """Step-size refinement failed to converge the integrator."""


class NormError(RuntimeError):
    """The propagated state's norm drifted from 1 beyond tolerance."""


class DecompositionError(RuntimeError):
    """An operator decomposition left a residual above tolerance."""
