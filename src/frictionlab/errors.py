"""Error types shared across the lab.

Solver drivers catch the *Breakdown* family and report the breakdown's
`status` attribute as their result status; everything else propagates to
the caller (the CLI maps validation errors to exit code 2 and breakdowns
to exit code 3).
"""


class FrictionLabError(Exception):
    """Base class for all package errors."""


# --- validation-time errors (CLI exit code 2) ---------------------------

class ValidationError(FrictionLabError):
    """Initial data or configuration violates a precondition."""


class MeanDefect(ValidationError):
    """Density perturbation does not integrate to zero."""


class RangeViolation(ValidationError):
    """Density leaves the admissible initial band."""


class NonFinite(ValidationError):
    """NaN/inf in data handed to the package."""


class NotTorus(ValidationError):
    """Operation requires a periodic grid."""


class NonzeroTotalMass(ValidationError):
    """Line profile deviation does not integrate to zero."""


class InsufficientSamples(ValidationError):
    """Too few samples inside the fit window."""


class NonPositiveSample(ValidationError):
    """Log-linear fit requires strictly positive samples."""


class NoVacuum(ValidationError):
    """Profile has no vacuum interval."""


class MultipleVacuumIntervals(ValidationError):
    """Profile has more than one vacuum interval; query them one at a time."""


class PreconditionViolation(ValidationError):
    """A lower-order derivative does not vanish at the vacuum edge."""


class ResonantDenominator(ValidationError):
    """Amplitude-ratio denominator 1 + eps^2*lambda is numerically zero."""


class InversionFailure(FrictionLabError):
    """Sampled trajectory map is not monotone; profile violates preconditions."""


# --- run-time breakdowns (CLI exit code 3) -------------------------------

class SolverBreakdown(FrictionLabError):
    """Base class for failures during time integration; `status` is the
    SimulationResult status a solver reports for it."""

    status = "breakdown"


class RangeBreach(SolverBreakdown):
    """Density left the a-priori band [rho_lower/2, 2*rho_upper]."""

    status = "range_breach"


class VacuumApproach(SolverBreakdown):
    """Eulerian limit solver refuses near-vacuum states."""

    status = "vacuum"


class Blowup(SolverBreakdown):
    """The solution became non-finite or exceeded the blow-up threshold."""

    status = "nonfinite"
