"""Exception types shared across the package."""


class ConewaveError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(ConewaveError, ValueError):
    """Argument outside the domain of a formula (also a ValueError)."""


class OnFront(ConewaveError):
    """Evaluation time sits on a wave front of a closed-form kernel."""


class ModeTailTooLarge(ConewaveError):
    """Angular-mode truncation of a Bessel series is not converged."""


class OutOfGrid(ConewaveError):
    """Pullback point falls outside a sampled grid.  Nothing raises it now;
    it stays only because bench/ imports it, until ROADMAP item 4."""


class TangentRoot(ConewaveError):
    """Root of the front equation is tangent (vanishing derivative)."""


class QuadratureFailure(ConewaveError):
    """Adaptive quadrature did not reach its error target."""


class GeometricDirection(ConewaveError):
    """Scattering evaluated at a pole without a cancelling sine factor."""


class DegenerateDistance(ConewaveError):
    """Phase evaluation with a vanishing leg distance."""


class NoInteriorCriticalPoint(ConewaveError):
    """Stationary point of the composed phase is not on the open segment."""


class BadLeg(ConewaveError):
    """Inter-cone leg length outside (0, L)."""


class IncompleteSpectrum(ConewaveError):
    """Spectrum truncation is not damped enough for the requested mollifier."""


class WindowContaminated(ConewaveError):
    """Fit window around a trace singularity contains other peaks."""
