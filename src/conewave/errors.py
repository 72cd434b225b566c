"""Exception types shared across the package: one per outcome a caller acts
on.  A refused input is InvalidInput, a computation that does not converge
is QuadratureFailure, and the rest are the outcomes a caller catches by
name."""


class ConewaveError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(ConewaveError, ValueError):
    """Argument outside the domain of a formula (also a ValueError)."""


class QuadratureFailure(ConewaveError):
    """A quadrature, mode sum or Newton iteration did not reach its error
    target."""


class GeometricDirection(ConewaveError):
    """Scattering evaluated at a pole without a cancelling sine factor."""


class WindowContaminated(ConewaveError):
    """Fit window around a trace singularity contains other peaks."""


class OutOfGrid(ConewaveError):
    """Pullback point falls outside a sampled grid.  Nothing raises it now;
    it stays only because bench/ imports it, until ROADMAP item 4."""
