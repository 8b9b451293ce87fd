"""Exception types shared across the library."""


class DiscformsError(Exception):
    """Base class for all library errors."""


class BoundaryPoint(DiscformsError):
    """A point is outside the disc or too close to its boundary."""


class NonUnitary(DiscformsError):
    """A group element fails the SU(1,1) normalization |a|^2 - |b|^2 = 1."""


class BudgetExceeded(DiscformsError):
    """Orbit enumeration passed its element cap or dedup radius limit."""


class UnboundedSeed(DiscformsError):
    """A rational seed has poles too close to the closed disc."""


class QuadratureDiverged(DiscformsError):
    """Grid halving did not show convergence of a quadrature value."""


class TargetNotReached(DiscformsError):
    """Polynomial approximation hit the degree cap before the target norm."""


class DegenerateBasis(DiscformsError):
    """All candidate sections vanish at the test point."""


class ConfigError(DiscformsError):
    """Malformed configuration file or inconsistent option values."""
