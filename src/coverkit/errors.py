"""Exception types shared across the toolkit."""


class CoverkitError(Exception):
    """Base class for all toolkit errors."""


class DuplicateSites(CoverkitError):
    """Two generator sites coincide (closer than the geometric tolerance)."""


class SiteOutsideWorkspace(CoverkitError):
    """A generator site lies outside the workspace polygon."""


class InvalidDensity(CoverkitError, ValueError):
    """Density data or parameters that cannot define a density over the workspace."""


class EvalOutsideSupport(CoverkitError):
    """Density log-gradient requested where the density underflows to zero."""


class KernelMismatch(CoverkitError):
    """Power cost kernel paired with a plain Voronoi partition of unequal-radius agents."""


class NonMonotoneDescent(CoverkitError):
    """Descent cost increased beyond slack; quadrature is too coarse for this density."""


class NoConvergence(CoverkitError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class NonFiniteCost(CoverkitError, ValueError):
    """A cost matrix entry is NaN or infinite, so no assignment is defined."""


class InfeasibleShape(CoverkitError):
    """Assignment needs at least as many candidate sites as agents."""


class SizeLimit(CoverkitError):
    """Transport problem exceeds the m*k size cap."""
