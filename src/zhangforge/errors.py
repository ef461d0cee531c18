"""Exception hierarchy for the geometry kernel and the checker suite."""


class ZhangForgeError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(ZhangForgeError):
    """Operands live in different ambient dimensions, or a point has the wrong length."""


class Unbounded(ZhangForgeError):
    """A halfspace representation describes an unbounded set."""


class Infeasible(ZhangForgeError):
    """A linear program has no feasible point."""


class DegenerateBody(ZhangForgeError):
    """A full-dimensional convex body was required but the input is lower-dimensional."""


class OriginMissing(ZhangForgeError):
    """An operation requires 0 to belong to the body (or its projection)."""


class RouteUnsupported(ZhangForgeError):
    """The requested (route, direction, exponent) combination is not defined."""


class ExponentOutOfRange(ZhangForgeError):
    """Exponent outside the admissible range of the requested quantity."""


class ZeroBase(ZhangForgeError):
    """A radial normalization g(0) vanished."""


class HypothesesViolated(ZhangForgeError):
    """The discrete hypotheses (maximum column at the origin, M >= 1) do not hold."""


class NoRoot(ZhangForgeError):
    """The scale equation for the discrete comparison profile has no root.

    This would falsify the existence lemma it implements; it is a hard failure.
    """


class NoCrossing(ZhangForgeError):
    """No integer crossing point separates the fattened and plain section profiles.

    This would falsify the crossing lemma it implements; it is a hard failure.
    """


class UnknownChecker(ZhangForgeError):
    """Checker identifier not present in the registry."""


class EmptyProjectionLattice(ZhangForgeError):
    """The projection of the body contains no lattice point."""


class ConfigError(ZhangForgeError):
    """Invalid suite configuration."""


class SingularMap(ConfigError):
    """An affine map required to be invertible is singular."""


class DegenerateSpec(ConfigError):
    """A body specification could not be realized as a full-dimensional polytope."""
