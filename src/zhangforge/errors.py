"""Exception hierarchy for the geometry kernel and the checker suite, and the
bases of the package's value types (``Record``, ``FrozenRecord``)."""


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


# ---------------------------------------------------------------------------
# value-type bases
# ---------------------------------------------------------------------------

class Record:
    """Base of the package's value types: ``==`` and ``repr`` field by field
    over ``_fields`` (the constructor's parameters, in order), and pickling and
    copying through the constructor.  Each type writes its own ``__init__``
    with one assignment per field.  These plain classes stand in for
    ``dataclasses``, whose import (with ``inspect`` and ``ast``) and generated
    code would cost every CLI process about 20 ms; they live here because
    ``verdict`` imports nothing else of the package.  A mutable record is
    unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._values()


class FrozenRecord(Record):
    """A ``Record`` whose fields cannot be reassigned once ``__init__`` has set
    them (through ``object.__setattr__``); hashed as the tuple of its fields.
    ``__reduce__`` rebuilds it through the constructor, since ``pickle`` and
    ``copy`` cannot set the attributes of an instance that refuses them."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
