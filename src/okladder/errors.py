"""Exception types shared across the package."""


class NonZeroRemainder(ArithmeticError):
    """An exact polynomial division left a nonzero remainder."""


class NonPolynomialResult(ArithmeticError):
    """A computation that must produce a polynomial produced a proper rational function."""


class MixedKinds(TypeError):
    """A Wronskian was requested over entries of different kinds."""


class EmptyList(ValueError):
    """A Wronskian was requested over an empty entry list."""


class IndexOutOfCone(ValueError):
    """A polynomial index outside the supported (m >= 0, n >= -1) cone."""


class ZeroDenominator(ZeroDivisionError):
    """A rational-function operation would divide by the zero function."""


class SingularMap(ValueError):
    """A parameter map whose denominator vanishes identically."""


class MalformedIndexList(ValueError):
    """A Wronskian index family outside the validity range of its construction."""


class DuplicateIndex(ValueError):
    """A Wronskian index collides with the base index set."""


class ExcludedDegree(ValueError):
    """A requested degree collides with the gap set of an exceptional family."""


class SingularWronskian(ValueError):
    """A factorization seed Wronskian with a real zero; the chained potential is singular."""


class PoleAtPoint(ZeroDivisionError):
    """Evaluation requested at a pole of a rational function."""


class GridTooCoarse(RuntimeError):
    """Grid refinement moved an eigenvalue by more than the allowed tolerance."""


class InvalidIndices(ValueError):
    """Export indices invalid for the requested kind."""


class CertificateFailed(ArithmeticError):
    """An exact certificate that must hold by theorem failed to hold."""


class CorruptCache(ValueError):
    """An on-disk Okamoto table cache that is unreadable or fails validation."""
