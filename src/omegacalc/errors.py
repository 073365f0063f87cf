"""Exception hierarchy for the whole library.

Domain errors (bad values for an otherwise well-formed request) derive from
CalcError; ParseError is separate so the CLI can map the two onto distinct
exit codes.  Record is the base of the library's plain value types.
"""


class Record:
    """A value built once and never changed: == compares the class and the
    slot values, hash is the hash of the slot values, and repr reads
    Name(field=...), as for a frozen dataclass.  A subclass lists its fields
    in __slots__; one without defaults or checks takes them positionally."""
    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            setattr(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (n, getattr(self, n)) for n in self.__slots__))


class CalcError(Exception):
    """Base class for domain errors."""


class ParseError(Exception):
    """`detail` is the message without its position; `position` is a
    character index, or None."""

    def __init__(self, message, position=None):
        self.detail = message
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


# ordinal arithmetic

class PrefixTooLarge(CalcError):
    pass


# surreal arithmetic / games

class DivisionByZero(CalcError):
    pass


class IllFormedGame(CalcError):
    pass


class NoConvergenceDetected(CalcError):
    pass


class InsufficientPrecision(CalcError):
    """A cut operand is known too little for the operation: a divisor or
    ln argument that is 0 above its order, or an exp argument whose order
    reaches exponent 0."""


# exp / ln

class RealPartNotZero(CalcError):
    pass


class NotInDomain(CalcError):
    pass


class LeadingCoefficientNotOne(CalcError):
    pass


class NonPositive(CalcError):
    pass


class ZeroInput(CalcError):
    pass


# gap labels / jumps

class UnsupportedDescriptor(CalcError):
    pass


class NotLimit(CalcError):
    pass


class NotIndecomposable(CalcError):
    pass


# skands

class OutOfClutchRegion(CalcError):
    pass


class InvalidPeriod(CalcError):
    pass


class InfiniteLength(CalcError):
    pass


class NotASet(CalcError):
    pass


class IoError(CalcError):
    pass


# output

class OutputTooLarge(CalcError):
    pass
