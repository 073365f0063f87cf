"""Exception hierarchy for the whole library.

Domain errors (bad values for an otherwise well-formed request) derive from
CalcError; ParseError is separate so the CLI can map the two onto distinct
exit codes.
"""


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
