"""Exception hierarchy shared by all modules.

Everything derives from PopucError so callers (in particular the CLI) can
separate library failures from genuine bugs.  Errors that indicate bad user
input additionally derive from ValueError; errors that indicate a failed
mathematical check derive from ArithmeticError.  An interior |a_k| >= 1 is
a SingularMomentError and a descent stopped by |Phi(0)| = 1 is an
InvalidCharacteristicError, so each is raised where it is detected.
"""


class PopucError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModulusError(PopucError, ValueError):
    """A modulus or length argument is out of range (e.g. M = 0)."""


class NonPrimeError(PopucError, ValueError):
    """A parameter that must be an odd prime is not one."""


class DuplicateOrderError(PopucError, ValueError):
    """A Kronecker spec contains repeated cyclotomic orders."""


class DegreeBoundError(PopucError, ValueError):
    """Polynomial degree exceeds the reversal bound n."""


class NonzeroRemainderError(PopucError, ArithmeticError):
    """An exact polynomial division left a remainder."""


class InvalidPayloadError(PopucError, ValueError):
    """A JSON payload is malformed: a key is missing, a value has the
    wrong type, or a number does not parse."""


class InsufficientMomentsError(PopucError, ValueError):
    """A moment sequence is too short for the requested operation."""


class SingularMomentError(PopucError, ArithmeticError):
    """Some Toeplitz determinant of the input moments is not positive."""


class TerminalMassError(PopucError, ArithmeticError):
    """The final reflection coefficient is not unimodular, so the ladder
    does not close into a finite para-orthogonal system."""


class InteriorCoefficientOutOfRangeError(SingularMomentError):
    """A reflection coefficient below the terminal one has |a_k| >= 1.
    Then Delta_{k+2} = Delta_{k+1} h_k (1 - a_k^2) <= 0, so the moments
    the ladder implies are singular."""


class InvalidCharacteristicError(PopucError, ArithmeticError):
    """A characteristic polynomial does not generate a valid system."""


class UnimodularConstantTermError(InvalidCharacteristicError):
    """Inverse recurrence descent hit |constant term| = 1 and cannot
    continue.  A polynomial whose descent stops there below the top is
    not a valid characteristic polynomial."""


class DualityViolationError(PopucError, ArithmeticError):
    """An exact mirror-duality assertion failed (implementation bug)."""


class WeightCheckFailureError(PopucError, ArithmeticError):
    """A floating-point weight identity exceeded its tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InternalInconsistencyError(PopucError):
    """Two independent computations of the same quantity disagree.  Inside
    the library this signals an implementation bug; ``from_json_dict``
    also raises it for a payload whose fields disagree with its own
    ``verblunsky``."""
