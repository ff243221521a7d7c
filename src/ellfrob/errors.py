"""Exception hierarchy.

DomainError covers expected failures on bad input (exit code 1 in the CLI);
InternalError covers broken invariants that indicate a bug (exit code 2).
"""


class EllfrobError(Exception):
    pass


class DomainError(EllfrobError):
    pass


class InternalError(EllfrobError):
    pass


class NotAUnit(DomainError):
    pass


class ModulusMismatch(DomainError):
    pass


class DenominatorMismatch(DomainError):
    """Fractions over different f, or over different localizer sets."""


class NotIntegrable(DomainError):
    """Antiderivative obstruction at a degree s*p-1 monomial; carries s."""

    def __init__(self, s, msg=None):
        self.s = s
        super().__init__(msg or "coefficient of x^(%d*p-1) is not divisible by p" % s)

    def __reduce__(self):  # a worker sends its error pickled
        return type(self), (self.s, str(self))


class DenominatorNotLocalizer(DomainError):
    pass


class SingularPair(DomainError):
    pass


class NotTangential(DomainError):
    pass


class NotOrdinary(DomainError):
    pass


class SingularSystem(InternalError):
    pass


class BNotUnit(DomainError):
    pass


class TOutOfRange(DomainError):
    pass


class NotStabilized(DomainError):
    pass


class SigmaSingular(DomainError):
    pass


class PropertyViolation(InternalError):
    def __init__(self, clause, msg=None):
        self.clause = clause
        super().__init__(msg or "property violated: %s" % clause)

    def __reduce__(self):  # a worker sends its error pickled
        return type(self), (self.clause, str(self))


class InternalMismatch(InternalError):
    pass


class TheoremViolation(InternalError):
    pass


class DegreeMismatch(InternalError):
    pass


class NotDivisible(InternalError, ArithmeticError):
    """An exact division by p met a coefficient that p does not divide."""


class NotMonic(InternalError):
    pass


class PrecisionOutOfRange(InternalError):
    pass


class FFTRoundingError(InternalError):
    """A floating-point FFT product was not provably exact."""


class InvalidModulus(DomainError, ValueError):
    pass


class PrimeTooSmall(DomainError):
    pass


class NegativeExponent(DomainError, ValueError):
    """A polynomial raised to a negative power."""


class UsageError(DomainError):
    """A command line that argparse rejects."""


class WorkerDied(InternalError):
    """A forked worker of a parallel map ended without sending its results."""
