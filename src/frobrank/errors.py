"""Exception types shared across the toolkit."""


class FrobrankError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(FrobrankError):
    """Operand shapes do not conform."""


class FieldMismatch(FrobrankError):
    """Operands live over different fields."""


class FieldError(FrobrankError):
    """Bad field description: unknown tag or composite modulus."""


class ScalarError(FrobrankError):
    """A scalar value cannot be represented exactly in the target field."""


class ParseError(FrobrankError):
    """Malformed instance or certificate document."""


class InternalDisagreement(FrobrankError):
    """Equivalent tightness tests disagreed, or a freshly built
    certificate failed its own verification. Always a bug, never an
    expected outcome."""


class BudgetExceeded(FrobrankError):
    """Exhaustive search space exceeds the configured budget."""


class NotFiniteField(FrobrankError):
    """Operation requires matrices over a prime field."""


class BaseInvalid(FrobrankError):
    """Provided base pair does not satisfy the matrix equation."""
