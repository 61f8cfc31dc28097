"""Exception hierarchy shared by all gpseries modules."""


class GPSeriesError(Exception):
    """Base class for all library errors."""


class SingularOrderMatrix(GPSeriesError):
    """Order matrix has determinant zero."""


class DimensionMismatch(GPSeriesError):
    """Exponent or matrix dimension does not match the ambient."""


class NonPositiveSupportElement(GPSeriesError):
    """A support element passed to a power bound is not strictly positive."""


class IncompatibleAmbient(GPSeriesError):
    """Operands live over different splits, orders or coefficient fields."""


class BoxUnderflow(GPSeriesError):
    """No nonempty exactness box can be certified for the result."""


class ZeroSeries(GPSeriesError):
    """Operation requires a nonzero series."""


class LeadingTermUncertain(GPSeriesError):
    """The certificate cannot pin down the leading term within the box."""


class NotPositive(GPSeriesError):
    """Operation requires a positive series (support strictly above zero)."""


class PositiveCharacteristic(GPSeriesError):
    """Operation is only defined over fields of characteristic zero."""


class OutsideBox(GPSeriesError):
    """Requested coefficient or slice is not covered by the exactness box."""


class BoxNotContained(GPSeriesError):
    """Truncation target box is not contained in the current box."""


class NotParameters(GPSeriesError):
    """Multiplicity determinant vanishes in the coefficient field."""


class NotRegular(GPSeriesError):
    """Parameter system is not regular (multiplicity determinant not +-1)."""


class BadVariableIndex(GPSeriesError):
    """Variable index out of range 1..n."""


class BadDimension(GPSeriesError):
    """Construction requires a larger dimension."""


class ParseError(GPSeriesError):
    """Expression syntax error, with position and expected tokens."""

    def __init__(self, message, line=1, column=0, expected=()):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.expected = tuple(expected)


class UndeclaredVariable(GPSeriesError):
    """Expression references a variable that was not declared."""


class TooManyDigits(GPSeriesError):
    """A number has more decimal digits than Python converts to or from
    text (``sys.get_int_max_str_digits()``, 4300 by default)."""


class UnknownMode(GPSeriesError, ValueError):
    """A Dyson method or n-form basis mode that does not exist was named."""
