"""Exact arithmetic with generalized power series over Z^k.

Series are stored as finite coefficient maps that are exact within a box,
with cone certificates bounding the true support.  On top of the ring
operations the package provides differentials, residues of generalized
fractions, and combinatorial identities proved through residues.
"""

from .errors import (
    BadDimension,
    BadVariableIndex,
    BoxNotContained,
    BoxUnderflow,
    DimensionMismatch,
    GPSeriesError,
    IncompatibleAmbient,
    LeadingTermUncertain,
    MalformedJSON,
    NonPositiveSupportElement,
    NotParameters,
    NotPositive,
    NotRegular,
    OutsideBox,
    ParseError,
    PositiveCharacteristic,
    SingularOrderMatrix,
    TooManyDigits,
    UndeclaredVariable,
    UnknownMode,
    ZeroSeries,
)
from .exponents import (
    Box,
    Cone,
    GroupSplit,
    TermOrder,
    box_intersect,
    lex_order,
    make_cone,
    parse_order,
    power_exhaustion_bound,
    validate_order,
)
from .fields import QQ, PrimeField, RationalField, field_from_name
from .series import (
    Ambient,
    Series,
    add,
    coefficient_at,
    factorize,
    h_coefficient_at,
    invert,
    log1p,
    mul,
    mul_within,
    power,
    series_from_json,
    series_to_json,
    substitute,
    truncate,
)
