"""Exact coefficient fields: the rationals and prime fields F_p.

A field is an arithmetic policy over plain Python numbers, not a wrapper
around each element.  Over Q a coefficient is an ``int`` until a division
leaves a non-integer, which becomes a ``fractions.Fraction``; over F_p it is
an ``int`` in ``range(p)``.  Series kernels combine coefficients with the
native ``+ - *`` operators and hand the unreduced results back to the field
once, at their boundary: ``reduce`` for a coefficient map and ``coerce`` for
a single scalar.  Division goes through ``inv``, never through ``/``.
A kernel that wants integer arithmetic asks ``integral`` for a coefficient
map scaled to ints by a common denominator, and passes the product of those
denominators back to ``reduce``, which divides each result once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import GPSeriesError, TooManyDigits


def digits(x, text=str) -> str:
    """text(x), by default str of an int or a Fraction, or TooManyDigits
    where Python refuses to write a number with that many decimal digits."""
    try:
        return text(x)
    except ValueError:
        raise TooManyDigits(f"a number has more than {sys.get_int_max_str_digits()}"
                            " digits, too many to print") from None


# Miller-Rabin with the first 13 prime bases is deterministic below this
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic primality test for p < _MR_LIMIT."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RationalField:
    """The field of exact rationals, characteristic zero."""

    name: str = "q"

    @property
    def characteristic(self) -> int:
        return 0

    def coerce(self, v):
        if isinstance(v, int):
            return int(v)
        if isinstance(v, Fraction):
            return v.numerator if v.denominator == 1 else v
        raise GPSeriesError(f"cannot coerce {v!r} into Q")

    def integral(self, coeffs: dict):
        """(ints, den): the map times the least common denominator of its
        values, and that denominator."""
        dens = {c.denominator for c in coeffs.values() if c.__class__ is Fraction}
        if not dens:
            return coeffs, 1
        den = math.lcm(*dens)
        return {g: c.numerator * (den // c.denominator)
                for g, c in coeffs.items()}, den

    def reduce(self, coeffs: dict, den: int = 1) -> dict:
        """The nonzero entries of a coefficient map, each divided by den
        (an integral Fraction, as a product or a sum can leave, becomes an
        int)."""
        if den == 1:
            return {g: c.numerator if c.__class__ is Fraction
                    and c.denominator == 1 else c
                    for g, c in coeffs.items() if c}
        coerce = self.coerce
        return {g: coerce(Fraction(c, den)) for g, c in coeffs.items() if c}

    def one(self):
        return 1

    def inv(self, x):
        return self.coerce(Fraction(1, self.coerce(x)))

    def power(self, x, k: int):
        return self.inv(x) ** -k if k < 0 else self.coerce(x) ** k

    def format(self, x) -> str:
        x = self.coerce(x)
        return f"{digits(x.numerator)}/{digits(x.denominator)}"

    def parse(self, s: str):
        if "/" in s:
            num, den = s.split("/")
            return self.coerce(Fraction(int(num), int(den)))
        return int(s)


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p."""

    p: int

    def __post_init__(self):
        if self.p >= _MR_LIMIT:
            raise GPSeriesError(f"{self.p} is too large to certify as prime")
        if not _is_prime(self.p):
            raise GPSeriesError(f"{self.p} is not prime")

    @property
    def name(self) -> str:
        return f"fp:{self.p}"

    @property
    def characteristic(self) -> int:
        return self.p

    def coerce(self, v):
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise GPSeriesError(f"denominator vanishes in F_{self.p}")
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        raise GPSeriesError(f"cannot coerce {v!r} into F_{self.p}")

    def integral(self, coeffs: dict):
        """(ints, den): the values are ints already, so den is 1."""
        return coeffs, 1

    def reduce(self, coeffs: dict, den: int = 1) -> dict:
        """The nonzero entries of a coefficient map, each divided by den
        and reduced mod p."""
        p = self.p
        if den != 1:
            d = self.inv(den)
            return {g: r for g, c in coeffs.items() if (r := c * d % p)}
        return {g: r for g, c in coeffs.items() if (r := c % p)}

    def one(self):
        return 1

    def inv(self, x):
        x = self.coerce(x)
        if x == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return pow(x, -1, self.p)

    def power(self, x, k: int):
        if k < 0:
            return pow(self.inv(x), -k, self.p)
        return pow(self.coerce(x), k, self.p)

    def format(self, x) -> str:
        return digits(self.coerce(x))

    def parse(self, s: str):
        return int(s) % self.p


QQ = RationalField()


def field_from_name(name: str):
    """Inverse of ``field.name``: "q" or "fp:<p>"."""
    if name == "q":
        return QQ
    if name.startswith("fp:"):
        return PrimeField(int(name[3:]))
    raise GPSeriesError(f"unknown field {name!r}")
