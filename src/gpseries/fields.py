"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain ``fractions.Fraction`` values over the rationals and
``FpElement`` values over a prime field.  Both support the native ``+ - *``
operators, compare equal to ``0``/``1`` where appropriate, and are hashable,
so series code never needs to dispatch on the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GPSeriesError


class FpElement:
    """A residue modulo a prime, with field arithmetic."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def __add__(self, other):
        return FpElement(self.val + _val(other), self.p)

    __radd__ = __add__

    def __sub__(self, other):
        return FpElement(self.val - _val(other), self.p)

    def __rsub__(self, other):
        return FpElement(_val(other) - self.val, self.p)

    def __mul__(self, other):
        return FpElement(self.val * _val(other), self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __truediv__(self, other):
        o = other if isinstance(other, FpElement) else FpElement(other, self.p)
        if o.val == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.val * pow(o.val, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        return FpElement(_val(other), self.p) / self

    def __pow__(self, k: int):
        if k < 0:
            return FpElement(1, self.p) / self ** (-k)
        return FpElement(pow(self.val, k, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __repr__(self):
        return f"{self.val}"


def _val(x) -> int:
    return x.val if isinstance(x, FpElement) else x


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
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise GPSeriesError(f"cannot coerce {v!r} into Q")

    def from_fraction(self, fr: Fraction):
        return fr

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def inv(self, x):
        return 1 / self.coerce(x)

    def format(self, x) -> str:
        x = self.coerce(x)
        return f"{x.numerator}/{x.denominator}"

    def parse(self, s: str):
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))


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
        if isinstance(v, FpElement):
            if v.p != self.p:
                raise GPSeriesError("mixed prime fields")
            return v
        if isinstance(v, int):
            return FpElement(v, self.p)
        if isinstance(v, Fraction):
            return self.from_fraction(v)
        raise GPSeriesError(f"cannot coerce {v!r} into F_{self.p}")

    def from_fraction(self, fr: Fraction):
        if fr.denominator % self.p == 0:
            raise GPSeriesError(f"denominator vanishes in F_{self.p}")
        return FpElement(fr.numerator, self.p) / FpElement(fr.denominator, self.p)

    def zero(self):
        return FpElement(0, self.p)

    def one(self):
        return FpElement(1, self.p)

    def inv(self, x):
        return self.one() / self.coerce(x)

    def format(self, x) -> str:
        return str(self.coerce(x).val)

    def parse(self, s: str):
        return FpElement(int(s), self.p)


QQ = RationalField()


def field_from_name(name: str):
    """Inverse of ``field.name``: "q" or "fp:<p>"."""
    if name == "q":
        return QQ
    if name.startswith("fp:"):
        return PrimeField(int(name[3:]))
    raise GPSeriesError(f"unknown field {name!r}")
