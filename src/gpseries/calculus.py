"""Differentials of the exponent group relative to its first factor.

The module of differentials is free of rank n on dX_1,...,dX_n, so a
one-form is just a vector of n series and an n-form a single coefficient
series against dX = dX_1 ^ ... ^ dX_n or against dlog X = dX / (X_1...X_n).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadVariableIndex, IncompatibleAmbient, MalformedJSON, UnknownMode
from .exponents import exp_neg
from .series import (
    Ambient,
    Series,
    _mul_chain,
    add,
    h_coefficient_at,
    invert,
    mul,
    series_from_json,
    series_to_json,
)

DX = "dX"
DLOGX = "dlogX"


def partial(f: Series, i: int) -> Series:
    """Partial derivation with respect to X_i (1-based), termwise
    g -> j_i * e^(g - u_i) where j_i is the i-th variable coordinate."""
    split = f.split
    if not 1 <= i <= split.n:
        raise BadVariableIndex(f"variable index {i} not in 1..{split.n}")
    u = split.unit(i)
    pos = split.m + i - 1
    # j_i can vanish, also in positive characteristic: reduce drops it.
    # The support of the unshifted series lies in f's, so f's box and cone
    # hold for it.
    coeffs = f.field.reduce({g: g[pos] * c for g, c in f.coeffs.items()})
    return Series(f.ambient, coeffs, f.box, f.cone).shift(exp_neg(u))


@dataclass(frozen=True)
class OneForm:
    """Element of Omega written against the basis dX_1,...,dX_n."""

    ambient: Ambient
    components: tuple  # n Series

    def __post_init__(self):
        if len(self.components) != self.ambient.split.n:
            raise IncompatibleAmbient("component count != number of variables")
        for comp in self.components:
            if comp.ambient != self.ambient:
                raise IncompatibleAmbient("component over a different ambient")

    def __add__(self, other: "OneForm") -> "OneForm":
        if other.ambient != self.ambient:
            raise IncompatibleAmbient("adding one-forms over different ambients")
        return OneForm(self.ambient, tuple(
            add(a, b) for a, b in zip(self.components, other.components)))

    def scale_by(self, f: Series) -> "OneForm":
        return OneForm(self.ambient, tuple(mul(f, c) for c in self.components))


@dataclass(frozen=True)
class NForm:
    """Top exterior power, one coefficient against dX or dlog X."""

    coeff: Series
    basis_mode: str = DX

    def __post_init__(self):
        if self.basis_mode not in (DX, DLOGX):
            raise UnknownMode(f"unknown basis mode {self.basis_mode!r}")

    @property
    def ambient(self) -> Ambient:
        return self.coeff.ambient

    def to_basis(self, mode: str) -> "NForm":
        if mode == self.basis_mode:
            return self
        split = self.coeff.split
        ones = (0,) * split.m + (1,) * split.n
        if mode == DLOGX:
            # coeff dX = (coeff * X_1...X_n) dlog X
            return NForm(self.coeff.shift(ones), DLOGX)
        if mode == DX:
            neg = tuple(-x for x in ones)
            return NForm(self.coeff.shift(neg), DX)
        raise UnknownMode(f"unknown basis mode {mode!r}")

    def __add__(self, other: "NForm") -> "NForm":
        other = other.to_basis(self.basis_mode)
        return NForm(add(self.coeff, other.coeff), self.basis_mode)

    def __neg__(self) -> "NForm":
        return NForm(self.coeff.scale(-1), self.basis_mode)


def differential(f: Series) -> OneForm:
    return OneForm(f.ambient, tuple(
        partial(f, i) for i in range(1, f.split.n + 1)))


def dlog(f: Series, target_box=None) -> OneForm:
    """df / f.  A target box is needed unless f is a single term."""
    finv = invert(f, target_box)
    return differential(f).scale_by(finv)


def series_det(rows) -> Series:
    """Determinant of a square matrix of series by cofactor expansion."""
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise IncompatibleAmbient("matrix is empty or not square")
    ambient = rows[0][0].ambient
    for row in rows:
        for entry in row:
            if entry.ambient != ambient:
                raise IncompatibleAmbient("matrix entries over different ambients")
    if n == 1:
        return rows[0][0]
    # expand along the first column, recursing on minors
    out = None
    for r in range(n):
        minor = [row[1:] for idx, row in enumerate(rows) if idx != r]
        term = mul(rows[r][0], series_det(minor))
        if r % 2:
            term = term.scale(-1)
        out = term if out is None else add(out, term)
    return out


def wedge(forms, basis_mode: str = DX) -> NForm:
    """Wedge product of n one-forms, as the determinant of components."""
    forms = list(forms)
    if not forms:
        raise IncompatibleAmbient("no one-forms given")
    ambient = forms[0].ambient
    n = ambient.split.n
    if len(forms) != n:
        raise IncompatibleAmbient(f"need {n} one-forms, got {len(forms)}")
    for w in forms:
        if w.ambient != ambient:
            raise IncompatibleAmbient("one-forms over different ambients")
    coeff = series_det([list(w.components) for w in forms])
    return NForm(coeff, DX).to_basis(basis_mode)


def jacobian(fs) -> Series:
    """det(partial f_i / partial X_j), the dX coefficient of df_1 ^ ... ^ df_n."""
    return wedge([differential(f) for f in fs]).coeff


def dlog_wedge(fs, target_box=None) -> NForm:
    """dlog f_1 ^ ... ^ dlog f_n = (1 / (f_1...f_n)) * jacobian(fs) dX."""
    fs = list(fs)
    jac = jacobian(fs)  # first: it refuses an empty fs
    return NForm(mul(invert(_mul_chain(fs, None), target_box), jac), DX)


def form_h_coefficient(w: NForm, monomial_exps, basis_mode: str = DLOGX) -> Series:
    """H-coefficient of the n-form at X^j relative to the chosen basis."""
    return h_coefficient_at(w.to_basis(basis_mode).coeff, monomial_exps)


def nform_to_json(w: NForm) -> dict:
    data = series_to_json(w.coeff)
    data["basis"] = w.basis_mode
    return data


def nform_from_json(data: dict) -> NForm:
    if not isinstance(data, dict):
        raise MalformedJSON(f"n-form JSON: expected an object, got {type(data).__name__}")
    basis = data.get("basis", DX)
    stripped = {k: v for k, v in data.items() if k != "basis"}
    return NForm(series_from_json(stripped), basis)
