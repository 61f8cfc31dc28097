"""Residues of generalized fractions and coefficient extraction.

A system of parameters is n series whose multiplicity matrix (the variable
parts of their leading exponents) has determinant nonzero in the field.
Residues of fractions over such systems are computed by normalizing the
denominator to the ambient variables; Jacobi-style extraction then reads
off coefficients of a series with respect to the parameters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .calculus import DLOGX, NForm, dlog_wedge, nform_from_json, nform_to_json
from .errors import (
    BoxUnderflow,
    IncompatibleAmbient,
    NotParameters,
    NotRegular,
    OutsideBox,
)
from .exponents import Box, exp_add, int_det, zero_exp
from .series import (
    Ambient,
    Series,
    add,
    factorize,
    h_box,
    h_coefficient_at,
    mul,
    power,
    series_from_json,
    series_to_json,
)


def multiplicities(f: Series):
    """Variable-coordinate part of the leading exponent of f."""
    _, g, _ = factorize(f)
    return f.split.var_part(g)


@dataclass(frozen=True)
class ParameterSystem:
    members: tuple  # n Series
    mult_matrix: tuple  # n rows of n ints
    leading: tuple  # per member (a, g, tail)
    det: int

    @property
    def ambient(self) -> Ambient:
        return self.members[0].ambient

    @property
    def n(self) -> int:
        return len(self.members)


def check_parameters(fs) -> ParameterSystem:
    fs = tuple(fs)
    ambient = fs[0].ambient
    n = ambient.split.n
    if len(fs) != n:
        raise NotParameters(f"need {n} members, got {len(fs)}")
    leading = []
    rows = []
    for f in fs:
        if f.ambient != ambient:
            raise IncompatibleAmbient("members over different ambients")
        a, g, tail = factorize(f)
        leading.append((a, g, tail))
        rows.append(f.split.var_part(g))
    det = int_det([list(r) for r in rows])
    if ambient.field.coerce(det) == 0:
        raise NotParameters(
            f"multiplicity determinant {det} vanishes in the field")
    return ParameterSystem(fs, tuple(tuple(r) for r in rows), tuple(leading), det)


def is_regular(p: ParameterSystem) -> bool:
    return p.det in (1, -1)


@dataclass(frozen=True)
class GeneralizedFraction:
    numerator: NForm
    denominator: ParameterSystem

    @property
    def ambient(self) -> Ambient:
        return self.numerator.ambient


def _normalized_numerator(fr: GeneralizedFraction) -> Series:
    """dlog X coefficient of the fraction rewritten over the denominator
    log X: divide by the multiplicity determinant of the parameters."""
    fld = fr.ambient.field
    scale = fld.inv(fld.coerce(fr.denominator.det))
    return fr.numerator.to_basis(DLOGX).coeff.scale(scale)


def fraction_equiv(f1: GeneralizedFraction, f2: GeneralizedFraction) -> bool:
    if f1.ambient != f2.ambient:
        raise IncompatibleAmbient("fractions over different ambients")
    return _normalized_numerator(f1).eq_within(_normalized_numerator(f2))


def residue(fr: GeneralizedFraction) -> Series:
    """H-coefficient at X^0 of the normalized numerator in dlog X mode."""
    coeff = _normalized_numerator(fr)
    return h_coefficient_at(coeff, zero_exp(fr.ambient.split.n))


def _default_working_box(p: ParameterSystem, idx, scale=1) -> Box:
    """Symmetric box sized from the member supports and requested index,
    grown quadratically in ``scale`` for each retry."""
    k = p.ambient.k
    reach = 0
    for (a, g, tail), i in zip(p.leading, idx):
        span = max((abs(v) for v in g), default=0)
        for e in tail.coeffs:
            span = max(span, max((abs(v) for v in e), default=0))
        reach += (abs(i) + 1) * (span + 1)
    r = scale * (2 * scale + reach)
    return Box((-r,) * k, (r,) * k)


def jacobi_coefficient(psi: Series, p: ParameterSystem, idx,
                       working_box=None) -> Series:
    """H-coefficient of psi at Phi^idx, extracted as the residue of
    psi * Phi^(-idx) * dlog Phi_1 ^ ... ^ dlog Phi_n over the parameters."""
    idx = tuple(idx)
    if len(idx) != p.n:
        raise NotParameters(f"index length {len(idx)} != {p.n}")
    if working_box is not None:
        return _jacobi_in_box(psi, p, idx, working_box)
    # the certified box of the product shrinks with each multiplication,
    # so retry with a larger working box if the zero slice falls out
    last = None
    for scale in (1, 2, 4, 8):
        try:
            box = _default_working_box(p, idx, scale)
            return _jacobi_in_box(psi, p, idx, box)
        except (OutsideBox, BoxUnderflow) as exc:
            last = exc
    raise last


def _jacobi_in_box(psi: Series, p: ParameterSystem, idx,
                   working_box: Box) -> Series:
    factors = [dlog_wedge(list(p.members), working_box).coeff, psi]
    for f, i in zip(p.members, idx):
        if i:
            factors.append(power(f, -i, working_box))
    num = factors[0]
    for f in factors[1:]:
        num = mul(num, f)
    return residue(GeneralizedFraction(NForm(num), p))


def represent(psi: Series, p: ParameterSystem, idx_box, working_box=None) -> dict:
    """Coefficients phi_idx in kappa[[e^H]] with psi = sum phi_idx Phi^idx,
    for a regular parameter system, over the index ranges ``idx_box``
    (a pair (lo, hi) of n-tuples).

    Solved by one ascending pass over candidate exponents in the group
    order: each candidate is hit exactly once as the leading exponent of
    e^h Phi^idx, so its unknown is determined by earlier ones.
    """
    if not is_regular(p):
        raise NotRegular(f"multiplicity determinant is {p.det}, not a unit")
    split = psi.split
    order = psi.order
    fld = psi.field
    lo, hi = idx_box
    lo, hi = tuple(lo), tuple(hi)
    if len(lo) != p.n or len(hi) != p.n:
        raise NotRegular(f"index bounds must have length {p.n}")

    # H-offsets: the h range of psi's support shifted by the base exponents
    base = {}
    for idx in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        b = zero_exp(order.k)
        for (a, g, tail), i in zip(p.leading, idx):
            b = exp_add(b, tuple(i * v for v in g))
        base[idx] = b
    if split.m:
        if psi.box is not None:
            hlo = list(psi.box.lo[:split.m])
            hhi = list(psi.box.hi[:split.m])
        else:
            kh = [[e[c] for e in psi.coeffs] for c in range(split.m)]
            hlo = [min(v) if v else 0 for v in kh]
            hhi = [max(v) if v else 0 for v in kh]
        for b in base.values():
            for c in range(split.m):
                hlo[c] = min(hlo[c], hlo[c] - b[c])
                hhi[c] = max(hhi[c], hhi[c] - b[c])
        h_points = list(Box(tuple(hlo) + (0,) * split.n,
                            tuple(hhi) + (0,) * split.n).points())
    else:
        h_points = [zero_exp(order.k)]

    candidates = {}
    for idx, b in base.items():
        for h in h_points:
            x = exp_add(h, b)
            if x in candidates:
                raise NotRegular("candidate exponents collide; system degenerate")
            candidates[x] = (idx, h)

    # units U_idx = prod (1 + tail_l)^{i_l}, expanded where differences live
    if working_box is None:
        # per coordinate, x - y ranges over [min - max, max - min]
        ext = [(min(col), max(col)) for col in zip(*candidates)]
        working_box = Box(tuple(a - b for a, b in ext),
                          tuple(b - a for a, b in ext))
    units = {}
    member_powers = []
    for (a, g, tail) in p.leading:
        one_plus = add(tail.ambient.one(), tail)
        cache = {0: tail.ambient.one()}
        member_powers.append((one_plus, cache))
    def unit_for(idx):
        u = units.get(idx)
        if u is not None:
            return u
        u = psi.ambient.one()
        for (one_plus, cache), i in zip(member_powers, idx):
            pw = cache.get(i)
            if pw is None:
                pw = power(one_plus, i, working_box)
                cache[i] = pw
            u = mul(u, pw)
        units[idx] = u
        return u

    lead_consts = {}
    for idx in base:
        c = 1
        for (a, g, tail), i in zip(p.leading, idx):
            c = fld.coerce(c * fld.power(a, i))
        lead_consts[idx] = c

    solved = {}  # x -> scalar a_x
    for x in order.sorted(candidates):
        idx, h = candidates[x]
        b_x = psi.coefficient_at(x)
        acc = b_x
        for y, ay in solved.items():
            if ay == 0:
                continue
            idx_y, _ = candidates[y]
            d = tuple(a - b for a, b in zip(x, y))
            c = unit_for(idx_y).coefficient_at(d)
            if c != 0:
                acc = acc - ay * lead_consts[idx_y] * c
        solved[x] = fld.coerce(acc * fld.inv(lead_consts[idx]))

    out_box = h_box(psi)
    result = {}
    for idx in base:
        coeffs = {}
        for x, (idx_x, h) in candidates.items():
            if idx_x == idx and solved[x] != 0:
                if out_box is not None and not out_box.contains(h):
                    continue
                coeffs[h] = solved[x]
        result[idx] = Series(psi.ambient, coeffs, out_box, None)
    return result


def fraction_to_json(fr: GeneralizedFraction) -> dict:
    return {
        "numerator": nform_to_json(fr.numerator),
        "denominator": [series_to_json(f) for f in fr.denominator.members],
    }


def fraction_from_json(data: dict) -> GeneralizedFraction:
    members = [series_from_json(d) for d in data["denominator"]]
    return GeneralizedFraction(nform_from_json(data["numerator"]),
                               check_parameters(members))
