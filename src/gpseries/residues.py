"""Residues of generalized fractions and coefficient extraction.

A system of parameters is n series whose multiplicity matrix (the variable
parts of their leading exponents) has determinant nonzero in the field.
Residues of fractions over such systems are computed by normalizing the
denominator to the ambient variables; Jacobi-style extraction then reads
off coefficients of a series with respect to the parameters.  Each such
read is one quotient, ``_read_quotient``: the product of the denominators
is inverted once, in the box that the numerators' extents leave, and one
chain of products carries it and the numerators into the box read, so no
product of numerators is formed whole.  The Egorychev route of
``identities`` reads its constant term the same way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .calculus import DLOGX, NForm, jacobian, nform_from_json, nform_to_json
from .errors import (
    DimensionMismatch,
    IncompatibleAmbient,
    MalformedJSON,
    NotParameters,
    NotRegular,
)
from .exponents import Box, box_intersect, exp_add, int_det, zero_exp
from .series import (
    Ambient,
    Series,
    _chain_terms,
    _check_box,
    _extents,
    _key_extents,
    _mul_chain,
    add,
    factorize,
    h_box,
    h_coefficient_at,
    invert,
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
    if not fs:
        raise NotParameters("no members given")
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
    return ParameterSystem(fs, tuple(leading), det)


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


def _default_working_box(p: ParameterSystem, idx) -> Box:
    """Symmetric box sized from the member supports and requested index;
    only its H coordinates bound the read."""
    k = p.ambient.k
    reach = 0
    for (a, g, tail), i in zip(p.leading, idx):
        span = max((abs(v) for v in g), default=0)
        for e in tail.coeffs:
            span = max(span, max((abs(v) for v in e), default=0))
        reach += (abs(i) + 1) * (span + 1)
    r = 2 + reach
    return Box((-r,) * k, (r,) * k)


def jacobi_coefficient(psi: Series, p: ParameterSystem, idx,
                       working_box=None) -> Series:
    """H-coefficient of psi at Phi^idx, extracted as the residue of
    psi * Phi^(-idx) * dlog Phi_1 ^ ... ^ dlog Phi_n over the parameters
    by one ``_read_quotient``, with no retry: psi and J(Phi) enter its
    chain as two numerators, so psi J(Phi) is never formed whole.  The
    working box bounds only the H coordinates of the read; the variable
    coordinates are pinned to the X^-1 slab that the residue reads."""
    idx = tuple(idx)
    if len(idx) != p.n:
        raise DimensionMismatch(f"index length {len(idx)} != {p.n}")
    _check_box(p.ambient, working_box)
    if working_box is None:
        working_box = _default_working_box(p, idx)
    return _jacobi_in_box([psi, jacobian(p.members)], p, idx, working_box)


def _read_quotient(nums, dens, box) -> Series:
    """prod nums / prod dens, known in ``box``, with no cone certificate:
    its callers read coefficients alone.  The product of ``dens`` is
    inverted once, in ``box`` less the summed extents of ``nums``, which
    holds every point of the inverse that the numerators can carry into
    ``box``; one ``_chain_terms`` then multiplies the inverse by ``nums``
    in turn, aimed at ``box`` unless every factor is exact, so that an
    exact quotient stays exact everywhere, and builds no cone on the way."""
    factors = list(nums)
    if dens:
        lo, hi = list(box.lo), list(box.hi)
        for h in nums:
            for c, (a, b) in enumerate(_extents(h)):
                lo[c] -= b
                hi[c] -= a
        factors.insert(0, invert(_mul_chain(dens, None), Box(tuple(lo), tuple(hi))))
    exact = all(f.box is None for f in factors)
    coeffs, known, _ = _chain_terms(factors, None if exact else box)
    return Series(factors[0].ambient, coeffs, known, None)


def _jacobi_in_box(nums, p: ParameterSystem, idx, working_box: Box) -> Series:
    """dlog Phi_1 ^ ... ^ dlog Phi_n = J(Phi) / (Phi_1...Phi_n) dX, so the
    residue reads the X^-1 slab, over the working box's H range, of the
    quotient of ``nums`` (psi and J(Phi)) and the members' powers
    Phi_l^-(i_l+1) with i_l <= -2 by those Phi_l^(i_l+1) with i_l >= 0."""
    m, n = p.ambient.split.m, p.n
    nums = [*nums, *(power(f, -i - 1) for f, i in zip(p.members, idx) if i < -1)]
    dens = [power(f, i + 1) for f, i in zip(p.members, idx) if i >= 0]
    slab = Box(working_box.lo[:m] + (-1,) * n, working_box.hi[:m] + (-1,) * n)
    return residue(GeneralizedFraction(NForm(_read_quotient(nums, dens, slab)), p))


def represent(psi: Series, p: ParameterSystem, idx_box, working_box=None) -> dict:
    """Coefficients phi_idx in kappa[[e^H]] with psi = sum phi_idx Phi^idx,
    for a regular parameter system, over the index ranges ``idx_box``
    (a pair (lo, hi) of n-tuples).

    Solved by one ascending pass over candidate exponents in the group
    order: each candidate is hit exactly once as the leading exponent of
    e^h Phi^idx, so its unknown is determined by earlier ones.  For m > 0
    each phi_idx is exact on the H range solved, cut to psi's box.
    """
    if not is_regular(p):
        raise NotRegular(f"multiplicity determinant is {p.det}, not a unit")
    split = psi.split
    order = psi.order
    fld = psi.field
    lo, hi = idx_box
    lo, hi = tuple(lo), tuple(hi)
    if len(lo) != p.n or len(hi) != p.n:
        raise DimensionMismatch(f"index bounds must have length {p.n}")
    _check_box(p.ambient, working_box)

    # H-offsets: the h range of psi's support shifted by the base exponents
    base = {}
    for idx in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        b = zero_exp(order.k)
        for (a, g, tail), i in zip(p.leading, idx):
            b = exp_add(b, tuple(i * v for v in g))
        base[idx] = b
    out_box = h_box(psi)
    if split.m:
        hlo, hhi = map(list, zip(*_extents(psi)[:split.m]))
        for b in base.values():
            for c in range(split.m):
                hlo[c] = min(hlo[c], hlo[c] - b[c])
                hhi[c] = max(hhi[c], hhi[c] - b[c])
        solved = Box(tuple(hlo) + (0,) * split.n, tuple(hhi) + (0,) * split.n)
        h_points = list(solved.points())
        # the answers are exact on the H range solved, and no further
        out_box = box_intersect(out_box, solved)
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
        ext = _key_extents(candidates)
        working_box = Box(tuple(a - b for a, b in ext),
                          tuple(b - a for a, b in ext))
    member_powers = [(add(tail.ambient.one(), tail), {0: tail.ambient.one()})
                     for (a, g, tail) in p.leading]

    @cache
    def unit_for(idx):
        for (one_plus, powers), i in zip(member_powers, idx):
            if i not in powers:
                if i < 0:
                    powers[i] = power(one_plus, i, working_box)
                # the positive powers cached are 0..max: one product each
                for j in range(max(powers) + 1, i + 1):
                    powers[j] = mul(powers[j - 1], one_plus)
        return _mul_chain([powers[i] for (_, powers), i in zip(member_powers, idx)], None)

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
    try:
        members = [series_from_json(d) for d in data["denominator"]]
        numerator = nform_from_json(data["numerator"])
    except (AttributeError, KeyError, TypeError) as e:
        raise MalformedJSON(f"fraction JSON: {type(e).__name__}: {e}") from None
    return GeneralizedFraction(numerator, check_parameters(members))
