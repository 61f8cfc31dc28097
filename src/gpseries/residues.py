"""Residues of generalized fractions and coefficient extraction.

A system of parameters is n series whose multiplicity matrix (the variable
parts of their leading exponents) has determinant nonzero in the field.
Residues of fractions over such systems are computed by normalizing the
denominator to the ambient variables; Jacobi-style extraction then reads
off coefficients of a series with respect to the parameters.  There is one
such read, ``_jacobi_in_box``, and the system's wedge, ``ParameterSystem.
wedge``, decides where it reads: the product of the denominators is
inverted once, in the box that the numerators' extents leave, and one
chain of products carries it and the numerators into the box read, so no
product of numerators is formed whole.  The Egorychev route of
``identities`` is one such read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

from .calculus import DLOGX, NForm, jacobian, nform_from_json, nform_to_json
from .errors import (
    DimensionMismatch,
    IncompatibleAmbient,
    MalformedJSON,
    NotParameters,
    NotRegular,
)
from .exponents import Box, box_intersect, exp_add, exp_neg, exp_sub, int_det, zero_exp
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
    """J(Phi), ``jacobian``, and ``wedge`` depend on the system alone: each
    is built at its first read and kept outside eq and hash."""

    members: tuple  # n Series
    leading: tuple  # per member (a, g, tail)
    det: int

    @cached_property
    def jacobian(self) -> Series:
        return jacobian(self.members)

    @cached_property
    def wedge(self):
        """(c, v, N, e), N a tuple of factors, with dlog Phi_1 ^ ... ^
        dlog Phi_n = c X^v N / (Phi_1...Phi_n)^e dlog X.  Exact members with
        X_1...X_n J(Phi) = c X^v Phi_1...Phi_n term for term (the same key
        count, one shift v between the least keys, one ratio c) take the
        dlog side, N = () and e = 0; any other system the X^-1 slab."""
        split, fld = self.ambient.split, self.ambient.field
        ones = (0,) * split.m + (1,) * split.n
        if all(f.box is None for f in self.members):
            xj = self.jacobian.shift(ones).coeffs
            prod = _mul_chain(self.members, None).coeffs
            lx, lp = map(self.ambient.order.min, (xj, prod))
            v, c = exp_sub(lx, lp), fld.coerce(xj[lx] * fld.inv(prod[lp]))
            if len(xj) == len(prod) and not any(split.h_part(v)) and all(
                    xj.get(exp_add(g, v)) == fld.coerce(c * a) for g, a in prod.items()):
                return c, split.var_part(v), (), 0
        return 1, split.var_part(ones), (self.jacobian,), 1

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
    k, r = p.ambient.k, 2
    for (a, g, tail), i in zip(p.leading, idx):
        span = max(map(abs, itertools.chain(g, *tail.coeffs)), default=0)
        r += (abs(i) + 1) * (span + 1)
    return Box((-r,) * k, (r,) * k)


def jacobi_coefficient(psi, p: ParameterSystem, idx, working_box=None) -> Series:
    """H-coefficient of psi at Phi^idx, the residue of psi * Phi^(-idx) *
    dlog Phi_1 ^ ... ^ dlog Phi_n, by one ``_jacobi_in_box`` and no retry.
    psi is a Series or a sequence of factor Series, never multiplied whole.
    The system's cached ``wedge`` picks the read: psi Phi^-idx at X^-v on
    the dlog side, else psi J(Phi) Phi^-(idx+1) on the X^-1 slab.  The
    working box bounds only the H coordinates of the read."""
    idx = tuple(idx)
    if len(idx) != p.n:
        raise DimensionMismatch(f"index length {len(idx)} != {p.n}")
    _check_box(p.ambient, working_box)
    if working_box is None:
        working_box = _default_working_box(p, idx)
    psi = [psi] if isinstance(psi, Series) else list(psi)
    return _jacobi_in_box(psi, p, idx, working_box)


def _jacobi_in_box(psi, p: ParameterSystem, idx, working_box: Box) -> Series:
    """c/det times the H-coefficient at X^-v, over the working box's H range,
    of psi's factors, N and the Phi_l^-(i_l+e) with i_l + e < 0 over the
    Phi_l^(i_l+e) with i_l + e > 0, for the wedge (c, v, N, e) of ``p``.
    The denominators' product is inverted once, in the read box less the
    numerators' summed extents, where it holds every point they can carry
    into the read box; one ``_chain_terms``, aimed there unless every factor
    is exact (an exact quotient stays exact), multiplies in the numerators
    and builds no cone."""
    m, fld = p.ambient.split.m, p.ambient.field
    c, v, wedge_nums, e = p.wedge
    nums = [*psi, *wedge_nums,
            *(power(f, -i - e) for f, i in zip(p.members, idx) if i + e < 0)]
    dens = [power(f, i + e) for f, i in zip(p.members, idx) if i + e > 0]
    at = exp_neg(v)
    box = Box(working_box.lo[:m] + at, working_box.hi[:m] + at)
    if dens:
        lo, hi = list(box.lo), list(box.hi)
        for h in nums:
            for k, (a, b) in enumerate(_extents(h)):
                lo[k] -= b
                hi[k] -= a
        nums.insert(0, invert(_mul_chain(dens, None), Box(tuple(lo), tuple(hi))))
    factors = nums or [p.ambient.one()]
    exact = all(f.box is None for f in factors)
    coeffs, known, _ = _chain_terms(factors, None if exact else box)
    read = h_coefficient_at(Series(p.ambient, coeffs, known, None), at)
    return read.scale(fld.coerce(c * fld.inv(p.det)))


def represent(psi: Series, p: ParameterSystem, idx_box) -> dict:
    """Coefficients phi_idx in kappa[[e^H]] with psi = sum phi_idx Phi^idx,
    for a regular parameter system, over the index ranges ``idx_box``
    (a pair (lo, hi) of n-tuples).

    Solved by one ascending pass over candidate exponents in the group
    order: each candidate is hit exactly once as the leading exponent of
    e^h Phi^idx, so its unknown is determined by earlier ones.  The units
    are read only at differences of candidates, whose box bounds their
    negative powers.  For m > 0 each phi_idx is exact, cut to psi's box,
    on the union over the indices of psi's H extent less the base's H part;
    a truncated psi raises OutsideBox where a candidate leaves its box.
    """
    if not is_regular(p):
        raise NotRegular(f"multiplicity determinant is {p.det}, not a unit")
    split = psi.split
    order = psi.order
    fld = psi.field
    lo, hi = map(tuple, idx_box)
    if len(lo) != p.n or len(hi) != p.n:
        raise DimensionMismatch(f"index bounds must have length {p.n}")

    # H-offsets: the h range of psi's support shifted by the base exponents;
    # the leading constant of Phi^idx with each
    base, lead_consts = {}, {}
    for idx in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        b, c = zero_exp(order.k), 1
        for (a, g, tail), i in zip(p.leading, idx):
            b = exp_add(b, tuple(i * v for v in g))
            c = fld.coerce(c * fld.power(a, i))
        base[idx], lead_consts[idx] = b, c
    out_box = h_box(psi)
    if split.m:
        ext = _extents(psi)[:split.m]
        bs = list(zip(*base.values())) or [(0,)] * split.m  # bases by coordinate
        hlo = tuple(a - max(b) for (a, _), b in zip(ext, bs))
        hhi = tuple(z - min(b) for (_, z), b in zip(ext, bs))
        solved = Box(hlo + (0,) * split.n, hhi + (0,) * split.n)
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

    # units U_idx = prod (1 + tail_l)^{i_l}, expanded where differences
    # live: per coordinate, x - y ranges over [min - max, max - min]
    ext = _key_extents(candidates)
    working_box = Box(tuple(a - b for a, b in ext), tuple(b - a for a, b in ext))
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

    solved = {}  # x -> scalar a_x
    for x in order.sorted(candidates):
        idx, h = candidates[x]
        acc = psi.coefficient_at(x)
        for y, ay in solved.items():
            if ay == 0:
                continue
            idx_y, _ = candidates[y]
            d = tuple(a - b for a, b in zip(x, y))
            c = unit_for(idx_y).coefficient_at(d)
            if c != 0:
                acc = acc - ay * lead_consts[idx_y] * c
        solved[x] = fld.coerce(acc * fld.inv(lead_consts[idx]))

    result = {idx: {} for idx in base}
    for x, (idx, h) in candidates.items():
        if solved[x] != 0 and (out_box is None or out_box.contains(h)):
            result[idx][h] = solved[x]
    return {idx: Series(psi.ambient, coeffs, out_box, None)
            for idx, coeffs in result.items()}


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
