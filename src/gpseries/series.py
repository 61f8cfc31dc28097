"""Truncated exact arithmetic for generalized power series.

A ``Series`` stores a finite coefficient map together with an exactness box:
inside the box the stored coefficients (default zero) are guaranteed to be
the true coefficients of the represented element of kappa[[e^G]].  A box of
``None`` means Everywhere: the series is exactly the stored finite sum.
Truncated series additionally carry a cone certificate bounding the true
support (``exponents.Cone``: offset, generators and per-coordinate bounds),
which is what makes inversion and substitution terminate.  An unbounded end,
of a cone's bounds or of a ``_convolve`` region, is -inf or inf throughout;
only JSON writes it as null.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .errors import (
    BoxNotContained,
    BoxUnderflow,
    DimensionMismatch,
    IncompatibleAmbient,
    LeadingTermUncertain,
    NotPositive,
    OutsideBox,
    PositiveCharacteristic,
    ZeroSeries,
)
from .exponents import (
    Box,
    GroupSplit,
    TermOrder,
    box_intersect,
    certify_cone_below,
    cone_sum,
    cone_union,
    exp_add,
    exp_neg,
    exp_sub,
    make_cone,
    parse_order,
    power_exhaustion_bound,
    zero_exp,
)
from .fields import field_from_name


@dataclass(frozen=True)
class Ambient:
    """The trio (group split, term order, coefficient field)."""

    split: GroupSplit
    order: TermOrder
    field: object

    def __post_init__(self):
        if self.order.k != self.split.k:
            raise IncompatibleAmbient("order matrix size != m + n")

    @property
    def k(self) -> int:
        return self.split.k

    def zero(self) -> "Series":
        return Series(self, {}, None, None)

    def one(self) -> "Series":
        return self.monomial(1, zero_exp(self.k))

    def constant(self, a) -> "Series":
        return self.monomial(a, zero_exp(self.k))

    def monomial(self, a, g) -> "Series":
        a = self.field.coerce(a)
        coeffs = {} if a == 0 else {tuple(g): a}
        return Series(self, coeffs, None, None)

    def var(self, i: int, power: int = 1) -> "Series":
        """The i-th variable X_i (1-based) raised to an integer power."""
        u = self.split.unit(i)
        return self.monomial(1, tuple(power * v for v in u))

    def series(self, coeffs, box=None, cone=None) -> "Series":
        clean = {}
        for g, c in coeffs.items():
            c = self.field.coerce(c)
            if c == 0:
                continue
            g = tuple(g)
            if box is not None and not box.contains(g):
                raise OutsideBox(f"term {g} lies outside the box")
            if cone is not None and any(
                    v < lo or v > hi for v, (lo, hi) in zip(g, cone.bounds)):
                raise OutsideBox(f"term {g} lies outside the cone bounds")
            clean[g] = c
        return Series(self, clean, box, cone)


@dataclass(frozen=True, eq=False)
class Series:
    """Element of kappa[[e^G]], exact within ``box``.

    ``coeffs`` maps exponents to nonzero scalars and must not be mutated.
    ``cone`` is the one support certificate of a truncated series: its
    offset, generators and per-coordinate bounds contain the true support.
    Exact series leave it None and derive it from their keys on demand.  It
    may be None for a truncated series too, meaning no certificate is
    available: such a series can be read and combined linearly, but any sum
    with it is uncertified as well, and multiplicative operations refuse it.
    ``series_to_json`` writes the cone under the ``"cone"`` key.
    """

    ambient: Ambient
    coeffs: dict
    box: object  # Box | None (None = Everywhere)
    cone: object  # Cone | None

    @property
    def split(self) -> GroupSplit:
        return self.ambient.split

    @property
    def order(self) -> TermOrder:
        return self.ambient.order

    @property
    def field(self):
        return self.ambient.field

    def is_zero(self) -> bool:
        """True iff certainly zero (empty and exact everywhere)."""
        return not self.coeffs and self.box is None

    def sorted_terms(self):
        return [(g, self.coeffs[g]) for g in self.order.sorted(self.coeffs)]

    def coefficient_at(self, g):
        g = tuple(g)
        k = len(self.ambient.order.matrix)  # not the k property: a hot path
        if len(g) != k:
            raise DimensionMismatch(f"exponent length {len(g)} != {k}")
        if self.box is not None and not self.box.contains(g):
            raise OutsideBox(f"{g} is outside the exactness box")
        return self.coeffs.get(g, 0)

    def scale(self, a) -> "Series":
        a = self.field.coerce(a)
        coeffs = {g: a * c for g, c in self.coeffs.items()} if a else {}
        return Series(self.ambient, self.field.reduce(coeffs), self.box, self.cone)

    def shift(self, v) -> "Series":
        """Exact multiplication by the monomial e^v."""
        v = tuple(v)
        coeffs = {exp_add(g, v): c for g, c in self.coeffs.items()}
        box = self.box.shift(v) if self.box is not None else None
        cone = self.cone.shift(v) if self.cone is not None else None
        return Series(self.ambient, coeffs, box, cone)

    # -- operators -------------------------------------------------------
    def __add__(self, other):
        return add(self, _coerce_operand(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, _coerce_operand(self, other).scale(-1))

    def __rsub__(self, other):
        return add(self.scale(-1), _coerce_operand(self, other))

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        return mul(self, other)

    def __rmul__(self, other):
        return self.scale(other)

    def __neg__(self):
        return self.scale(-1)

    def __pow__(self, k: int):
        return power(self, k)

    def eq_within(self, other, box=None) -> bool:
        """Coefficientwise equality on the common exactness box."""
        other = _coerce_operand(self, other)
        try:
            common = box_intersect(self.box, other.box)
            if box is not None:
                common = box_intersect(common, box)
        except ValueError:
            return True  # empty comparison region
        inside = (lambda g: True) if common is None else common.contains
        for g, c in self.coeffs.items():
            if inside(g) and other.coeffs.get(g) != c:
                return False
        for g, c in other.coeffs.items():
            if inside(g) and self.coeffs.get(g) != c:
                return False
        return True

    def __repr__(self):
        terms = ", ".join(f"{g}: {c}" for g, c in self.sorted_terms()[:8])
        more = "..." if len(self.coeffs) > 8 else ""
        boxs = "everywhere" if self.box is None else f"[{self.box.lo}..{self.box.hi}]"
        return f"Series({{{terms}{more}}}, box={boxs})"


def _coerce_operand(f: Series, other):
    if isinstance(other, Series):
        return other
    return f.ambient.constant(other)


def _check_ambient(f: Series, g: Series):
    if f.ambient != g.ambient:
        raise IncompatibleAmbient("operands live over different ambients")


def _key_extents(keys):
    """Per-coordinate (min, max) over a nonempty collection of exponents."""
    return [(min(col), max(col)) for col in zip(*keys)]


def _effective_cone(f: Series):
    """Support certificate: stored cone, or one derived from an exact sum
    (offset at its least key, bounds from its key extents).

    Returns None for an exact zero series (empty support needs no cone) and
    raises BoxUnderflow for a truncated series without a certificate.
    """
    if f.box is None:
        if not f.coeffs:
            return None
        offset = f.order.min(f.coeffs)
        gens = [exp_sub(g, offset) for g in f.coeffs if g != offset]
        return make_cone(f.order, offset, gens, _key_extents(f.coeffs))
    if f.cone is None:
        raise BoxUnderflow("truncated series carries no cone certificate")
    return f.cone


class _Packing:
    """Exponents inside the coordinate box [lo, hi], each packed into one
    int (after Monagan and Pearce): coordinate c takes a slot of
    (hi[c] - lo[c]).bit_length() bits plus one guard bit above it.

    ``pack(g)`` stores g - lo and ``step(h)`` stores h itself, so for any g
    and h whose sum lies in the box, ``pack(g) + step(h) == pack(g + h)``.
    Then no slot carries into the next, ``window`` turns a region into two
    constants against which one masked compare each tests every coordinate
    of such a sum at once, and packed order sorts by the top slot first.
    The top slot goes to the coordinate in which ``region`` is narrowest
    against the box, so that a sorted run of packed terms can be cut to it
    by bisection.
    """

    def __init__(self, lo, hi, region):
        self.lo = tuple(lo)
        self.span = tuple(map(operator.sub, hi, lo))
        k = len(self.lo)
        rlo, rhi = region
        self.top = min(range(k), key=lambda c: (
            min(rhi[c], hi[c]) - max(rlo[c], lo[c]) + 1) / (self.span[c] + 1))
        self.shifts = [0] * k
        self.masks = [0] * k
        self.guard = 0
        at = 0
        for c in [c for c in range(k) if c != self.top] + [self.top]:
            w = self.span[c].bit_length()
            self.shifts[c] = at
            self.masks[c] = (1 << w) - 1
            self.guard |= 1 << (at + w)
            at += w + 1

    def pack(self, g) -> int:
        return sum(map(operator.lshift, map(operator.sub, g, self.lo),
                       self.shifts))

    def step(self, h) -> int:
        return sum(map(operator.lshift, h, self.shifts))

    def unpack(self, s: int):
        return tuple(map(operator.add, self.lo, map(
            operator.and_, map(operator.rshift, repeat(s), self.shifts),
            self.masks)))

    def window(self, lo, hi):
        """(low, high, first, stop), None if the region [lo, hi] misses
        the box.  A packed s lies in the region iff
        ``(s + low) & guard == guard`` (every slot >= lo) and
        ``(high - s) & guard == guard`` (every slot <= hi); its top slot
        does iff first <= s < stop.  ``lo`` and ``hi`` may hold infinite
        ends."""
        low = high = self.guard
        for c, (sh, a, d) in enumerate(zip(self.shifts, self.lo, self.span)):
            l = max(0, lo[c] - a)
            h = min(d, hi[c] - a)
            if l > h:
                return None
            low -= l << sh
            high += h << sh
            if c == self.top:
                first, stop = l << sh, (h + 1) << sh
        return low, high, first, stop


def _pair_loop(xs, ys, window, guard) -> dict:
    """Sum of c1 * c2 over the pairs (x, c1) in xs and (y, c2) in ys whose
    packed sum x + y lies in ``window``, keyed by that sum.  ``ys`` is
    sorted, and for each x only the run of ys that puts the top slot of
    x + y inside the window is visited."""
    low, high, first, stop = window
    keys = [y for y, _ in ys]
    out = {}
    get = out.get
    for x, c1 in xs:
        lx = x + low
        hx = high - x
        for y, c2 in ys[bisect_left(keys, first - x):bisect_left(keys, stop - x)]:
            if (lx + y) & guard == guard and (hx - y) & guard == guard:
                s = x + y
                out[s] = get(s, 0) + c1 * c2
    return out


def _reach(keys, ext, lo, hi) -> dict:
    """The terms of ``keys`` that some exponent within the extents ``ext``
    can carry into the region [lo, hi]."""
    rlo = [a - e for a, (_, e) in zip(lo, ext)]
    rhi = [b - e for b, (e, _) in zip(hi, ext)]
    le = operator.le
    return {g: c for g, c in keys.items()
            if all(map(le, rlo, g)) and all(map(le, g, rhi))}


def _convolve(fld, a: dict, b: dict, region=None) -> dict:
    """Coefficient convolution of two coefficient maps, restricted to the
    result exponents inside ``region`` = (lo, hi), whose ends may be
    infinite; the field reduces each result term once.

    With a region, each operand is first cut to the terms that the other
    can carry into it, exponents are packed for the pair loop and unpacked
    for the result only, and coefficients become ints by the field's
    common denominator.  Without one (the exact product of two exact
    series) the pairs are summed as tuples: such operands are small, and
    sending them through the packed loop cut the benchmark's cli-session
    from 319-333 to 206-212 cases/s (seeds 1-3).
    """
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if region is None:
        out = {}
        get = out.get
        plus = operator.add
        for g1, c1 in a.items():
            for g2, c2 in b.items():
                g = tuple(map(plus, g1, g2))
                out[g] = get(g, 0) + c1 * c2
        return fld.reduce(out)
    lo, hi = region
    a = _reach(a, _key_extents(b), lo, hi)
    if not a:
        return {}
    ea = _key_extents(a)
    b = _reach(b, ea, lo, hi)
    if not b:
        return {}
    eb = _key_extents(b)
    pk = _Packing([x + y for (x, _), (y, _) in zip(ea, eb)],
                  [x + y for (_, x), (_, y) in zip(ea, eb)], (lo, hi))
    window = pk.window(lo, hi)
    if window is None:
        return {}
    if len(a) > len(b):
        a, b = b, a
    a, da = fld.integral(a)
    b, db = fld.integral(b)
    out = _pair_loop([(pk.pack(g), c) for g, c in a.items()],
                     sorted((pk.step(g), c) for g, c in b.items()),
                     window, pk.guard)
    unpack = pk.unpack
    return {unpack(s): c for s, c in fld.reduce(out, da * db).items()}


def add(f: Series, g: Series) -> Series:
    _check_ambient(f, g)
    try:
        box = box_intersect(f.box, g.box)
    except ValueError:
        raise BoxUnderflow("summand boxes do not overlap") from None
    coeffs = dict(f.coeffs)
    get = coeffs.get
    for e, c in g.coeffs.items():
        coeffs[e] = get(e, 0) + c
    coeffs = f.field.reduce(coeffs)
    if box is None:
        return Series(f.ambient, coeffs, None, None)
    coeffs = {e: c for e, c in coeffs.items() if box.contains(e)}
    try:
        cone = cone_union(f.order, _effective_cone(f), _effective_cone(g))
    except BoxUnderflow:
        cone = None  # an uncertified summand leaves the sum uncertified
    return Series(f.ambient, coeffs, box, cone)


def mul(f: Series, g: Series) -> Series:
    return mul_within(f, g, None)


def _product_box(f: Series, g: Series, c1, c2) -> Box:
    """The box in which the product of f and g (not both exact) is
    certified: every pair that can land there is stored in the operands."""
    k = f.order.k
    lo = [-math.inf] * k
    hi = [math.inf] * k
    for mine, mine_bounds, other_bounds in ((f, c1.bounds, c2.bounds),
                                            (g, c2.bounds, c1.bounds)):
        if mine.box is None:
            continue
        for c in range(k):
            mlo, mhi = mine_bounds[c]
            olo, ohi = other_bounds[c]
            # every contributing exponent of `mine` must be >= its box.lo
            if mlo < mine.box.lo[c]:
                if ohi == math.inf:
                    raise BoxUnderflow(
                        f"cannot certify coordinate {c}: unbounded overlap below")
                lo[c] = max(lo[c], mine.box.lo[c] + ohi)
            # ... and <= its box.hi
            if mhi > mine.box.hi[c]:
                if olo == -math.inf:
                    raise BoxUnderflow(
                        f"cannot certify coordinate {c}: unbounded overlap above")
                hi[c] = min(hi[c], mine.box.hi[c] + olo)
    # an infinite end means any bound in that direction is certifiable; fall
    # back to the sum of the operands' box (or, if exact, key) extents
    fb_lo = [0] * k
    fb_hi = [0] * k
    for s, cone in ((f, c1), (g, c2)):
        ext = zip(s.box.lo, s.box.hi) if s.box is not None else cone.bounds
        for c, (a, b) in enumerate(ext):
            fb_lo[c] += a
            fb_hi[c] += b
    for c in range(k):
        if lo[c] == -math.inf:
            lo[c] = min(fb_lo[c], hi[c])
        if hi[c] == math.inf:
            hi[c] = max(fb_hi[c], lo[c])
        if lo[c] > hi[c]:
            raise BoxUnderflow(f"certified product box is empty in coordinate {c}")
    return Box(tuple(lo), tuple(hi))


def mul_within(f: Series, g: Series, box) -> Series:
    """The product f*g, computed only inside ``box`` (None: the whole
    certified product box; everywhere if both operands are exact).

    The result is exact in the certified product box cut to ``box``; a
    ``box`` that misses the certified box raises BoxUnderflow.  Only pairs
    that can land in the result box are enumerated.
    """
    _check_ambient(f, g)
    if f.is_zero() or g.is_zero():
        return f.ambient.zero()
    if box is None and f.box is None and g.box is None:
        return Series(f.ambient, _convolve(f.field, f.coeffs, g.coeffs),
                      None, None)
    c1 = _effective_cone(f)
    c2 = _effective_cone(g)
    target = box
    if f.box is not None or g.box is not None:
        try:
            target = box_intersect(_product_box(f, g, c1, c2), box)
        except ValueError:
            raise BoxUnderflow(
                "target box lies outside the certified product box") from None
    cone = cone_sum(f.order, c1, c2)
    return Series(f.ambient, _convolve(f.field, f.coeffs, g.coeffs,
                                       (target.lo, target.hi)), target, cone)


def truncate(f: Series, smaller_box: Box) -> Series:
    if f.box is not None and not f.box.contains_box(smaller_box):
        raise BoxNotContained("target box is not contained in the current box")
    coeffs = {g: c for g, c in f.coeffs.items() if smaller_box.contains(g)}
    if f.box is not None:
        cone = f.cone
    elif f.coeffs:
        cone = _effective_cone(f)
    else:
        cone = make_cone(f.order, zero_exp(f.order.k), [])
    return Series(f.ambient, coeffs, smaller_box, cone)


def factorize(f: Series):
    """Unique factorization f = a * e^g * (1 + tail), tail positive.

    Returns (a, g, tail).  For truncated series the minimality of g is
    certified by checking that every cone point below the least stored key
    lies inside the box.
    """
    order = f.order
    if not f.coeffs:
        if f.box is None:
            raise ZeroSeries("cannot factorize the zero series")
        if f.cone is not None and certify_cone_below(order, f.cone, None, f.box):
            raise ZeroSeries("series is certifiably zero")
        raise LeadingTermUncertain("empty within box but support may exist outside")
    g = order.min(f.coeffs)
    if f.box is not None:
        if f.cone is None:
            raise LeadingTermUncertain("no cone certificate")
        if not certify_cone_below(order, f.cone, g, f.box):
            raise LeadingTermUncertain(
                "box cannot certify that the least stored term is the leading term")
    a = f.coeffs[g]
    fld = f.field
    ainv = fld.inv(a)
    tail_coeffs = {exp_sub(e, g): fld.coerce(c * ainv)
                   for e, c in f.coeffs.items() if e != g}
    if f.box is None:
        tail = Series(f.ambient, tail_coeffs, None, None)
    else:
        tail_box = f.box.shift(exp_neg(g))
        tail = Series(f.ambient, tail_coeffs, tail_box, f.cone.shift(exp_neg(g)))
    return a, g, tail


def is_positive_series(f: Series) -> bool:
    """True iff supp f > 0, certified.  Raises LeadingTermUncertain when the
    box cannot decide."""
    try:
        _, g, _ = factorize(f)
    except ZeroSeries:
        return True  # empty support is vacuously positive
    return f.order.is_positive(g)


def _bound_support_set(f: Series):
    """Finite positive set whose sums cover all sums of supp-f elements.

    For an exact series this is its key set.  For a truncated positive
    series with cone offset o: if o > 0 every element is o plus generators;
    if o = 0 every (positive, hence nonzero) element is a nonzero generator
    combination; otherwise no finite bound set is certifiable.
    """
    if f.box is None:
        return list(f.coeffs)
    cone = _effective_cone(f)
    if f.order.is_positive(cone.offset):
        return [cone.offset] + list(cone.generators)
    if not any(cone.offset):
        return list(cone.generators)
    raise LeadingTermUncertain(
        "cone offset is not positive; cannot bound powers of this series")


def _times(t: int, v):
    """t * v for a factor count t >= 0 and a bound end v.  An infinite end
    stays infinite, also for t = 0, where 0 * inf would be nan."""
    return v if abs(v) == math.inf else t * v


def _sum_powers(cfn, f: Series, box: Box, i_cap=math.inf) -> Series:
    """Exact-in-box evaluation of sum_i cfn(i) * f^i, i <= i_cap, for f
    whose support the caller has proven positive.

    The number of powers that can reach the box is bounded by
    ``power_exhaustion_bound`` over ``_bound_support_set(f)``, which also
    generates the result's cone.  Powers are accumulated with pruning: after
    i factors, only exponents that can still reach the box with the
    remaining i_max - i factors are kept.  When f is truncated, the window
    of exponents any single factor can contribute must be covered by f's
    box.  The base is packed once, in one layout wide enough for every step,
    and the running power stays packed through all i_max steps; over Q it
    stays an int map over the base's denominator to the i-th power, and the
    sum is divided once.  Calling ``_convolve`` at each step instead, which
    packs and unpacks both operands every time, cut the benchmark's
    jacobi-recovery from 118-132 to 96-99 cases/s and raised its
    dyson-routes p50 from 0.49-0.53 to 0.70-0.78 ms (seeds 1-3).
    """
    ambient = f.ambient
    fld = f.field
    order = f.order
    k = order.k
    elems = _bound_support_set(f)
    i_max = min(i_cap, power_exhaustion_bound(order, elems, box))
    # every pair sums at most i_max terms of f, and the origin is 0
    ext = _key_extents(f.coeffs) if f.coeffs else [(0, 0)] * k
    bounds = ext if f.box is None else f.cone.bounds
    if f.box is not None and i_max >= 1:
        for c, (mu, nu) in enumerate(bounds):
            wlo = max(mu, box.lo[c] - max(0, _times(i_max - 1, nu)))
            whi = min(nu, box.hi[c] - min(0, _times(i_max - 1, mu)))
            if wlo > whi:
                i_max = 0  # no single factor fits: only the constant term
                break
            if wlo < f.box.lo[c] or whi > f.box.hi[c]:
                raise BoxUnderflow(
                    f"operand box does not cover the factor window in coordinate {c}")
    zero = zero_exp(k)
    pk = _Packing([min(0, i_max * mu) for mu, _ in ext],
                  [max(0, i_max * nu) for _, nu in ext], (box.lo, box.hi))
    guard = pk.guard
    base, fden = fld.integral(f.coeffs)
    step = sorted((pk.step(g), c) for g, c in base.items())
    inbox = pk.window(box.lo, box.hi)
    c0 = fld.coerce(cfn(0))
    origin = pk.pack(zero)
    den = c0.denominator  # acc holds ints over den
    acc = {origin: c0.numerator} if box.contains(zero) else {}
    get = acc.get
    pw = {origin: 1}  # ints over pden
    pden = 1
    for i in range(1, i_max + 1):
        # where the i-th power must lie to still reach the box
        t = i_max - i
        window = pk.window(
            [a - max(0, _times(t, nu)) for a, (_, nu) in zip(box.lo, bounds)],
            [b - min(0, _times(t, mu)) for b, (mu, _) in zip(box.hi, bounds)])
        if window is None:
            break
        pw = fld.reduce(_pair_loop(pw.items(), step, window, guard))
        if not pw:
            break
        pden *= fden
        ci = fld.coerce(cfn(i))
        if ci == 0 or inbox is None:
            continue
        d = ci.denominator * pden
        if den % d:
            scale = d // math.gcd(den, d)
            acc = {s: v * scale for s, v in acc.items()}
            get = acc.get
            den *= scale
        m = ci.numerator * (den // d)
        low, high = inbox[:2]
        for s, v in pw.items():
            if (s + low) & guard == guard and (high - s) & guard == guard:
                acc[s] = get(s, 0) + m * v
    unpack = pk.unpack
    coeffs = {unpack(s): c for s, c in fld.reduce(acc, den).items()}
    return Series(ambient, coeffs, box, make_cone(order, zero, elems))


def substitute(c, f: Series, target_box=None) -> Series:
    """sum_i c_i f^i for a positive series f.

    ``c`` is a finite sequence or a callable i -> scalar.  A target box is
    required unless ``c`` is finite (the polynomial case).
    """
    if not is_positive_series(f):
        raise NotPositive("substitution base must be a positive series")
    if target_box is None:
        if callable(c):
            if f.is_zero():
                return f.ambient.constant(c(0))
            raise BoxUnderflow("target box required for an infinite coefficient list")
        out = f.ambient.zero()
        pw = f.ambient.one()
        for i, ci in enumerate(c):
            if i > 0:
                pw = mul(pw, f)
            out = add(out, pw.scale(ci))
        return out
    if callable(c):
        return _sum_powers(c, f, target_box)
    return _sum_powers(lambda i: c[i] if i < len(c) else 0, f, target_box,
                       len(c) - 1)


def invert(f: Series, target_box=None) -> Series:
    """Inverse f^-1, exact in the target box; see ``power``."""
    return power(f, -1, target_box)


def power(f: Series, k: int, target_box=None) -> Series:
    """Integer power.  A nonnegative power is repeated multiplication.  A
    negative power is one generalized-binomial substitution on the
    factorization f = a e^g (1 + tail):
    f^k = a^k e^(kg) sum_i binom(k, i) tail^i, exact in the target box.
    The tail is positive because factorize certified g as the least
    exponent of f, so the sum goes to the kernel without a second proof."""
    if k >= 0:
        out = f.ambient.one()
        for _ in range(k):
            out = mul(out, f)
        return out
    a, g, tail = factorize(f)
    ak = f.field.power(a, k)
    kg = tuple(k * v for v in g)
    if tail.is_zero() or not tail.coeffs and tail.box is not None and \
            certify_cone_below(f.order, tail.cone, None, tail.box):
        return f.ambient.monomial(ak, kg)
    if target_box is None:
        raise BoxUnderflow("inverting a non-monomial requires a target box")
    # binom(k, i) = (-1)^i binom(i - k - 1, i) for k < 0
    terms = _sum_powers(lambda i: (-1) ** i * math.comb(i - k - 1, i), tail,
                        target_box.shift(exp_neg(kg)))
    return terms.scale(ak).shift(kg)


def log1p(f: Series, target_box=None) -> Series:
    """log(1 + f) = f - f^2/2 + f^3/3 - ...; characteristic zero only."""
    if f.field.characteristic != 0:
        raise PositiveCharacteristic("log is undefined in positive characteristic")
    if f.is_zero():
        return f.ambient.zero()
    return substitute(
        lambda i: Fraction((-1) ** (i + 1), i) if i > 0 else 0, f, target_box)


def coefficient_at(f: Series, g):
    return f.coefficient_at(g)


def h_coefficient_at(f: Series, monomial_exps) -> Series:
    """kappa[[e^H]]-coefficient at X_1^{j_1}...X_n^{j_n}, as a series whose
    support has all variable coordinates zero."""
    split = f.split
    j = tuple(monomial_exps)
    if len(j) != split.n:
        raise OutsideBox(f"expected {split.n} monomial exponents, got {len(j)}")
    if f.box is not None:
        for i, ji in enumerate(j):
            if not (f.box.lo[split.m + i] <= ji <= f.box.hi[split.m + i]):
                raise OutsideBox(f"variable slice {j} is outside the box")
    zeros = (0,) * split.n
    coeffs = {}
    for g, c in f.coeffs.items():
        if split.var_part(g) == j:
            coeffs[split.h_part(g) + zeros] = c
    return Series(f.ambient, coeffs, h_box(f), None)


def h_box(f: Series):
    """The box of f's H-coefficients: f's box with every variable
    coordinate pinned to 0 (None if f is exact)."""
    if f.box is None:
        return None
    zeros = (0,) * f.split.n
    m = f.split.m
    return Box(f.box.lo[:m] + zeros, f.box.hi[:m] + zeros)


# -- JSON schema --------------------------------------------------------

def series_to_json(f: Series) -> dict:
    if f.box is None:
        box = "everywhere"
    else:
        box = {"lo": list(f.box.lo), "hi": list(f.box.hi)}
    data = {
        "order": f.order.to_string(),
        "split": {"m": f.split.m, "n": f.split.n},
        "field": f.field.name,
        "box": box,
        "terms": [{"exp": list(g), "coeff": f.field.format(c)}
                  for g, c in f.sorted_terms()],
    }
    if f.box is not None and f.cone is not None:
        data["cone"] = {"offset": list(f.cone.offset),
                        "generators": [list(g) for g in f.cone.generators],
                        "bounds": [[None if abs(v) == math.inf else v for v in b]
                                   for b in f.cone.bounds]}
    return data


def series_from_json(data: dict) -> Series:
    order = parse_order(data["order"])
    split = GroupSplit(data["split"]["m"], data["split"]["n"])
    fld = field_from_name(data["field"])
    ambient = Ambient(split, order, fld)
    box = None
    if data["box"] != "everywhere":
        box = Box(tuple(data["box"]["lo"]), tuple(data["box"]["hi"]))
    coeffs = {tuple(t["exp"]): fld.parse(t["coeff"]) for t in data["terms"]}
    cone = None
    if "cone" in data:  # without it the series loads uncertified
        c = data["cone"]  # a null bound end is read back as -inf or inf
        cone = make_cone(order, tuple(c["offset"]),
                         [tuple(g) for g in c["generators"]],
                         tuple(tuple(b) for b in c["bounds"]))
    return ambient.series(coeffs, box=box, cone=cone)
