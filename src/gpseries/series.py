"""Truncated exact arithmetic for generalized power series.

A ``Series`` stores a finite coefficient map together with an exactness box:
inside the box the stored coefficients (default zero) are guaranteed to be
the true coefficients of the represented element of kappa[[e^G]].  A box of
``None`` means Everywhere: the series is exactly the stored finite sum.
Truncated series additionally carry a cone certificate bounding the true
support (``exponents.Cone``: offset, generators and per-coordinate bounds),
which is what makes inversion and substitution terminate.  An unbounded end,
of a cone's bounds or of a box, is -inf or inf throughout; only JSON
writes it as null.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, count, groupby, repeat

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
    Cone,
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
        """True iff certainly zero: nothing is stored, and ``_stored_cut``
        at partner 0 cuts nothing, as the cone bounds lie inside the box (an
        exact series always qualifies)."""
        if self.coeffs:
            return False
        lo, hi = _stored_cut(self, *[zero_exp(self.order.k)] * 2)
        return not any(map(math.isfinite, lo + hi))

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


def _check_box(ambient: Ambient, box):
    """A caller's box (None allowed) has one coordinate per coordinate of G."""
    if box is not None and box.k != ambient.k:
        raise DimensionMismatch(
            f"box has {box.k} coordinates, the ambient has {ambient.k}")


def _key_extents(keys):
    """Per-coordinate (min, max) over a nonempty collection of exponents."""
    return [(min(col), max(col)) for col in zip(*keys)]


def _extents(f: Series):
    """Per-coordinate (lo, hi) of where f's stored terms lie: its box, or
    the key extents of an exact series ((0, 0) if it is zero)."""
    if f.box is not None:
        return list(zip(f.box.lo, f.box.hi))
    return _key_extents(f.coeffs) if f.coeffs else [(0, 0)] * f.order.k


def _stored_cut(f: Series, olo, ohi, lo=None, hi=None):
    """The one rule for where a truncated result is known: the box [lo, hi]
    (unbounded by default) cut, as lists, to the points p where every term of
    f that a partner exponent in [olo, ohi] can carry to p is stored.  Only
    where f's cone bounds reach past an end of its box (every end, for a
    truncated f without a cone; none, for an exact f) is there a cut, and an
    infinite partner end there leaves it empty."""
    k = f.order.k
    lo = [-math.inf] * k if lo is None else list(lo)
    hi = [math.inf] * k if hi is None else list(hi)
    if f.box is None:
        return lo, hi
    bounds = f.cone.bounds if f.cone is not None else [(-math.inf, math.inf)] * k
    for c, (mu, nu) in enumerate(bounds):
        if mu < f.box.lo[c]:
            lo[c] = max(lo[c], f.box.lo[c] + ohi[c])
        if nu > f.box.hi[c]:
            hi[c] = min(hi[c], f.box.hi[c] + olo[c])
    return lo, hi


def _effective_cone(f: Series):
    """Support certificate: stored cone, or one derived from an exact sum
    (offset at its least key, generators the keys minus it, so positive,
    bounds from its key extents).

    Returns None for an exact zero series (empty support needs no cone) and
    raises BoxUnderflow for a truncated series without a certificate.
    """
    if f.box is None:
        if not f.coeffs:
            return None
        offset = f.order.min(f.coeffs)
        return Cone(offset, tuple(exp_sub(g, offset) for g in f.coeffs),
                    _key_extents(f.coeffs))
    if f.cone is None:
        raise BoxUnderflow("truncated series carries no cone certificate")
    return f.cone


class _Packing:
    """Exponents inside the coordinate box [lo, hi], each packed into one
    int (after Monagan and Pearce): coordinate c takes a slot of
    (hi[c] - lo[c]).bit_length() bits plus one guard bit above it.

    ``pack(g)`` stores g - lo and ``step(h)`` stores h itself, so for any g
    and h whose sum lies in the box (as every partial sum of a product does
    in the box of ``_prefix_hull``), ``pack(g) + step(h) == pack(g + h)``.
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


def _prefix_hull(k, runs):
    """The box (lo, hi) spanned by 0 and the prefix sums of the key extents of
    factors given in runs (extents, t) of t equal ones: a run's ends are extreme."""
    lo, hi, at_lo, at_hi = [0] * k, [0] * k, [0] * k, [0] * k
    for ext, t in runs:
        for c, (mu, nu) in enumerate(ext):
            at_lo[c] += t * mu
            at_hi[c] += t * nu
        lo, hi = list(map(min, lo, at_lo)), list(map(max, hi, at_hi))
    return lo, hi


def _pair_loop(xs, ys, window, guard) -> dict:
    """Sum of c1 * c2 over the pairs (x, c1) in xs and (y, c2) in ys whose
    packed sum x + y lies in ``window``, keyed by that sum.  ``ys`` is
    sorted, and for each x only the run of ys that puts the top slot of
    x + y inside the window is visited.  With no window every pair is
    formed: the masked compares cost an exact Delta^12 (n = 4) 0.97 s
    against 0.57 s without them."""
    full = window is None
    low, high, first, stop = window or (0, 0, -math.inf, math.inf)
    keys = [y for y, _ in ys]
    out = {}
    get = out.get
    for x, c1 in xs:
        lx = x + low
        hx = high - x
        for y, c2 in ys[bisect_left(keys, first - x):bisect_left(keys, stop - x)]:
            if full or (lx + y) & guard == guard and (hx - y) & guard == guard:
                s = x + y
                out[s] = get(s, 0) + c1 * c2
    return out


def _convolve(fld, a: dict, b: dict) -> dict:
    """The exact product of two exact coefficient maps, pairs summed as
    tuples, for an exact prefix of ``_mul_chain``: such operands are small,
    and replaying the 11,655 such calls of a seed-1 cli-session pass through
    the packed loop took 0.78 s against 0.30 s (process time)."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    plus = operator.add
    for g1, c1 in a.items():
        for g2, c2 in b.items():
            g = tuple(map(plus, g1, g2))
            out[g] = get(g, 0) + c1 * c2
    return fld.reduce(out)


def add(f: Series, g: Series) -> Series:
    """f + g, known where both summands are: a summand's box counts only
    where its cone bounds reach past it, and where the cut leaves an end
    open the sum's box goes to the union of the summands' extents.  A
    summand that is certainly zero leaves the other unchanged."""
    _check_ambient(f, g)
    if g.is_zero():
        return f
    if f.is_zero():
        return g
    coeffs = dict(f.coeffs)
    get = coeffs.get
    for e, c in g.coeffs.items():
        coeffs[e] = get(e, 0) + c
    coeffs = f.field.reduce(coeffs)
    if f.box is None and g.box is None:
        return Series(f.ambient, coeffs, None, None)
    zero = zero_exp(f.order.k)
    lo, hi = _stored_cut(g, zero, zero, *_stored_cut(f, zero, zero))
    for c, ((a1, b1), (a2, b2)) in enumerate(zip(_extents(f), _extents(g))):
        lo[c] = min(a1, a2) if lo[c] == -math.inf else lo[c]
        hi[c] = max(b1, b2) if hi[c] == math.inf else hi[c]
    if any(map(operator.gt, lo, hi)):
        raise BoxUnderflow("summand boxes do not overlap")
    box = Box(tuple(lo), tuple(hi))
    coeffs = {e: c for e, c in coeffs.items() if box.contains(e)}
    try:
        cone = cone_union(f.order, _effective_cone(f), _effective_cone(g))
    except BoxUnderflow:
        cone = None  # an uncertified summand leaves the sum uncertified
    return Series(f.ambient, coeffs, box, cone)


def mul(f: Series, g: Series) -> Series:
    return _mul_chain((f, g), None)


def _product_box(f: Series, g: Series, c1, c2) -> Box:
    """The box in which the product of f and g (not both exact) is
    certified: every pair that can land there is stored in the operands."""
    lo, hi = _stored_cut(g, *zip(*c1.bounds), *_stored_cut(f, *zip(*c2.bounds)))
    # an end the cuts left open is certifiable at any bound; fall back to
    # the sum of the operands' extents (an exact one's cone bounds)
    for c, ((a1, b1), (a2, b2)) in enumerate(zip(*[
            cone.bounds if h.box is None else zip(h.box.lo, h.box.hi)
            for h, cone in ((f, c1), (g, c2))])):
        if lo[c] == -math.inf:
            lo[c] = min(a1 + a2, hi[c])
        if hi[c] == math.inf:
            hi[c] = max(b1 + b2, lo[c])
        if not -math.inf < lo[c] <= hi[c] < math.inf:
            raise BoxUnderflow(f"certified product box is empty in coordinate {c}")
    return Box(tuple(lo), tuple(hi))


def mul_within(f: Series, g: Series, box) -> Series:
    """The product f*g, computed only inside ``box``: ``_mul_chain`` of the
    two factors."""
    return _mul_chain((f, g), box)


def _mul_chain(factors, box) -> Series:
    """The product of two or more factors, multiplied left to right and
    computed only inside ``box`` (None: the whole certified product box;
    everywhere if every factor is exact).

    An exact prefix, short of the last step if there is a box, is formed
    whole by ``_convolve``.  The later steps share one ``_Packing``: each
    distinct factor is packed and given its cone once, and the partial
    product stays a packed int map over one denominator.  Each step
    certifies its box by ``_product_box`` from boxes and cones alone, as
    ``mul`` would, and the last step's box is cut to ``box``; a ``box``
    that misses the certified box raises BoxUnderflow.  A step forms only
    the terms that the stored terms of the factors still to come can carry
    into ``box``: those in ``box`` minus the sum of their key extents.
    """
    f, *rest = factors
    ambient = f.ambient
    for g in rest:
        _check_ambient(f, g)
    _check_box(ambient, box)
    if any(map(Series.is_zero, factors)):
        return ambient.zero()
    fld = ambient.field
    while len(rest) > (box is not None) and f.box is None and rest[0].box is None:
        f = Series(ambient, _convolve(fld, f.coeffs, rest.pop(0).coeffs), None, None)
    if not rest:
        return f
    k = ambient.k
    ext = {h: _key_extents(h.coeffs or [(0,) * k]) for h in dict.fromkeys([f, *rest])}
    # reach[i]: box less the summed key extents of the factors after rest[i]
    reach = list(accumulate(map(ext.get, rest[:0:-1]), lambda r, e: (
        [a - u for a, (_, u) in zip(r[0], e)], [b - l for b, (l, _) in zip(r[1], e)]),
        initial=(box.lo, box.hi) if box else ([-math.inf] * k, [math.inf] * k)))[::-1]
    runs = [(ext[h], len([*run])) for h, run in groupby([f, *rest])]
    pk = _Packing(*_prefix_hull(k, runs), reach[-1])  # reach[-1] is box
    ints, den = fld.integral(f.coeffs)
    acc = {pk.pack(e): c for e, c in ints.items()}
    scaled = {h: fld.integral(h.coeffs) for h in dict.fromkeys(rest)}
    packed = {h: (sorted(zip(map(pk.step, m), m.values())), d, _effective_cone(h))
              for h, (m, d) in scaled.items()}
    c1, guard = _effective_cone(f), pk.guard
    for i, (g, (rlo, rhi)) in enumerate(zip(rest, reach)):
        ys, d, c2 = packed[g]
        target = box if i == len(rest) - 1 else None
        if f.box is not None or g.box is not None:
            try:
                target = box_intersect(_product_box(f, g, c1, c2), target)
            except ValueError:
                raise BoxUnderflow(
                    "target box lies outside the certified product box") from None
        window = pk.window([*map(max, target.lo, rlo)], [*map(min, target.hi, rhi)])
        acc = fld.reduce(_pair_loop(acc.items(), ys, window, guard)) if window else {}
        den *= d
        c1 = cone_sum(c1, c2)
        f = Series(ambient, {}, target, c1)  # the terms stay packed in acc
    coeffs = {pk.unpack(s): c for s, c in fld.reduce(acc, den).items()}
    return Series(ambient, coeffs, target, c1)


def truncate(f: Series, smaller_box: Box) -> Series:
    _check_box(f.ambient, smaller_box)
    if f.box is not None and not f.box.contains_box(smaller_box):
        raise BoxNotContained("target box is not contained in the current box")
    coeffs = {g: c for g, c in f.coeffs.items() if smaller_box.contains(g)}
    cone = f.cone if f.box is not None else (
        _effective_cone(f) or Cone(zero_exp(f.order.k), ()))
    return Series(f.ambient, coeffs, smaller_box, cone)


def factorize(f: Series):
    """Unique factorization f = a * e^g * (1 + tail), tail positive.

    Returns (a, g, tail).  For truncated series the minimality of g is
    certified by walking the cone below the least stored key inside the box;
    the tail carries the walk's cone of the points at or above g, at 0.
    """
    order = f.order
    if not f.coeffs:
        if f.is_zero():
            raise ZeroSeries("cannot factorize the zero series")
        raise LeadingTermUncertain("empty within box but support may exist outside")
    g = order.min(f.coeffs)
    cone = f.cone
    if f.box is not None:
        if cone is None:
            raise LeadingTermUncertain("no cone certificate")
        cone = certify_cone_below(order, cone, g, f.box)
        if cone is None:
            raise LeadingTermUncertain(
                "box cannot certify that the least stored term is the leading term")
    a = f.coeffs[g]
    fld = f.field
    ainv = fld.inv(a)
    tail = Series(f.ambient, {e: fld.coerce(c * ainv)
                              for e, c in f.coeffs.items() if e != g},
                  f.box, cone)
    return a, g, tail.shift(exp_neg(g))


def _bound_support_set(f: Series):
    """Finite positive set whose sums cover all sums of supp-f elements, for
    f positive: an exact series' keys, else its cone's generators and its
    offset if nonzero.  ``factorize`` certifies that offset: 0 for a tail,
    whose elements are nonzero generator sums, or a substitution base's
    positive leading exponent, which each element contains once."""
    if f.box is None:
        return list(f.coeffs)
    cone = _effective_cone(f)
    return ([cone.offset] if any(cone.offset) else []) + list(cone.generators)


def _times(t: int, v):
    """t * v for a factor count t >= 0 and a bound end v, with 0 * inf = 0."""
    return t * v if t else 0


def _sum_powers(cs, f: Series, box, i_cap, scale=1, shift=None) -> Series:
    """The one powering kernel: scale * e^shift * sum_i c_i f^i, i <= i_cap,
    with c_0, c_1, ... drawn from the iterator ``cs`` (0 once it runs out).

    With no box (exact mode) f is exact and i_cap finite; every term is
    kept and the result is exact everywhere.  With a box, f's support must
    be proven positive: ``power_exhaustion_bound`` over
    ``_bound_support_set(f)`` bounds the powers that reach the box and
    generates the result's cone, after i factors only exponents that the
    other i_max - i can carry into the box are kept, and for a truncated f
    ``_stored_cut`` cuts the box to where every factor is stored.  The base
    is packed once for every step and the running power stays packed, over
    Q as ints over the base's denominator to the i-th power; ``scale`` goes
    into the c_i and ``shift`` into the unpacking offset, so the sum is
    divided and unpacked once, in place.  Packing afresh at each step
    instead took a seed-1 jacobi-recovery pass from 0.28-0.33 to 0.35-0.38 s
    and dyson-routes from 1.87-1.98 to 2.09-2.24 s (process time).
    """
    fld = f.field
    order = f.order
    k = order.k
    zero = zero_exp(k)
    shift = zero if shift is None else shift
    ext = _key_extents(f.coeffs) if f.coeffs else [(0, 0)] * k
    bounds = ext if f.box is None else f.cone.bounds
    i_max, blo, bhi = i_cap, [-math.inf] * k, [math.inf] * k
    if box is not None:
        elems = _bound_support_set(f)
        i_max = min(i_cap, power_exhaustion_bound(order, elems, box))
        blo, bhi = box.lo, box.hi
    # every pair sums at most i_max terms of f, and the origin is 0
    if f.box is not None and i_max >= 1:
        # the other factors of a sum in the box add [down, up] to it
        down = [min(0, _times(i_max - 1, mu)) for mu, _ in bounds]
        up = [max(0, _times(i_max - 1, nu)) for _, nu in bounds]
        if any(max(mu, a - u) > min(nu, b - d) for (mu, nu), a, b, d, u
               in zip(bounds, blo, bhi, down, up)):
            i_max = 0  # no single factor fits: only the constant term
        else:
            blo, bhi = _stored_cut(f, down, up, blo, bhi)
            if any(map(operator.gt, blo, bhi)):
                raise BoxUnderflow("no point of the target box has its factors stored")
            box = Box(tuple(blo), tuple(bhi))
    pk = _Packing(*_prefix_hull(k, [(ext, i_max)]), (blo, bhi))
    guard = pk.guard
    base, fden = fld.integral(f.coeffs)
    step = sorted((pk.step(g), c) for g, c in base.items())
    inbox = pk.window(blo, bhi)
    c0 = fld.coerce(scale * next(cs, 0))
    origin = pk.pack(zero)
    den = c0.denominator  # acc holds ints over den
    acc = {origin: c0.numerator} if box is None or box.contains(zero) else {}
    get = acc.get
    pw = {origin: 1}  # ints over pden
    pden = 1
    window = None  # exact mode: every pair
    for i in range(1, i_max + 1):
        # where the i-th power must lie to still reach the box
        t = i_max - i
        if box is not None and not (window := pk.window(
                [a - max(0, _times(t, nu)) for a, (_, nu) in zip(blo, bounds)],
                [b - min(0, _times(t, mu)) for b, (mu, _) in zip(bhi, bounds)])):
            break
        pw = fld.reduce(_pair_loop(pw.items(), step, window, guard))
        if not pw:
            break
        pden *= fden
        ci = fld.coerce(scale * next(cs, 0))
        if ci == 0 or inbox is None:
            continue
        d = ci.denominator * pden
        if den % d:
            m = d // math.gcd(den, d)
            acc = {s: v * m for s, v in acc.items()}
            get = acc.get
            den *= m
        m = ci.numerator * (den // d)
        low, high = inbox[:2]
        for s, v in pw.items():
            if (s + low) & guard == guard and (high - s) & guard == guard:
                acc[s] = get(s, 0) + m * v
    pk.lo = exp_add(pk.lo, shift)
    unpack = pk.unpack
    coeffs = {unpack(s): c for s, c in fld.reduce(acc, den).items()}
    if box is None:
        return Series(f.ambient, coeffs, None, None)
    # power_exhaustion_bound has classified every element as positive
    return Series(f.ambient, coeffs, box.shift(shift), Cone(shift, tuple(elems)))


def substitute(c, f: Series, target_box=None) -> Series:
    """sum_i c_i f^i for a positive series f.

    ``c`` is a finite sequence or a callable i -> scalar.  A target box is
    required unless ``c`` is finite (the polynomial case).  It is one
    ``_sum_powers`` call, in exact mode for a polynomial in an exact f, save
    for a polynomial in a truncated f with no target box: that one takes
    repeated ``mul``, each product certified by ``_product_box``.
    """
    _check_box(f.ambient, target_box)
    try:
        _, g, tail = factorize(f)
    except ZeroSeries:
        f = f.ambient.zero()  # certifiably zero, so are its powers
    else:
        if not f.order.is_positive(g):
            raise NotPositive("substitution base must be a positive series")
        # the cone at or above g that factorize proved
        f = Series(f.ambient, f.coeffs, f.box, tail.cone and tail.cone.shift(g))
    if target_box is None:
        if callable(c):
            if f.is_zero():
                return f.ambient.constant(c(0))
            raise BoxUnderflow("target box required for an infinite coefficient list")
        if f.box is not None:
            pws = accumulate(repeat(f, len(c) - 1), mul, initial=f.ambient.one())
            return reduce(add, map(Series.scale, pws, c), f.ambient.zero())
    cs = map(c, count()) if callable(c) else iter(c)
    return _sum_powers(cs, f, target_box, math.inf if callable(c) else len(c) - 1)


def invert(f: Series, target_box=None) -> Series:
    """Inverse f^-1, exact in the target box; see ``power``."""
    return power(f, -1, target_box)


def power(f: Series, k: int, target_box=None) -> Series:
    """Integer power: one generalized-binomial sum on the factorization
    f = a e^g (1 + tail), tail positive with the cone factorize certified,
    f^k = a^k e^(kg) sum_i binom(k, i) tail^i by ``_sum_powers``.  For k >= 0
    and an exact f the sum stops at i = k in exact mode, so the result is
    exact whatever target box is passed; for k < 0 it is exact in the target
    box cut where the tail is not stored.  A monomial gives one monomial.

    Repeated ``mul``, each product certified by ``_product_box``, remains
    for a nonnegative power of a truncated f, and of an exact f with
    k * #f <= 20, where the kernel's set-up (about 50 us) lost to it up to
    (1+X)^7, a 3-term f^8 and a 6-term f^4 in two variables; 0^k is one mul."""
    _check_box(f.ambient, target_box)
    n = len(f.coeffs)
    if k >= 0 and (f.box is not None or n != 1 and k * n <= 20):
        return reduce(mul, repeat(f, min(k, 1) if f.is_zero() else k), f.ambient.one())
    a, g, tail = factorize(f)
    ak = f.field.power(a, k)
    kg = tuple(k * v for v in g)
    if tail.is_zero():
        return f.ambient.monomial(ak, kg)
    if k < 0 and target_box is None:
        raise BoxUnderflow("inverting a non-monomial requires a target box")
    # binom(k, i) = binom(k, i - 1) (k - i + 1) / i, an exact division
    binoms = accumulate(count(1), lambda b, i: b * (k - i + 1) // i, initial=1)
    box = None if k >= 0 else target_box.shift(exp_neg(kg))
    return _sum_powers(binoms, tail, box, k if k >= 0 else math.inf, ak, kg)


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
        raise DimensionMismatch(f"expected {split.n} monomial exponents, got {len(j)}")
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
