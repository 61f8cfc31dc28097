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
from dataclasses import dataclass
from itertools import accumulate, groupby

from .errors import (
    BoxNotContained,
    BoxUnderflow,
    DimensionMismatch,
    IncompatibleAmbient,
    LeadingTermUncertain,
    MalformedJSON,
    OutsideBox,
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
    zero_exp,
)
from .fields import field_from_name
from .packing import _convolve, _Packing, _pair_loop, _prefix_hull


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
        if len(g := tuple(g)) != self.k:
            raise DimensionMismatch(f"exponent length {len(g)} != {self.k}")
        a = self.field.coerce(a)
        coeffs = {} if a == 0 else {g: a}
        return Series(self, coeffs, None, None)

    def var(self, i: int, power: int = 1) -> "Series":
        """The i-th variable X_i (1-based) raised to an integer power."""
        u = self.split.unit(i)
        return self.monomial(1, tuple(power * v for v in u))

    def series(self, coeffs, box=None, cone=None) -> "Series":
        """Every term must lie in the box, the cone's bounds and its offset
        + N-span(generators), or OutsideBox names it."""
        _check_box(self, box)
        if cone is not None and len(cone.offset) != self.k:
            raise DimensionMismatch(f"cone offset needs length {self.k}")
        clean = {}
        for g, c in coeffs.items():
            if len(g := tuple(g)) != self.k:
                raise DimensionMismatch(f"exponent length {len(g)} != {self.k}")
            c = self.field.coerce(c)
            if c == 0:
                continue
            if box is not None and not box.contains(g):
                raise OutsideBox(f"term {g} lies outside the box")
            if cone is not None and any(
                    v < lo or v > hi for v, (lo, hi) in zip(g, cone.bounds)):
                raise OutsideBox(f"term {g} lies outside the cone bounds")
            clean[g] = c
        if cone is not None and clean and (g := _outside_cone(self, cone, clean)):
            raise OutsideBox(f"term {g} lies outside the cone")
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
        """True iff certainly zero: nothing is stored, and the cone bounds lie
        inside the box, so ``_stored_cut`` cuts nothing (an exact series)."""
        return not self.coeffs and (self.box is None or self.cone is not None and all(
            a <= mu and nu <= b
            for (mu, nu), a, b in zip(self.cone.bounds, self.box.lo, self.box.hi)))

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


def _outside_cone(ambient: Ambient, cone: Cone, keys):
    """The first of ``keys`` outside offset + N-span(generators), else None:
    ``_domain`` walks from the offset, by at most ``power_exhaustion_bound``
    generators (NonPositiveSupportElement if one is not), into their hull."""
    rel = {g: exp_sub(g, cone.offset) for g in keys}
    gens = Series(ambient, dict.fromkeys(cone.generators, 1), None, None)
    hull = Box(*zip(*_key_extents(rel.values())))
    i_max, _, _, pk, reach = _reach_setup(gens, hull, math.inf)
    origin, inbox = pk.pack(zero_exp(ambient.k)), reach(0)
    steps = [*map(pk.step, gens.coeffs)]
    walked = [origin, *_domain(origin, steps, reach, inbox, i_max, pk.guard)] if inbox else []
    reached = set(map(pk.unpack, walked))
    return next((g for g, r in rel.items() if r not in reached), None)


def _stored_cut(box, bounds, olo, ohi, lo=None, hi=None):
    """The one rule for where a truncated result is known: the box [lo, hi]
    (unbounded by default) cut, as lists, to the points p where every term
    of an operand with ``box`` and cone ``bounds`` that a partner exponent in
    [olo, ohi] can carry to p is stored.  Only where the bounds reach past an
    end of the box (every end if None; none for an exact operand, box None)
    is there a cut, and an infinite partner end there leaves it empty."""
    k = len(olo)
    lo = [-math.inf] * k if lo is None else list(lo)
    hi = [math.inf] * k if hi is None else list(hi)
    if box is None:
        return lo, hi
    for c, (mu, nu) in enumerate(bounds or [(-math.inf, math.inf)] * k):
        if mu < box.lo[c]:
            lo[c] = max(lo[c], box.lo[c] + ohi[c])
        if nu > box.hi[c]:
            hi[c] = min(hi[c], box.hi[c] + olo[c])
    return lo, hi


def _effective_cone(f: Series):
    """Support certificate: the stored cone, or one derived from an exact sum
    (offset at its least key, generators the keys minus it, so positive,
    bounds its key extents); None for an exact zero, and BoxUnderflow for a
    truncated series without a certificate."""
    if f.box is None:
        if not f.coeffs:
            return None
        offset = f.order.min(f.coeffs)
        return Cone(offset, tuple(exp_sub(g, offset) for g in f.coeffs),
                    _key_extents(f.coeffs))
    if f.cone is None:
        raise BoxUnderflow("truncated series carries no cone certificate")
    return f.cone


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
    lo, hi = _stored_cut(g.box, g.cone and g.cone.bounds, zero, zero,
                         *_stored_cut(f.box, f.cone and f.cone.bounds, zero, zero))
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


def _product_box(box1, bd1, box2, bd2) -> Box:
    """Where the product of two operands (box, None if exact, and cone bounds
    each) is certified: every pair that can land there is stored in them."""
    lo, hi = _stored_cut(box2, bd2, *zip(*bd1), *_stored_cut(box1, bd1, *zip(*bd2)))
    # an end the cuts left open is certifiable at any bound; fall back to
    # the sum of the operands' extents (an exact one's cone bounds)
    stored = [bd if box is None else [*zip(box.lo, box.hi)]
              for box, bd in ((box1, bd1), (box2, bd2))]
    for c, ((l1, u1), (l2, u2)) in enumerate(zip(*stored)):
        if lo[c] == -math.inf:
            lo[c] = min(l1 + l2, hi[c])
        if hi[c] == math.inf:
            hi[c] = max(u1 + u2, lo[c])
        if not -math.inf < lo[c] <= hi[c] < math.inf:
            raise BoxUnderflow(f"certified product box is empty in coordinate {c}: "
                               f"operands stored in {stored[0][c]} and {stored[1][c]}, "
                               f"cone bounds {bd1[c]} and {bd2[c]}")
    return Box(tuple(lo), tuple(hi))


def mul_within(f: Series, g: Series, box) -> Series:
    """The product f*g, computed only inside ``box``."""
    return _mul_chain((f, g), box)


def _mul_chain(factors, box) -> Series:
    """``_chain_terms``'s product, a truncated one certified by one cone_sum."""
    coeffs, target, chain = _chain_terms(factors, box)
    cone = None if target is None else cone_sum(*map(_effective_cone, chain))
    return Series(factors[0].ambient, coeffs, target, cone)


def _chain_terms(factors, box):
    """(coeffs, box, factors multiplied) of a product of one or more factors,
    multiplied left to right and computed only inside ``box`` (None: the
    whole certified box; everywhere, box None, if every factor is exact).

    An exact prefix, short of the last step if there is a box, is formed
    whole by ``_convolve`` as the first factor.  The later steps share one
    ``_Packing``, each distinct factor packed once and unsorted, and keep
    the partial product packed over one denominator.
    Each step certifies its box by ``_product_box`` from boxes and bounds
    (an exact factor's are its key extents), so no step builds a cone, and
    cuts the last to ``box`` (BoxUnderflow if it misses).  It forms only
    the terms that the factors still to come can carry into ``box``.
    """
    f, *rest = factors
    ambient = f.ambient
    for g in rest:
        _check_ambient(f, g)
    _check_box(ambient, box)
    if any(map(Series.is_zero, factors)):
        return {}, None, []
    fld = ambient.field
    while len(rest) > (box is not None) and f.box is None and rest[0].box is None:
        f = Series(ambient, _convolve(fld, f.coeffs, rest.pop(0).coeffs), None, None)
    if not rest:
        return f.coeffs, f.box, [f]
    k = ambient.k
    ext = {h: _key_extents(h.coeffs or [(0,) * k]) for h in dict.fromkeys([f, *rest])}
    bounds = {h: _effective_cone(h).bounds if h.box else e for h, e in ext.items()}
    # reach[i]: box less the summed key extents of the factors after rest[i]
    reach = list(accumulate(map(ext.get, rest[:0:-1]), lambda r, e: (
        [a - u for a, (_, u) in zip(r[0], e)], [b - l for b, (l, _) in zip(r[1], e)]),
        initial=(box.lo, box.hi) if box else ([-math.inf] * k, [math.inf] * k)))[::-1]
    runs = [(ext[h], len([*run])) for h, run in groupby([f, *rest])]
    pk = _Packing(*_prefix_hull(k, runs))
    ints, den = fld.integral(f.coeffs)
    acc = {pk.pack(e): c for e, c in ints.items()}
    scaled = {h: fld.integral(h.coeffs) for h in dict.fromkeys(rest)}
    packed = {h: ([*zip(map(pk.step, m), m.values())], d)
              for h, (m, d) in scaled.items()}
    fbox, b1, guard = f.box, bounds[f], pk.guard  # the partial product's box, bounds
    for i, (g, (rlo, rhi)) in enumerate(zip(rest, reach)):
        (ys, d), b2 = packed[g], bounds[g]
        target = box if i == len(rest) - 1 else None
        if fbox is not None or g.box is not None:
            try:
                target = box_intersect(_product_box(fbox, b1, g.box, b2), target)
            except ValueError:
                raise BoxUnderflow(
                    "target box lies outside the certified product box") from None
        window = pk.window([*map(max, target.lo, rlo)], [*map(min, target.hi, rhi)])
        acc = fld.reduce(_pair_loop(acc.items(), ys, window, guard)) if window else {}
        den *= d
        fbox, b1 = target, [(l1 + l2, u1 + u2) for (l1, u1), (l2, u2) in zip(b1, b2)]
    return {pk.unpack(s): c for s, c in fld.reduce(acc, den).items()}, fbox, [f, *rest]


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
        if not cone:
            raise LeadingTermUncertain("box cannot certify that the least stored "
                                       f"term is the leading term: {cone.reason}")
    a = f.coeffs[g]
    fld = f.field
    ainv = fld.inv(a)
    tail = Series(f.ambient, {e: fld.coerce(c * ainv)
                              for e, c in f.coeffs.items() if e != g},
                  f.box, cone)
    return a, g, tail.shift(exp_neg(g))


def coefficient_at(f: Series, g):
    return f.coefficient_at(g)


def h_coefficient_at(f: Series, monomial_exps) -> Series:
    """kappa[[e^H]]-coefficient at X_1^{j_1}...X_n^{j_n}, as a series whose
    support has all variable coordinates zero."""
    split = f.split
    j = tuple(monomial_exps)
    if len(j) != split.n:
        raise DimensionMismatch(f"expected {split.n} monomial exponents, got {len(j)}")
    if f.box is not None and not Box(*map(split.var_part, (f.box.lo, f.box.hi))).contains(j):
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
    """The series that ``series_to_json`` wrote; MalformedJSON where a key
    is missing or a value is of the wrong kind."""
    try:
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
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise MalformedJSON(f"series JSON: {type(e).__name__}: {e}") from None


# powers.py builds on this module, so it comes last; its public names are
# series operations too, and Series.__pow__ calls power
from .powers import _domain, _reach_setup, invert, log1p, power, substitute  # noqa: E402
