"""Powers and substitutions of a series: one binomial or coefficient sum,
``sum_i c_i f^i``, computed by the kernel ``_sum_powers``, save for the
inverse, which the division recurrence of ``_invert`` forms one point at a
time.  Both take their bound on the powers that reach the target box, their
packing and their reach windows from ``_reach_setup``."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from itertools import accumulate, count, repeat

from .errors import BoxUnderflow, NotPositive, PositiveCharacteristic, ZeroSeries
from .exponents import Box, Cone, exp_add, exp_neg, power_exhaustion_bound, zero_exp
from .packing import _Packing, _pair_loop, _prefix_hull, _within
from .series import (
    Series,
    _check_box,
    _effective_cone,
    _key_extents,
    _mul_chain,
    _stored_cut,
    add,
    factorize,
    mul,
)


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


def _reach_setup(f: Series, box, i_cap):
    """What both kernels set up: (i_max, box, elems, pk, reach).

    With a box, f's support must be proven positive:
    ``power_exhaustion_bound`` over ``elems = _bound_support_set(f)`` bounds
    by i_max the powers that reach the box, and for a truncated f
    ``_stored_cut`` cuts the box to where every factor is stored.  With no
    box (exact mode) i_max is i_cap.  ``pk`` packs the prefix hull of i_max
    factors, and ``reach(t)`` is the packed window where a partial sum must
    lie for t more factors to carry it into the box (None where it misses
    the packing box), so ``reach(0)`` is the box itself.
    """
    k = f.order.k
    ext = _key_extents(f.coeffs) if f.coeffs else [(0, 0)] * k
    bounds = ext if f.box is None else f.cone.bounds
    i_max, elems, blo, bhi = i_cap, None, [-math.inf] * k, [math.inf] * k
    if box is not None:
        elems = _bound_support_set(f)
        i_max = min(i_cap, power_exhaustion_bound(f.order, elems, box))
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
            blo, bhi = _stored_cut(f.box, bounds, down, up, blo, bhi)
            if any(map(operator.gt, blo, bhi)):
                raise BoxUnderflow("no point of the target box has its factors stored")
            box = Box(tuple(blo), tuple(bhi))
    pk = _Packing(*_prefix_hull(k, [(ext, i_max)]))

    def reach(t):
        if not t:
            return pk.window(blo, bhi)
        return pk.window(
            [a - max(0, _times(t, nu)) for a, (_, nu) in zip(blo, bounds)],
            [b - min(0, _times(t, mu)) for b, (mu, _) in zip(bhi, bounds)])
    return i_max, box, elems, pk, reach


def _sum_powers(cs, f: Series, box, i_cap, scale=1, shift=None) -> Series:
    """The binomial-sum kernel: scale * e^shift * sum_i c_i f^i, i <= i_cap,
    with c_0, c_1, ... drawn from the iterator ``cs`` (0 once it runs out).

    With no box (exact mode) f is exact and i_cap finite; every term is
    kept and the result is exact everywhere.  With a box (see
    ``_reach_setup``) the i-th power keeps only the exponents in
    ``reach(i_max - i)``, those that the other i_max - i factors can carry
    into the box.  The base is packed once for every step and the running
    power stays packed, over Q as ints over the base's denominator to the
    i-th power; ``scale`` goes into the c_i and ``shift`` into the
    unpacking offset, so the sum is divided and unpacked once, in place.
    Packing afresh at each step instead took a seed-1 jacobi-recovery pass
    from 0.28-0.33 to 0.35-0.38 s and dyson-routes from 1.87-1.98 to
    2.09-2.24 s (process time).
    """
    fld = f.field
    zero = zero_exp(f.order.k)
    shift = zero if shift is None else shift
    i_max, box, elems, pk, reach = _reach_setup(f, box, i_cap)
    base, fden = fld.integral(f.coeffs)
    step = [(pk.step(g), c) for g, c in base.items()]
    inbox = reach(0)
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
        if box is not None and not (window := reach(i_max - i)):
            break
        pw = fld.reduce(_pair_loop(pw.items(), step, window))
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
        for s in _within(pw, inbox):
            acc[s] = get(s, 0) + m * pw[s]
    pk.lo = exp_add(pk.lo, shift)
    unpack = pk.unpack
    coeffs = {unpack(s): c for s, c in fld.reduce(acc, den).items()}
    if box is None:
        return Series(f.ambient, coeffs, None, None)
    # power_exhaustion_bound has classified every element as positive
    return Series(f.ambient, coeffs, box.shift(shift), Cone(shift, tuple(elems)))


def _domain(origin, steps, reach, i_max) -> set:
    """The set of packed points other than ``origin`` on a path of at most
    i_max ``steps`` from ``origin`` into the box, ``reach(0)`` (not None).

    Walked forward level by level, a point first met after j steps is kept
    if it lies in ``reach(i_max - j)``: a path into the box passes there
    after j steps, and a point met first at a lower level lies in a wider
    window.  A level is set algebra over packed ints, with no coefficient:
    the sums of a kept point and a step, less those met, that ``_within``
    keeps.  Then, unless every point met is in the box, walked back from
    the box through the points met, a frontier of differences at a time;
    ``s - y`` of a packed s is packed again only if the difference lies in
    the packing box."""
    seen = {origin}
    level = [origin]
    for t in range(i_max - 1, -1, -1):
        if not level or not (window := reach(t)):
            break
        level = _within({x + y for x in level for y in steps} - seen, window)
        seen.update(level)
    need = set(_within(seen, reach(0)))
    if len(need) < len(seen):
        rest, back = seen - need, need
        while back := {s - y for s in back for y in steps} & rest:
            rest -= back
            need |= back
    need.discard(origin)
    return need


def _invert(tail: Series, box, scale, shift) -> Series:
    """scale * e^shift * (1 + tail)^-1 in ``box`` by the division
    recurrence r_0 = 1, r_p = -sum_t tail_t r_(p-t): each point's value is
    formed once, from the values of the points below it.

    ``_reach_setup`` gives i_max and the packing as for ``_sum_powers``, and
    ``_domain`` the points on a path of at most i_max keys of the tail from
    0 into the box.  Every predecessor of such a point that carries a value
    is on such a path too, and for a truncated tail ``_reach_setup`` has cut
    the box so that every tail term on such a path is stored.  So the
    recurrence, run over the domain in an order in which every key steps
    upward (packed order where every key packs positive, else the term
    order), forms every value exactly, and the result is the binomial
    sum's, term for term.
    """
    fld = tail.field
    order = tail.order
    i_max, box, elems, pk, reach = _reach_setup(tail, box, math.inf)
    cone = Cone(shift, tuple(elems))
    if not (inbox := reach(0)):  # the box misses the packing box
        return Series(tail.ambient, {}, box.shift(shift), cone)
    origin = pk.pack(zero_exp(order.k))
    steps = [(pk.step(g), c) for g, c in tail.coeffs.items()]
    ys = [y for y, _ in steps]
    up = None if all(y > 0 for y in ys) else lambda s: order.key(pk.unpack(s))
    domain = sorted(_domain(origin, ys, reach, i_max), key=up)
    p = fld.characteristic
    r = {origin: 1}
    get = r.get
    for s in domain:
        v = 0
        for y, c in steps:
            if q := get(s - y):
                v -= c * q
        if p:
            v %= p
        if v:
            r[s] = v
    coeffs = {s: scale * r[s] for s in _within(r, inbox)}
    pk.lo = exp_add(pk.lo, shift)
    coeffs = {pk.unpack(s): c for s, c in fld.reduce(coeffs).items()}
    return Series(tail.ambient, coeffs, box.shift(shift), cone)


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

    The inverse (k = -1) is the same series, formed by the division
    recurrence of ``_invert``, one value per point instead of one per power
    of the tail that reaches it, for an exact and a truncated tail alike.
    k < -1 keeps the binomial sum: the 154 such powers of a seed-1
    dyson-routes pass (Wilson's route) took 0.019-0.025 s by it, against
    0.042-0.059 s as invert(power(f, -k), box), with the same values (30
    alternating in-process passes, process time).  The coefficient sums of
    ``substitute`` and ``log1p`` have no such recurrence.

    A nonnegative power of an exact f with k * #f <= 20 is one
    ``_mul_chain`` of k factors f (0^k of one); against the kernel (set-up
    about 30 us) repeated ``mul`` won up to (1+X)^4 (even at ^5), a 3-term
    f^4 and a 6-term f^3, and lost from (1+X)^6, a 3-term f^5 and a 6-term
    f^4 (1-2 variables, Q and F_10007, timeit); a bound of 12 left seed-1
    benchmark passes unchanged.  A truncated f is powered by squaring, each
    step a certified chain of f^(k//2) twice (and f if k is odd), which
    gives the k-fold chain's box and cone in about log2(k) products."""
    _check_box(f.ambient, target_box)
    n = len(f.coeffs)
    if k >= 0 and (f.box is not None or n != 1 and k * n <= 20):
        t = min(k, 1) if f.is_zero() else k
        if t > 1 and f.box is not None:
            half = power(f, t // 2)
            return _mul_chain([half, half, f][:2 + t % 2], None)
        return _mul_chain([f] * t, None) if t else f.ambient.one()
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
    if k == -1:
        return _invert(tail, box, ak, kg)
    return _sum_powers(binoms, tail, box, k if k >= 0 else math.inf, ak, kg)


def log1p(f: Series, target_box=None) -> Series:
    """log(1 + f) = f - f^2/2 + f^3/3 - ...; characteristic zero only."""
    if f.field.characteristic != 0:
        raise PositiveCharacteristic("log is undefined in positive characteristic")
    if f.is_zero():
        return f.ambient.zero()
    return substitute(
        lambda i: Fraction((-1) ** (i + 1), i) if i > 0 else 0, f, target_box)
