"""Packed exponents and the pair loop, the kernel under every truncated
product and power.

Exponents inside a box are packed into one int each (``_Packing``), so a
pair of terms costs one int add and two masked compares against a window;
``_pair_loop`` forms the pairs whose packed sum lies in a window, and
``_convolve`` is the exact tuple product that small exact operands take
instead.  ``series._chain_terms`` and ``powers._sum_powers`` drive it.
"""

from __future__ import annotations

import operator
from itertools import repeat


class _Packing:
    """Exponents inside the coordinate box [lo, hi], each packed into one
    int (after Monagan and Pearce): coordinate c takes a slot of
    (hi[c] - lo[c]).bit_length() bits plus one guard bit above it, the
    slots in coordinate order with the last coordinate on top.

    ``pack(g)`` stores g - lo and ``step(h)`` stores h itself, so for any g
    and h whose sum lies in the box (as every partial sum of a product does
    in the box of ``_prefix_hull``), ``pack(g) + step(h) == pack(g + h)``.
    Then no slot carries into the next, and ``window`` turns a region into
    two constants against which one masked compare each tests every
    coordinate of such a sum at once.  A step h with every |h[c]| at most
    its slot's span packs positive iff its last nonzero coordinate is.
    """

    def __init__(self, lo, hi):
        self.lo = tuple(lo)
        self.span = tuple(map(operator.sub, hi, lo))
        self.shifts, self.masks = [], []
        self.guard = at = 0
        for d in self.span:
            w = d.bit_length()
            self.shifts.append(at)
            self.masks.append((1 << w) - 1)
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
        """(low, high), None if the region [lo, hi] misses the box.  A
        packed s lies in the region iff ``(s + low) & guard == guard``
        (every slot >= lo) and ``(high - s) & guard == guard`` (every slot
        <= hi).  ``lo`` and ``hi`` may hold infinite ends."""
        low = high = self.guard
        for c, (sh, a, d) in enumerate(zip(self.shifts, self.lo, self.span)):
            l = max(0, lo[c] - a)
            h = min(d, hi[c] - a)
            if l > h:
                return None
            low -= l << sh
            high += h << sh
        return low, high


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
    packed sum x + y lies in ``window``, keyed by that sum: the masked
    compares alone pick the pairs.  With no window every pair is formed:
    the compares cost an exact Delta^12 (n = 4) 0.97 s against 0.57 s
    without them."""
    full = window is None
    low, high = window or (0, 0)
    out = {}
    get = out.get
    for x, c1 in xs:
        lx = x + low
        hx = high - x
        for y, c2 in ys:
            if full or (lx + y) & guard == guard and (hx - y) & guard == guard:
                s = x + y
                out[s] = get(s, 0) + c1 * c2
    return out


def _convolve(fld, a: dict, b: dict) -> dict:
    """The exact product of two exact coefficient maps, pairs summed as
    tuples, for an exact prefix of ``_chain_terms``: such operands are small,
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
