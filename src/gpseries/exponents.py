"""Exponent group Z^k, matrix term orders, boxes and cone certificates.

Exponents are plain tuples of Python ints (arbitrary precision).  A term
order is a full-rank integer matrix M; a > b iff M(a-b) is lexicographically
positive.  Boxes are coordinate intervals used as exactness windows; cones
are finitely generated certificates containing the true support of a
truncated series.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    NonPositiveSupportElement,
    SingularOrderMatrix,
)

Exponent = tuple  # tuple[int, ...]


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(operator.add, a, b))


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(operator.sub, a, b))


def exp_neg(a: Exponent) -> Exponent:
    return tuple(map(operator.neg, a))


def zero_exp(k: int) -> Exponent:
    return (0,) * k


def int_det(rows) -> int:
    """Exact determinant of a square integer matrix by Bareiss's
    fraction-free elimination: every division below is exact."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        p = m[col][col]
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (p * m[r][c] - m[r][col] * m[col][c]) // prev
        prev = p
    return sign * prev


@dataclass(frozen=True)
class GroupSplit:
    """G = Z^k with H the first m coordinates and n variable coordinates."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 1:
            raise DimensionMismatch("need m >= 0 and n >= 1")

    @property
    def k(self) -> int:
        return self.m + self.n

    def unit(self, i: int) -> Exponent:
        """Exponent of the i-th variable (1-based)."""
        if not 1 <= i <= self.n:
            raise DimensionMismatch(f"variable index {i} out of 1..{self.n}")
        return tuple(1 if j == self.m + i - 1 else 0 for j in range(self.k))

    def var_part(self, g: Exponent) -> Exponent:
        return g[self.m:]

    def h_part(self, g: Exponent) -> Exponent:
        return g[:self.m]


@dataclass(frozen=True)
class TermOrder:
    """Total order on Z^k: a > b iff M(a-b) is lex-positive."""

    matrix: tuple  # tuple of row tuples

    @property
    def k(self) -> int:
        return len(self.matrix)

    def key(self, v: Exponent):
        """M*v; sorting exponents by this tuple sorts them by the order."""
        if len(v) != len(self.matrix):
            raise DimensionMismatch(f"exponent length {len(v)} != {self.k}")
        mul = operator.mul
        return tuple([sum(map(mul, r, v)) for r in self.matrix])

    def compare(self, a: Exponent, b: Exponent) -> int:
        """-1, 0 or 1 as a <, =, > b."""
        ka = self.key(a)
        kb = self.key(b)
        return (ka > kb) - (ka < kb)

    def is_positive(self, v: Exponent) -> bool:
        return self.key(v) > (0,) * self.k

    def min(self, exps):
        return min(exps, key=self.key)

    def sorted(self, exps):
        return sorted(exps, key=self.key)

    def to_string(self) -> str:
        return ";".join(",".join(str(v) for v in row) for row in self.matrix)


def validate_order(matrix) -> TermOrder:
    """Build a TermOrder, rejecting singular matrices."""
    rows = tuple(tuple(int(v) for v in row) for row in matrix)
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise DimensionMismatch("order matrix must be square")
    if int_det(rows) == 0:
        raise SingularOrderMatrix("order matrix has determinant 0")
    return TermOrder(rows)


def lex_order(k: int) -> TermOrder:
    return TermOrder(tuple(tuple(int(i == j) for j in range(k)) for i in range(k)))


def parse_order(spec: str) -> TermOrder:
    """Parse "r11,r12,...;r21,...;..." into a TermOrder."""
    rows = [[int(v) for v in row.split(",")] for row in spec.split(";")]
    return validate_order(rows)


@dataclass(frozen=True)
class Box:
    """Componentwise interval [lo, hi] in Z^k."""

    lo: Exponent
    hi: Exponent

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise DimensionMismatch("box corners have different lengths")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise DimensionMismatch("box lower corner exceeds upper corner")

    @property
    def k(self) -> int:
        return len(self.lo)

    def contains(self, g: Exponent) -> bool:
        return (all(map(operator.le, self.lo, g))
                and all(map(operator.le, g, self.hi)))

    def contains_box(self, other: "Box") -> bool:
        return self.contains(other.lo) and self.contains(other.hi)

    def lattice_count(self) -> int:
        count = 1
        for a, b in zip(self.lo, self.hi):
            count *= b - a + 1
        return count

    def points(self):
        return itertools.product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))

    def shift(self, v: Exponent) -> "Box":
        return Box(exp_add(self.lo, v), exp_add(self.hi, v))


def box_intersect(a, b):
    """Intersection of two boxes; None is the Everywhere box and absorbs.

    Returns None only if both inputs are None.  Raises ValueError if the
    intersection is empty.
    """
    if a is None:
        return b
    if b is None:
        return a
    lo = tuple(max(x, y) for x, y in zip(a.lo, b.lo))
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    if any(x > y for x, y in zip(lo, hi)):
        raise ValueError("empty box intersection")
    return Box(lo, hi)


@dataclass(frozen=True)
class Cone:
    """Support certificate: the true support of a series lies in
    offset + N-span(generators), each generator positive under the ambient
    order, and inside the per-coordinate ``bounds`` ((lo, hi), ...), where an
    unbounded end is -inf or inf.

    ``bounds`` is always intersected with the hull of the offset and the
    generators, so it defaults to that hull and is often tighter, e.g. after
    merging cones of exact summands, whose generators pick up spurious
    directions.  A None end given to the constructor (or read from JSON,
    which writes null) means unbounded and is stored as -inf or inf.
    """

    offset: Exponent
    generators: tuple  # tuple of Exponents, each > 0 under the ambient order
    bounds: tuple = None  # (lo, hi) per coordinate, ends may be infinite

    def __post_init__(self):
        lo = list(self.offset)
        hi = list(self.offset)
        for g in self.generators:
            for c, v in enumerate(g):
                if v > 0:
                    hi[c] = math.inf
                elif v < 0:
                    lo[c] = -math.inf
        if self.bounds is not None:
            lo = [a if b is None else max(a, b) for a, (b, _) in zip(lo, self.bounds)]
            hi = [a if b is None else min(a, b) for a, (_, b) in zip(hi, self.bounds)]
        object.__setattr__(self, "bounds", tuple(zip(lo, hi)))

    def shift(self, v: Exponent) -> "Cone":
        return Cone(exp_add(self.offset, v), self.generators, tuple(
            (lo + d, hi + d) for (lo, hi), d in zip(self.bounds, v)))


def make_cone(order: TermOrder, offset: Exponent, generators,
              bounds=None) -> Cone:
    """Cone with zero generators dropped and positivity checked."""
    if len(offset) != order.k or bounds is not None and len(bounds) != order.k:
        raise DimensionMismatch(f"cone offset or bounds length != {order.k}")
    gens = []
    seen = set()
    for g in generators:
        if all(v == 0 for v in g) or g in seen:
            continue
        if not order.is_positive(g):
            raise NonPositiveSupportElement(f"cone generator {g} is not positive")
        seen.add(g)
        gens.append(g)
    return Cone(tuple(offset), tuple(gens), bounds)


def cone_union(order: TermOrder, c1, c2):
    """Certificate for a sum: covers both supports.  None stands for an
    empty support (an exact zero summand) and contributes nothing."""
    if c1 is None:
        return c2
    if c2 is None:
        return c1
    offset = order.min((c1.offset, c2.offset))
    gens = list(c1.generators) + list(c2.generators)
    gens += [exp_sub(off, offset) for off in (c1.offset, c2.offset)]
    return make_cone(order, offset, gens, tuple(
        (min(l1, l2), max(u1, u2))
        for (l1, u1), (l2, u2) in zip(c1.bounds, c2.bounds)))


def cone_sum(order: TermOrder, c1: Cone, c2: Cone) -> Cone:
    """Certificate for a product: the Minkowski sum of the two cones."""
    return make_cone(
        order, exp_add(c1.offset, c2.offset), c1.generators + c2.generators,
        tuple((l1 + l2, u1 + u2)
              for (l1, u1), (l2, u2) in zip(c1.bounds, c2.bounds)))


def functional_range(row, box: Box):
    """Min and max of the linear functional <row, .> over the box."""
    lo = 0
    hi = 0
    for coeff, a, b in zip(row, box.lo, box.hi):
        lo += min(coeff * a, coeff * b)
        hi += max(coeff * a, coeff * b)
    return lo, hi


def power_exhaustion_bound(order: TermOrder, support, box: Box) -> int:
    """Upper bound on how many positive summands from ``support`` can sum
    into ``box``.

    Soundness: classify each summand by its level (first order-matrix row
    with a nonzero, hence positive, value).  Level-j summands contribute at
    least their minimum row-j value and nothing to earlier rows; summands of
    earlier levels can offset row j by at most their worst negative value.
    Bounding the per-level counts top-down bounds the total.
    """
    support = [tuple(s) for s in support]
    if not support:
        return 0
    k = order.k
    levels = {}
    for v in support:
        key = order.key(v)
        lvl = next((j for j, x in enumerate(key) if x != 0), None)
        if lvl is None or key[lvl] < 0:
            raise NonPositiveSupportElement(f"support element {v} is not positive")
        levels.setdefault(lvl, []).append((v, key))
    counts = {}
    total = 0
    for j in range(k):
        if j not in levels:
            continue
        _, row_hi = functional_range(order.matrix[j], box)
        cap = row_hi
        for j2, n2 in counts.items():
            worst = max(max(0, -key[j]) for _, key in levels[j2])
            cap += n2 * worst
        minpos = min(key[j] for _, key in levels[j])
        n_j = max(0, cap // minpos) if cap >= 0 else 0
        counts[j] = n_j
        total += n_j
    return total


_CERTIFY_BUDGET = 200_000  # cone points visited before certification gives up


def certify_cone_below(order: TermOrder, cone: Cone, bound, box) -> bool:
    """Check that every cone point strictly below ``bound`` lies in ``box``.

    ``bound`` may be None, meaning check all cone points.  Enumeration walks
    the cone from its offset along generators; points at or above the bound
    are pruned (their successors only grow).  Returns False if a point
    escapes the box or the enumeration budget is exhausted (the certificate
    then fails, it never lies).
    """
    bound_key = order.key(bound) if bound is not None else None
    seen = {cone.offset}
    frontier = [cone.offset]
    visited = 0
    while frontier:
        pt = frontier.pop()
        visited += 1
        if visited > _CERTIFY_BUDGET:
            return False
        if bound_key is not None and order.key(pt) >= bound_key:
            continue
        if box is None or not box.contains(pt):
            return False
        for g in cone.generators:
            nxt = exp_add(pt, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return True
