"""Constant-term identities checked through residues.

Implements the Dyson constant-term verifier three ways: direct Laurent
expansion, keeping after each factor only the terms that the factors
still to come can carry to the constant term, Wilson's route through the
parameters (X_1, Phi_2, ..., Phi_n) with Phi_i the inverted products
prod_{j != i} (1 - X_i/X_j), and the Egorychev route through the
alternants Upsilon_i.  The Egorychev route is one Jacobi extraction of
``residues``: the coefficient of Delta^|a| at Upsilon^a, Delta = sum
Upsilon, with Delta passed as |a| factors.  Its wedge is c dlog X, so the
read inverts prod Upsilon_i^(a_i) once and carries it to exponent 0 by a
chain of products, and Delta^|a| is never formed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce

from .calculus import jacobian, partial
from .errors import BadDimension, UnknownMode
from .exponents import (
    Box,
    GroupSplit,
    TermOrder,
    exp_add,
    lex_order,
    zero_exp,
)
from .residues import ParameterSystem, check_parameters, jacobi_coefficient
from .series import Ambient, Series, _mul_chain, add, invert, mul, power
from .fields import QQ


@dataclass(frozen=True)
class DysonInstance:
    a: tuple

    def __post_init__(self):
        try:
            object.__setattr__(self, "a", tuple(self.a))
        except TypeError:
            raise BadDimension("exponents must be a sequence") from None
        if len(self.a) < 2:
            raise BadDimension("need at least two exponents")
        if any(not isinstance(x, int) or x < 0 for x in self.a):
            raise BadDimension("exponents must be nonnegative integers")

    @property
    def n(self) -> int:
        return len(self.a)


def _int_convolve(p: dict, q: dict) -> dict:
    out = {}
    for g1, c1 in p.items():
        for g2, c2 in q.items():
            g = exp_add(g1, g2)
            out[g] = out.get(g, 0) + c1 * c2
    return {g: c for g, c in out.items() if c}


def dyson_lhs(inst: DysonInstance) -> Fraction:
    """Constant term of prod_{i != j} (1 - X_i/X_j)^{a_i}, by expansion of
    the Laurent polynomial over plain integers.

    Only terms that can still reach the constant term are kept. The
    factors still to come span, in each coordinate c, the sum of their
    extents [lo_c, hi_c]: [0, a_i] in coordinate i and [-a_i, 0] in
    coordinate j for (1 - X_i/X_j)^{a_i}. A term g of the partial product
    meets exponent 0 only if lo_c <= -g_c <= hi_c for every c, so dropping
    the other terms leaves the constant term exact. The factors come in
    pairs (i, j), (j, i) along one line, and a factor narrows the reach
    only in its coordinates i and j, so those are the two tested."""
    n, a = inst.n, inst.a
    hi = [(n - 1) * x for x in a]
    lo = [x - sum(a) for x in a]
    order = [p for i, j in itertools.combinations(range(n), 2)
             for p in ((i, j), (j, i))]
    prod = {zero_exp(n): 1}
    for i, j in order:
        ai = a[i]
        if ai == 0:
            continue
        hi[i] -= ai
        lo[j] += ai
        factor = {}
        for t in range(ai + 1):
            g = tuple(t if c == i else -t if c == j else 0 for c in range(n))
            factor[g] = (-1) ** t * math.comb(ai, t)
        prod = {g: c for g, c in _int_convolve(prod, factor).items()
                if -hi[i] <= g[i] <= -lo[i] and -hi[j] <= g[j] <= -lo[j]}
    return Fraction(prod.get(zero_exp(n), 0))


def dyson_rhs(inst: DysonInstance) -> Fraction:
    total = math.factorial(sum(inst.a))
    for x in inst.a:
        total //= math.factorial(x)
    return Fraction(total)


# -- Wilson's parameters ------------------------------------------------

def _wilson_ambient(n: int) -> Ambient:
    # log X_1 > ... > log X_n: plain lexicographic order
    return Ambient(GroupSplit(0, n), lex_order(n), QQ)


def _cross_product(ambient: Ambient, i: int) -> Series:
    """prod_{j != i} (1 - X_i / X_j) as an exact Laurent polynomial."""
    n, one = ambient.split.n, ambient.one()
    gs = [tuple(1 if c == i - 1 else -1 if c == j - 1 else 0 for c in range(n))
          for j in range(1, n + 1) if j != i]
    return _mul_chain([one, *(add(one, ambient.monomial(-1, g)) for g in gs)], None)


def wilson_parameters(n: int, box: Box = None) -> ParameterSystem:
    """(X_1, Phi_2, ..., Phi_n) with Phi_i = (prod_{j != i}(1 - X_i/X_j))^-1.

    Without a box each Phi_i is truncated to just its leading term, which
    is all the multiplicity determinant needs."""
    if n < 2:
        raise BadDimension("need n >= 2")
    ambient = _wilson_ambient(n)
    members = [ambient.var(1)]
    for i in range(2, n + 1):
        p = _cross_product(ambient, i)
        if box is None:
            lead = ambient.order.min(p.coeffs)
            target = Box(tuple(-v for v in lead), tuple(-v for v in lead))
        else:
            target = box
        members.append(invert(p, target))
    return check_parameters(members)


def lagrange_interpolation_check(n: int, box: Box) -> bool:
    """sum_i Phi_i = 1 within the box."""
    ambient = _wilson_ambient(n)
    total = ambient.zero()
    for i in range(1, n + 1):
        total = add(total, invert(_cross_product(ambient, i), box))
    return total.eq_within(ambient.one())


def wilson_wedge_check(n: int) -> bool:
    """dlog X_1 ^ dlog Phi_2 ^ ... ^ dlog Phi_n = (n-1)!(-1)^(n-1) Phi_1 dlog X
    with scalar 1, verified as the equivalent exact Laurent identity
    J(X_1, P_2, ..., P_n) * P_1 * X_2...X_n = (n-1)! * P_2...P_n
    where P_i = prod_{j != i}(1 - X_i/X_j) = 1/Phi_i."""
    ambient = _wilson_ambient(n)
    ps = [_cross_product(ambient, i) for i in range(1, n + 1)]
    lhs = _mul_chain([jacobian([ambient.var(1)] + ps[1:]), ps[0],
                      *map(ambient.var, range(2, n + 1))], None)
    rhs = _mul_chain([ambient.constant(math.factorial(n - 1)), *ps[1:]], None)
    return lhs.eq_within(rhs)


def _wilson_lhs(inst: DysonInstance):
    """Constant term of X_2^-a_2 ... X_n^-a_n (1 - X_2 - ... - X_n)^-(a_1+1),
    the reduction of the Dyson constant term through the Wilson parameters."""
    n = inst.n
    ambient = _wilson_ambient(n)
    f = ambient.one()
    for j in range(2, n + 1):
        f = add(f, ambient.var(j).scale(-1))
    target = (0,) + tuple(inst.a[1:])
    g = power(f, -(inst.a[0] + 1), Box(target, target))
    return g.coefficient_at(target)


# -- Egorychev's parameters ---------------------------------------------

def _egorychev_ambient(n: int) -> Ambient:
    # log X_1 < ... < log X_n: lexicographic on reversed coordinates
    return Ambient(GroupSplit(0, n), TermOrder(lex_order(n).matrix[::-1]), QQ)


def _pair_product(out: Series, skip: int = 0) -> Series:
    """out * prod_{j<k, j,k != skip} (X_j - X_k); skip = 0 keeps every pair."""
    ambient = out.ambient
    pairs = itertools.combinations(range(1, ambient.split.n + 1), 2)
    return _mul_chain([out, *(add(ambient.var(j), ambient.var(k).scale(-1))
                              for j, k in pairs if skip not in (j, k))], None)


def _upsilon(ambient: Ambient, i: int) -> Series:
    """(-1)^(i-1) X_i^(n-1) prod_{j<k, j,k != i} (X_j - X_k)."""
    n = ambient.split.n
    return _pair_product(ambient.monomial((-1) ** (i - 1), tuple(
        n - 1 if c == i - 1 else 0 for c in range(n))), i)


@cache
def egorychev_parameters(n: int) -> ParameterSystem:
    """Upsilon_1, ..., Upsilon_n, built once per n and shared."""
    if n < 2:
        raise BadDimension("need n >= 2")
    ambient = _egorychev_ambient(n)
    return check_parameters([_upsilon(ambient, i) for i in range(1, n + 1)])


def vandermonde_delta(ambient: Ambient) -> Series:
    """prod_{j<k} (X_j - X_k)."""
    return _pair_product(ambient.one())


def cramer_identity_check(n: int) -> bool:
    """sum_l Upsilon_l / X_l^i = Delta for i = 0 and 0 for 1 <= i <= n-1,
    as exact Laurent polynomial identities."""
    ups = egorychev_parameters(n).members
    ambient = ups[0].ambient
    delta = vandermonde_delta(ambient)
    for i in range(n):
        total = ambient.zero()
        for l in range(1, n + 1):
            shift = tuple(-i if c == l - 1 else 0 for c in range(n))
            total = add(total, ups[l - 1].shift(shift))
        expect = delta if i == 0 else ambient.zero()
        if not total.eq_within(expect):
            return False
    return True


def euler_identity_check(n: int) -> bool:
    """sum_i X_i dDelta/dX_i = C(n,2) Delta exactly."""
    ambient = _egorychev_ambient(n)
    delta = vandermonde_delta(ambient)
    total = ambient.zero()
    for i in range(1, n + 1):
        total = add(total, mul(ambient.var(i), partial(delta, i)))
    return total.eq_within(delta.scale(math.comb(n, 2)))


def egorychev_wedge_check(n: int) -> bool:
    """dlog Upsilon = (n!(n-1)/2) dlog X: the system's wedge is c dlog X,
    c = n!(n-1)/2, read from X_1...X_n J(Upsilon) = c Upsilon_1...Upsilon_n
    term for term."""
    return egorychev_parameters(n).wedge == (
        math.factorial(n) * (n - 1) // 2, (0,) * n, (), 0)


@cache
def _egorychev_delta(n: int) -> Series:
    """Delta = sum Upsilon, built once per n and shared."""
    return reduce(add, egorychev_parameters(n).members)


def dyson_verify(inst: DysonInstance, method: str = "direct"):
    """Returns (lhs, rhs, equal) for the chosen evaluation route."""
    if method == "direct":
        lhs = dyson_lhs(inst)
    elif method == "wilson":
        lhs = _wilson_lhs(inst)
    elif method == "egorychev":
        n = inst.n
        lhs = jacobi_coefficient((_egorychev_delta(n),) * sum(inst.a), egorychev_parameters(n),
                                 inst.a).coefficient_at(zero_exp(n))
    else:
        raise UnknownMode(f"unknown method {method!r}")
    rhs = dyson_rhs(inst)
    return lhs, rhs, lhs == rhs
