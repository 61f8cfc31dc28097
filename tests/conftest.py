import random

from gpseries import Ambient, Cone, GroupSplit, QQ, TermOrder, lex_order
from gpseries.exponents import exp_add


def make_ambient(n, m=0, order=None, field=QQ):
    k = m + n
    return Ambient(GroupSplit(m, n), order or lex_order(k), field)


def pairwise_cone_sum(c1, c2):
    """The two-cone Minkowski sum that product chains once folded step by
    step, one Cone per step: the reference for ``cone_sum``."""
    return Cone(exp_add(c1.offset, c2.offset), c1.generators + c2.generators,
                tuple((l1 + l2, u1 + u2)
                      for (l1, u1), (l2, u2) in zip(c1.bounds, c2.bounds)))


def random_unimodular(rng: random.Random, n: int):
    """Product of elementary row operations on the identity."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        for col in range(n):
            m[i][col] += c * m[j][col]
        if rng.random() < 0.3:
            m[i] = [-v for v in m[i]]
    return [tuple(r) for r in m]


def random_positive_orthant_exponent(rng: random.Random, ambient, max_coord=3):
    """Nonzero exponent with nonnegative coordinates (positive under any
    order whose positivity agrees with lex on the orthant)."""
    k = ambient.k
    while True:
        g = tuple(rng.randint(0, max_coord) for _ in range(k))
        if any(g) and ambient.order.is_positive(g):
            return g


def random_unit_series(rng: random.Random, ambient, terms=2, max_coord=3):
    """1 + sparse tail with positive-orthant support."""
    f = ambient.one()
    for _ in range(rng.randint(1, terms)):
        g = random_positive_orthant_exponent(rng, ambient, max_coord)
        c = rng.choice((1, -1, 2, 3))
        f = f + ambient.monomial(c, g)
    return f


def random_polynomial(rng: random.Random, ambient, terms=4, lo=-2, hi=2):
    f = ambient.zero()
    for _ in range(rng.randint(1, terms)):
        g = tuple(rng.randint(lo, hi) for _ in range(ambient.k))
        f = f + ambient.monomial(rng.choice((1, -1, 2, -3, 5)), g)
    return f
