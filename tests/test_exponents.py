import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpseries.errors import (
    DimensionMismatch,
    NonPositiveSupportElement,
    SingularOrderMatrix,
)
from gpseries.exponents import (
    Box,
    Cone,
    TermOrder,
    box_intersect,
    certify_cone_below,
    cone_sum,
    int_det,
    lex_order,
    make_cone,
    parse_order,
    power_exhaustion_bound,
    validate_order,
)

from conftest import pairwise_cone_sum

G1 = parse_order("1,0;0,1")  # X-major
G2 = parse_order("0,1;1,0")  # Y-major


def _cofactor_det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _cofactor_det([r[:j] + r[j + 1:]
                                                     for r in m[1:]])
               for j in range(len(m)))


def test_int_det_against_cofactor_expansion():
    rng = random.Random(8)
    singular = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:  # one row a combination of others
            m[-1] = [2 * x - y for x, y in zip(m[0], m[-2])]
        if rng.random() < 0.3:  # a zero pivot forces a row swap
            m[0][0] = 0
        rng.shuffle(m)
        expect = _cofactor_det(m)
        singular += expect == 0
        assert int_det(m) == expect and type(int_det(m)) is int
    assert singular >= 50


def test_validate_identity_is_lex():
    o = validate_order([[1, 0], [0, 1]])
    assert o.compare((1, 0), (0, 1)) == 1
    assert o.compare((0, 3), (0, 2)) == 1


def test_validate_swapped_rows_is_second_major():
    o = validate_order([[0, 1], [1, 0]])
    assert o.compare((1, 0), (0, 1)) == -1


def test_singular_matrix_rejected():
    with pytest.raises(SingularOrderMatrix):
        validate_order([[1, 1], [1, 1]])


def test_compare_examples():
    assert G1.compare((1, 0), (0, 1)) == 1
    assert G1.compare((0, 0), (0, 0)) == 0
    assert G2.compare((1, 0), (0, 1)) == -1


def test_compare_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        G1.compare((1, 0, 0), (0, 1, 0))


def test_is_positive():
    assert G1.is_positive((1, -3))
    assert not G1.is_positive((0, 0))
    assert not G1.is_positive((0, -1))


square2 = st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                   min_size=2, max_size=2)
exp2 = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@given(square2, exp2, exp2, exp2)
def test_order_trichotomy_and_translation(m, a, b, c):
    try:
        o = validate_order(m)
    except SingularOrderMatrix:
        return
    cmp = o.compare(a, b)
    assert cmp in (-1, 0, 1)
    assert (cmp == 0) == (a == b)
    shifted = o.compare(tuple(x + y for x, y in zip(a, c)),
                        tuple(x + y for x, y in zip(b, c)))
    assert cmp == shifted


@given(square2, exp2, st.integers(1, 5), st.integers(6, 10))
def test_positive_multiples_increase(m, v, i, j):
    try:
        o = validate_order(m)
    except SingularOrderMatrix:
        return
    if not o.is_positive(v):
        return
    vi = tuple(i * x for x in v)
    vj = tuple(j * x for x in v)
    assert o.compare(vi, vj) == -1


def test_bound_single_generator():
    box = Box((-5, -5), (5, 5))
    assert power_exhaustion_bound(G1, [(1, 0)], box) == 5


def test_bound_mixed_support_vs_enumeration():
    # oracle: exhaustive search finds sums of up to 15 summands in the box
    support = [(0, 1), (1, -1)]
    box = Box((0, -5), (5, 5))
    bound = power_exhaustion_bound(G1, support, box)
    assert bound >= 15
    for t in range(bound + 1, bound + 4):
        hit = False
        for c0 in range(t + 1):
            c1 = t - c0
            s = (c1, c0 - c1)
            if box.contains(s):
                hit = True
        assert not hit


def test_bound_empty_support():
    assert power_exhaustion_bound(G1, [], Box((-5, -5), (5, 5))) == 0


def test_bound_rejects_nonpositive():
    with pytest.raises(NonPositiveSupportElement):
        power_exhaustion_bound(G1, [(0, -1)], Box((-5, -5), (5, 5)))


@settings(max_examples=60)
@given(st.lists(exp2, min_size=1, max_size=3), st.integers(1, 4))
def test_bound_sound_against_brute_force(gens, r):
    gens = [g for g in gens if G1.is_positive(g)]
    if not gens:
        return
    box = Box((-r, -r), (r, r))
    bound = power_exhaustion_bound(G1, gens, box)
    # no sum of more than `bound` elements may land in the box
    limit = bound + 3
    frontier = {(0, 0)}
    for i in range(1, limit + 1):
        frontier = {(a[0] + g[0], a[1] + g[1])
                    for a in frontier for g in gens}
        # prune far outside to keep this cheap; only below-box escape matters
        frontier = {v for v in frontier
                    if all(x <= r + 8 * len(gens) for x in
                           (G1.key(v)[0],))}
        if i > bound:
            assert not any(box.contains(v) for v in frontier)


def test_box_basics():
    b = Box((0, -1), (2, 1))
    assert b.contains((1, 0))
    assert not b.contains((3, 0))
    assert b.lattice_count() == 9
    assert b.shift((1, 1)) == Box((1, 0), (3, 2))
    assert len(list(b.points())) == 9


def test_box_intersect():
    a = Box((0, 0), (4, 4))
    b = Box((2, -1), (6, 3))
    assert box_intersect(a, b) == Box((2, 0), (4, 3))
    assert box_intersect(None, a) == a
    with pytest.raises(ValueError):
        box_intersect(a, Box((5, 5), (6, 6)))


def test_make_cone_drops_zero_and_duplicates():
    c = make_cone(G1, (0, 0), [(1, 0), (1, 0), (0, 0), (0, 1)])
    assert sorted(c.generators) == [(0, 1), (1, 0)]
    # Cone itself drops them, keeping first-occurrence order, unchecked
    gens = [(0, 1), (1, 0), (0, 0), (0, 1), (1, -1), (1, 0)]
    assert Cone((0, 0), gens).generators == ((0, 1), (1, 0), (1, -1))
    # make_cone checks positivity where a cone enters
    with pytest.raises(NonPositiveSupportElement):
        make_cone(G1, (0, 0), [(1, 0), (-1, 0)])
    with pytest.raises(DimensionMismatch):
        make_cone(G1, (0, 0, 0), [(1, 0)])


def test_cone_refuses_parts_of_another_length():
    """A generator or the bounds of another length than the offset is a
    DimensionMismatch where the cone is built, not an IndexError or bounds
    cut short to the offset's length."""
    for parts in (((0,), ((1, 1),)), ((0, 0), ((1,),), ((0, 5),)),
                  ((0, 0), ((1, 0),), ((0, 5),))):
        with pytest.raises(DimensionMismatch):
            Cone(*parts)


def test_certify_cone_below():
    # all cone points below (2,0) are inside the box
    c = Cone((0, 0), ((1, 0),))
    above = certify_cone_below(G1, c, (2, 0), Box((0, 0), (5, 0)))
    assert above.offset == (2, 0) and above.generators == ((1, 0),)
    # the points at or above the bound: the crossings (1,0) and (2,0) of the
    # walk from (-1,0), minus the bound, and the old generators
    c3 = Cone((-1, 0), ((2, 0), (3, 0)))
    above = certify_cone_below(G1, c3, (0, 0), Box((-1, 0), (5, 0)))
    assert above.offset == (0, 0)
    assert set(above.generators) == {(1, 0), (2, 0), (3, 0)}
    assert all(G1.is_positive(g) for g in above.generators)
    # the old bounds, cut to the hull of the new offset and generators
    assert above.bounds == ((0, math.inf), (0, 0))
    # generator escapes the box while still below the bound: the refusal
    # tests false and names the point that escaped
    c2 = Cone((0, 0), ((0, 1),))
    refusal = certify_cone_below(G1, c2, (2, 0), Box((0, 0), (0, 0)))
    assert not refusal and refusal.escape == (0, 1)


def test_order_string_round_trip():
    assert parse_order(G2.to_string()).matrix == G2.matrix
    assert lex_order(3).to_string() == "1,0,0;0,1,0;0,0,1"


_lo_end = st.just(-math.inf) | st.integers(-9, 9)
_hi_end = st.just(math.inf) | st.integers(-9, 9)
# zero and repeated generators, and bounds tighter or looser than the hull
_cones = st.integers(1, 3).flatmap(lambda k: st.lists(st.builds(
    Cone, st.tuples(*[st.integers(-5, 5)] * k),
    st.lists(st.tuples(*[st.integers(-2, 2)] * k), max_size=5).map(tuple),
    st.none() | st.tuples(*[st.tuples(_lo_end, _hi_end)] * k)), min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(_cones)
def test_cone_sum_is_the_pairwise_fold(cones):
    """One n-ary cone_sum equals the pairwise fold: the same offset,
    generators in first-occurrence order, and bounds."""
    whole = cone_sum(*cones)
    fold = cones[0]
    for c in cones[1:]:
        fold = pairwise_cone_sum(fold, c)
    assert (whole.offset, whole.generators, whole.bounds) == (
        fold.offset, fold.generators, fold.bounds)
    if len(cones) >= 3:
        a, b, c = cones[:3]
        assert cone_sum(a, b, c) == cone_sum(cone_sum(a, b), c)
