import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpseries import (
    Ambient,
    Box,
    BoxNotContained,
    BoxUnderflow,
    DimensionMismatch,
    GroupSplit,
    LeadingTermUncertain,
    NonPositiveSupportElement,
    OutsideBox,
    PositiveCharacteristic,
    PrimeField,
    QQ,
    ZeroSeries,
    parse_order,
)
from gpseries.series import (
    _convolve,
    add,
    factorize,
    h_coefficient_at,
    invert,
    log1p,
    mul,
    mul_within,
    power,
    series_from_json,
    series_to_json,
    substitute,
    truncate,
)

from conftest import make_ambient, random_polynomial, random_unit_series

G1 = parse_order("1,0;0,1")
G2 = parse_order("0,1;1,0")
AMB1 = Ambient(GroupSplit(0, 2), G1, QQ)
AMB2 = Ambient(GroupSplit(0, 2), G2, QQ)


def test_monomial_constructors():
    assert AMB1.one().coeffs == {(0, 0): 1}
    assert AMB1.monomial(0, (3, 3)).coeffs == {}
    assert AMB1.monomial(3, (2, -1)).coeffs == {(2, -1): Fraction(3)}


def test_add_examples():
    X = AMB1.var(1)
    assert ((1 + X) + (1 - X)).coeffs == {(0, 0): 2}
    f = random_polynomial(random.Random(1), AMB1)
    assert (f + AMB1.zero()).eq_within(f)
    Y = AMB1.var(2)
    assert ((X + Y) - Y).coeffs == {(1, 0): 1}


def test_mul_examples():
    X = AMB1.var(1)
    assert ((1 + X) * (1 - X)).coeffs == {(0, 0): 1, (2, 0): -1}
    f = AMB1.var(1) + AMB1.var(2)
    box = Box((-4, -4), (4, 4))
    assert mul(f, invert(f, box)).coefficient_at((0, 0)) == 1


def test_factorize_example_x_plus_y():
    a, g, tail = factorize(AMB1.var(1) + AMB1.var(2))
    assert a == 1 and g == (0, 1)
    assert tail.coeffs == {(1, -1): 1}


def test_factorize_scaled():
    amb = make_ambient(1)
    f = amb.monomial(3, (2,)) + amb.monomial(3, (3,))
    a, g, tail = factorize(f)
    assert (a, g) == (3, (2,))
    assert tail.coeffs == {(1,): 1}


def test_factorize_zero_raises():
    with pytest.raises(ZeroSeries):
        factorize(AMB1.zero())


def test_factorize_reassemble_random():
    rng = random.Random(7)
    for _ in range(30):
        f = random_polynomial(rng, AMB1)
        if f.is_zero():
            continue
        a, g, tail = factorize(f)
        rebuilt = mul(AMB1.monomial(a, g), tail.ambient.one() + tail)
        assert rebuilt.eq_within(f)
        # uniqueness: (a, g) matches an exhaustive scan of stored terms
        lead = AMB1.order.min(f.coeffs)
        assert g == lead and a == f.coeffs[lead]


def test_invert_geometric():
    amb = make_ambient(1)
    f = amb.one() - amb.var(1)
    inv = invert(f, Box((0,), (5,)))
    assert inv.coeffs == {(i,): 1 for i in range(6)}


def test_invert_x_plus_y_both_orders():
    box = Box((-8, -8), (8, 8))
    inv1 = invert(AMB1.var(1) + AMB1.var(2), box)
    for i in range(8):
        assert inv1.coefficient_at((i, -1 - i)) == (-1) ** i
    inv2 = invert(AMB2.var(1) + AMB2.var(2), box)
    for i in range(8):
        assert inv2.coefficient_at((-1 - i, i)) == (-1) ** i


def test_invert_times_f_is_one():
    rng = random.Random(3)
    box = Box((-5, -5), (5, 5))
    for _ in range(25):
        g = (rng.randint(-1, 1), rng.randint(-1, 1))
        f = AMB1.monomial(rng.choice((1, 2, -3)), g) * \
            random_unit_series(rng, AMB1)
        prod = mul(f, invert(f, box))
        assert prod.coefficient_at((0, 0)) == 1
        assert all(c == 0 for e, c in prod.coeffs.items() if e != (0, 0))


def test_substitute_examples():
    amb = make_ambient(1)
    X = amb.var(1)
    s = substitute(lambda i: 1, X, Box((0,), (4,)))
    assert s.coeffs == {(i,): 1 for i in range(5)}
    t = substitute((0, 1), X + X * X)
    assert t.coeffs == {(1,): 1, (2,): 1}
    # C(k+2,2) coefficients give (1-X)^-3; checked by multiplying back
    import math
    u = substitute(lambda i: math.comb(i + 2, 2), X, Box((0,), (3,)))
    assert u.coeffs == {(0,): 1, (1,): 3, (2,): 6, (3,): 10}
    cube = (amb.one() - X) ** 3
    assert mul(cube, u).eq_within(amb.one())


def test_substitute_polynomial_consistency():
    rng = random.Random(11)
    for _ in range(20):
        f = random_unit_series(rng, AMB1) - AMB1.one()  # positive tail
        c = [rng.randint(-3, 3) for _ in range(4)]
        direct = AMB1.zero()
        pw = AMB1.one()
        for i, ci in enumerate(c):
            if i:
                pw = mul(pw, f)
            direct = add(direct, pw.scale(ci))
        assert substitute(c, f).eq_within(direct)


def test_log1p_values():
    amb = make_ambient(1)
    l = log1p(amb.var(1), Box((0,), (3,)))
    assert l.coeffs == {(1,): 1, (2,): Fraction(-1, 2), (3,): Fraction(1, 3)}
    assert log1p(amb.zero()).is_zero()


def test_log1p_positive_characteristic_guard():
    amb = make_ambient(1, field=PrimeField(5))
    with pytest.raises(PositiveCharacteristic):
        log1p(amb.var(1), Box((0,), (3,)))


def test_log1p_homomorphism():
    rng = random.Random(5)
    amb = make_ambient(2)
    box = Box((0, 0), (4, 4))
    for _ in range(10):
        f = random_unit_series(rng, amb) - amb.one()
        g = random_unit_series(rng, amb) - amb.one()
        lhs = add(log1p(f, box), log1p(g, box))
        rhs = log1p(add(add(f, g), mul(f, g)), box)
        assert lhs.eq_within(rhs)


def test_coefficient_at():
    amb = make_ambient(1)
    f = amb.one() - amb.var(1) ** 2
    assert f.coefficient_at((2,)) == -1
    inv = invert(AMB1.var(1) + AMB1.var(2), Box((-4, -4), (4, 4)))
    assert inv.coefficient_at((1, -2)) == -1
    with pytest.raises(OutsideBox):
        inv.coefficient_at((9, 9))


def test_coefficient_at_checks_the_exponent_length():
    f = AMB1.one() + AMB1.var(1)
    g = invert(AMB1.var(1) + AMB1.var(2), Box((-4, -4), (4, 4)))
    for s in (f, g):
        for bad in ((0,), (0, 0, 0)):
            with pytest.raises(DimensionMismatch):
                s.coefficient_at(bad)


def test_h_coefficient_at():
    amb = make_ambient(1, m=1)
    h = amb.monomial(1, (1, 0))
    X = amb.var(1)
    f = mul(h, X) + X ** 2
    assert h_coefficient_at(f, (1,)).coeffs == {(1, 0): 1}
    # m = 0 reduces to coefficient_at
    g = AMB1.monomial(5, (1, 2)) + AMB1.one()
    assert h_coefficient_at(g, (1, 2)).coeffs == {(0, 0): 5}
    assert h_coefficient_at(g, (0, 0)).coeffs == {(0, 0): 1}


def test_truncate():
    amb = make_ambient(1)
    f = invert(amb.one() - amb.var(1), Box((0,), (2,)))
    t = truncate(f, Box((0,), (1,)))
    assert t.coeffs == {(0,): 1, (1,): 1}
    assert truncate(f, f.box).eq_within(f)
    with pytest.raises(BoxNotContained):
        truncate(f, Box((0,), (9,)))


small_poly = st.lists(
    st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
              st.integers(-3, 3)),
    min_size=0, max_size=4)


def _build(terms):
    f = AMB1.zero()
    for g, c in terms:
        f = f + AMB1.monomial(c, g)
    return f


@settings(max_examples=60)
@given(small_poly, small_poly, small_poly)
def test_ring_axioms(ta, tb, tc):
    a, b, c = _build(ta), _build(tb), _build(tc)
    assert mul(a, b).eq_within(mul(b, a))
    assert mul(mul(a, b), c).eq_within(mul(a, mul(b, c)))
    assert mul(a, add(b, c)).eq_within(add(mul(a, b), mul(a, c)))


def test_json_round_trip_exact_and_truncated():
    f = AMB1.monomial(Fraction(3, 7), (1, -2)) + AMB1.one()
    data = json.loads(json.dumps(series_to_json(f)))
    assert series_from_json(data).eq_within(f)
    g = invert(AMB1.var(1) + AMB1.var(2), Box((-3, -3), (3, 3)))
    data = json.loads(json.dumps(series_to_json(g)))
    back = series_from_json(data)
    assert back.eq_within(g) and back.box == g.box
    assert series_to_json(back) == series_to_json(g)
    # the cone certificate survives the trip, so products still certify
    assert data["cone"]["offset"] == [0, -1]
    # unbounded ends are written as null and read back as -inf or inf
    assert data["cone"]["bounds"] == [[0, None], [None, -1]]
    assert back.cone.bounds == ((0, math.inf), (-math.inf, -1))
    assert mul(back, back).eq_within(mul(g, g))
    assert mul(back, back).box == mul(g, g).box
    data["cone"]["bounds"][0] = [0, 0]  # excludes stored terms
    with pytest.raises(OutsideBox):
        series_from_json(data)
    data["cone"]["generators"].append([-1, 0])
    with pytest.raises(NonPositiveSupportElement):
        series_from_json(data)


def test_uncertified_summand_leaves_sum_uncertified():
    amb = make_ambient(1)
    X = amb.var(1)
    box = Box((0,), (5,))
    f = invert(X - X ** 2, box)  # true support starts at X^-1, below the box
    g = invert(amb.one() - X, box)
    data = series_to_json(f)
    data.pop("cone", None)  # JSON without a certificate loads uncertified
    f_json = series_from_json(data)
    assert f_json.cone is None
    with pytest.raises(LeadingTermUncertain):
        factorize(add(f_json, g))
    with pytest.raises(LeadingTermUncertain):
        factorize(add(series_from_json(series_to_json(f)), g))
    h = h_coefficient_at(g, (0,))
    assert h.cone is None and add(h, g).cone is None


def test_json_prime_field():
    amb = make_ambient(1, field=PrimeField(5))
    f = amb.monomial(3, (2,)) + amb.one()
    back = series_from_json(series_to_json(f))
    assert back.eq_within(f)


def _power_inputs(field):
    """An exact f with a nonzero leading exponent, and a truncated f."""
    amb = make_ambient(2, field=field)
    X, Y = amb.var(1), amb.var(2)
    exact = mul(amb.monomial(2, (-1, 1)), amb.one() + X - Y.scale(3) + mul(X, Y))
    truncated = invert(amb.one() - X + Y.scale(2), Box((0, 0), (10, 10)))
    return amb, [(exact, Box((-6, -6), (6, 6))),
                 (truncated, Box((0, 0), (6, 6)))]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["q", "f5"])
def test_negative_power_is_one_binomial_substitution(field):
    amb, inputs = _power_inputs(field)
    for f, box in inputs:
        for k in (-1, -2, -3, -4):
            p = power(f, k, box)
            assert p.box == box  # exact in the whole target box
            assert p.eq_within(invert(f, box) ** -k)
            prod = mul(p, f ** -k)
            assert prod.box.contains((0, 0))
            assert prod.eq_within(amb.one())


def test_negative_power_of_monomial_is_exact():
    f = AMB1.monomial(2, (1, -3))
    assert power(f, -3).coeffs == {(-3, 9): Fraction(1, 8)}
    assert power(f, -3).box is None


def test_pow_operator_is_power():
    X = AMB1.var(1)
    inv = X ** -1
    assert inv.box is None and inv.coeffs == {(-1, 0): 1}
    with pytest.raises(BoxUnderflow):  # a non-monomial needs a target box
        (AMB1.one() + X) ** -1


def test_mul_within_reads_only_the_target():
    amb = make_ambient(2)
    X, Y = amb.var(1), amb.var(2)
    f = invert(amb.one() - X + Y.scale(2), Box((0, 0), (8, 8)))
    g = amb.one() + X.scale(3) - mul(X, Y) + Y ** 2
    full = mul(f, g)
    for a, b, point in [(f, g, (0, 0)), (f, g, (3, 2)), (f, g, full.box.hi),
                        (g, g, (2, 2))]:
        one = mul_within(a, b, Box(point, point))
        assert one.box == Box(point, point)
        assert one.coefficient_at(point) == mul(a, b).coefficient_at(point)
    target = Box((2, -3), (12, 5))
    part = mul_within(f, g, target)
    assert part.box == Box((2, 0), (8, 5))
    assert part.eq_within(full) and len(part.coeffs) < len(full.coeffs)
    # exact operands: the target box alone bounds the result
    h = mul_within(g, g, Box((1, 1), (2, 2)))
    assert h.box == Box((1, 1), (2, 2)) and h.eq_within(mul(g, g))
    assert mul_within(f, amb.zero(), target).is_zero()


def test_mul_within_outside_certified_box_raises():
    amb = make_ambient(2)
    f = invert(amb.one() - amb.var(1), Box((0, 0), (8, 8)))
    with pytest.raises(BoxUnderflow):
        mul_within(f, amb.var(2), Box((20, 20), (21, 21)))
    with pytest.raises(BoxUnderflow):
        mul_within(f, f, Box((-3, 0), (-1, 0)))


def _in_region(g, region):
    lo, hi = region
    return all((a is None or a <= v) and (b is None or v <= b)
               for v, a, b in zip(g, lo, hi))


def _reference_convolution(fld, a, b, region):
    """Every pair as a tuple sum, then the terms inside the region."""
    out = {}
    for g1, c1 in a.items():
        for g2, c2 in b.items():
            g = tuple(x + y for x, y in zip(g1, g2))
            if region is None or _in_region(g, region):
                out[g] = out.get(g, 0) + c1 * c2
    return {g: fld.coerce(c) for g, c in out.items() if fld.coerce(c) != 0}


def _assert_canonical(fld, coeffs):
    for c in coeffs.values():
        if fld is QQ:
            assert isinstance(c, int) or c.denominator != 1
        else:
            assert isinstance(c, int) and 0 < c < fld.p


@st.composite
def _convolution_inputs(draw):
    k = draw(st.integers(1, 3))
    fld = draw(st.sampled_from([QQ, PrimeField(5)]))
    if fld is QQ:  # mixed denominators, made canonical by the field
        scalar = st.builds(Fraction, st.integers(-9, 9),
                           st.sampled_from([1, 1, 2, 3, 4, 6, 7]))
    else:
        scalar = st.integers(1, 4)
    exps = st.tuples(*[st.integers(-6, 6)] * k)
    maps = st.dictionaries(exps, scalar.map(fld.coerce), max_size=10).map(
        lambda d: {g: c for g, c in d.items() if c})
    lo = st.just(-math.inf) | st.integers(-12, 12)
    hi = st.just(math.inf) | st.integers(-12, 12)
    region = st.none() | st.tuples(st.tuples(*[lo] * k), st.tuples(*[hi] * k))
    return fld, draw(maps), draw(maps), draw(region)


@settings(max_examples=300, deadline=None)
@given(_convolution_inputs())
def test_convolve_matches_filtered_tuple_convolution(inputs):
    fld, a, b, region = inputs
    out = _convolve(fld, a, b, region)
    assert out == _reference_convolution(fld, a, b, region)
    _assert_canonical(fld, out)


def test_convolve_beyond_machine_words():
    big = 2 ** 70
    a = {(big, -3): Fraction(1, 3), (0, 5): 2, (-big // 4, 0): 7,
         (1, 2 ** 66): Fraction(-5, 2)}
    b = {(big, 1): 5, (3, -(2 ** 66)): Fraction(3, 4), (0, 0): -1}
    inf = math.inf
    for region in [((-inf, -inf), (inf, inf)),
                   ((0, -10), (inf, 10)),
                   ((-big, -inf), (big, 0)),
                   ((big // 2, -inf), (inf, inf)),
                   ((3, 0), (3, 0))]:
        out = _convolve(QQ, a, b, region)
        assert out == _reference_convolution(QQ, a, b, region)
        _assert_canonical(QQ, out)
    # six of the twelve pairs land at or past big / 2 in coordinate 0
    assert len(_convolve(QQ, a, b, ((big // 2, -inf), (inf, inf)))) == 6


@st.composite
def _substitution_inputs(draw):
    k = draw(st.integers(1, 3))
    fld = draw(st.sampled_from([QQ, PrimeField(5)]))
    amb = make_ambient(k, field=fld)
    # lex-positive exponents: the first nonzero coordinate is positive
    exp = st.tuples(*[st.integers(-3, 3)] * k).filter(
        lambda g: any(g) and next(v for v in g if v) > 0)
    scalar = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3]))
    terms = draw(st.dictionaries(exp, scalar, min_size=1, max_size=4))
    f = amb.series(terms)
    c = draw(st.lists(scalar.map(fld.coerce), min_size=1, max_size=5))
    lo = draw(st.tuples(*[st.integers(-6, 3)] * k))
    box = Box(lo, tuple(v + draw(st.integers(0, 6)) for v in lo))
    return amb, c, f, box


@settings(max_examples=100, deadline=None)
@given(_substitution_inputs())
def test_substitute_matches_truncated_polynomial(inputs):
    amb, c, f, box = inputs
    if f.is_zero():  # every coefficient of f vanished in F_5
        return
    expected = amb.zero()
    for ci in reversed(c):  # Horner: sum c_i f^i
        expected = add(mul(expected, f), amb.constant(ci))
    out = substitute(c, f, box)
    assert out.box == box
    assert out.coeffs == {g: v for g, v in expected.coeffs.items()
                          if box.contains(g)}
    _assert_canonical(amb.field, out.coeffs)
