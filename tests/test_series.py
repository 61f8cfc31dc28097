import json
import math
import random
from fractions import Fraction
from functools import reduce
from itertools import count

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpseries import (
    Ambient,
    Box,
    BoxNotContained,
    BoxUnderflow,
    Cone,
    DimensionMismatch,
    GPSeriesError,
    GroupSplit,
    LeadingTermUncertain,
    NonPositiveSupportElement,
    OutsideBox,
    PositiveCharacteristic,
    PrimeField,
    QQ,
    TermOrder,
    ZeroSeries,
    lex_order,
    make_cone,
    parse_order,
    validate_order,
)
from gpseries import exponents, identities, powers, residues, series
from gpseries.exponents import exp_neg, exp_sub
from gpseries.packing import _Packing
from gpseries.powers import _sum_powers
from gpseries.series import (
    _mul_chain,
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

from conftest import (
    make_ambient,
    pairwise_cone_sum,
    random_polynomial,
    random_unimodular,
    random_unit_series,
)

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


def test_is_zero_reads_the_cone_bounds():
    """Nothing stored and cone bounds inside the box: certifiably zero,
    even for a cone with generators."""
    amb = make_ambient(1)
    box = Box((0,), (5,))
    h = amb.series({}, box, Cone((1,), ((1,),), ((1, 3),)))
    assert h.is_zero()
    with pytest.raises(ZeroSeries):
        factorize(h)
    inv = power(amb.one() + h, -1, box)
    assert inv.box is None and inv.coeffs == {(0,): 1}
    # unbounded cone bounds reach past the box: the support may lie there
    h = amb.series({}, box, Cone((1,), ((1,),)))
    assert not h.is_zero()
    with pytest.raises(LeadingTermUncertain):
        factorize(h)
    # an offset alone inside the box is zero; generators past it are not
    amb2 = make_ambient(2)
    assert amb2.series({}, Box((0, 0), (1, 0)), Cone((1, 0), ())).is_zero()
    assert not amb2.series({}, Box((-1, 0), (5, 0)),
                           Cone((-1, 0), ((2, 0), (3, 0)))).is_zero()


def test_adding_zero_keeps_the_box():
    """A summand that is certainly zero, exact or truncated, leaves the
    other unchanged: its extents do not widen the box to the origin."""
    amb = make_ambient(1)
    g = mul(amb.var(1, 10), invert(amb.one() - amb.var(1), Box((0,), (10,))))
    assert g.box == Box((10,), (20,))
    h = amb.series({}, Box((0,), (5,)), Cone((1,), ((1,),), ((1, 3),)))
    for z in (amb.zero(), h):
        for s in (add(g, z), add(z, g)):
            assert (s.coeffs, s.box, s.cone) == (g.coeffs, g.box, g.cone)


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


def test_dimensions_are_checked_when_a_series_is_built():
    """An exponent or a box with the wrong number of coordinates is refused
    where the series is built, not when it is first ordered or printed."""
    amb = make_ambient(1)
    with pytest.raises(DimensionMismatch):
        amb.series({(1, 2): 1})
    with pytest.raises(DimensionMismatch):
        amb.series({(1,): 1}, box=Box((0, 0), (1, 1)))
    data = series_to_json(invert(amb.one() + amb.var(1), Box((0,), (3,))))
    with pytest.raises(DimensionMismatch):
        series_from_json({**data, "terms": [{"exp": [1, 2], "coeff": "1/1"}]})
    with pytest.raises(DimensionMismatch):
        series_from_json({**data, "box": {"lo": [0, 0], "hi": [3, 3]}})


def test_uncertain_leading_term_names_its_cause(monkeypatch):
    """factorize's refusal says why the box could not certify: the cone
    point that escapes it below the least stored term, or the walk's
    budget."""
    amb = make_ambient(1)
    f = amb.series({(0,): 1}, Box((0,), (5,)), make_cone(amb.order, (-1,), [(1,)]))
    with pytest.raises(LeadingTermUncertain, match=(
            r"^box cannot certify that the least stored term is the leading "
            r"term: cone point \(-1,\) lies below it and outside the box$")):
        factorize(f)
    # every cone point below (1, 0) lies in the box, but there are 10^6
    monkeypatch.setattr(exponents, "_CERTIFY_BUDGET", 1000)
    amb2 = make_ambient(2)
    g = amb2.series({(1, 0): 1}, Box((0, 0), (1, 10 ** 6)),
                    make_cone(amb2.order, (0, 0), [(0, 1), (1, 0)]))
    with pytest.raises(LeadingTermUncertain, match=(
            r"^box cannot certify that the least stored term is the leading "
            r"term: the walk gave up after 1,000 cone points$")):
        factorize(g)


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


@st.composite
def _exact_power_inputs(draw):
    """An exact f over 1-3 coordinates, with negative exponents, over Q with
    mixed denominators or over F_5, and a power k in 0..6."""
    n = draw(st.integers(1, 3))
    fld = draw(st.sampled_from([QQ, PrimeField(5)]))
    amb = make_ambient(n, field=fld)
    scalar = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6]))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(-3, 3)] * n), scalar,
                                 min_size=1, max_size=6))
    lo = draw(st.tuples(*[st.integers(-4, 1)] * n))
    return amb, amb.series(terms), draw(st.integers(0, 6)), Box(lo, lo)


@settings(max_examples=150, deadline=None)
@given(_exact_power_inputs())
def test_exact_power_is_repeated_product(inputs):
    """power(f, k) of an exact f is the k-fold product, exact everywhere
    whatever target box is passed, and so is the kernel's binomial sum
    a^k e^(kg) sum_i binom(k, i) tail^i that it takes above a size."""
    amb, f, k, box = inputs
    expected = reduce(mul, [f] * k, amb.one())
    for p in (power(f, k), power(f, k, box), f ** k):
        assert p.box is None and p.coeffs == expected.coeffs
        _assert_canonical(amb.field, p.coeffs)
    if f.is_zero():  # every coefficient of f vanished in F_5
        return
    a, g, tail = factorize(f)
    p = _sum_powers(iter([math.comb(k, i) for i in range(k + 1)]), tail, None, k,
                    amb.field.power(a, k), tuple(k * v for v in g))
    assert p.box is None and p.coeffs == expected.coeffs
    _assert_canonical(amb.field, p.coeffs)


@st.composite
def _inverse_inputs(draw):
    """Over Q or F_5, in 1-3 coordinates, under lex, reversed lex or a
    random unimodular order: an exact f of two or more terms, or a
    truncated f = P1 * invert(P2, B) + P3 as in the nested divisions, and
    a box that holds the leading exponent of its inverse, cuts past it or
    misses it."""
    k = draw(st.integers(1, 3))
    fld = draw(st.sampled_from([QQ, PrimeField(5)]))
    order = draw(st.sampled_from([
        lex_order(k), TermOrder(lex_order(k).matrix[::-1]),
        validate_order(random_unimodular(random.Random(draw(st.integers(0, 99))), k))]))
    amb = Ambient(GroupSplit(0, k), order, fld)
    scalar = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3]))

    def poly(size):
        return amb.series(draw(st.dictionaries(st.tuples(*[st.integers(-2, 2)] * k),
                                               scalar, min_size=size, max_size=5)))

    f = poly(2)
    if draw(st.booleans()):
        lo = draw(st.tuples(*[st.integers(-3, 0)] * k))
        b = Box(lo, tuple(v + draw(st.integers(0, 6)) for v in lo))
        try:
            f = add(mul(poly(1), invert(poly(2), b)), poly(0))
        except GPSeriesError:  # P2 is zero, or the product box is empty
            assume(False)
    lead = order.min(f.coeffs) if f.coeffs else (0,) * k
    far = draw(st.sampled_from([0, 0, 0, 12, -12]))
    lo = tuple(-v + far + draw(st.integers(-3, 1)) for v in lead)
    return amb, f, Box(lo, tuple(v + draw(st.integers(0, 5)) for v in lo))


@settings(max_examples=150, deadline=None)
@given(_inverse_inputs())
def test_inverse_by_recurrence_is_the_binomial_sum(inputs):
    """power(f, -1, box), formed by the division recurrence, is the series
    the binomial sum a^-1 e^-g sum_i (-tail)^i gives, for an exact or a
    truncated tail: coefficients, box and cone, or the same refusal; and
    f times it is 1 on the certified box.  The box is the target box for
    an exact f, and inside it for a truncated one."""
    amb, f, box = inputs
    try:
        a, g, tail = factorize(f)
    except (LeadingTermUncertain, ZeroSeries):
        assume(False)
    assume(not tail.is_zero())  # zero coefficients may leave a monomial
    got = []
    for inverse in (lambda: power(f, -1, box), lambda: _sum_powers(
            map(lambda i: (-1) ** i, count()), tail, box.shift(g), math.inf,
            amb.field.power(a, -1), exp_neg(g))):
        try:
            got.append(inverse())
        except GPSeriesError as e:
            got.append((type(e), str(e)))
    inv, ref = got
    if not isinstance(inv, series.Series):
        assert inv == ref and f.box is not None
        return
    assert inv.coeffs == ref.coeffs
    assert inv.box == ref.box and inv.cone == ref.cone
    assert inv.box == box if f.box is None else box.contains_box(inv.box)
    _assert_canonical(amb.field, inv.coeffs)
    try:
        prod = mul(f, invert(f, box))
    except BoxUnderflow:  # f and its inverse reach past each other's ends
        return
    assert prod.eq_within(amb.one())


def test_truncated_inverse_takes_the_recurrence(monkeypatch):
    """The inverse of a truncated f, the divisor of a nested division,
    walks one domain and calls no binomial sum."""
    amb = make_ambient(1)
    X = amb.var(1)
    f = add(invert(amb.one() - X - X ** 2, Box((0,), (12,))), X)
    calls, real_domain = [], powers._domain

    def domain(*args):
        calls.append("domain")
        return real_domain(*args)

    monkeypatch.setattr(powers, "_domain", domain)
    monkeypatch.setattr(powers, "_sum_powers", lambda *args: calls.append("sum"))
    inv = power(f, -1, Box((0,), (10,)))
    assert calls == ["domain"]
    # 1/f = (1 - X - X^2) / (1 + X - X^2 - X^3), known up to X^10
    want = mul(amb.one() - X - X ** 2,
               invert(amb.one() + X - X ** 2 - X ** 3, Box((0,), (10,))))
    assert inv.box == Box((0,), (10,)) and inv.eq_within(want)
    assert len(inv.coeffs) == 11


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["q", "f10007"])
def test_binomial_power_matches_comb(field):
    amb = make_ambient(1, field=field)
    p = power(amb.one() + amb.var(1), 500)
    assert p.box is None
    assert p.coeffs == {(i,): field.coerce(math.comb(500, i)) for i in range(501)
                        if field.coerce(math.comb(500, i))}


def test_truncated_nonnegative_power_keeps_product_box():
    """A nonnegative power of a truncated f is the k-fold product, each step
    certified by _product_box: its box and cone are the ones that chain of
    products certifies, and a target box does not change them."""
    amb = make_ambient(2)
    X, Y = amb.var(1), amb.var(2)
    t = invert(amb.one() - X + Y.scale(2), Box((0, 0), (10, 10)))
    u = add(mul(X.scale(3), invert(amb.one() + Y, Box((-2, -2), (6, 6)))), amb.one())
    boxes = {(t, 1): Box((0, 0), (10, 10)), (t, 3): Box((0, 0), (10, 10)),
             (u, 1): Box((-1, -2), (7, 6)), (u, 2): Box((-2, -4), (14, 6)),
             (u, 3): Box((-3, -6), (21, 6))}
    for (f, k), box in boxes.items():
        expected = reduce(mul, [f] * k, amb.one())
        for p in (power(f, k), power(f, k, Box((0, 0), (3, 3)))):
            assert p.box == box == expected.box and p.cone == expected.cone
            assert p.coeffs == expected.coeffs
    assert power(t, 0).coeffs == {(0, 0): 1} and power(t, 0).box is None
    zero = truncate(amb.zero(), Box((0, 0), (3, 3)))  # certifiably zero
    assert power(zero, 10 ** 12).is_zero() and power(amb.zero(), 10 ** 12).is_zero()


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


def test_mul_chain_matches_products_in_turn():
    """A chain gives the box, cone bounds and coefficients of the products
    taken in turn, with exact partial products and an unbounded end."""
    amb = make_ambient(2)
    X, Y = amb.var(1), amb.var(2)
    f = invert(amb.one() - X + Y.scale(2), Box((0, 0), (8, 8)))
    g = amb.one() + X.scale(3) - mul(X, Y) + Y ** 2
    h = invert(amb.one() + mul(X, Y), Box((0, 0), (6, 6)))
    for factors, box in [((f, g, h), Box((2, 1), (3, 2))),
                         ((g, g, f, h), Box((0, 0), (4, 4))),
                         ((f, h, g, g), None), ((g, f, h), Box(
                             (-math.inf, 3), (math.inf, 3)))]:
        whole = factors[0]
        for u in factors[1:-1]:
            whole = mul(whole, u)
        whole = mul_within(whole, factors[-1], box)
        got = _mul_chain(factors, box)
        assert got.box == whole.box and got.cone.bounds == whole.cone.bounds
        assert got.coeffs == whole.coeffs
    assert _mul_chain((f, amb.zero(), g), None).is_zero()


@st.composite
def _repeated_factor_inputs(draw):
    """Over Q or F_5, in 1-2 coordinates: an exact f, an exact h whose
    inverse in a box is the truncated g, a target box and a repeat count t
    in 1..4."""
    k = draw(st.integers(1, 2))
    amb = make_ambient(k, field=draw(st.sampled_from([QQ, PrimeField(5)])))
    # numerators and denominators prime to 5, so no coefficient vanishes
    scalar = st.builds(Fraction, st.sampled_from([1, -1, 2, -2, 3, -4]),
                       st.sampled_from([1, 2, 3]))
    exps = st.tuples(*[st.integers(-2, 2)] * k)
    f = amb.series(draw(st.dictionaries(exps, scalar, min_size=1, max_size=4)))
    # h = c (1 + lex-positive tail), so g = h^-1 fills inv_box above 0
    tail = draw(st.dictionaries(exps.filter(
        lambda g: any(g) and next(v for v in g if v) > 0), scalar, max_size=3))
    h = amb.series({**tail, (0,) * k: draw(scalar)})
    lo = draw(st.tuples(*[st.integers(-4, 0)] * k))
    inv_box = Box(lo, tuple(v + draw(st.integers(2, 6)) for v in lo))
    # near where g * f^t lives: inv_box plus t times f's extents
    lo = tuple(v + draw(st.integers(-3, 5)) for v in inv_box.lo)
    box = Box(lo, tuple(v + draw(st.integers(0, 4)) for v in lo))
    return amb, f, h, inv_box, box, draw(st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(_repeated_factor_inputs())
def test_mul_chain_with_a_repeated_factor(inputs):
    """A chain that receives the same exact f t times agrees with the
    product by f^t: same certified box, same coefficients in it, or the
    same refusal."""
    amb, f, h, inv_box, box, t = inputs
    g = invert(h, inv_box)
    try:
        want = mul_within(g, f ** t, box)
    except BoxUnderflow:
        with pytest.raises(BoxUnderflow):
            _mul_chain((g,) + (f,) * t, box)
        return
    got = _mul_chain((g,) + (f,) * t, box)
    assert got.box == want.box
    assert got.coeffs == want.coeffs
    _assert_canonical(amb.field, got.coeffs)


@st.composite
def _packing_inputs(draw):
    """A box in 1-3 coordinates with spans up to 2^70, two points g, g2 in
    it, and a region whose ends are infinite, near the box's ends or at
    most 1 from g's coordinates."""
    k = draw(st.integers(1, 3))
    lo = draw(st.tuples(*[st.integers(-2 ** 70, 2 ** 70)] * k))
    hi = tuple(a + draw(st.integers(0, 9) | st.integers(0, 2 ** 70)) for a in lo)
    g, g2 = (tuple(draw(st.integers(a, b)) for a, b in zip(lo, hi)) for _ in "gg")

    def end(inf, v, a):
        return draw(st.sampled_from([inf, v - 1, v, v + 1, a - 1, a, a + 1]))

    region = ([end(-math.inf, v, a) for v, a in zip(g, lo)],
              [end(math.inf, v, b) for v, b in zip(g, hi)])
    return lo, hi, g, g2, region


@settings(max_examples=300, deadline=None)
@given(_packing_inputs())
def test_packing_steps_and_windows(inputs):
    """pack and unpack round-trip, pack(g) + step(h) == pack(g + h) inside
    the box, a step packs positive iff its last nonzero coordinate is
    positive (so packed order walks every positive step upward), and a
    window accepts exactly the packed points of its region."""
    lo, hi, g, g2, (rlo, rhi) = inputs
    pk = _Packing(lo, hi)
    guard = pk.guard
    h = exp_sub(g2, g)
    assert pk.unpack(pk.pack(g)) == g and pk.unpack(pk.pack(g2)) == g2
    assert pk.pack(g) + pk.step(h) == pk.pack(g2)
    last = next((v for v in reversed(h) if v), 0)
    assert (pk.step(h) > 0) == (last > 0)
    window = pk.window(rlo, rhi)
    misses = any(max(a, l) > min(b, u) for a, b, l, u in zip(lo, hi, rlo, rhi))
    assert (window is None) == misses
    for p in (g, g2):
        inside = all(l <= v <= u for l, v, u in zip(rlo, p, rhi))
        if window is None:
            assert not inside
            continue
        low, high = window
        s = pk.pack(p)
        assert ((s + low) & guard == guard and (high - s) & guard == guard) == inside


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["q", "f5"])
@pytest.mark.parametrize("n", [50, 2 ** 70], ids=["50", "2^70"])
def test_chain_packing_holds_every_partial_product(field, n):
    """1/(1+X) in a box, then X^-n, then X^n: the middle partial product
    lies n below the whole product's extents, and the chain still gives
    the box, cone bounds and coefficients of the products in turn."""
    amb = make_ambient(1, field=field)
    f = invert(amb.one() + amb.var(1), Box((0,), (8,)))
    factors = (f, amb.monomial(1, (-n,)), amb.monomial(1, (n,)))
    for box in [None, Box((2,), (5,)), Box((-math.inf,), (3,))]:
        want = mul_within(mul(*factors[:2]), factors[2], box)
        got = _mul_chain(factors, box)
        assert got.box == want.box and got.cone.bounds == want.cone.bounds
        assert got.coeffs == want.coeffs and len(got.coeffs) >= 4


def test_one_packing_per_chain(monkeypatch):
    """A chain packs its exponents once, however many factors it has; the
    product of two exact series packs nothing."""
    made = []

    class Counting(series._Packing):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    amb = make_ambient(2)
    X, Y = amb.var(1), amb.var(2)
    f = invert(amb.one() - X + Y.scale(2), Box((0, 0), (8, 8)))
    g = amb.one() + X.scale(3) - mul(X, Y) + Y ** 2
    h = invert(amb.one() + mul(X, Y), Box((0, 0), (6, 6)))
    monkeypatch.setattr(series, "_Packing", Counting)
    assert _mul_chain((f, g, h, g), Box((0, 0), (4, 4))).coeffs
    assert len(made) == 1
    made.clear()
    assert mul(g, g).coeffs and not made
    # Egorychev at (1,1,1,1): the inverted denominator, then Delta 4 times
    chain, counts = residues._chain_terms, []

    def counted(factors, box):
        made.clear()
        out = chain(factors, box)
        counts.append((len(factors), len(made)))
        return out

    monkeypatch.setattr(residues, "_chain_terms", counted)  # _read_quotient's chain
    assert identities._egorychev_lhs(identities.DysonInstance((1, 1, 1, 1))) == 24
    assert counts == [(5, 1)]


@st.composite
def _chain_inputs(draw):
    """Over Q or F_5, in 2 coordinates, under lex, reversed lex or a random
    unimodular order: a chain of 2-5 factors, each exact or the truncated
    inverse of an exact series in a box near its leading exponent, and a
    target box or None."""
    fld = draw(st.sampled_from([QQ, PrimeField(5)]))
    order = draw(st.sampled_from([
        lex_order(2), TermOrder(lex_order(2).matrix[::-1]),
        validate_order(random_unimodular(random.Random(draw(st.integers(0, 99))), 2))]))
    amb = Ambient(GroupSplit(0, 2), order, fld)
    # numerators and denominators prime to 5, so no coefficient vanishes
    scalar = st.builds(Fraction, st.sampled_from([1, -1, 2, -2, 3]),
                       st.sampled_from([1, 2, 3]))
    terms = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * 2), scalar,
                            min_size=1, max_size=4)
    factors = []
    for _ in range(draw(st.integers(2, 5))):
        f = amb.series(draw(terms))
        if draw(st.booleans()):
            lo = tuple(-v + draw(st.integers(-2, 0)) for v in order.min(f.coeffs))
            f = invert(f, Box(lo, tuple(v + draw(st.integers(1, 5)) for v in lo)))
        factors.append(f)
    return factors, draw(st.none() | st.just(Box((-40, -40), (40, 40))))


@settings(max_examples=150, deadline=None)
@given(_chain_inputs())
def test_chain_cone_is_the_pairwise_fold(inputs):
    """A chain's certificate, built once, is the left fold of the pairwise
    cone sum over the cones of the factors it multiplied (an exact prefix
    counts as one factor): the same offset, generators in order and bounds."""
    factors, box = inputs
    try:
        got = _mul_chain(factors, box)
    except BoxUnderflow:
        return  # a refused product has no certificate to compare
    fs = list(factors)
    while len(fs) > 1 + (box is not None) and fs[0].box is None and fs[1].box is None:
        fs[:2] = [mul(fs[0], fs[1])]
    if got.box is None:
        assert len(fs) == 1 and got.cone is None and got.coeffs == fs[0].coeffs
        return
    want = reduce(pairwise_cone_sum, map(series._effective_cone, fs))
    assert got.cone.offset == want.offset
    assert got.cone.generators == want.generators
    assert got.cone.bounds == want.bounds


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["q", "f5"])
def test_empty_product_box_says_why(field):
    """1/(1 - X1 X2^-1) is unbounded below in X2 and 1/(1 - X2) above, so
    their product certifies no X2 range: the refusal names the coordinate,
    where each operand is stored there and its cone bounds there."""
    amb = make_ambient(2, field=field)
    x1, x2 = amb.var(1), amb.var(2)
    f = invert(amb.one() - mul(x1, amb.var(2, -1)), Box((0, -4), (4, 0)))
    g = invert(amb.one() - x2, Box((0, 0), (4, 4)))
    with pytest.raises(BoxUnderflow) as err:
        mul(f, g)
    assert str(err.value) == (
        "certified product box is empty in coordinate 1: operands stored in "
        "(-4, 0) and (0, 4), cone bounds (-inf, 0) and (0, inf)")


def test_long_mul_loop_keeps_an_eager_cone():
    """600 products in turn, each with a truncated operand, leave a cone
    whose generators read at once, with no deep recursion."""
    amb = make_ambient(1)
    x = amb.var(1)
    f = invert(amb.one() - x, Box((0,), (3,)))
    for _ in range(600):
        f = mul(f, amb.one() + x)
    assert f.box == Box((0,), (3,)) and f.cone.generators == ((1,),)
    assert f.cone.bounds == ((0, math.inf),) and f.coefficient_at((1,)) == 601


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
    return k, fld, draw(maps), draw(maps), draw(region)


def _exact_product(k, fld, a, b, region):
    """The product of the exact series with coefficient maps a and b in k
    coordinates: whole by the chain's tuple product with no region, else by
    ``mul_within`` in the box [lo, hi] (an empty region is no box, and
    holds nothing)."""
    amb = make_ambient(k, field=fld)
    f, g = amb.series(a), amb.series(b)
    if region is None:
        return _mul_chain((f, g), None).coeffs
    if any(lo > hi for lo, hi in zip(*region)):
        return {}
    return mul_within(f, g, Box(*region)).coeffs


@settings(max_examples=300, deadline=None)
@given(_convolution_inputs())
def test_convolve_matches_filtered_tuple_convolution(inputs):
    k, fld, a, b, region = inputs
    out = _exact_product(k, fld, a, b, region)
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
        out = _exact_product(2, QQ, a, b, region)
        assert out == _reference_convolution(QQ, a, b, region)
        _assert_canonical(QQ, out)
    # six of the twelve pairs land at or past big / 2 in coordinate 0
    assert len(_exact_product(2, QQ, a, b, ((big // 2, -inf), (inf, inf)))) == 6


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


CERT_ORDERS = [parse_order("1,0;0,1"), parse_order("1,1;1,0")]  # lex, degree


@st.composite
def _certificate_inputs(draw):
    """Over Q or F_5, under lex or a degree order: an exact series f, an
    exact unit u = a e^g (1 + t) with t supported in N^2 minus 0, a box and
    a power k < 0."""
    amb = Ambient(GroupSplit(0, 2), draw(st.sampled_from(CERT_ORDERS)),
                  draw(st.sampled_from([QQ, PrimeField(5)])))
    scalar = st.sampled_from([1, -1, 2, -3, Fraction(1, 2)])
    f = amb.series(draw(st.dictionaries(
        st.tuples(*[st.integers(-2, 2)] * 2), scalar, min_size=1, max_size=4)))
    t = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * 2).filter(any),
                             scalar, min_size=1, max_size=3))
    g = draw(st.tuples(*[st.integers(-2, 2)] * 2))
    u = mul(amb.monomial(draw(scalar), g), amb.one() + amb.series(t))
    lo = draw(st.tuples(*[st.integers(-4, 1)] * 2))
    box = Box(lo, tuple(v + draw(st.integers(0, 4)) for v in lo))
    return amb, f, u, box, draw(st.integers(-3, -1))


def _power_sum(fld, t: dict, cs, hi):
    """sum_i cs(i) t^i by repeated tuple convolution, kept to the terms with
    every coordinate <= hi; t lies in N^k minus 0, so no term comes back."""
    zero = (0,) * len(hi)
    out, pw, i = {}, {zero: 1}, 0
    while pw:
        for s, v in pw.items():
            out[s] = out.get(s, 0) + cs(i) * v
        i += 1
        pw = {s: v for s, v in _reference_convolution(fld, pw, t, None).items()
              if all(map(int.__le__, s, hi))}
    return {s: fld.coerce(v) for s, v in out.items() if fld.coerce(v)}


def _binomial(k, i):
    return (-1) ** i * math.comb(i - k - 1, i)  # binom(k, i) for k < 0


@settings(max_examples=40, deadline=None)
@given(_certificate_inputs())
def test_combined_cones_stay_certified(inputs):
    """Cones combined inside the library are not checked again: each one
    still passes make_cone, and for exact inputs the result agrees with
    brute-force expansion inside its box."""
    amb, f, u, box, k = inputs
    fld = amb.field
    if u.is_zero():  # every term vanished in F_5
        return
    a, g, tail = factorize(u)
    shift = tuple(k * v for v in g)
    total = dict(f.coeffs)
    for e, c in u.coeffs.items():
        total[e] = total.get(e, 0) + c
    expected = [  # (result, brute-force coefficients)
        (add(truncate(f, box), u), total),
        (mul_within(f, u, box), _reference_convolution(
            fld, f.coeffs, u.coeffs, None)),
        (power(u, k, box), {tuple(map(int.__add__, s, shift)):
                            fld.coerce(v * fld.power(a, k)) for s, v in
                            _power_sum(fld, tail.coeffs, lambda i: _binomial(k, i),
                                       tuple(h - d for h, d in zip(box.hi, shift))
                                       ).items()}),
        (substitute(lambda i: i + 1, tail, box), _power_sum(
            fld, tail.coeffs, lambda i: i + 1, box.hi)),
        (truncate(f, box), f.coeffs),
    ]
    for r, brute in expected:
        assert r.eq_within(amb.series(brute))
        _assert_cone_checks(amb.order, r)
    # truncated quotients through the same operations
    try:
        q = mul(f, invert(u, box))
    except GPSeriesError:
        return  # a refusal claims nothing
    _assert_cone_checks(amb.order, q)
    for op in (lambda: add(q, f), lambda: add(q, q),
               lambda: mul_within(q, u, None), lambda: mul_within(q, q, box),
               lambda: power(q, k, box),
               lambda: substitute(lambda i: i + 1, factorize(q)[2], box),
               lambda: truncate(q, q.box or box)):
        try:
            r = op()
        except GPSeriesError:
            continue
        _assert_cone_checks(amb.order, r)


def _assert_cone_checks(order, r):
    """A truncated result is certified, and its cone passes make_cone."""
    c = r.cone
    assert r.box is None or c is not None
    if c is not None:
        assert make_cone(order, c.offset, c.generators, c.bounds) == c


@st.composite
def _nested_divisor_inputs(draw):
    """Over Q or F_5, in one or two variables: polynomials P1, P2 (constant
    term +-1, its other exponents in N^n minus 0) and P3 of the truncated
    divisor P1/P2 + P3, a box B and a wider box B' around it."""
    fld = draw(st.sampled_from([QQ, PrimeField(5)]))
    n = draw(st.integers(1, 2))
    amb = make_ambient(n, field=fld)

    def exps(top):
        return st.tuples(*[st.integers(0, top)] * n)

    def poly(exp, **size):
        return amb.series(draw(st.dictionaries(
            exp, st.integers(-3, 3).filter(bool), **size)))

    p1 = poly(exps(3), min_size=1, max_size=3)
    p2 = add(amb.constant(draw(st.sampled_from([1, -1]))),
             poly(exps(2).filter(any), min_size=1, max_size=2))
    p3 = poly(exps(1), max_size=2)
    lo = draw(st.tuples(*[st.integers(-2, 1)] * n))
    box = Box(lo, tuple(v + draw(st.integers(0, 8)) for v in lo))
    wide = Box(tuple(v - draw(st.integers(0, 3)) for v in box.lo),
               tuple(v + draw(st.integers(1, 6)) for v in box.hi))
    return amb, p1, p2, p3, box, wide


@settings(max_examples=200, deadline=None)
@given(_nested_divisor_inputs())
def test_truncated_powers_agree_in_nested_boxes(inputs):
    """The truncated divisor f = P1/P2 + P3 agrees with the one built in a
    wider box and with the exact (P1 + P3 P2)/P2 in its box, and is zero
    only if P1 + P3 P2 is.  A negative power of it is exact in the box it
    returns, which lies in the target box: it agrees with the power taken
    in a wider box and with the exact quotient P2^k / (P1 + P3 P2)^k, and
    every tail factorize gives has a cone at offset 0.  A substitution
    into the tail, finite or not, agrees with the one into the wider
    tail, and lies in its target box."""
    amb, p1, p2, p3, box, wide = inputs
    try:
        f, f_wide = (add(mul(p1, invert(p2, b)), p3) for b in (box, wide))
    except GPSeriesError:
        return
    assert f.eq_within(f_wide)
    num = add(p1, mul(p3, p2))  # its exponents lie in [0, 3]^n
    if f.box is not None:
        inv = invert(p2, Box(tuple(v - 3 for v in f.box.lo), f.box.hi))
        assert f.eq_within(mul_within(num, inv, f.box))
    if f.is_zero():
        assert num.is_zero()
    tails = []
    for q in (f, f_wide):
        try:
            tail = factorize(q)[2]
        except GPSeriesError:
            continue
        assert tail.box is None or tail.cone.offset == (0,) * amb.k
        _assert_cone_checks(amb.order, tail)
        tails.append(tail)
    for c in ((1, -2, 3), lambda i: i + 1) if len(tails) == 2 else ():
        try:
            r, r_wide = (substitute(c, t, b) for t, b in zip(tails, (box, wide)))
        except GPSeriesError:
            continue
        assert r.eq_within(r_wide)
        for q, b in ((r, box), (r_wide, wide)):
            assert q.box is None or b.contains_box(q.box)
            _assert_cone_checks(amb.order, q)
    for k in (1, 2, 3):
        try:
            r = power(f, -k, box)
            r_wide = power(f_wide, -k, wide)
        except GPSeriesError:
            continue  # a refusal claims nothing
        assert r.eq_within(r_wide)
        if r.box is None:
            continue
        assert box.contains_box(r.box)
        # P2^k has its exponents in [0, 2k]^n
        inv = power(add(p1, mul(p3, p2)), -k,
                    Box(tuple(v - 2 * k for v in r.box.lo), r.box.hi))
        exact = mul_within(power(p2, k), inv, r.box)
        assert exact.box == r.box and r.eq_within(exact)
