from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpseries import QQ, Box, GPSeriesError, PrimeField
from gpseries.calculus import partial
from gpseries.fields import _is_prime
from gpseries.series import add, factorize, invert, mul, power, substitute

from conftest import make_ambient


def test_is_prime_matches_trial_division():
    def by_trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert all(_is_prime(n) == by_trial(n) for n in range(3000))


@pytest.mark.parametrize("p", [561, 2047, 3215031751, 3825123056546413051])
def test_strong_pseudoprimes_rejected(p):
    with pytest.raises(GPSeriesError):
        PrimeField(p)


def test_large_primes():
    assert PrimeField(1000000000000000003).p == 10 ** 18 + 3
    assert PrimeField(2 ** 61 - 1).characteristic == 2 ** 61 - 1
    with pytest.raises(GPSeriesError, match="too large"):
        PrimeField(2 ** 89 - 1)


# -- coefficient representation ---------------------------------------------

AMB_Q = make_ambient(2)
AMB_F5 = make_ambient(2, field=PrimeField(5))
BOX = Box((0, 0), (4, 4))

tails = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any),
                        st.integers(-7, 7), max_size=4)


def _coeffs(*series):
    return [c for f in series for c in f.coeffs.values()]


def test_rational_scalars_stay_int_until_a_division():
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.coerce(Fraction(4, 2))) is int and QQ.coerce(Fraction(4, 2)) == 2
    assert type(QQ.parse("6/3")) is int and QQ.parse("6/3") == 2
    assert QQ.power(2, -2) == Fraction(1, 4) and type(QQ.power(-1, -3)) is int


def test_integral_fractions_become_ints():
    half = AMB_Q.monomial(Fraction(1, 2), (0, 1))
    for f in (mul(half, AMB_Q.constant(2)), add(half, half),
              mul(invert(AMB_Q.constant(2) - AMB_Q.var(1), BOX), AMB_Q.constant(4))):
        assert all(type(c) is int or c.denominator != 1 for c in f.coeffs.values())
    assert type(mul(half, AMB_Q.constant(2)).coeffs[(0, 1)]) is int


def test_integral_and_reduce_divide_once():
    ints, den = QQ.integral({(0,): Fraction(1, 4), (1,): Fraction(-5, 6), (2,): 3})
    assert den == 12 and ints == {(0,): 3, (1,): -10, (2,): 36}
    assert QQ.reduce({(0,): 6, (1,): 0, (2,): 5}, 4) == {(0,): Fraction(3, 2),
                                                         (2,): Fraction(5, 4)}
    assert type(QQ.reduce({(0,): 8}, 4)[(0,)]) is int
    f5 = PrimeField(5)
    assert f5.integral({(0,): 3}) == ({(0,): 3}, 1)
    assert f5.reduce({(0,): 3, (1,): 10}, 2) == {(0,): 4}  # 3 / 2 = 4 mod 5


@settings(max_examples=40, deadline=None)
@given(lead=st.sampled_from((1, -1)), tail=tails, k=st.integers(0, 3))
def test_unit_leading_coefficient_keeps_int_coefficients(lead, tail, k):
    f = AMB_Q.series({(0, 0): lead, **tail})
    _, _, t = factorize(f)
    out = [f ** k, invert(f, BOX), power(f, -2, BOX), t,
           substitute([1, -2, 3, 5], t, BOX)]
    assert all(type(c) is int for c in _coeffs(*out))


@settings(max_examples=40, deadline=None)
@given(tail=tails)
def test_non_unit_leading_coefficient_gives_fractions_never_floats(tail):
    f = AMB_Q.series({(0, 0): 2, (1, 0): 1, **tail})
    _, _, t = factorize(f)
    cs = _coeffs(invert(f, BOX), t, substitute([1, -2, 3], t, BOX), f ** 2)
    assert all(type(c) in (int, Fraction) for c in cs)
    assert any(type(c) is Fraction and c.denominator != 1 for c in cs)


@settings(max_examples=40, deadline=None)
@given(lead=st.integers(1, 4), tail=tails, other=tails)
def test_prime_field_coefficients_are_reduced_ints(lead, tail, other):
    f = AMB_F5.series({(0, 0): lead, **tail})
    g = AMB_F5.series(other)
    out = [mul(f, g), add(f, g), f - f, invert(f, BOX), partial(f, 1),
           partial(f, 2), f.scale(3), f.scale(7), power(f, -3, BOX)]
    assert all(type(c) is int and 1 <= c < 5 for c in _coeffs(*out))
