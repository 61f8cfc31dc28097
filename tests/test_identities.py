import itertools
import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from gpseries import Box, identities, powers, residues
from gpseries.errors import BadDimension
from gpseries.identities import (
    DysonInstance,
    cramer_identity_check,
    dyson_lhs,
    dyson_rhs,
    dyson_verify,
    egorychev_parameters,
    egorychev_wedge_check,
    euler_identity_check,
    lagrange_interpolation_check,
    vandermonde_delta,
    wilson_parameters,
    wilson_wedge_check,
)
from gpseries.residues import is_regular, jacobi_coefficient
from gpseries.series import _extents, _mul_chain, add, factorize, mul, power

# frozen oracle: constant terms of prod_{i != j} (1 - X_i/X_j)^{a_i},
# brute-forced by expanding the rational function symbolically
BRUTE_CT = {
    (1, 1): 2,
    (2, 1): 3,
    (1, 1, 1): 6,
    (2, 1, 1): 12,
    (2, 2, 2): 90,
}


def test_instance_validation():
    with pytest.raises(BadDimension):
        DysonInstance((3,))
    with pytest.raises(BadDimension):
        DysonInstance((1, -1))
    with pytest.raises(BadDimension):
        DysonInstance(("1", 2))
    with pytest.raises(BadDimension):
        DysonInstance((None, 2))
    with pytest.raises(BadDimension):
        DysonInstance(None)
    assert DysonInstance([2, 0, 1]).n == 3


def test_rhs_multinomial():
    assert dyson_rhs(DysonInstance((2, 1))) == 3
    assert dyson_rhs(DysonInstance((2, 2, 2))) == Fraction(
        math.factorial(6), 8)


def test_direct_against_brute_force():
    for a, ct in BRUTE_CT.items():
        assert dyson_lhs(DysonInstance(a)) == ct


def test_direct_matches_multinomial():
    every = [a for n, amax in ((5, 2), (4, 3))
             for a in itertools.product(range(amax + 1), repeat=n)]
    for a in [(0, 0), (3, 2), (1, 2, 3), (2, 2, 1, 1)] + every:
        lhs, rhs, ok = dyson_verify(DysonInstance(a), "direct")
        assert ok, (a, lhs, rhs)


def _full_expansion_ct(a):
    """Reference: expand every factor of prod_{i != j} (1 - X_i/X_j)^{a_i}
    into one Laurent polynomial, then read its constant term."""
    n = len(a)
    prod = {(0,) * n: 1}
    for i in range(n):
        for j in range(n):
            if j == i or a[i] == 0:
                continue
            out = {}
            for g, c in prod.items():
                for t in range(a[i] + 1):
                    h = tuple(g[k] + (t if k == i else -t if k == j else 0)
                              for k in range(n))
                    out[h] = out.get(h, 0) + c * (-1) ** t * math.comb(a[i], t)
            prod = {h: c for h, c in out.items() if c}
    return prod.get((0,) * n, 0)


def test_direct_matches_full_expansion():
    rng = random.Random(14)
    for _ in range(30):
        a = tuple(rng.randint(0, 3) for _ in range(rng.randint(2, 4)))
        assert dyson_lhs(DysonInstance(a)) == _full_expansion_ct(a), a


def test_direct_keeps_only_terms_that_reach_zero(monkeypatch):
    # the full expansion at (2,2,2,2,2) grows to 38,621 terms
    sizes = []
    convolve = identities._int_convolve

    def recording(p, q):
        out = convolve(p, q)
        sizes.extend((len(p), len(out)))
        return out

    monkeypatch.setattr(identities, "_int_convolve", recording)
    assert dyson_lhs(DysonInstance((2, 2, 2, 2, 2))) == 113400
    assert sizes and max(sizes) < 1000


def test_direct_symmetric_in_exponents():
    rng = random.Random(11)
    for _ in range(6):
        n = rng.choice((2, 3))
        a = tuple(rng.randint(0, 3) for _ in range(n))
        base = dyson_lhs(DysonInstance(a))
        for perm in itertools.permutations(a):
            assert dyson_lhs(DysonInstance(perm)) == base


def test_methods_agree():
    for a in [(1, 1), (2, 1), (3, 2), (1, 1, 1), (2, 1, 1), (2, 2, 2)]:
        inst = DysonInstance(a)
        direct = dyson_verify(inst, "direct")
        wilson = dyson_verify(inst, "wilson")
        egor = dyson_verify(inst, "egorychev")
        assert direct[0] == wilson[0] == egor[0] == direct[1]
        assert direct[2] and wilson[2] and egor[2]


def test_egorychev_matches_multinomial():
    # every a in {0..4}^3, the benchmark's stratum, and three instances at
    # n = 4, where the inversion of the denominator takes most of the time
    for a in [*itertools.product(range(5), repeat=3), (1, 1, 1, 1), (2, 1, 1, 1),
              (2, 2, 1, 1)]:
        expect = math.factorial(sum(a))
        for x in a:
            expect //= math.factorial(x)
        assert dyson_verify(DysonInstance(a), "egorychev") == (
            expect, expect, True)


def test_egorychev_parameters_are_built_once_per_n():
    """Upsilon and Delta = sum Upsilon depend on n alone, so each is built
    once per n and shared by every Egorychev read and check."""
    for n in (2, 3, 4):
        p = egorychev_parameters(n)
        assert egorychev_parameters(n) is p
        delta = identities._egorychev_delta(n)
        assert identities._egorychev_delta(n) is delta
        assert delta.eq_within(vandermonde_delta(p.ambient))


def test_egorychev_inversion_forms_each_point_once(monkeypatch):
    """At a = (4,4,4) the denominator's inverse has 81 terms in the
    inversion box, where the binomial sum formed 626 terms of powers of the
    tail to find them.  The division recurrence forms one value per point
    of its domain, each point once, and calls no binomial sum."""
    real_invert, real_domain = residues.invert, powers._domain
    real_sum = powers._sum_powers
    seen = {"inside": False, "sums": 0, "domains": [], "inverses": []}

    def invert(f, box):
        seen["inside"] = True
        try:
            seen["inverses"].append(real_invert(f, box))
        finally:
            seen["inside"] = False
        return seen["inverses"][-1]

    def domain(*args):
        seen["domains"].append(real_domain(*args))
        return seen["domains"][-1]

    def sum_powers(*args):
        seen["sums"] += seen["inside"]
        return real_sum(*args)

    monkeypatch.setattr(residues, "invert", invert)  # _jacobi_in_box's inverse
    monkeypatch.setattr(powers, "_domain", domain)
    monkeypatch.setattr(powers, "_sum_powers", sum_powers)
    assert dyson_verify(DysonInstance((4, 4, 4)), "egorychev") == (34650, 34650, True)
    [inverse], [points] = seen["inverses"], seen["domains"]
    assert seen["sums"] == 0
    assert len(inverse.coeffs) == 81
    # the origin's value 1 is given, every other point is formed once
    assert len(set(points)) == len(points) <= 80


def test_egorychev_through_jacobi_coefficient():
    """The paper's own route at n = 3: the constant term is the coefficient
    of Delta^|a| at Upsilon^a, Delta = sum Upsilon, one generic
    jacobi_coefficient call.  Its residue divides by the multiplicity
    determinant, so the multinomials check the scale too."""
    p = egorychev_parameters(3)
    delta = reduce(add, p.members)
    for a in [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 1)]:
        expect = math.factorial(sum(a))
        for x in a:
            expect //= math.factorial(x)
        got = jacobi_coefficient(power(delta, sum(a)), p, a)
        assert got.coeffs == {(0, 0, 0): expect}, a


def test_generic_egorychev_read_divides_by_one_power(monkeypatch):
    """The generic read of Delta^4 at Upsilon^(1,1,1,1), n = 4, takes the
    dlog side: it inverts prod Upsilon_l, whose tail has 200 keys, not
    prod Upsilon_l^2 (a tail of 1,258 keys), and J(Upsilon) is no factor
    of its chain."""
    p = egorychev_parameters(4)
    inverted, chains = [], []
    real_invert, real_chain = residues.invert, residues._chain_terms
    monkeypatch.setattr(residues, "invert", lambda f, box: (
        inverted.append(f) or real_invert(f, box)))
    monkeypatch.setattr(residues, "_chain_terms", lambda factors, box: (
        chains.append(list(factors)) or real_chain(factors, box)))
    got = jacobi_coefficient(power(reduce(add, p.members), 4), p, (1, 1, 1, 1))
    assert got.coeffs == {(0, 0, 0, 0): 24}
    [f], [factors] = inverted, chains
    assert f.eq_within(_mul_chain(p.members, None))
    assert len(factorize(f)[2].coeffs) == 200
    assert not any(g is p.jacobian for g in factors)


def test_numerator_extents_are_total_times_delta_extents():
    """The Egorychev inversion box rests on this: in each coordinate the
    extreme face of s^k, s = sum Upsilon_i, is the k-th power of that face
    of s, which is nonzero, so s^k spans exactly k times the extents of s."""
    for n in (3, 4):
        ambient = identities._egorychev_ambient(n)
        s = ambient.zero()
        for i in range(1, n + 1):
            s = add(s, identities._upsilon(ambient, i))
        ext = _extents(s)
        p = ambient.one()
        for total in range(1, 7):
            p = mul(p, s)
            assert _extents(p) == [(total * lo, total * hi) for lo, hi in ext]


def test_wilson_one_binomial_substitution():
    # (1 - X_2 - X_3 - X_4)^-4 read at X^(0,3,3,3): one negative power,
    # computed only at the coefficient it reads
    lhs, rhs, equal = dyson_verify(DysonInstance((3, 3, 3, 3)), "wilson")
    assert lhs == rhs == 369600 and equal


def test_unknown_method():
    with pytest.raises(ValueError):
        dyson_verify(DysonInstance((1, 1)), "guess")


def test_wilson_determinants():
    for n in range(2, 7):
        p = wilson_parameters(n)
        assert p.det == (-1) ** (n - 1) * math.factorial(n - 1)
    assert is_regular(wilson_parameters(2))
    assert not is_regular(wilson_parameters(3))


def test_egorychev_determinants():
    for n in range(2, 7):
        p = egorychev_parameters(n)
        assert p.det == math.factorial(n) * (n - 1) // 2


def test_lagrange_interpolation():
    assert lagrange_interpolation_check(2, Box((-4, -4), (4, 4)))
    assert lagrange_interpolation_check(3, Box((-3,) * 3, (3,) * 3))


def test_wilson_wedge_identity():
    for n in range(2, 5):
        assert wilson_wedge_check(n)


def test_egorychev_wedge_identity():
    for n in range(2, 5):
        assert egorychev_wedge_check(n)


def test_cramer_identities():
    for n in range(2, 6):
        assert cramer_identity_check(n)


def test_euler_identity():
    for n in range(2, 6):
        assert euler_identity_check(n)
