import random
from fractions import Fraction

import pytest

from gpseries import Ambient, Box, GroupSplit, PrimeField, QQ, lex_order
from gpseries.calculus import (
    DLOGX,
    DX,
    NForm,
    OneForm,
    differential,
    dlog,
    dlog_wedge,
    form_h_coefficient,
    jacobian,
    nform_from_json,
    nform_to_json,
    partial,
    wedge,
)
from gpseries.errors import BadVariableIndex, GPSeriesError, MalformedJSON, ZeroSeries
from gpseries.identities import DysonInstance, dyson_verify
from gpseries.series import add, invert, mul, power

from conftest import make_ambient, random_polynomial, random_unimodular, \
    random_unit_series

AMB = make_ambient(2)
X1, X2 = AMB.var(1), AMB.var(2)
BOX = Box((-5, -5), (5, 5))


def test_partial_power_rule():
    amb = make_ambient(1)
    f = amb.var(1, 3)
    assert partial(f, 1).coeffs == {(2,): 3}


def test_partial_example():
    f = AMB.monomial(1, (2, 1)) + X2
    assert partial(f, 1).coeffs == {(1, 1): 2}


def test_partial_kills_h_part():
    amb = make_ambient(1, m=1)
    f = amb.monomial(4, (3, 0))  # pure H element
    assert partial(f, 1).is_zero()


def test_partial_bad_index():
    with pytest.raises(BadVariableIndex):
        partial(X1, 3)


def test_differential():
    d = differential(mul(X1, X2))
    assert d.components[0].coeffs == {(0, 1): 1}
    assert d.components[1].coeffs == {(1, 0): 1}
    amb = make_ambient(1, m=1)
    assert differential(amb.monomial(2, (5, 0))).components[0].is_zero()


def test_differential_of_polynomial_series():
    # d(sum c_i Phi^i) = (sum i c_i Phi^(i-1)) dPhi for Phi = X
    amb = make_ambient(1)
    X = amb.var(1)
    f = amb.one() + X + X ** 2 + X ** 3
    expect = amb.one() + X.scale(2) + (X ** 2).scale(3)
    assert differential(f).components[0].eq_within(expect)


def test_dlog_power_rule():
    amb = make_ambient(2)
    f = amb.var(1, 5)
    d = dlog(f)
    assert d.components[0].coeffs == {(-1, 0): 5}
    assert d.components[1].is_zero()


def test_dlog_product_rule():
    f = mul(X1, AMB.one() + X2)
    g = X2
    lhs = dlog(mul(f, g), BOX)
    rhs = dlog(f, BOX) + dlog(g, BOX)
    for a, b in zip(lhs.components, rhs.components):
        assert a.eq_within(b)


def test_dlog_zero_raises():
    with pytest.raises(ZeroSeries):
        dlog(AMB.zero())


def test_dlog_positive_characteristic():
    amb = make_ambient(1, field=PrimeField(5))
    x = amb.var(1)
    d = dlog(mul(x, amb.one() + x), Box((-3,), (3,)))
    assert d.components[0].coefficient_at((-1,)) == 1


def test_wedge_orientation():
    d1, d2 = differential(X1), differential(X2)
    assert wedge([d1, d2]).coeff.coeffs == {(0, 0): 1}
    assert wedge([d2, d1]).coeff.coeffs == {(0, 0): -1}
    assert wedge([d1, d1]).coeff.is_zero()


def test_wedge_antisymmetry_random():
    rng = random.Random(2)
    for _ in range(10):
        w1 = differential(random_polynomial(rng, AMB))
        w2 = differential(random_polynomial(rng, AMB))
        a = wedge([w1, w2]).coeff
        b = wedge([w2, w1]).coeff
        assert a.eq_within(b.scale(-1))


def test_jacobian_examples():
    assert jacobian([X1, X2]).coeffs == {(0, 0): 1}
    assert jacobian([mul(X1, X2), X2]).coeffs == {(0, 1): 1}
    f = random_polynomial(random.Random(4), AMB)
    assert jacobian([f, f]).is_zero()


def test_dlog_wedge_monomials():
    w = dlog_wedge([X1, X2])
    assert form_h_coefficient(w, (0, 0)).coeffs == {(0, 0): 1}


def test_dlog_wedge_determinant_examples():
    w = dlog_wedge([mul(mul(X1, X2), AMB.one() + X1), X2], BOX)
    assert form_h_coefficient(w, (0, 0)).coeffs == {(0, 0): 1}
    w2 = dlog_wedge([AMB.var(1, 2), X2], BOX)
    assert form_h_coefficient(w2, (0, 0)).coeffs == {(0, 0): 2}
    w3 = dlog_wedge([mul(X1, X2), AMB.var(2, -1)], BOX)
    assert form_h_coefficient(w3, (0, 0)).coeffs == {(0, 0): -1}


def test_vanishing_example():
    # (d X_1^2 / X_1^4) ^ dlog X_2 has no dlog X component
    f = AMB.var(1, 2)
    w1 = differential(f).scale_by(power(f, -2, BOX))
    w2 = dlog(X2)
    assert form_h_coefficient(wedge([w1, w2]), (0, 0)).is_zero()


def test_form_of_zero():
    w = NForm(AMB.zero())
    assert form_h_coefficient(w, (0, 0)).is_zero()


def test_basis_mode_conversion():
    w = NForm(AMB.one(), DX)
    v = w.to_basis(DLOGX)
    assert v.coeff.coeffs == {(1, 1): 1}
    assert v.to_basis(DX).coeff.eq_within(w.coeff)


def test_leibniz_random():
    rng = random.Random(9)
    for _ in range(40):
        f = random_polynomial(rng, AMB)
        g = random_polynomial(rng, AMB)
        i = rng.choice((1, 2))
        lhs = partial(mul(f, g), i)
        rhs = add(mul(f, partial(g, i)), mul(g, partial(f, i)))
        assert lhs.eq_within(rhs)


def int_matrix_inverse(rows):
    """Inverse of a nonsingular square integer matrix, as Fractions."""
    n = len(rows)
    m = [[Fraction(v) for v in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        d = m[col][col]
        m[col] = [v / d for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [r[n:] for r in m]


def _change_of_variables(rng, amb):
    """Random unimodular monomial change Y_i = X^{t_i}; returns (t, s=t^-1)."""
    n = amb.split.n
    while True:
        t = random_unimodular(rng, n)
        inv = int_matrix_inverse([list(r) for r in t])
        s = [[int(v) for v in row] for row in inv]
        if all(v.denominator == 1 for row in inv for v in row):
            return t, s


def _partial_wrt_y(f, t, s, i):
    """d/dY_i where Y_i = X^{t_i}: rewrite exponents in Y coordinates
    (multiply by s = t^-1 on the right), differentiate, map back."""
    amb = f.ambient
    n = amb.split.n

    def to_y(g):
        return tuple(sum(g[a] * s[a][c] for a in range(n)) for c in range(n))

    def to_x(g):
        return tuple(sum(g[a] * t[a][c] for a in range(n)) for c in range(n))

    out = amb.zero()
    for g, c in f.coeffs.items():
        gy = to_y(g)
        j = gy[i - 1]
        if j == 0:
            continue
        ny = tuple(v - (1 if idx == i - 1 else 0) for idx, v in enumerate(gy))
        out = add(out, amb.monomial(c * j, to_x(ny)))
    return out


def test_compatibility_with_variable_changes():
    rng = random.Random(13)
    for _ in range(30):
        t, s = _change_of_variables(rng, AMB)
        f = random_polynomial(rng, AMB)
        for j in (1, 2):
            rhs = AMB.zero()
            for i in (1, 2):
                dy = _partial_wrt_y(f, t, s, i)
                # dY_i/dX_j = t_ij * Y_i / X_j
                g = tuple(t[i - 1][c] - (1 if c == j - 1 else 0)
                          for c in range(2))
                rhs = add(rhs, mul(dy, AMB.monomial(t[i - 1][j - 1], g)))
            assert partial(f, j).eq_within(rhs)


def test_chain_rule_delta_identity():
    rng = random.Random(17)
    for _ in range(20):
        t, s = _change_of_variables(rng, AMB)
        for k in (1, 2):
            for j in (1, 2):
                total = AMB.zero()
                xk = AMB.var(k)
                for i in (1, 2):
                    dxk_dyi = _partial_wrt_y(xk, t, s, i)
                    g = tuple(t[i - 1][c] - (1 if c == j - 1 else 0)
                              for c in range(2))
                    total = add(total, mul(
                        dxk_dyi, AMB.monomial(t[i - 1][j - 1], g)))
                expect = AMB.one() if k == j else AMB.zero()
                assert total.eq_within(expect)


def test_unknown_modes_are_typed_errors():
    """An unknown Dyson method or basis mode, also one read from JSON, is a
    GPSeriesError rather than a bare ValueError."""
    with pytest.raises(GPSeriesError):
        dyson_verify(DysonInstance((1, 1)), "guess")
    with pytest.raises(GPSeriesError):
        NForm(X1, "dY")
    with pytest.raises(GPSeriesError):
        NForm(X1).to_basis("dY")
    with pytest.raises(GPSeriesError):
        nform_from_json({**nform_to_json(NForm(X1)), "basis": "dY"})


@pytest.mark.parametrize("data", [[], "dX", 3, None], ids=["list", "str", "int", "null"])
def test_nform_json_that_is_not_an_object_is_malformed(data):
    with pytest.raises(MalformedJSON):
        nform_from_json(data)


def test_nform_sum_across_bases_and_negation():
    """The right summand moves into the left one's basis: X1 dX plus
    X2 dlog X = X2 / (X1 X2) dX is (X1 + X1^-1) dX."""
    s = NForm(X1, DX) + NForm(X2, DLOGX)
    assert s.basis_mode == DX and s.coeff.coeffs == {(1, 0): 1, (-1, 0): 1}
    t = NForm(X2, DLOGX) + NForm(X1, DX)
    assert t.basis_mode == DLOGX and t.coeff.coeffs == {(0, 1): 1, (2, 1): 1}
    n = -NForm(X1, DLOGX)
    assert n.basis_mode == DLOGX and n.coeff.coeffs == {(1, 0): -1}


def test_nform_json_round_trip():
    w = dlog_wedge([mul(X1, X2), X2], BOX).to_basis(DLOGX)
    data = nform_to_json(w)
    assert data["basis"] == DLOGX
    back = nform_from_json(data)
    assert back.basis_mode == DLOGX
    assert back.coeff.eq_within(w.coeff)
