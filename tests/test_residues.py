import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpseries import Box, PrimeField, QQ, exponents, parse_order, residues, series
from gpseries.calculus import DLOGX, NForm, dlog_wedge, jacobian, series_det, wedge
from gpseries.errors import (
    DimensionMismatch,
    GPSeriesError,
    IncompatibleAmbient,
    MalformedJSON,
    NotParameters,
    NotRegular,
    ZeroSeries,
)
from gpseries.exponents import box_intersect
from gpseries.residues import (
    GeneralizedFraction,
    _default_working_box,
    check_parameters,
    fraction_equiv,
    fraction_from_json,
    fraction_to_json,
    is_regular,
    jacobi_coefficient,
    multiplicities,
    represent,
    residue,
)
from gpseries.series import series_from_json
from gpseries.series import (
    add,
    h_coefficient_at,
    invert,
    mul,
    mul_within,
    power,
    substitute,
    truncate,
)

from conftest import (
    make_ambient,
    random_polynomial,
    random_unimodular,
    random_unit_series,
)

AMB = make_ambient(2)
X1, X2 = AMB.var(1), AMB.var(2)
BOX = Box((-6, -6), (6, 6))

# frozen oracle: compositional inverse of x + x^2 (brute-force reversion)
REVERSION = [Fraction(v) for v in (1, -1, 2, -5, 14, -42, 132, -429)]


def test_multiplicities_examples():
    f = mul(AMB.monomial(1, (2, -1)), AMB.one() + X1)
    assert multiplicities(f) == (2, -1)
    amb = make_ambient(1, m=1)
    g = mul(amb.monomial(1, (1, 0)), amb.var(1))
    assert multiplicities(g) == (1,)
    assert multiplicities(AMB.constant(5)) == (0, 0)


def test_check_parameters():
    p = check_parameters([mul(X1, X2), mul(X1, AMB.var(2, -1))])
    assert p.det == -2 and not is_regular(p)
    assert is_regular(check_parameters([X1, X2]))
    assert is_regular(check_parameters([mul(X1, X2), X2]))
    with pytest.raises(NotParameters):
        check_parameters([X1, X1])


def test_check_parameters_characteristic():
    amb = make_ambient(2, field=PrimeField(2))
    y1, y2 = amb.var(1), amb.var(2)
    with pytest.raises(NotParameters):
        check_parameters([mul(y1, y2), mul(y1, amb.var(2, -1))])


def test_check_parameters_zero_member():
    with pytest.raises(ZeroSeries):
        check_parameters([X1, AMB.zero()])


def test_empty_member_lists_are_typed_errors():
    """A system, matrix or wedge of no members is refused by a typed error,
    not by an IndexError from reading its first member."""
    with pytest.raises(NotParameters):
        check_parameters(())
    for fn in (jacobian, series_det, wedge, dlog_wedge):
        with pytest.raises(IncompatibleAmbient):
            fn([])


def test_residue_constant_term():
    num = AMB.constant(3) + X1 + AMB.monomial(1, (-1, 1))
    fr = GeneralizedFraction(NForm(num, DLOGX), check_parameters([X1, X2]))
    assert residue(fr).coeffs == {(0, 0): 3}
    num2 = AMB.one() + mul(X1, X2).scale(2)
    fr2 = GeneralizedFraction(NForm(num2, DLOGX), check_parameters([X1, X2]))
    assert residue(fr2).coeffs == {(0, 0): 1}
    fr3 = GeneralizedFraction(NForm(AMB.zero(), DLOGX),
                              check_parameters([X1, X2]))
    assert residue(fr3).is_zero()


def test_fraction_equiv_reflexive_and_variable_change():
    psi = AMB.one() + mul(X1, X2).scale(7)
    xs = check_parameters([X1, X2])
    fr = GeneralizedFraction(NForm(mul(psi, dlog_wedge([X1, X2]).coeff)), xs)
    assert fraction_equiv(fr, fr)
    # unimodular monomial change of denominator: same fraction
    ys = [AMB.monomial(1, (1, 1)), X2]
    fr2 = GeneralizedFraction(
        NForm(mul(psi, dlog_wedge(ys, BOX).coeff)), check_parameters(ys))
    assert fraction_equiv(fr, fr2)
    assert residue(fr).eq_within(residue(fr2))
    # genuinely different denominator scale: not equivalent
    fr3 = GeneralizedFraction(
        NForm(mul(psi, dlog_wedge([X1, X2]).coeff)),
        check_parameters([AMB.var(1, 2), X2]))
    assert not fraction_equiv(fr, fr3)


def test_jacobi_tautological():
    amb = make_ambient(1)
    x = amb.var(1)
    phi = mul(x, amb.one() + x)
    p = check_parameters([phi])
    assert jacobi_coefficient(phi, p, (1,)).coeffs == {(0,): 1}
    assert not jacobi_coefficient(x, p, (0,)).coeffs


def test_jacobi_reversion_oracle():
    amb = make_ambient(1)
    x = amb.var(1)
    p = check_parameters([mul(x, amb.one() + x)])
    for i, expect in enumerate(REVERSION[:4], start=1):
        got = jacobi_coefficient(x, p, (i,))
        assert got.coefficient_at((0,)) == expect


def test_represent_examples():
    amb = make_ambient(1)
    x = amb.var(1)
    p = check_parameters([x])
    rep = represent(x, p, ((1,), (1,)))
    assert rep[(1,)].coeffs == {(0,): 1}
    p2 = check_parameters([mul(x, amb.one() + x)])
    rep2 = represent(x, p2, ((1,), (4,)))
    for i, expect in enumerate(REVERSION[:4], start=1):
        assert rep2[(i,)].coefficient_at((0,)) == expect


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_represent_negative_degrees(field):
    """Negative degrees read the working box: X^-1 over X + X^2."""
    amb = make_ambient(1, field=field)
    x, p = amb.var(1, -1), check_parameters([add(amb.var(1), amb.var(1, 2))])
    rep = represent(x, p, ((-2,), (2,)))
    got = {i: phi.coefficient_at((0,)) for (i,), phi in rep.items()}
    assert got == {-2: 0, -1: 1, 0: 1, 1: field.coerce(-1), 2: 2}
    for idx, phi in rep.items():
        assert phi.eq_within(jacobi_coefficient(x, p, idx))


def test_jacobi_builds_one_jacobian_per_call(monkeypatch):
    """psi J(Phi) does not depend on the working box, so a call that
    retries in a wider box still builds the Jacobian once."""
    calls = []
    monkeypatch.setattr(residues, "jacobian",
                        lambda members: calls.append(1) or jacobian(members))
    amb = make_ambient(1)
    x = amb.var(1)
    p = check_parameters([add(x, mul(x, x))])
    for k in range(6, 13):
        jacobi_coefficient(mul(amb.var(1, -k), power(amb.one() + x, 12)), p,
                           (0,))
    assert len(calls) == 7


@pytest.mark.parametrize("call", [
    lambda x, p: h_coefficient_at(x, (1, 2)),
    lambda x, p: represent(x, p, ((1, 1), (2, 2))),
    lambda x, p: jacobi_coefficient(x, p, (0, 0)),
], ids=["h_coefficient_at", "represent", "jacobi_coefficient"])
def test_wrong_index_length_is_a_dimension_mismatch(call):
    amb = make_ambient(1)
    x = amb.var(1)
    with pytest.raises(DimensionMismatch):
        call(x, check_parameters([mul(x, amb.one() + x)]))


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("call", [
    lambda box: jacobi_coefficient(X1, check_parameters([X1, X2]), (0, 0), box),
    lambda box: represent(X1, check_parameters([X1, X2]), ((0, 0), (1, 1)),
                          box),
    lambda box: invert(AMB.one() + X1, box),
    lambda box: power(AMB.one() + X1, -2, box),
    lambda box: substitute([1, 1, 1], X1, box),
    lambda box: mul_within(invert(AMB.one() + X1, BOX), X1, box),
    lambda box: truncate(X1, box),
], ids=["jacobi_coefficient", "represent", "invert", "power", "substitute",
        "mul_within", "truncate"])
def test_box_of_wrong_dimension_is_a_dimension_mismatch(call, k):
    """Two coordinates in the ambient, k in the caller's box."""
    with pytest.raises(DimensionMismatch):
        call(Box((0,) * k, (3,) * k))


def test_represent_requires_regular():
    p = check_parameters([mul(X1, X2), mul(X1, AMB.var(2, -1))])
    with pytest.raises(NotRegular):
        represent(X1, p, ((0, 0), (1, 1)))


def _random_regular_system(rng, amb, n):
    s = random_unimodular(rng, n)
    members = []
    for row in s:
        lead = amb.monomial(rng.choice((1, 2, -1)),
                            (0,) * amb.split.m + tuple(row))
        members.append(mul(lead, random_unit_series(rng, amb)))
    return check_parameters(members)


def test_represent_round_trip_random():
    rng = random.Random(23)
    for _ in range(15):
        p = _random_regular_system(rng, AMB, 2)
        assert is_regular(p)
        idx_lo, idx_hi = (0, 0), (2, 1)
        phis = {}
        psi = AMB.zero()
        for i in range(idx_lo[0], idx_hi[0] + 1):
            for j in range(idx_lo[1], idx_hi[1] + 1):
                c = rng.randint(-3, 3)
                phis[(i, j)] = c
                term = mul(p.members[0] ** i, p.members[1] ** j).scale(c)
                psi = add(psi, term)
        rep = represent(psi, p, (idx_lo, idx_hi))
        for idx, c in phis.items():
            assert rep[idx].coefficient_at((0, 0)) == c


def test_represent_round_trip_with_h_part():
    rng = random.Random(29)
    amb = make_ambient(1, m=1)
    x = amb.var(1)
    t = amb.monomial(1, (1, 0))
    phi = mul(x, amb.one() + mul(t, x))
    p = check_parameters([phi])
    psi = add(mul(amb.constant(2) + t, phi), mul(phi, phi).scale(-3))
    rep = represent(psi, p, ((0,), (2,)))
    assert rep[(0,)].is_zero() or not rep[(0,)].coeffs
    assert rep[(1,)].coeffs == {(0, 0): 2, (1, 0): 1}
    assert rep[(2,)].coeffs == {(0, 0): -3}


def test_represent_jacobi_agree():
    rng = random.Random(31)
    for _ in range(8):
        p = _random_regular_system(rng, AMB, 2)
        psi = add(p.members[0], mul(p.members[0], p.members[1]).scale(2))
        rep = represent(psi, p, ((0, 0), (2, 2)))
        for idx, hval in rep.items():
            jc = jacobi_coefficient(psi, p, idx)
            assert jc.coefficient_at((0, 0)) == hval.coefficient_at((0, 0))


def test_represent_uniqueness_under_input_permutation():
    amb = make_ambient(1)
    x = amb.var(1)
    phi = mul(x, amb.one() + x + x ** 2)
    p = check_parameters([phi])
    psi = add(x, (x ** 2).scale(3))
    a = represent(psi, p, ((1,), (5,)))
    b = represent(psi, p, ((1,), (5,)))
    assert all(a[i].eq_within(b[i]) for i in a)


def test_jacobi_unit_scaling_invariance():
    # scaling a member by a nonzero scalar leaves index-0 extraction alone
    amb = make_ambient(1)
    x = amb.var(1)
    psi = amb.constant(4) + x
    p1 = check_parameters([mul(x, amb.one() + x)])
    p2 = check_parameters([mul(x, amb.one() + x).scale(7)])
    r1 = jacobi_coefficient(psi, p1, (0,))
    r2 = jacobi_coefficient(psi, p2, (0,))
    assert r1.coefficient_at((0,)) == r2.coefficient_at((0,)) == 4


def test_jacobi_exact_inputs_stay_exact():
    # every factor is exact, so the answer is exact everywhere, not a slab
    r = jacobi_coefficient(AMB.one() + mul(X1, X2), check_parameters([X1, X2]),
                           (1, 1))
    assert r.box is None and r.coeffs == {(0, 0): 1}


def _full_chain(psi, p, idx, box):
    """The coefficient by the whole chain over ``box``: the residue of
    psi * dlog Phi_1 ^ ... ^ dlog Phi_n * prod Phi_l^-i_l."""
    num = mul(psi, dlog_wedge(list(p.members), box).coeff)
    for f, i in zip(p.members, idx):
        num = mul(num, power(f, -i, box))
    return residue(GeneralizedFraction(NForm(num), p))


def _full_box(p, idx):
    """A working box that certifies the whole chain of ``_full_chain``:
    the default one doubled and grown by 4 on each side."""
    box = _default_working_box(p, idx)
    return Box(tuple(2 * v - 4 for v in box.lo), tuple(2 * v + 4 for v in box.hi))


def _h_systems(amb):
    """The m = 1 system of test_represent_round_trip_with_h_part, and one
    whose coefficients have infinite H-support, so that a box wider than
    the exact region shows."""
    x, t = amb.var(1), amb.monomial(1, (1, 0))
    idxs = [(i,) for i in range(4)]
    phi = mul(x, amb.one() + mul(t, x))
    psi = add(mul(amb.constant(2) + t, phi), mul(phi, phi).scale(-3))
    yield psi, check_parameters([phi]), idxs
    phi = mul(x, amb.one() + t + mul(t, x))
    yield add(x, mul(x, x).scale(2)), check_parameters([phi]), idxs


def _slab_cases(field):
    rng = random.Random(37)
    amb = make_ambient(2, field=field)
    for det2 in (False, True, False, True):
        p = _random_regular_system(rng, amb, 2)
        if det2:
            p = check_parameters([p.members[0] ** 2, p.members[1]])
        psi = add(random_unit_series(rng, amb), mul(*p.members).scale(3))
        yield psi, p, [(0, 0), (1, 0), (2, 1)]
    yield from _h_systems(make_ambient(1, m=1, field=field))
    # n = 3: the first partial product has two factors still to come
    amb = make_ambient(3, field=field)
    for _ in range(2):
        p = _random_regular_system(rng, amb, 3)
        psi = add(random_unit_series(rng, amb),
                  mul(mul(*p.members[:2]), p.members[2]).scale(3))
        yield psi, p, [(0, 0, 0), (1, 0, 1)]


def _exactness_systems():
    """psi, Phi and index range where psi's H range alone understates
    where represent's answers are exact: X over X(1+t), whose phi_1 is
    1/(1+t), and X(1+t^2) over the same Phi; then the _h_systems."""
    amb = make_ambient(1, m=1)
    x, t = amb.var(1), amb.monomial(1, (1, 0))
    p = check_parameters([mul(x, amb.one() + t)])
    yield x, p, ((1,), (1,))
    yield mul(x, amb.one() + mul(t, t)), p, ((1,), (1,))
    for psi, p, idxs in _h_systems(amb):
        yield psi, p, (idxs[0], idxs[-1])


def test_represent_box_is_where_it_solved():
    for psi, p, idx_box in _exactness_systems():
        rep = represent(psi, p, idx_box)
        for idx, phi in rep.items():
            jc = jacobi_coefficient(psi, p, idx)
            assert phi.box is not None
            assert box_intersect(phi.box, jc.box) is not None
            assert phi.eq_within(jc), (idx, phi, jc)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["q", "f5"])
def test_jacobi_slab_agrees_with_full_chain(field):
    for psi, p, idxs in _slab_cases(field):
        for idx in idxs:
            got = jacobi_coefficient(psi, p, idx)
            box = _full_box(p, idx)
            full = _full_chain(psi, p, idx, box)
            assert box_intersect(got.box, full.box) is not None
            assert got.eq_within(full), (p.det, idx)
            # the certified box of the slab is exact: a working box twice
            # as wide agrees on all of it
            wide = jacobi_coefficient(psi, p, idx, Box(
                tuple(2 * v for v in box.lo), tuple(2 * v for v in box.hi)))
            assert wide.box.contains_box(got.box) and got.eq_within(wide)


def test_chain_forms_only_terms_that_reach_the_slab(monkeypatch):
    """Every partial product of the Jacobi chain holds only terms that the
    factors still to come can carry into the X^-1 slab, and that cut
    leaves the certified boxes alone: the first working box serves every
    call.  A negative first index puts a positive member power into the
    numerators, so the chain has a partial product to cut."""
    steps, attempts, chains = [], [], []
    convolve, pair_loop = series._convolve, series._pair_loop
    in_box, chain_terms = residues._jacobi_in_box, residues._chain_terms

    class Recording(series._Packing):
        # each packed step of a chain asks for its window once
        def window(self, lo, hi):
            steps.append((self, {}))  # a window that misses forms nothing
            return super().window(lo, hi)

    def exact(fld, a, b):
        out = convolve(fld, a, b)
        steps.append((None, out))
        return out

    def packed(xs, ys, window, guard):
        out = pair_loop(xs, ys, window, guard)
        steps[-1] = steps[-1][0], out  # read by the step's packing
        return out

    def chain(factors, box):
        steps.clear()  # keep the chain's products alone
        out = chain_terms(factors, box)
        chains.append((factors, list(steps)))
        return out

    def counting(*args):
        attempts.append(1)
        return in_box(*args)

    monkeypatch.setattr(series, "_Packing", Recording)
    monkeypatch.setattr(series, "_convolve", exact)
    monkeypatch.setattr(series, "_pair_loop", packed)
    monkeypatch.setattr(residues, "_chain_terms", chain)
    monkeypatch.setattr(residues, "_jacobi_in_box", counting)
    calls = cut = 0
    for field in (QQ, PrimeField(5)):
        for psi, p, idxs in _slab_cases(field):
            m, k = p.ambient.split.m, p.ambient.k
            if p.n > 1:
                idxs = idxs + [(-i - 2, *rest) for i, *rest in idxs]
            for idx in idxs:
                jacobi_coefficient(psi, p, idx)
                calls += 1
                factors, formed = chains[-1]
                # the inverse, psi, J(Phi), then Phi_l^-(i_l+1) for i_l <= -2
                assert len(formed) == len(factors) - 1 == 2 + (idx[0] < -1)
                for j, (pk, out) in enumerate(formed[:-1]):
                    assert pk is not None  # the inverse is truncated
                    cut += 1
                    # step j multiplies in factors[j + 1]
                    later = [h.coeffs for h in factors[j + 2:]]
                    for c in range(m, k):
                        lo = -1 - sum(max(g[c] for g in b) for b in later)
                        hi = -1 - sum(min(g[c] for g in b) for b in later)
                        assert all(lo <= pk.unpack(s)[c] <= hi for s in out), (idx, j)
    assert len(attempts) == calls
    # per field: 40 calls, 16 of them (12 with n = 2, 4 with n = 3) with a
    # negative first index, each of which cuts one more partial product
    assert cut == 112


def test_jacobi_chain_takes_psi_and_the_jacobian_apart(monkeypatch):
    """psi and J(Phi) enter the one chain of a jacobi_coefficient call as
    two factors, and no other product has psi as a factor: psi J(Phi) is
    never formed whole."""
    chains, products = [], []
    aimed, other = residues._chain_terms, series._chain_terms
    monkeypatch.setattr(residues, "_chain_terms", lambda factors, box: (
        chains.append(list(factors)) or aimed(factors, box)))
    monkeypatch.setattr(series, "_chain_terms", lambda factors, box: (
        products.append(list(factors)) or other(factors, box)))
    for field in (QQ, PrimeField(5)):
        for psi, p, idxs in _slab_cases(field):
            jac = jacobian(p.members)
            for idx in idxs + [(-2, *idxs[0][1:])]:
                chains.clear()
                products.clear()
                jacobi_coefficient(psi, p, idx)
                (factors,) = chains
                at = [f is psi for f in factors].index(True)
                assert factors[at + 1].coeffs == jac.coeffs, idx
                assert not any(f is psi for fs in products for f in fs), idx


@st.composite
def _truncated_reads(draw):
    """Over Q or F_5 in two variables: a random regular system, the factors
    P, U and box B of a truncated psi = P * invert(U, B), and an index."""
    field = draw(st.sampled_from([QQ, PrimeField(5)]))
    amb = make_ambient(2, field=field)
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    p = _random_regular_system(rng, amb, 2)
    pu = random_polynomial(rng, amb, terms=3), random_unit_series(rng, amb)
    lo = draw(st.tuples(*[st.integers(-3, 1)] * 2))
    box = Box(lo, tuple(a + draw(st.integers(0, 8)) for a in lo))
    return p, pu, box, draw(st.tuples(*[st.integers(-2, 2)] * 2))


@settings(max_examples=150, deadline=None)
@given(_truncated_reads())
def test_jacobi_apart_agrees_with_the_whole_product(case):
    """For a truncated psi, the read with psi and J(Phi) apart answers
    where the read of the whole product psi J(Phi) answers, on a box at
    least as wide and with the same coefficients, and refuses where it
    refuses (the error type may differ)."""
    p, (pu, u), box, idx = case
    try:
        psi = mul(pu, invert(u, box))
    except GPSeriesError:
        assume(False)  # psi itself has no certified box
    jac = jacobian(p.members)

    def read(whole):
        try:
            nums = [mul(psi, jac)] if whole else [psi, jac]
            return residues._jacobi_in_box(nums, p, idx, _default_working_box(p, idx))
        except GPSeriesError as e:
            return e

    got, ref = read(False), read(True)
    assert isinstance(got, GPSeriesError) == isinstance(ref, GPSeriesError)
    if not isinstance(ref, GPSeriesError):
        assert ref.box is None or got.box.contains_box(ref.box)
        assert got.eq_within(ref)
        assert got.eq_within(jacobi_coefficient(psi, p, idx))


def test_jacobi_chain_builds_no_cone(monkeypatch):
    """The chain of a jacobi_coefficient call certifies each step from cone
    bounds alone and reads no certificate of the quotient: it builds no
    Cone, where the call around it does (the inverse carries one)."""
    built, chains = [], []
    post, chain = exponents.Cone.__post_init__, residues._chain_terms

    def counting(self):
        built.append(self)
        post(self)

    def counted(factors, box):
        before = len(built)
        out = chain(factors, box)
        chains.append((len(factors), len(built) - before))
        return out

    monkeypatch.setattr(exponents.Cone, "__post_init__", counting)
    monkeypatch.setattr(residues, "_chain_terms", counted)
    for field in (QQ, PrimeField(5)):
        for psi, p, idxs in _slab_cases(field):
            for idx in idxs + [(-2, *idxs[0][1:])]:
                chains.clear()
                jacobi_coefficient(psi, p, idx)
                (n, cones), = chains
                assert cones == 0 and n >= 2, idx
    assert built


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["q", "f5"])
def test_aimed_powers_hold_every_term_that_reaches_the_slab(field, monkeypatch):
    """The chain's one inverse, of prod Phi_l^(i_l+1), is computed only in
    the slab less the numerators' extents.  There it agrees with the same
    inverse over the whole working box, and it holds every term of that
    inverse which stored terms of the numerators can carry into the slab."""
    calls = []
    in_box, full_invert = residues._jacobi_in_box, residues.invert
    chain = residues._chain_terms

    def recording(num, p, idx, working_box):
        calls.append((working_box, [], []))
        return in_box(num, p, idx, working_box)

    def aimed(f, box):
        out = full_invert(f, box)
        calls[-1][1].append((f, box, out))
        return out

    def numerators(factors, box):
        calls[-1][2].append(factors[1:])  # the factors after the inverse
        return chain(factors, box)

    monkeypatch.setattr(residues, "_jacobi_in_box", recording)
    monkeypatch.setattr(residues, "invert", aimed)
    monkeypatch.setattr(residues, "_chain_terms", numerators)
    aimed_terms = full_terms = reached = 0
    for psi, p, idxs in _slab_cases(field):
        m, k = p.ambient.split.m, p.ambient.k
        for idx in idxs:
            calls.clear()
            jacobi_coefficient(psi, p, idx)
            # one working-box attempt, one inverse, one chain
            (working_box, [(f, box, out)], [nums]), = calls
            full = full_invert(f, working_box)
            assert all(map(box.contains, out.coeffs)), idx
            assert out.eq_within(full)
            for g, c in full.coeffs.items():
                if all(-1 - sum(max(h[c2] for h in b.coeffs) for b in nums) <= g[c2]
                       <= -1 - sum(min(h[c2] for h in b.coeffs) for b in nums)
                       for c2 in range(m, k)):
                    assert out.coefficient_at(g) == c, (idx, g)
                    reached += 1
            aimed_terms += len(out.coeffs)
            full_terms += len(full.coeffs)
    # the aimed inverses store no other terms: about a thirtieth of what
    # the working box holds
    assert reached == aimed_terms
    assert (aimed_terms, full_terms) == {0: (78, 2463), 5: (46, 1668)}[
        field.characteristic]


def _shape_systems(field):
    """Members outside _slab_cases' shape: tails X1 X2^-1, positive under
    lex but negative in X2, so the powers' support hulls are infinite below
    in X2; a non-lex order under which X1^2 X2^-1 is positive; and a
    truncated member, X1 / (1 - X2 - X1 X2) in a box."""
    amb = make_ambient(2, field=field)
    x1, x2, one = amb.var(1), amb.var(2), amb.one()
    tail = amb.monomial(1, (1, -1))
    yield [mul(x1, one + tail), mul(x2, one + tail)]
    amb = make_ambient(2, order=parse_order("1,1;1,0"), field=field)
    x1, x2, one = amb.var(1), amb.var(2), amb.one()
    yield [mul(x1, one + amb.monomial(2, (2, -1))), mul(x2, one + x1.scale(3))]
    amb = make_ambient(2, field=field)
    x1, x2, one = amb.var(1), amb.var(2), amb.one()
    yield [mul(x1, invert(one - x2 - mul(x1, x2), Box((-2, -2), (12, 12)))),
           mul(x2, one + x1)]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["q", "f5"])
def test_aimed_powers_on_other_shapes(field, monkeypatch):
    """Planted coefficients come back in one working-box attempt, agree
    with the whole chain and with a working box twice as wide, on systems
    whose powers are aimed across an infinite hull end, under a non-lex
    order and from a truncated member.  So does X1^-3 X2^5 + 2 X1^-2 X2^3,
    whose X2 extents lie above what a finite hull end would let through."""
    attempts = []
    in_box = residues._jacobi_in_box
    monkeypatch.setattr(residues, "_jacobi_in_box",
                        lambda *args: attempts.append(1) or in_box(*args))
    planted = {(0, 0): 2, (1, 0): -1, (0, 2): 3, (2, 1): 1}
    for fs in _shape_systems(field):
        p = check_parameters(fs)
        amb = p.ambient
        sum_psi = amb.zero()
        for (i, j), c in planted.items():
            sum_psi = add(sum_psi, mul(power(fs[0], i), power(fs[1], j)).scale(c))
        offset = add(amb.monomial(1, (-3, 5)), amb.monomial(2, (-2, 3)))
        for psi, idx in [*((sum_psi, idx) for idx in [*planted, (1, 1)]),
                         (offset, (0, 0)), (offset, (1, 0))]:
            attempts.clear()
            got = jacobi_coefficient(psi, p, idx)
            assert len(attempts) == 1
            if psi is sum_psi:
                assert got.coefficient_at((0, 0)) == field.coerce(planted.get(idx, 0))
            box = _full_box(p, idx)
            assert got.eq_within(_full_chain(psi, p, idx, box)), idx
            wide = jacobi_coefficient(psi, p, idx, Box(
                tuple(2 * v for v in box.lo), tuple(2 * v for v in box.hi)))
            assert wide.box.contains_box(got.box) and got.eq_within(wide)


def test_jacobi_reach_that_misses_the_working_box(monkeypatch):
    """Where psi J(Phi) lies beyond what the inverse can carry into the
    slab, the inverse's box misses its support, so it stores nothing and
    the coefficient is 0, certified at the origin, in one working-box
    attempt."""
    amb = make_ambient(2)
    x1, x2, one = amb.var(1), amb.var(2), amb.one()
    p = check_parameters([mul(x1, one + x2), mul(x2, one + x1)])
    attempts, inverses = [], []
    in_box, full_invert = residues._jacobi_in_box, residues.invert
    monkeypatch.setattr(residues, "_jacobi_in_box", lambda *args: (
        attempts.append(1) or in_box(*args)))
    monkeypatch.setattr(residues, "invert", lambda f, box: (
        inverses.append(full_invert(f, box)) or inverses[-1]))
    for psi in (amb.monomial(1, (50, 0)), amb.monomial(1, (-50, 3))):
        attempts.clear()
        got = jacobi_coefficient(psi, p, (0, 0))
        assert got.coeffs == {} and got.box == Box((0, 0), (0, 0))
        assert len(attempts) == 1 and inverses[-1].coeffs == {}
    got = jacobi_coefficient(one + amb.monomial(1, (40, 40)), p, (0, 0))
    assert got.coeffs == {(0, 0): 1} and got.box == Box((0, 0), (0, 0))


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["q", "f5"])
def test_jacobi_members_unbounded_opposite_ways(field):
    """Phi_1 = X1 (1 + X1 X2^-1) and Phi_2 = X2 (1 + X1 + X2) have powers
    unbounded below and above in X2, so the product of their truncated
    inverses has no certified box; the inverse of the exact product
    Phi_1 Phi_2 has one, and the coefficient of 1 at Phi^0 is 1."""
    amb = make_ambient(2, field=field)
    x1, x2, one = amb.var(1), amb.var(2), amb.one()
    p = check_parameters([mul(x1, one + amb.monomial(1, (1, -1))),
                          mul(x2, one + x1 + x2)])
    got = jacobi_coefficient(one, p, (0, 0))
    assert got.coeffs == {(0, 0): 1} and got.box == Box((0, 0), (0, 0))


def test_fraction_json_round_trip():
    psi = AMB.one() + mul(X1, X2)
    fr = GeneralizedFraction(
        NForm(mul(psi, dlog_wedge([X1, X2]).coeff)),
        check_parameters([X1, X2]))
    back = fraction_from_json(fraction_to_json(fr))
    assert fraction_equiv(fr, back)
    assert residue(back).eq_within(residue(fr))


@pytest.mark.parametrize("read, mangle", [
    (series_from_json, lambda d: d.pop("order")),
    (series_from_json, lambda d: d["terms"][0].update(coeff="x")),
    (series_from_json, lambda d: d["terms"][0].update(coeff="1/0")),
    (series_from_json, lambda d: d["terms"][0].update(exp=1)),
    (series_from_json, lambda d: d.update(split={"m": 0})),
    (fraction_from_json, lambda d: d.pop("denominator")),
    (fraction_from_json, lambda d: d["denominator"][0].pop("terms")),
    (fraction_from_json, lambda d: d["numerator"]["terms"][0].update(coeff="1/0")),
    (fraction_from_json, lambda d: d.update(numerator=[])),
    (fraction_from_json, lambda d: d.update(denominator=None)),
], ids=["no-order", "coeff-x", "coeff-1/0", "exp-not-a-list", "split-without-n",
        "no-denominator", "member-without-terms", "numerator-coeff-1/0",
        "numerator-a-list", "denominator-null"])
def test_malformed_json_is_a_typed_error(read, mangle):
    """A missing key or a value of the wrong kind in the JSON of a series
    or of a fraction is a MalformedJSON, not a KeyError, ValueError,
    TypeError or ZeroDivisionError."""
    fr = GeneralizedFraction(NForm(AMB.one() + mul(X1, X2)), check_parameters([X1, X2]))
    data = fraction_to_json(fr)
    if read is series_from_json:
        data = data["numerator"]
    mangle(data)
    with pytest.raises(MalformedJSON):
        read(data)
