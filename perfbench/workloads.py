"""Seeded inputs and independent answer checks for the benchmark workloads.

``specs(workload, seed)`` draws a workload's inputs as plain data (tuples of
ints and strings) from ``random.Random(seed)``, together with the answer each
case must give.  Expected answers come from closed forms or from planted
values, never from gpseries itself.  ``build(workload, specs, gp)`` turns the
data into ``Case`` objects whose ``run`` calls the library's public API.

Every ``run`` looks functions up as module attributes at call time (for
example ``gp.residues.jacobi_coefficient``), so the traced run sees them
through the wrappers that ``tracing.install`` puts in place.

The mixes are stratified: each workload draws a fixed number of cases per
kind (and, for Dyson, per exponent sum), and the seed picks the instances
inside each stratum.  That keeps the cost of a pass close from seed to seed
without leaving any kind of input out.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("jacobi-recovery", "dyson-routes", "cli-session")


class Refused(Exception):
    """A typed refusal reported by the CLI (exit code 1)."""


@dataclass(frozen=True)
class Case:
    kind: str  # stratum, used to list refusals by kind of case
    label: str  # the case itself, readable
    run: object  # () -> answer; one top-level call into gpseries
    check: object  # answer -> None if correct, else a description of the error
    # True where a typed refusal is a correct outcome: certified truncation
    # answers exactly inside a box or refuses, and never answers wrongly
    may_refuse: bool = False


# -- jacobi-recovery -------------------------------------------------------

JACOBI_CASES = 150
JACOBI_DET2_EVERY = 5  # one system in five has |det| = 2, the rest det +-1
# The exponents and coefficient magnitudes of the systems come from this
# fixed design seed; the run seed draws every sign, the planted values and
# the case order.  Exponents set the size of the working boxes and
# magnitudes the size of the rationals, and case cost is so heavy-tailed in
# them (coefficient of variation near 3 over random designs) that letting
# the run seed redraw them would make the spread between seeds far wider
# than any regression the benchmark should catch.
JACOBI_DESIGN_SEED = 41


def _random_unimodular(rng, n):
    """Product of elementary row operations on the identity."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for col in range(n):
            m[i][col] += c * m[j][col]
        if rng.random() < 0.3:
            m[i] = [-v for v in m[i]]
    return [tuple(r) for r in m]


def _random_tail_exponents(rng, k=2, terms=2, max_coord=3):
    """Exponents of a sparse tail: nonzero and nonnegative, so positive."""
    out = []
    for _ in range(rng.randint(1, terms)):
        while True:
            g = tuple(rng.randint(0, max_coord) for _ in range(k))
            if any(g):
                break
        out.append(g)
    return tuple(out)


def _jacobi_specs(rng):
    """Systems of two parameters a X^row (1 + tail) and a planted psi.

    psi = sum c_idx Phi^idx over a few idx in {0,1,2}^2, so the coefficient
    of psi at Phi^idx is c_idx by construction."""
    design = random.Random(JACOBI_DESIGN_SEED)
    grid = [(i, j) for i in range(3) for j in range(3)]
    systems = []
    cases = []
    while len(cases) < JACOBI_CASES:
        rows = _random_unimodular(design, 2)
        if len(systems) % JACOBI_DET2_EVERY == JACOBI_DET2_EVERY - 1:
            rows = [tuple(2 * v for v in rows[0]), rows[1]]
        members = tuple(
            (rng.choice((1, -1)) * design.choice((1, 1, 2)), row,
             tuple((g, rng.choice((1, -1)) * design.choice((1, 2, 3)))
                   for g in _random_tail_exponents(design)))
            for row in rows)
        idxs = design.sample(grid, design.randint(2, 6))
        phis = tuple((idx, rng.randint(-3, 3)) for idx in idxs)
        for idx, c in phis:
            cases.append((len(systems), idx, c))
        systems.append((members, phis))
    cases = cases[:JACOBI_CASES]
    rng.shuffle(cases)
    return {"systems": tuple(systems), "cases": tuple(cases)}


def _jacobi_build(spec, gp):
    amb = gp.Ambient(gp.GroupSplit(0, 2), gp.lex_order(2), gp.QQ)
    mul, add = gp.series.mul, gp.series.add
    built = []
    for members, phis in spec["systems"]:
        fs = []
        for a, row, tail in members:
            unit = amb.one()
            for g, c in tail:
                unit = add(unit, amb.monomial(c, g))
            fs.append(mul(amb.monomial(a, row), unit))
        p = gp.residues.check_parameters(fs)
        psi = amb.zero()
        for (i, j), c in phis:
            psi = add(psi, mul(fs[0] ** i, fs[1] ** j).scale(c))
        built.append((p, psi))
    cases = []
    for s, idx, c in spec["cases"]:
        p, psi = built[s]
        kind = f"|det|={abs(p.det)}"

        def run(p=p, psi=psi, idx=idx):
            return gp.residues.jacobi_coefficient(psi, p, idx)

        def check(got, c=c):
            value = got.coefficient_at((0, 0))
            return None if value == c else f"got {value}, planted {c}"

        cases.append(Case(kind, f"system {s} {kind} idx={idx}", run, check))
    return cases


# -- dyson-routes ----------------------------------------------------------

# (method, n, max a_i, cases drawn per exponent sum as a share of the sum's
# class, at least one per class).  The first four strata run every instance:
# the median case latency sits where the routes' costs overlap sparsely, and
# with half or three quarters of each class drawn it still moved by 15-20 %
# between seeds.  The seed draws direct at n = 5 and the order of the cases.
DYSON_STRATA = (
    ("egorychev", 3, 4, 1.0),
    ("wilson", 3, 4, 1.0),
    ("wilson", 4, 2, 1.0),
    ("direct", 4, 2, 1.0),
    ("direct", 5, 2, 0.0),
)


def multinomial(a) -> int:
    total = math.factorial(sum(a))
    for x in a:
        total //= math.factorial(x)
    return total


def _dyson_specs(rng):
    cases = []
    for method, n, amax, share in DYSON_STRATA:
        by_sum = {}
        for a in itertools.product(range(amax + 1), repeat=n):
            if sum(a):
                by_sum.setdefault(sum(a), []).append(a)
        for total in sorted(by_sum):
            group = by_sum[total]
            take = max(1, round(share * len(group)))
            for a in rng.sample(group, take):
                cases.append((method, a, multinomial(a)))
    rng.shuffle(cases)
    return {"cases": tuple(cases)}


def _dyson_build(spec, gp):
    cases = []
    for method, a, expected in spec["cases"]:
        inst = gp.identities.DysonInstance(a)

        def run(inst=inst, method=method):
            return gp.identities.dyson_verify(inst, method)

        def check(got, expected=expected):
            lhs, rhs, equal = got
            if lhs == expected and rhs == expected and equal is True:
                return None
            return f"got lhs={lhs} rhs={rhs} equal={equal}, expected {expected}"

        label = f"dyson {method} a={','.join(map(str, a))}"
        cases.append(Case(f"{method} n={len(a)}", label, run, check))
    return cases


# -- cli-session -----------------------------------------------------------

# Commands per kind in one pass.  About one nested division in four is
# refused, and how many varies from seed to seed; the other kinds always
# answer, so their larger share keeps answered_rate close between seeds.
CLI_PER_KIND = 96
CLI_NESTED = 48
CLI_PRIMES = (3, 5, 7, 11, 13)


def _poly_text(coeffs, var="X") -> str:
    """Text of sum coeffs[i] X^i in the CLI's grammar, e.g. '2 - X + 3*X^2'."""
    out = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "" if i == 0 else var if i == 1 else f"{var}^{i}"
        body = str(abs(c)) if not mono else mono if abs(c) == 1 \
            else f"{abs(c)}*{mono}"
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out) or "0"


def _scalar(c, p):
    return str(c % p) if p else str(c)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [v % p for v in out] if p else out


def _poly_add(a, b, p):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
           for i in range(n)]
    return [v % p for v in out] if p else out


def laurent_coeffs(num, den, lo, hi, p):
    """Coefficients at X^lo..X^hi of the Laurent expansion of num/den.

    Plain dense long division, over Q (p = 0) or F_p; den must be nonzero."""
    v = next(i for i, c in enumerate(den) if (c % p if p else c))
    den = den[v:]
    d0 = den[0]
    inv0 = pow(d0, -1, p) if p else Fraction(1, d0)
    # num/den = X^-v * num/den' and num/den' is a power series
    n = hi + v + 1
    quot = []
    for e in range(max(n, 0)):
        acc = num[e] if e < len(num) else 0
        for i in range(1, min(e, len(den) - 1) + 1):
            acc -= den[i] * quot[e - i]
        q = acc * inv0
        quot.append(q % p if p else q)
    return [quot[e + v] if 0 <= e + v < len(quot) else 0
            for e in range(lo, hi + 1)]


def _catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def _field_args(p):
    return ["--field", f"fp:{p}"] if p else []


def _level(u, lo, hi):
    """The integer in lo..hi at position u in [0, 1) of the range."""
    return lo + int(u * (hi - lo + 1))


def _cli_eval_power(rng, p, u):
    n, c = _level(u, 6, 24), rng.randint(1, 3)
    base = "1+X" if c == 1 else f"1+{c}*X"
    coeffs = [math.comb(n, k) * c ** k for k in range(n + 1)]
    if p:
        coeffs = [v % p for v in coeffs]
    expect = _poly_text(coeffs)
    return ["eval", f"({base})^{n}"] + _field_args(p), ("text", expect)


def _cli_coeff_trinomial(rng, p, u):
    n = _level(u, 8, 22)
    i = rng.randint(0, n)
    j = rng.randint(0, n - i)
    expect = _scalar(multinomial((i, j, n - i - j)), p)
    argv = ["coeff", f"(1+X+Y)^{n}", "--vars", "X,Y", "--at", f"{i},{j}"]
    return argv + _field_args(p), ("text", expect)


def _cli_coeff_binomial(rng, p, u):
    n = _level(u, 20, 60)
    k = rng.randint(0, n)
    argv = ["coeff", f"(1+X)^{n}", "--at", str(k)]
    return argv + _field_args(p), ("text", _scalar(math.comb(n, k), p))


def _cli_ct(rng, p, u):
    total = _level(u, 2, 16)
    a = rng.randint(max(1, total - 8), min(8, total - 1))
    b = total - a
    argv = ["ct", f"(1-X/Y)^{a}*(1-Y/X)^{b}", "--vars", "X,Y"]
    return argv + _field_args(p), ("text", _scalar(math.comb(a + b, a), p))


def _cli_represent(rng, p, u):
    """Series reversion: X in powers of t = X + s X^2 has coefficients
    (-s)^(k-1) Catalan(k-1)."""
    d, s = _level(u, 8, 20), rng.choice((1, -1, 2))
    params = "X+X^2" if s == 1 else "X-X^2" if s == -1 else f"X+{s}*X^2"
    lines = [f"{k}: {_scalar((-s) ** (k - 1) * _catalan(k - 1), p)}"
             for k in range(1, d + 1)]
    argv = ["represent", "X", "--params", params, "--degrees", f"1..{d}",
            f"--box=-{d + 10}..{d + 10}"]
    return argv + _field_args(p), ("text", "\n".join(lines))


def _cli_residue(rng, p, u):
    """Coefficient at Phi^0 of X^-k (1+X)^n for Phi = X + X^2, which is
    ct X^-k (1+X)^(n-1) (1+2X) = C(n-1,k) + 2 C(n-1,k-1)."""
    n = _level(u, 3, 12)
    k = rng.randint(1, n)
    expect = math.comb(n - 1, k) + 2 * math.comb(n - 1, k - 1)
    argv = ["residue", f"X^-{k}*(1+X)^{n}", "--params", "X+X^2"]
    return argv + _field_args(p), ("text", _scalar(expect, p))


def _cli_dyson(rng, p, u):
    n, amax = (3, 3) if u < 0.5 else (4, 2)
    total = _level(2 * u % 1, 1, n * amax)
    a = rng.choice([a for a in itertools.product(range(amax + 1), repeat=n)
                    if sum(a) == total])
    m = multinomial(a)
    argv = ["dyson", "--a", ",".join(map(str, a)), "--method", "direct"]
    return argv, ("text", f"lhs={m} rhs={m} equal=true")


def _random_poly(rng, degree, const=None):
    coeffs = [rng.randint(-3, 3) for _ in range(degree + 1)]
    if const is not None:
        coeffs[0] = const
    if not any(coeffs):
        coeffs[0] = 1
    return coeffs


def _cli_nested_division(rng, p, u):
    """P0 / (P1/P2 + P3) or P0 / (P1/P2): a division whose divisor is itself
    a truncated quotient.  P2 has a unit constant term, so the inner
    quotient is a power series; P1 and P3 are unconstrained, so the outer
    divisor may lose its constant term inside the product box."""
    while True:
        p0 = _random_poly(rng, rng.randint(0, 2))
        p1 = _random_poly(rng, rng.randint(0, 2))
        p2 = _random_poly(rng, rng.randint(1, 2), const=rng.choice((1, -1)))
        p3 = _random_poly(rng, rng.randint(0, 1)) if rng.random() < 0.7 \
            else None
        # P0 / (P1/P2 + P3) = P0 P2 / (P1 + P3 P2)
        num = _poly_mul(p0, p2, p)
        den = _poly_add(p1, _poly_mul(p3, p2, p) if p3 else [0], p)
        # an ill-posed input (division by zero) is not a certificate case
        if any(den) and any(num):
            break
    text = f"({_poly_text(p1)})/({_poly_text(p2)})"
    if p3 is not None:
        text += f"+({_poly_text(p3)})"
    expr = f"({_poly_text(p0)})/({text})"
    hi = rng.randint(6, 12)
    argv = ["eval", expr, f"--box=0..{hi}", "--json"] + _field_args(p)
    return argv, ("series", (num, den, p))


CLI_KINDS = (
    ("eval power", _cli_eval_power),
    ("coeff trinomial", _cli_coeff_trinomial),
    ("coeff binomial", _cli_coeff_binomial),
    ("ct", _cli_ct),
    ("represent", _cli_represent),
    ("residue", _cli_residue),
    ("dyson direct", _cli_dyson),
    ("eval nested-division", _cli_nested_division),
)


def _cli_specs(rng):
    """CLI_PER_KIND commands of each kind, CLI_NESTED nested divisions:
    the sizes (powers, degrees, exponent sums) step evenly through their
    range, each size once over Q and once over F_p; the seed picks the prime
    and everything else."""
    cases = []
    for kind, make in CLI_KINDS:
        count = CLI_NESTED if make is _cli_nested_division else CLI_PER_KIND
        levels = count // 2
        for t in range(count):
            p = 0 if t % 2 == 0 else rng.choice(CLI_PRIMES)
            argv, expect = make(rng, p, (t // 2) / levels)
            cases.append((kind, tuple(argv), expect))
    rng.shuffle(cases)
    return {"cases": tuple(cases)}


def _check_series_json(out, expect):
    """An exact result must equal num/den; a truncated one must be exact
    inside the box it reports (which may differ from the requested one)."""
    num, den, p = expect
    data = json.loads(out)
    got = {t["exp"][0]: Fraction(t["coeff"]) for t in data["terms"]}
    if data["box"] == "everywhere":
        # got * den == num as Laurent polynomials
        prod = {}
        for e, c in got.items():
            for i, d in enumerate(den):
                prod[e + i] = prod.get(e + i, 0) + c * d
        for e in set(prod) | set(range(len(num))):
            lhs = prod.get(e, 0)
            rhs = num[e] if 0 <= e < len(num) else 0
            if (lhs - rhs) % p if p else lhs != rhs:
                return f"exact result times the divisor differs at X^{e}"
        return None
    (lo,), (hi,) = data["box"]["lo"], data["box"]["hi"]
    want = laurent_coeffs(num, den, lo, hi, p)
    for e, w in zip(range(lo, hi + 1), want):
        if got.pop(e, 0) != w:
            return f"coefficient of X^{e} is not {w}"
    if got:
        return f"terms {sorted(got)} lie outside the reported box {lo}..{hi}"
    return None


def run_cli(cli, argv):
    """cli.run(argv) in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    if code == 1:
        raise Refused((err.getvalue().strip().splitlines() or ["exit 1"])[0])
    return code, out.getvalue(), err.getvalue()


def _cli_build(spec, gp):
    cases = []
    for kind, argv, (how, expect) in spec["cases"]:
        # only the nested divisions, whose divisor is itself truncated, may
        # meet a box that cannot certify a leading term
        may_refuse = how == "series"

        def run(argv=argv):
            return run_cli(gp.cli, argv)

        def check(got, how=how, expect=expect):
            code, out, err = got
            if code != 0:
                return f"exit {code}: {err.strip()}"
            if how == "series":
                return _check_series_json(out, expect)
            if out.rstrip("\n") != expect:
                return f"printed {out.rstrip()!r}, expected {expect!r}"
            return None

        cases.append(Case(kind, "gpseries " + " ".join(argv), run, check,
                          may_refuse))
    return cases


# -- entry points ----------------------------------------------------------

_SPECS = {
    "jacobi-recovery": _jacobi_specs,
    "dyson-routes": _dyson_specs,
    "cli-session": _cli_specs,
}
_BUILD = {
    "jacobi-recovery": _jacobi_build,
    "dyson-routes": _dyson_build,
    "cli-session": _cli_build,
}


def specs(workload: str, seed: int) -> dict:
    """The workload's inputs and expected answers, as plain data."""
    return _SPECS[workload](random.Random(f"{workload}:{seed}"))


def build(workload: str, spec: dict, gp) -> list:
    """Library objects and checks for each case; ``gp`` holds the gpseries
    modules as attributes (``gp.series``, ``gp.residues``, ...)."""
    return _BUILD[workload](spec, gp)
