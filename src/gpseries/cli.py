"""Command-line front end.

A small expression language over declared variables, evaluated into
truncated exact series, plus subcommands for coefficient extraction,
residues, parameter representation and Dyson verification.

Grammar:
    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-'? power
    power := atom ('^' '-'? int)?
    atom  := rational | int | ident | '(' expr ')'

Parentheses and unary minus nest at most 64 levels deep, counted
together; deeper input is a parse error.  Chains such as X+X+...+X may
be of any length.

A rational literal "p/q" is recognized only when both sides are digit
strings with no whitespace around the slash; any other '/' is series
division, which (like negative powers of non-monomials) requires --box.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BoxUnderflow,
    GPSeriesError,
    ParseError,
    TooManyDigits,
    UndeclaredVariable,
)
from .exponents import Box, GroupSplit, lex_order, parse_order, zero_exp
from .fields import digits, field_from_name
from .identities import DysonInstance, dyson_verify
from .residues import check_parameters, jacobi_coefficient, represent
from .series import (
    Ambient,
    Series,
    h_coefficient_at,
    invert,
    mul,
    power,
    series_to_json,
)

# -- tokenizer -----------------------------------------------------------

_PUNCT = "+-*/^()"

# "p/q" with no whitespace is a rational literal; a zero denominator falls
# through to an int and series division.  Digits are ASCII: int() rejects
# some characters that str.isdigit() accepts, such as "²".  The most
# frequent tokens come first, which halves the time spent matching.
_TOKEN = re.compile(rf"""
    (?P<punct>[{re.escape(_PUNCT)}])
  | (?P<ident>[^\W\d]\w*)
  | (?P<rational>[0-9]+/0*[1-9][0-9]*)
  | (?P<int>[0-9]+)
  | (?P<space>[^\S\n]+)
  | (?P<newline>\n)
  | (?P<bad>.)""", re.VERBOSE)


def tokenize(text: str):
    """Yields (kind, value, line, col) with kind in
    {rational, int, ident, punct, eof}."""
    line, line_start = 1, 0
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        val = m.group()
        col = m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {val!r}", line, col,
                             ("digit", "identifier") + tuple(_PUNCT))
        else:
            try:
                if kind == "rational":
                    val = Fraction(*map(int, val.split("/")))
                elif kind == "int":
                    val = int(val)
            except ValueError:  # ASCII digits: only too many of them fail
                raise TooManyDigits(
                    f"number at line {line}, column {col} has more than "
                    f"{sys.get_int_max_str_digits()} digits") from None
            out.append((kind, val, line, col))
    out.append(("eof", None, line, len(text) - line_start + 1))
    return out


# -- parser --------------------------------------------------------------

# AST nodes: ("num", Fraction) ("var", name) ("neg", e)
#            ("add"|"sub"|"mul"|"div", l, r) ("pow", e, int)

# Each level of parentheses takes eight parser frames, so this bound keeps
# the recursive descent well inside Python's default recursion limit.
MAX_NESTING = 64


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def accept(self, chars):
        """Consume the next token and return its character if it is
        punctuation in ``chars``; else None."""
        kind, val = self.peek()[:2]
        if kind == "punct" and val in chars:
            self.pos += 1
            return val
        return None

    def fail(self, expected):
        kind, val, line, col = self.peek()
        what = "end of input" if kind == "eof" else repr(val)
        raise ParseError(f"unexpected {what}", line, col, expected)

    def nested(self, parse):
        """parse() one level deeper in parentheses or unary minus, whose
        token was just consumed; past MAX_NESTING levels a parse error."""
        if self.depth == MAX_NESTING:
            kind, val, line, col = self.tokens[self.pos - 1]
            raise ParseError(f"{val!r} nests deeper than {MAX_NESTING} levels",
                             line, col, (f"at most {MAX_NESTING} levels of "
                                         "parentheses and unary minus",))
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def binary(self, operand, ops):
        """operand (op operand)*, left-associative, for op in ``ops``."""
        node = operand()
        while op := self.accept(ops):
            node = (ops[op], node, operand())
        return node

    def expr(self):
        return self.binary(self.term, {"+": "add", "-": "sub"})

    def term(self):
        return self.binary(self.unary, {"*": "mul", "/": "div"})

    def unary(self):
        if self.accept("-"):
            return ("neg", self.nested(self.unary))
        return self.power()

    def power(self):
        node = self.atom()
        if self.accept("^"):
            sign = -1 if self.accept("-") else 1
            kind, val = self.peek()[:2]
            if kind != "int":
                self.fail(("integer exponent",))
            self.pos += 1
            node = ("pow", node, sign * val)
        return node

    def atom(self):
        if self.accept("("):
            node = self.nested(self.expr)
            if not self.accept(")"):
                self.fail((")",))
            return node
        kind, val = self.peek()[:2]
        if kind not in ("rational", "int", "ident"):
            self.fail(("number", "variable", "("))
        self.pos += 1
        return ("var", val) if kind == "ident" else ("num", Fraction(val))


def parse(text: str):
    p = _Parser(tokenize(text))
    node = p.expr()
    if p.peek()[0] != "eof":  # input left over after a whole expression
        p.fail(("operator", "end of input"))
    return node


# -- session configuration and evaluation --------------------------------

@dataclass(frozen=True)
class SessionConfig:
    ambient: Ambient
    var_names: tuple
    box: object  # Box | None

    @property
    def n(self) -> int:
        return len(self.var_names)


class FlagError(GPSeriesError):
    """A malformed flag value: a usage error, exit code 2."""


def _flag_value(flag: str, parse, text: str, expected: str):
    """parse(text), where a value that the parser or the library rejects
    is a FlagError for ``flag``."""
    try:
        return parse(text)
    except ValueError:
        raise FlagError(f"{flag}: expected {expected}, got {text!r}") from None
    except GPSeriesError as e:
        raise FlagError(f"{flag}: {e}") from None


def _flag_ints(flag: str, text: str) -> tuple:
    """Parse "j1,j2,..." for ``flag``."""
    return _flag_value(flag, lambda t: tuple(int(v) for v in t.split(",")),
                       text, "integers")


def _flag_ranges(flag: str, text: str):
    """Parse "lo..hi,lo..hi,..." for ``flag`` into (los, his); every range
    must be nonempty."""
    los, his = [], []
    for part in text.split(","):
        lo, _, hi = part.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise FlagError(f"{flag}: expected lo..hi, got {part!r}") from None
        if lo > hi:
            raise FlagError(f"{flag}: empty range {part!r}")
        los.append(lo)
        his.append(hi)
    return tuple(los), tuple(his)


def config_from_args(args) -> SessionConfig:
    var_names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not var_names:
        raise FlagError(f"--vars: no variable names in {args.vars!r}")
    m = args.hdim
    if m < 0:
        raise FlagError(f"--hdim: expected m >= 0, got {m}")
    k = m + len(var_names)
    order = lex_order(k) if args.order is None else _flag_value(
        "--order", parse_order, args.order, "integer rows")
    if order.k != k:
        raise FlagError(f"--order: {order.k} rows, expected m + n = {k}")
    fld = _flag_value("--field", field_from_name, args.field, "q or fp:<prime>")
    ambient = Ambient(GroupSplit(m, len(var_names)), order, fld)
    box = None
    if args.box is not None:
        box = Box(*_flag_ranges("--box", args.box))
        if box.k != k:
            raise FlagError(f"--box: {box.k} coordinates, expected m + n = {k}")
    return SessionConfig(ambient, var_names, box)


def evaluate(ast, cfg: SessionConfig) -> Series:
    """The series of an AST, left operand first.  A left-associative chain
    such as X+X+...+X is walked down its left spine, not recursed into, so
    only nesting, which the parser bounds, costs stack."""
    spine = []
    while ast[0] in ("add", "sub", "mul", "div"):
        spine.append(ast)
        ast = ast[1]
    kind = ast[0]
    if kind == "num":
        f = cfg.ambient.constant(ast[1])
    elif kind == "var":
        name = ast[1]
        if name not in cfg.var_names:
            raise UndeclaredVariable(f"variable {name!r} not declared")
        f = cfg.ambient.var(cfg.var_names.index(name) + 1)
    elif kind == "neg":
        f = evaluate(ast[1], cfg).scale(-1)
    elif kind == "pow":
        f = power(evaluate(ast[1], cfg), ast[2], cfg.box)
    else:
        raise AssertionError(f"unknown node {kind}")
    for kind, _, right in reversed(spine):
        g = evaluate(right, cfg)
        if kind == "add":
            f = f + g
        elif kind == "sub":
            f = f - g
        elif kind == "mul":
            f = mul(f, g)
        else:
            f = mul(f, invert(g, cfg.box))
    return f


# -- output formatting ----------------------------------------------------

def _scalar_text(fld, c) -> str:
    return digits(fld.coerce(c))


def _monomial_text(cfg: SessionConfig, g) -> str:
    split = cfg.ambient.split
    parts = []
    h = g[:split.m]
    if any(h):
        parts.append("e^(" + ",".join(map(digits, h)) + ")")
    for name, e in zip(cfg.var_names, g[split.m:]):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{digits(e)}")
    return "*".join(parts)


def format_series(f: Series, cfg: SessionConfig) -> str:
    terms = f.sorted_terms()
    if not terms:
        return "0"
    fld = f.field
    out = []
    for g, c in terms:
        mono = _monomial_text(cfg, g)
        cs = _scalar_text(fld, c)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        body = mono if mono and cs == "1" else (f"{cs}*{mono}" if mono else cs)
        if not out:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


# -- subcommands ----------------------------------------------------------

def _parse_params(cfg: SessionConfig, spec: str):
    members = [evaluate(parse(p), cfg) for p in spec.split(";") if p.strip()]
    if not members:
        raise FlagError(f"--params: expected expressions separated by ';', "
                        f"got {spec!r}")
    return check_parameters(members)


def _h_series_text(f: Series, cfg: SessionConfig) -> str:
    if cfg.ambient.split.m == 0:
        return _scalar_text(f.field, f.coefficient_at(zero_exp(f.order.k)))
    return format_series(f, cfg)


def _show(args, cfg: SessionConfig, f: Series, text) -> int:
    """Print f as JSON under --json, else as ``text(f, cfg)``."""
    print(digits(series_to_json(f), json.dumps) if args.json else text(f, cfg))
    return 0


def _cmd_eval(args, cfg):
    return _show(args, cfg, evaluate(parse(args.expr), cfg), format_series)


def _check_count(flag: str, values, cfg: SessionConfig):
    """One value per declared variable, checked before any evaluation."""
    if len(values) != cfg.n:
        raise FlagError(f"{flag}: expected one value per variable ({cfg.n}), "
                        f"got {len(values)}")


def _cmd_coeff(args, cfg):
    at = _flag_ints("--at", args.at)
    _check_count("--at", at, cfg)
    f = evaluate(parse(args.expr), cfg)
    return _show(args, cfg, h_coefficient_at(f, at), _h_series_text)


def _cmd_ct(args, cfg):
    f = evaluate(parse(args.expr), cfg)
    return _show(args, cfg, h_coefficient_at(f, (0,) * cfg.n), _h_series_text)


def _cmd_residue(args, cfg):
    psi = evaluate(parse(args.expr), cfg)
    params = _parse_params(cfg, args.params)
    r = jacobi_coefficient(psi, params, (0,) * cfg.n, cfg.box)
    return _show(args, cfg, r, _h_series_text)


def _cmd_represent(args, cfg):
    degrees = _flag_ranges("--degrees", args.degrees)
    _check_count("--degrees", degrees[0], cfg)
    psi = evaluate(parse(args.expr), cfg)
    params = _parse_params(cfg, args.params)
    coeffs = represent(psi, params, degrees, cfg.box)
    if args.json:
        print(json.dumps({",".join(str(i) for i in idx): series_to_json(s)
                          for idx, s in sorted(coeffs.items())}))
    else:
        for idx, s in sorted(coeffs.items()):
            print(",".join(str(i) for i in idx) + ": " + _h_series_text(s, cfg))
    return 0


def _cmd_dyson(args, _cfg):
    inst = DysonInstance(_flag_ints("--a", args.a))
    lhs, rhs, equal = dyson_verify(inst, args.method)
    if args.json:
        print(json.dumps({"lhs": str(lhs), "rhs": str(rhs), "equal": equal}))
    else:
        print(f"lhs={lhs} rhs={rhs} equal={'true' if equal else 'false'}")
    return 0


# The global flags are valid before and after the subcommand.  They have
# no argparse default, which a subcommand would write over a value given
# before it; ``run`` fills these defaults in after parsing, and refuses
# every global flag but --json for a subcommand that takes no session.
_GLOBAL_DEFAULTS = {"order": None, "vars": "X", "hdim": 0, "field": "q",
                   "box": None, "json": False}


def build_argparser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--order",
                        help='order matrix rows, e.g. "1,0;0,1" (default: lex)')
    common.add_argument("--vars", help="comma-separated variable names")
    common.add_argument("--hdim", type=int,
                        help="number of leading coefficient-group coordinates")
    common.add_argument("--field", help='"q" or "fp:<p>"')
    common.add_argument("--box",
                        help='exactness box "lo..hi,lo..hi,..." over all coordinates')
    common.add_argument("--json", action="store_true", help="JSON output")
    ap = argparse.ArgumentParser(
        prog="gpseries", parents=[common],
        description="exact arithmetic with generalized power series")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("eval", help="evaluate an expression to a series")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_eval, needs_cfg=True)

    p = add_parser("coeff", help="coefficient at a variable monomial")
    p.add_argument("expr")
    p.add_argument("--at", required=True, help="j1,...,jn")
    p.set_defaults(fn=_cmd_coeff, needs_cfg=True)

    p = add_parser("ct", help="constant term")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_ct, needs_cfg=True)

    p = add_parser("residue", help="residue over a parameter system")
    p.add_argument("expr")
    p.add_argument("--params", required=True, help="expr;expr;...")
    p.set_defaults(fn=_cmd_residue, needs_cfg=True)

    p = add_parser("represent", help="coefficients in regular parameters")
    p.add_argument("expr")
    p.add_argument("--params", required=True, help="expr;expr;...")
    p.add_argument("--degrees", required=True, help="lo..hi,lo..hi,...")
    p.set_defaults(fn=_cmd_represent, needs_cfg=True)

    p = add_parser("dyson", help="verify the Dyson constant-term identity")
    p.add_argument("--a", required=True, help="a1,a2,...")
    p.add_argument("--method", default="direct",
                   choices=("direct", "wilson", "egorychev"))
    p.set_defaults(fn=_cmd_dyson, needs_cfg=False)

    return ap


GRAMMAR_HELP = __doc__[__doc__.index("Grammar:"):]


def run(argv) -> int:
    ap = build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    given = [key for key in _GLOBAL_DEFAULTS
             if key != "json" and hasattr(args, key)]
    args = argparse.Namespace(**{**_GLOBAL_DEFAULTS, **vars(args)})
    try:
        if given and not args.needs_cfg:
            raise FlagError(f"{args.command} does not take --{given[0]}")
        cfg = config_from_args(args) if args.needs_cfg else None
        return args.fn(args, cfg)
    except ParseError as e:
        print(f"parse error at line {e.line}, column {e.column}: {e.message}"
              f" (expected one of: {', '.join(map(str, e.expected))})",
              file=sys.stderr)
        print(GRAMMAR_HELP, file=sys.stderr)
        return 2
    except FlagError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BoxUnderflow as e:
        if args.needs_cfg and args.box is None:
            print(f"error: {e}; pass --box to choose a truncation window",
                  file=sys.stderr)
            return 2
        print(f"error: {e}", file=sys.stderr)
        return 1
    except GPSeriesError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
