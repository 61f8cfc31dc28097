import json
import math
import random
import shlex
from pathlib import Path

import pytest

from gpseries import cli
from gpseries.cli import (
    GRAMMAR_HELP,
    MAX_NESTING,
    FlagError,
    SessionConfig,
    config_from_args,
    evaluate,
    format_series,
    parse,
    run,
    tokenize,
)
from gpseries.errors import ParseError, UndeclaredVariable
from gpseries.exponents import Box, GroupSplit, lex_order
from gpseries.fields import QQ
from gpseries.series import Ambient, series_from_json, series_to_json

from conftest import random_polynomial


def cfg_for(names, box=None, m=0):
    n = len(names)
    return SessionConfig(Ambient(GroupSplit(m, n), lex_order(m + n), QQ),
                         tuple(names), box)


# -- grammar ---------------------------------------------------------------

def test_tokenize_rational_literal():
    kinds = [t[0] for t in tokenize("1/2 + X/Y - 3")]
    assert kinds == ["rational", "punct", "ident", "punct", "ident",
                     "punct", "int", "eof"]


def test_tokenize_zero_denominator_is_division():
    kinds = [t[0] for t in tokenize("1/0")]
    assert kinds == ["int", "punct", "int", "eof"]


def test_tokenize_bad_character():
    with pytest.raises(ParseError):
        tokenize("X @ Y")
    with pytest.raises(ParseError) as exc:
        tokenize("X +\n  @")
    assert (exc.value.line, exc.value.column) == (2, 3)


def test_non_ascii_digit_is_a_typed_error(capsys):
    # "²" passes str.isdigit() but is no decimal digit
    with pytest.raises(ParseError):
        parse("X^²")
    with pytest.raises(UndeclaredVariable):
        evaluate(parse("²"), cfg_for("X"))
    assert run(["eval", "X^²"]) == 2
    assert run(["eval", "²"]) == 1
    assert "int()" not in capsys.readouterr().err


def test_parse_power_nodes():
    ast = parse("(1 - X/Y)^2 * (1 - Y/X)")
    assert ast[0] == "mul"
    assert ast[1][0] == "pow" and ast[1][2] == 2


def test_parse_negative_exponent():
    ast = parse("X^-1 + Y")
    assert ast == ("add", ("pow", ("var", "X"), -1), ("var", "Y"))


def test_parse_trailing_operator():
    with pytest.raises(ParseError) as e:
        parse("X +")
    assert e.value.line == 1


@pytest.mark.parametrize("text", ["(1+X))*5", "2 X", "X^2^3"])
def test_trailing_input_exits_two(capsys, text):
    # a token after a whole expression is a parse error, not ignored
    assert run(["eval", text]) == 2
    assert "expected one of: operator, end of input" in capsys.readouterr().err


def test_parse_precedence():
    # '^' binds tightest, then unary minus, '*' over '+'
    assert parse("-X^2") == ("neg", ("pow", ("var", "X"), 2))
    assert parse("1 + X*Y")[0] == "add"


# -- evaluation ------------------------------------------------------------

def test_evaluate_geometric():
    cfg = cfg_for(["X"], Box((0,), (5,)))
    f = evaluate(parse("1/(1-X)"), cfg)
    assert f.coeffs == {(t,): QQ.one() for t in range(6)}


def test_evaluate_undeclared():
    cfg = cfg_for(["X"])
    with pytest.raises(UndeclaredVariable):
        evaluate(parse("X + Z"), cfg)


def test_print_parse_round_trip():
    rng = random.Random(5)
    cfg = cfg_for(["X", "Y"])
    for _ in range(25):
        f = random_polynomial(rng, cfg.ambient)
        text = format_series(f, cfg)
        g = evaluate(parse(text), cfg)
        assert g.eq_within(f), text


# -- golden command runs ---------------------------------------------------

def test_golden_dyson(capsys):
    assert run(["dyson", "--a", "1,1,1", "--method", "direct"]) == 0
    assert capsys.readouterr().out == "lhs=6 rhs=6 equal=true\n"


def test_golden_ct(capsys):
    assert run(["ct", "(1-X/Y)*(1-Y/X)", "--vars", "X,Y",
                "--order", "1,0;0,1"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_golden_parse_error(capsys):
    assert run(["eval", "X^"]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "Grammar" in err


def test_golden_eval(capsys):
    assert run(["eval", "1/(1-X)", "--box=0..5"]) == 0
    assert capsys.readouterr().out == "1 + X + X^2 + X^3 + X^4 + X^5\n"


def test_golden_represent(capsys):
    assert run(["represent", "X", "--params", "X+X^2",
                "--degrees", "1..4", "--box=-10..10"]) == 0
    assert capsys.readouterr().out == "1: 1\n2: -1\n3: 2\n4: -5\n"


def test_golden_residue(capsys):
    assert run(["residue", "X", "--params", "X+X^2", "--box=-10..10"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_coeff_on_prime_field(capsys):
    assert run(["coeff", "(1+X)^5", "--at", "2", "--field", "fp:5"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_ct_equals_coeff_at_zero(capsys):
    for expr, extra in [("(1-X/Y)*(1-Y/X)", ["--vars", "X,Y"]),
                        ("(1+X)^3", ["--vars", "X"])]:
        assert run(["ct", expr] + extra) == 0
        ct_out = capsys.readouterr().out
        zeros = "0,0" if "Y" in expr else "0"
        assert run(["coeff", expr, "--at", zeros] + extra) == 0
        assert capsys.readouterr().out == ct_out


@pytest.mark.parametrize("argv, out", [
    (["--field", "fp:5", "coeff", "(1+X)^5", "--at", "2"], "0\n"),
    (["--vars", "X,Y", "ct", "(1-X/Y)*(1-Y/X)"], "2\n"),
    (["--json", "dyson", "--a", "1,1"],
     '{"lhs": "2", "rhs": "2", "equal": true}\n'),
    (["--box=0..5", "eval", "1/(1-X)"], "1 + X + X^2 + X^3 + X^4 + X^5\n"),
    # the same flag on both sides: the value after the subcommand wins
    (["--field", "q", "coeff", "(1+X)^5", "--at", "2", "--field", "fp:5"],
     "0\n"),
], ids=["field", "vars", "json", "box", "both-sides"])
def test_global_flag_before_subcommand(capsys, argv, out):
    assert run(argv) == 0
    assert capsys.readouterr().out == out


def test_readme_cli_examples(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("gpseries "):
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith("# "):
            examples[-1][1].append(line[2:])
    assert examples
    for argv, expected in examples:
        assert run(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == expected, argv


# -- exit-code contract ------------------------------------------------------

def test_domain_error_exits_one(capsys):
    assert run(["eval", "1/0"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "2^100000"],
    ["eval", "2^100000", "--json"],
    ["eval", "(1+X)^20000"],  # the middle binomials
    ["eval", "7" * 5000],  # a literal too long to read
    ["eval", f"(X^{'7' * 3000})^{'7' * 3000}", "--json"],  # an exponent
], ids=["scalar", "scalar-json", "binomials", "literal", "exponent-json"])
def test_too_many_digits_exits_one(capsys, argv):
    # Python reads and writes at most 4300 decimal digits of an int
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "4300 digits" in err


def test_library_bug_is_not_a_domain_error(monkeypatch):
    # run catches the library's typed errors, not whatever a bug raises
    def broken(node, cfg):
        raise ValueError("a bug")

    monkeypatch.setattr(cli, "evaluate", broken)
    with pytest.raises(ValueError, match="a bug"):
        run(["eval", "X"])


def test_missing_box_exits_two(capsys):
    assert run(["eval", "1/(1-X)"]) == 2
    assert "--box" in capsys.readouterr().err


@pytest.mark.parametrize("argv, out", [
    # (2 + 2X^2)/(1 + X^2) + 1 = 3, its tail empty in the box
    (["eval", "(1)/((2 + 2*X^2)/(1 + X^2)+(1))", "--box=0..7"], "1/3\n"),
    # 1 - 2X = 1 + X over F_3
    (["eval", "(2)/((1 - 2*X)/(1 + X))", "--box=0..7", "--field", "fp:3"],
     "2\n"),
    # the divisor's cone offset lies below its leading term
    (["eval", "(1)/((-2 + 2*X)/(1 - 2*X - 2*X^2)+(2))", "--box=0..9"],
     "2 - 3*X + 6*X^2 - 12*X^3 + 24*X^4 - 48*X^5 + 96*X^6 - 192*X^7\n"),
    # the tail of -2X/(-1 - 3X) is stored to X^8 only: the answer is cut there
    (["eval", "(-3)/((-2*X)/(-1 - 3*X))", "--box=0..9"], "-9/2\n"),
    # -3X/(1 + X) is known below its box, where its cone bounds keep it
    # zero, so the sum keeps the constant 2 that leads the divisor
    (["eval", "(3)/((-3*X)/(1 + X)+(2))", "--box=0..8"],
     "3/2 + 9/4*X + 9/8*X^2 + 9/16*X^3 + 9/32*X^4 + 9/64*X^5 + 9/128*X^6"
     " + 9/256*X^7 + 9/512*X^8\n"),
    (["eval", "(-2 + 2*X)/((X)/(-1 - X)+(1))", "--box=0..10", "--field",
      "fp:13"], "11 + 2*X^2\n"),
])
def test_nested_division_answers(capsys, argv, out):
    assert run(argv) == 0
    assert capsys.readouterr().out == out


def test_bad_box_with_box_given_exits_one(capsys):
    # box present but inversion still uncertifiable: domain error
    assert run(["eval", "1/0", "--box=0..3"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, flag", [
    (["eval", "X", "--box=0..a"], "--box"),
    (["eval", "X", "--box=3..1"], "--box"),
    (["coeff", "X", "--at", "a"], "--at"),
    (["eval", "X", "--field", "fp:x"], "--field"),
    (["eval", "X", "--order", "a"], "--order"),
    (["dyson", "--a", "1,x"], "--a:"),
    (["represent", "X", "--params", "X+X^2", "--degrees", "1..x",
      "--box=-10..10"], "--degrees"),
    (["represent", "X", "--params", "X+X^2", "--degrees", "5..1",
      "--box=-10..10"], "--degrees"),
    (["coeff", "X", "--at", "1,2"], "--at"),
    (["represent", "X", "--params", "X+X^2", "--degrees", "1..2,1..3",
      "--box=-10..10"], "--degrees"),
    (["--hdim", "-1", "eval", "X"], "--hdim"),
    (["eval", "X", "--box=0..1,0..1"], "--box"),
    (["--vars", ",", "eval", "X"], "--vars"),
    # dyson takes no session: every global flag but --json is refused
    (["--field", "fp:5", "dyson", "--a", "1,1,1"], "dyson does not take --field"),
    (["dyson", "--a", "1,1,1", "--vars", "X,Y"], "dyson does not take --vars"),
    (["--order", "1", "dyson", "--a", "1,1,1"], "dyson does not take --order"),
    (["dyson", "--a", "1,1,1", "--hdim", "0"], "dyson does not take --hdim"),
    (["dyson", "--a", "1,1,1", "--box=0..1"], "dyson does not take --box"),
    # values that the library rejects
    (["eval", "X", "--order", "0"], "--order"),
    (["eval", "X", "--order", "1,2"], "--order"),
    (["eval", "X", "--vars", "X,Y", "--order", "1"], "--order"),
    (["eval", "X", "--field", "fp:4"], "--field"),
    (["eval", "X", "--field", "foo"], "--field"),
    # a member list with no expression in it
    (["residue", "X", "--params", ""], "--params"),
    (["represent", "X", "--params", " ; ", "--degrees", "1..2"], "--params"),
])
def test_malformed_flag_exits_two(capsys, argv, flag):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""
    assert "Grammar:" not in captured.err  # a usage error, not a parse error


def test_large_prime_field_answers(capsys):
    assert run(["eval", "X", "--field", "fp:1000000000000000003"]) == 0
    assert capsys.readouterr().out == "X\n"


def test_undeclared_variable_exits_one(capsys):
    assert run(["eval", "Z"]) == 1
    capsys.readouterr()


# -- powers --------------------------------------------------------------------

def test_monomial_power_is_one_monomial(capsys):
    assert run(["eval", "X^99999999999999*X"]) == 0
    assert capsys.readouterr().out == "X^100000000000000\n"


def test_zero_power_takes_one_product(capsys):
    assert run(["eval", "0^99999999"]) == 0
    assert run(["eval", "0^0"]) == 0
    assert capsys.readouterr().out == "0\n1\n"


def test_trinomial_power_is_exact(capsys):
    """(1+X+Y)^300 is exact, with the multinomial coefficients."""
    assert run(["eval", "(1+X+Y)^300", "--vars", "X,Y", "--json"]) == 0
    f = series_from_json(json.loads(capsys.readouterr().out))
    assert f.box is None and len(f.coeffs) == 301 * 302 // 2
    rng = random.Random(300)
    for i, j in [(0, 0), (300, 0), (0, 300), (100, 100)] + [
            (i, rng.randint(0, 300 - i)) for i in rng.sample(range(301), 20)]:
        assert f.coefficient_at((i, j)) == math.comb(300, i) * math.comb(300 - i, j)


# -- long and deeply nested input -----------------------------------------------

def test_long_sum_answers(capsys):
    # a left-associative chain is walked, not recursed into
    assert run(["eval", "+".join(["X"] * 1500)]) == 0
    assert capsys.readouterr().out == "1500*X\n"


def test_long_product_answers(capsys):
    assert run(["eval", "*".join(["X"] * 1200)]) == 0
    assert capsys.readouterr().out == "X^1200\n"


def test_long_chain_with_truncated_operand_answers(capsys):
    """600 factors, the first one truncated: each product's cone is built
    at once, so printing it needs no deep recursion."""
    expr = "*".join(["1/(1-X)"] + ["(1+X)"] * 599)
    assert run(["eval", expr, "--box=0..3", "--json"]) == 0
    out, err = capsys.readouterr()
    data = json.loads(out)
    assert data["box"] == {"lo": [0], "hi": [3]}
    assert data["cone"] == {"offset": [0], "generators": [[1]], "bounds": [[0, None]]}
    assert [t["coeff"] for t in data["terms"]][:2] == ["1/1", "600/1"]
    assert "Traceback" not in err and err == ""


@pytest.mark.parametrize("text", [
    "(" * 2000 + "X" + ")" * 2000,
    "(" * (MAX_NESTING + 1) + "X" + ")" * (MAX_NESTING + 1),
    "0+" + "-" * (MAX_NESTING + 1) + "X",
    "-(" * (MAX_NESTING // 2) + "-X" + ")" * (MAX_NESTING // 2),
], ids=["parens-2000", "parens", "minus", "both"])
def test_deep_nesting_exits_two(capsys, text):
    assert run(["eval", "--", text]) == 2
    err = capsys.readouterr().err
    assert f"nests deeper than {MAX_NESTING} levels" in err
    assert "Traceback" not in err and "Grammar" in err


def test_nesting_at_the_bound_answers(capsys):
    n = MAX_NESTING
    for text in ["(" * n + "X" + ")" * n, "-" * n + "X",
                 "-(" * (n // 2) + "X" + ")" * (n // 2),
                 "X+(" * n + "X" + ")" * n]:
        assert run(["eval", "--", text]) == 0
    assert capsys.readouterr().out == f"X\nX\nX\n{n + 1}*X\n"
    assert f"nest at most {MAX_NESTING} levels" in GRAMMAR_HELP


# -- JSON ---------------------------------------------------------------------

def test_json_round_trip(capsys):
    assert run(["eval", "1/(1-X)", "--box=0..3", "--json"]) == 0
    blob = capsys.readouterr().out
    data = json.loads(blob)
    f = series_from_json(data)
    assert json.dumps(series_to_json(f)) + "\n" == blob


def test_json_dyson(capsys):
    assert run(["dyson", "--a", "1,1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"lhs": "2", "rhs": "2", "equal": True}


def test_config_box_dimension_check():
    ap_args = type("A", (), {"vars": "X,Y", "hdim": 0, "order": None,
                             "field": "q", "box": "0..1"})
    with pytest.raises(FlagError, match="--box"):
        config_from_args(ap_args)
