import json
import random
import shlex
from pathlib import Path

import pytest

from gpseries.cli import (
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


def test_missing_box_exits_two(capsys):
    assert run(["eval", "1/(1-X)"]) == 2
    assert "--box" in capsys.readouterr().err


@pytest.mark.parametrize("argv, out", [
    # (2 + 2X^2)/(1 + X^2) + 1 = 3, its tail empty in the box
    (["eval", "(1)/((2 + 2*X^2)/(1 + X^2)+(1))", "--box=0..7"], "1/3\n"),
    # 1 - 2X = 1 + X over F_3
    (["eval", "(2)/((1 - 2*X)/(1 + X))", "--box=0..7", "--field", "fp:3"],
     "2\n"),
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
