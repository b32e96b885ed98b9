"""Tests for the command-line front end: expression parsing, golden
outputs, exit codes, JSON determinism, and cache management."""

import json
import os
import random
import subprocess
import sys

import pytest

import machyper.cli as cli
import machyper.ratfunc as ratfunc
from machyper import stats
from machyper.cli import (EXIT_INTERNAL, EXIT_PASS, EXIT_POLE, EXIT_RESOURCE,
                          EXIT_USAGE, EXIT_VERIFY_FAIL, MAX_D, MAX_EXPONENT,
                          MAX_LEVEL, MAX_N, MAX_SIZE, ParamExprError, main,
                          parse_param_expr)
from machyper.errors import (InexactDivisionError, LimitError, MacHyperError,
                             NotSymmetricError, ResourceGuardError)
from machyper.partitions import enumerate_partitions
from machyper.ratfunc import ONE, Q, T, rf
from machyper.verify import (MAX_SUITE_DEGREE, MAX_SUITE_DRAWS, MAX_SUITE_VARS,
                             _draw_field_value)


# ---------------------------------------------------------------------------
# parameter expressions

def test_parse_examples():
    assert parse_param_expr("q^2/(1-t)") == Q ** 2 / (ONE - T)
    assert parse_param_expr("2/3") == rf(2) / rf(3)
    assert parse_param_expr("(1-q*t)*(1-t)^-1") == (ONE - Q * T) / (ONE - T)
    assert parse_param_expr("(1-t)^(-1)") == (ONE - T).inverse()
    assert parse_param_expr("-q + 2") == rf(2) - Q
    assert parse_param_expr("q^0") == ONE
    # a unary plus, alone and after a binary operator
    assert parse_param_expr("+q") == Q
    assert parse_param_expr("2*+(1-t)") == rf(2) * (ONE - T)


def test_parse_errors_carry_positions():
    with pytest.raises(ParamExprError) as exc:
        parse_param_expr("1 + $")
    assert exc.value.position == 4
    with pytest.raises(ParamExprError) as exc:
        parse_param_expr("q +")
    assert exc.value.position == 3
    with pytest.raises(ParamExprError) as exc:
        parse_param_expr("(1-q")
    assert "expected" in str(exc.value)
    with pytest.raises(ParamExprError) as exc:
        parse_param_expr("1 2")
    assert "trailing" in str(exc.value)
    with pytest.raises(ParamExprError):
        parse_param_expr("q^t")


def test_parse_zero_division():
    with pytest.raises(ZeroDivisionError):
        parse_param_expr("1/(1-1)")
    with pytest.raises(ZeroDivisionError):
        parse_param_expr("(q-q)^-1")


def test_parse_round_trips_renderer():
    rng = random.Random(11)
    for _ in range(80):
        v = _draw_field_value(rng)
        assert parse_param_expr(v.render()) == v
    # a value with a nontrivial denominator polynomial
    v = (ONE - Q * T ** 2) / ((ONE - Q) * (ONE - T))
    assert parse_param_expr(v.render()) == v


# ---------------------------------------------------------------------------
# compute/table golden outputs

def test_compute_basis_golden(capsys):
    assert main(["compute", "P", "--partition", "[2]", "--n", "2"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out == "P[2] (n=2) = m[2] + (-1 + t - q + q*t)/(-1 + q*t)*m[1,1]\n"


def test_compute_binomial_golden(capsys):
    assert main(["compute", "binomial", "--upper", "[2,1]",
                 "--lower", "[1,1]", "--n", "3"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out == "binomial [2,1] over [1,1] (n=3) = (-1 + q^2*t)/(-1 + q*t)\n"


def test_compute_eigen_golden(capsys):
    assert main(["compute", "eigen", "--direction", "raise", "--level", "1",
                 "--partition", "[1]", "--n", "2"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out == "eigen raise l=1 at [1] (n=2) = (-1 - q*t)/(-1 + q)\n"
    # level 1 and direction raise are the defaults
    assert main(["compute", "eigen", "--partition", "[1]", "--n", "2"]) == EXIT_PASS
    assert capsys.readouterr().out == out


def test_compute_series_golden(capsys):
    assert main(["compute", "series", "--r", "0", "--s", "0",
                 "--n", "1", "--D", "2"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out == ("series r=0 s=0 n=1 D=2 flavor=macdonald\n"
                   "  C[] = 1\n  C[1] = 1\n  C[2] = 1\n")
    # D = 4 and the macdonald flavor are the defaults
    assert main(["compute", "series", "--n", "1"]) == EXIT_PASS
    assert capsys.readouterr().out.startswith(
        "series r=0 s=0 n=1 D=4 flavor=macdonald\n")


def test_table_text(capsys):
    assert main(["table", "P", "--n", "2", "--max-size", "2"]) == EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "P[] = m[]"
    assert lines[1] == "P[1] = m[1]"
    assert len(lines) == 4   # (), (1), (2), (1,1)


def test_table_binomial(capsys):
    assert main(["table", "binomial", "--n", "2",
                 "--max-size", "2"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "binomial [1] over [] = 1" in out
    # no cover pair has an upper partition of at most 0 boxes, as table P
    # at 0 lists only P[]; size 1 still lists the one pair
    assert main(["table", "binomial", "--max-size", "0", "--n", "2"]) \
        == EXIT_PASS
    assert capsys.readouterr().out == ""
    assert main(["table", "binomial", "--max-size", "0", "--n", "2",
                 "--format", "json"]) == EXIT_PASS
    assert capsys.readouterr().out == "[]\n"
    assert main(["table", "binomial", "--max-size", "1", "--n", "2"]) \
        == EXIT_PASS
    assert capsys.readouterr().out == "binomial [1] over [] = 1\n"


def test_json_outputs_byte_identical(capsys):
    args = ["compute", "series", "--n", "2", "--D", "3",
            "--a", "1/2", "--b", "2/3*q", "--format", "json"]
    assert main(args) == EXIT_PASS
    first = capsys.readouterr().out
    assert main(args) == EXIT_PASS
    assert capsys.readouterr().out == first
    assert first.startswith("{") and '"coeffs"' in first


# one small case of each JSON branch of compute and table, byte for byte
_ONE = '{"den":[[0,0,"1"]],"num":[[0,0,"1"]]}'
_P2 = ('{"coeffs":[{"partition":[2],"value":' + _ONE + '},'
       '{"partition":[1,1],"value":{"den":[[0,0,"-1"],[1,1,"1"]],'
       '"num":[[0,0,"-1"],[0,1,"1"],[1,0,"-1"],[1,1,"1"]]}}],"n":2}')
_JSTAR1 = ('{"coeffs":[{"partition":[1],"value":{"den":[[0,0,"-1"],'
           '[1,0,"1"]],"num":[[0,0,"-1"]]}}],"n":2}')
JSON_GOLDEN = (
    (["compute", "P", "--partition", "[2]", "--n", "2"],
     '{"n":2,"object":"P","partition":[2],"value":' + _P2 + '}'),
    (["compute", "J", "--partition", "[1,1]", "--n", "2"],
     '{"n":2,"object":"J","partition":[1,1],"value":{"coeffs":[{"partition":'
     '[1,1],"value":{"den":[[0,0,"1"]],"num":[[0,0,"1"],[0,1,"-1"],'
     '[0,2,"-1"],[0,3,"1"]]}}],"n":2}}'),
    (["compute", "Jstar", "--partition", "[1]", "--n", "2"],
     '{"n":2,"object":"Jstar","partition":[1],"value":' + _JSTAR1 + '}'),
    (["compute", "binomial", "--upper", "[2,1]", "--lower", "[1,1]",
      "--n", "3"],
     '{"lower":[1,1],"n":3,"object":"binomial","upper":[2,1],'
     '"value":"(-1 + q^2*t)/(-1 + q*t)"}'),
    (["compute", "eigen", "--partition", "[1]", "--n", "2"],
     '{"direction":"raise","level":1,"n":2,"object":"eigen",'
     '"partition":[1],"value":"(-1 - q*t)/(-1 + q)"}'),
    (["table", "Jstar", "--n", "2", "--max-size", "1"],
     '[{"partition":[],"value":{"coeffs":[{"partition":[],"value":' + _ONE
     + '}],"n":2}},{"partition":[1],"value":' + _JSTAR1 + '}]'),
    (["table", "P", "--n", "2", "--max-size", "2"],
     '[{"partition":[],"value":{"coeffs":[{"partition":[],"value":' + _ONE
     + '}],"n":2}},{"partition":[1],"value":{"coeffs":[{"partition":[1],'
     '"value":' + _ONE + '}],"n":2}},{"partition":[2],"value":' + _P2
     + '},{"partition":[1,1],"value":{"coeffs":[{"partition":[1,1],'
     '"value":' + _ONE + '}],"n":2}}]'))


@pytest.mark.parametrize("argv, want", JSON_GOLDEN,
                         ids=[" ".join(argv[:2]) for argv, _ in JSON_GOLDEN])
def test_json_golden(capsys, argv, want):
    assert main(argv + ["--format", "json"]) == EXIT_PASS
    assert capsys.readouterr().out == want + "\n"


def test_parser_reuse_keeps_calls_apart(capsys):
    # the parser is built once per process; a repeatable flag given to one
    # call must not leak into the next
    with_a = ["compute", "series", "--n", "1", "--D", "2", "--a", "1/2"]
    without = ["compute", "series", "--n", "1", "--D", "2"]
    fresh = []
    for args in (with_a, without):
        cli._parser.cache_clear()
        assert main(args) == EXIT_PASS
        fresh.append(capsys.readouterr().out)
    assert fresh[0] != fresh[1]
    for args, want in zip((with_a, without, with_a), fresh + fresh[:1]):
        assert main(args) == EXIT_PASS
        assert capsys.readouterr().out == want


# ---------------------------------------------------------------------------
# verify command and exit codes

def test_verify_univariate(capsys):
    assert main(["verify", "univariate", "--D", "3",
                 "--draws", "1"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("PASS:")


def test_verify_mutated_fails(capsys):
    assert main(["verify", "univariate", "--D", "3", "--draws", "1",
                 "--mutate", "C[1]"]) == EXIT_VERIFY_FAIL
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("FAIL:")


def test_verify_json(capsys):
    assert main(["verify", "jack", "--draws", "1",
                 "--format", "json"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out.startswith("[") and '"theorem":"jack"' in out


def test_exit_resource_guard(capsys):
    assert main(["verify", "B", "--n", "7", "--draws", "1"]) == EXIT_RESOURCE
    assert "resource guard" in capsys.readouterr().err


def test_exit_pole(capsys):
    assert main(["compute", "series", "--n", "2", "--D", "3",
                 "--b", "1/q"]) == EXIT_POLE
    assert "pole" in capsys.readouterr().err


def test_exit_internal_error(monkeypatch, capsys):
    # a broken invariant is an internal error, never a failed verification
    for kind in (InexactDivisionError, NotSymmetricError, LimitError,
                 MacHyperError):
        def broken(*args, **kwargs):
            raise kind("invariant broken")
        monkeypatch.setattr(cli, "macdonald_forms", broken)
        assert main(["compute", "P", "--partition", "[1]",
                     "--n", "2"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "machyper: internal error: invariant broken\n"
    # any other exception that escapes a command names its type, and exits
    # as an internal error too
    for exc, text in ((IndexError("list index out of range"),
                       "IndexError: list index out of range"),
                      (KeyError((2, 1)), "KeyError: (2, 1)")):
        def escapes(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "macdonald_forms", escapes)
        assert main(["compute", "P", "--partition", "[1]",
                     "--n", "2"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"machyper: internal error: {text}\n"


def test_exit_internal_gcd_and_zero_division(monkeypatch, capsys):
    # a gcd that does not converge and a ZeroDivisionError raised inside the
    # library are internal errors too
    def gcd_failure(*args, **kwargs):
        def never_divides(a, b):
            raise InexactDivisionError("unlucky")
        with monkeypatch.context() as m:
            m.setattr(ratfunc, "_pdiv_exact", never_divides)
            # (q + t)(q + 1) and (q + t)(q - 1) as {q-degree: t-coefficients}:
            # not coprime, so every candidate goes to the refused trial division
            ratfunc._bv_gcd_prim({0: [0, 1], 1: [1, 1], 2: [1]},
                                 {0: [0, -1], 1: [-1, 1], 2: [1]})

    def zero_division(*args, **kwargs):
        raise ZeroDivisionError("zero denominator")

    for broken, text in ((gcd_failure,
                          "bivariate gcd interpolation did not converge"),
                         (zero_division, "zero denominator")):
        monkeypatch.setattr(cli, "macdonald_forms", broken)
        assert main(["compute", "P", "--partition", "[1]",
                     "--n", "2"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"machyper: internal error: {text}\n"


def test_resource_guards_before_work(monkeypatch, capsys):
    # oversized --n, --D, --max-size, --level and --partition stop before
    # any computation
    def unreachable(*args, **kwargs):
        raise AssertionError("guarded request reached the computation")
    parse = cli.parse_partition
    monkeypatch.setattr(cli, "macdonald_forms", unreachable)
    monkeypatch.setattr(cli, "eigen_value_raise", unreachable)
    monkeypatch.setattr(cli, "eigen_value_lower", unreachable)
    monkeypatch.setattr(cli, "parse_partition", unreachable)
    monkeypatch.setattr(cli, "binomial_raising_closed", unreachable)
    monkeypatch.setattr(cli, "enumerate_partitions", unreachable)
    monkeypatch.setattr(cli.TruncatedSeries, "build", unreachable)
    monkeypatch.setattr(cli.MacdonaldCache, "get_P", unreachable)
    cases = [
        (["compute", "P", "--partition", "[1]", "--n", str(MAX_N + 1)], "--n"),
        (["compute", "series", "--n", "1", "--D", str(MAX_D + 1)], "--D"),
        (["table", "P", "--n", str(MAX_N + 1)], "--n"),
        (["table", "binomial", "--max-size", str(MAX_SIZE + 1)], "--max-size"),
        (["cache", "warm", "--dir", "unused", "--n", "2",
          "--max-size", str(MAX_SIZE + 1)], "--max-size"),
        (["compute", "eigen", "--partition", "[1]", "--n", "7",
          "--level", str(MAX_LEVEL + 1)], "--level"),
        (["compute", "eigen", "--partition", "[1]", "--direction", "lower",
          "--level", str(MAX_LEVEL + 1)], "--level"),
    ]
    for argv, flag in cases:
        assert main(argv) == EXIT_RESOURCE
        assert capsys.readouterr().err.startswith(f"machyper: resource guard: {flag} ")
    # the partition bound needs the partition parsed, and nothing more
    monkeypatch.setattr(cli, "parse_partition", parse)
    big = "[" + ",".join(["1"] * (MAX_SIZE + 1)) + "]"
    for obj, lam, n in (("P", big, MAX_N), ("J", "[40]", 2),
                        ("Jstar", f"[{MAX_SIZE + 1}]", 1)):
        assert main(["compute", obj, "--partition", lam, "--n", str(n)]) \
            == EXIT_RESOURCE
        assert capsys.readouterr().err.startswith(
            "machyper: resource guard: --partition ")


def test_size_flags_below_minimum_are_usage_errors(monkeypatch, capsys,
                                                   tmp_path):
    # --n below 1, and --D and --max-size below 0, are refused in every
    # subcommand that reads them, before any work
    import machyper.verify as verify
    def unreachable(*args, **kwargs):
        raise AssertionError("refused request reached the computation")
    for name in ("macdonald_forms", "eigen_value_raise", "eigen_value_lower",
                 "binomial_raising_closed", "enumerate_partitions"):
        monkeypatch.setattr(cli, name, unreachable)
    monkeypatch.setattr(cli.TruncatedSeries, "build", unreachable)
    monkeypatch.setattr(cli.MacdonaldCache, "get_P", unreachable)
    monkeypatch.setattr(verify, "draw_hyper_params", unreachable)
    d = str(tmp_path)
    cases = [
        (["compute", "P", "--partition", "[]", "--n", "0"], "--n 0", 1),
        (["compute", "series", "--n", "-1", "--D", "2"], "--n -1", 1),
        (["compute", "series", "--n", "2", "--D", "-1"], "--D -1", 0),
        (["compute", "binomial", "--upper", "[1]", "--lower", "[]",
          "--n", "0"], "--n 0", 1),
        (["compute", "eigen", "--partition", "[]", "--n", "0"], "--n 0", 1),
        (["table", "P", "--n", "0"], "--n 0", 1),
        (["table", "binomial", "--max-size", "-1"], "--max-size -1", 0),
        (["table", "P", "--max-size", "-1"], "--max-size -1", 0),
        (["cache", "warm", "--n", "0", "--dir", d], "--n 0", 1),
        (["cache", "warm", "--max-size", "-1", "--dir", d],
         "--max-size -1", 0),
    ]
    for argv, flag, low in cases:
        assert main(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"machyper: {flag} is below the minimum "
                                f"of {low}\n")
    assert os.listdir(d) == []
    for value in ("0", "-1"):
        assert main(["verify", "B", "--n", value, "--draws", "1"]) \
            == EXIT_USAGE
        assert capsys.readouterr().out == ""


def test_verify_guards_before_work(monkeypatch, capsys):
    # oversized --n, --D and --draws stop before any draw or check runs
    import machyper.verify as verify
    def unreachable(*args, **kwargs):
        raise AssertionError("guarded verification reached the work")
    for name in ("draw_hyper_params", "check_two_alphabet",
                 "check_diagonal_match", "check_stability",
                 "check_single_alphabet", "check_factored_form",
                 "check_inverted_theorems", "check_single_variable",
                 "check_classical_limit"):
        monkeypatch.setattr(verify, name, unreachable)
    monkeypatch.setattr(verify.TruncatedSeries, "build", unreachable)
    sizes = {"n": 2, "D": 2, "draws": 1}
    for name, cap in (("n", MAX_SUITE_VARS), ("D", MAX_SUITE_DEGREE),
                      ("draws", MAX_SUITE_DRAWS)):
        argv = ["verify", "all"]
        for key, value in dict(sizes, **{name: cap + 1}).items():
            argv += [f"--{key}", str(value)]
        assert main(argv) == EXIT_RESOURCE
        assert capsys.readouterr().err == (
            f"machyper: resource guard: verification suites are capped at "
            f"{name} <= {cap}\n")
    assert main(["verify", "A", "--n", "2", "--D", "12", "--draws", "1"]) \
        == EXIT_RESOURCE


def test_verify_refuses_kaneko_at_one_variable(monkeypatch, capsys):
    # a selection with the kaneko suite at n = 1 is refused before any suite
    import machyper.verify as verify
    def unreachable(*args, **kwargs):
        raise AssertionError("refused selection ran a suite")
    monkeypatch.setattr(verify, "check_two_alphabet", unreachable)
    for suite in ("all", "kaneko"):
        assert main(["verify", suite, "--n", "1", "--D", "8",
                     "--draws", "3"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("machyper: factored second-order check "
                                "needs n >= 2\n")


def test_verify_refuses_mutation_outside_series(monkeypatch, capsys):
    # a --mutate partition with more than n parts or more than D boxes
    # would leave every series unmutated, so it is refused before any work;
    # so is one with more than one part when the univariate check, which
    # runs the series in one variable, is the only one selected
    import machyper.verify as verify
    def unreachable(*args, **kwargs):
        raise AssertionError("refused mutation reached the work")
    monkeypatch.setattr(verify, "draw_hyper_params", unreachable)
    monkeypatch.setattr(verify.TruncatedSeries, "build", unreachable)
    for suite, n, D, mut in (("all", "4", "3", "C[1,1,1,1]"),
                             ("all", "2", "3", "C[1,1,1]"),
                             ("all", "2", "2", "C[3]"),
                             ("univariate", "2", "3", "C[1,1]")):
        assert main(["verify", suite, "--n", n, "--D", D, "--draws", "1",
                     "--mutate", mut]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside the series" in captured.err


def test_parse_exponent_guard(monkeypatch, capsys):
    # the power is refused before it is expanded
    def unreachable(self, k):
        raise AssertionError("guarded power was expanded")
    monkeypatch.setattr(ratfunc.RatFuncQT, "__pow__", unreachable)
    for expr in (f"(1+q)^{MAX_EXPONENT + 1}", f"q^(-{MAX_EXPONENT + 1})"):
        with pytest.raises(ResourceGuardError):
            parse_param_expr(expr)
    assert main(["compute", "series", "--n", "1", "--D", "2", "--a",
                 f"t^{MAX_EXPONENT + 1}"]) == EXIT_RESOURCE
    assert "resource guard" in capsys.readouterr().err


def test_exit_usage(capsys):
    # --r disagrees with the number of --a flags
    assert main(["compute", "series", "--n", "1", "--D", "2",
                 "--r", "2", "--a", "1/2"]) == EXIT_USAGE
    capsys.readouterr()
    # --s disagrees with the number of --b flags
    assert main(["compute", "series", "--n", "1", "--D", "2",
                 "--s", "2", "--b", "1/2"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "machyper: --s 2 disagrees with 1 --b flags\n")
    # malformed expression
    assert main(["compute", "series", "--n", "1", "--D", "2",
                 "--a", "1+"]) == EXIT_USAGE
    capsys.readouterr()
    # division by zero in an expression is bad input, not an internal error
    assert main(["compute", "series", "--n", "1", "--D", "2",
                 "--a", "1/(1-1)"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "machyper: division by the zero polynomial (position 1)\n")
    # malformed partition
    assert main(["compute", "P", "--partition", "nope"]) == EXIT_USAGE
    capsys.readouterr()
    # missing required flag for the object
    assert main(["compute", "P"]) == EXIT_USAGE
    capsys.readouterr()
    # a flag the object does not read is refused, not silently ignored
    for argv, flag in (
            (["series", "--n", "2", "--D", "2", "--upper", "1/2",
              "--lower", "1/3"], "--upper"),
            (["series", "--lower", "[]"], "--lower"),
            (["series", "--a", "1/2", "--partition", "[1]"], "--partition"),
            (["P", "--partition", "[1]", "--a", "1/2"], "--a"),
            (["J", "--partition", "[1]", "--b", "1/3"], "--b"),
            (["Jstar", "--partition", "[1]", "--upper", "[1]"], "--upper"),
            (["eigen", "--partition", "[1]", "--r", "0"], "--r"),
            (["binomial", "--upper", "[1]", "--lower", "[]", "--s", "0"], "--s"),
            (["binomial", "--upper", "[1]", "--lower", "[]",
              "--partition", "[1]"], "--partition"),
            # the flags with a default are refused too when given
            (["P", "--partition", "[1]", "--level", "5", "--direction",
              "lower", "--flavor", "kaneko", "--D", "9"], "--D"),
            (["J", "--partition", "[1]", "--flavor", "kaneko"], "--flavor"),
            (["Jstar", "--partition", "[1]", "--level", "2"], "--level"),
            (["binomial", "--upper", "[1]", "--lower", "[]",
              "--direction", "lower"], "--direction"),
            (["eigen", "--partition", "[1]", "--D", "3"], "--D"),
            (["series", "--n", "1", "--level", "1"], "--level"),
            (["series", "--n", "1", "--direction", "raise"], "--direction")):
        assert main(["compute"] + argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"machyper: {flag} is not used by "
                                f"compute {argv[0]}\n")
    # a negative eigen operator level, in either direction
    for level, direction in (("-1", "raise"), ("-2", "raise"),
                             ("-1", "lower"), ("-2", "lower")):
        assert main(["compute", "eigen", "--partition", "[2,1]", "--n", "3",
                     "--level", level, "--direction", direction]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"machyper: eigen operator level {level} is negative\n")
    # unknown subcommand (argparse)
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_eigen_refuses_more_parts_than_variables(capsys):
    # the closed forms read only the first n parts; like the cover-sum
    # routes they refuse a longer partition instead of answering for [1,1]
    for direction in ("raise", "lower"):
        assert main(["compute", "eigen", "--partition", "[1,1,1]", "--n", "2",
                     "--direction", direction]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("machyper: partition [1,1,1] has more parts "
                                "than variables (n=2)\n")


def test_stats_flag_writes_one_json_line(capsys, monkeypatch, empty_store):
    # --stats adds one JSON line of machyper.stats to stderr and changes
    # neither stdout nor the exit code, on a pass, a failure and a guard
    runs = ((["verify", "C", "--n", "2", "--D", "2", "--draws", "1"], EXIT_PASS),
            (["verify", "univariate", "--D", "2", "--draws", "1",
              "--mutate", "C[1]"], EXIT_VERIFY_FAIL),
            (["compute", "P", "--partition", "[9,9,9]", "--n", "3"], EXIT_RESOURCE),
            (["cache", "dir"], EXIT_PASS))
    for argv, code in runs:
        assert main(argv) == code
        plain = capsys.readouterr()
        assert main(argv + ["--stats"]) == code
        counted = capsys.readouterr()
        assert counted.out == plain.out
        assert counted.err.startswith(plain.err)
        line = counted.err[len(plain.err):]
        assert line.endswith("\n") and line.count("\n") == 1
        snap = json.loads(line)
        assert set(snap) == set(stats.snapshot())
        assert all(isinstance(v, int) for v in snap.values())
        if argv[1] == "C":
            # the counts are this command's: the first run compiled each
            # transfer and made its columns, so the second reads every one
            # from the store
            assert snap["transfers_compiled"] == 0
            assert snap["transfers_reused"] > 0
            assert snap["transfer_columns_built"] == 0
            assert snap["transfer_columns_reused"] > 0
            # and the operator columns under them are all held
            assert snap["operator_columns_built"] == 0
            assert snap["operator_columns_held"] > 0
    # a basis build from an empty operator store builds and holds the
    # shift columns D_1(m_nu) of its triangular solve: for [3] at n = 3,
    # those of [3] and [2,1], the downset above its lowest partition
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    empty_store.cache_clear()
    assert main(["compute", "P", "--partition", "[3]", "--n", "3",
                 "--stats"]) == EXIT_PASS
    snap = json.loads(capsys.readouterr().err)
    assert snap["operator_columns_built"] == 2
    assert snap["operator_columns_held"] == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_PASS
    capsys.readouterr()


# ---------------------------------------------------------------------------
# cache management

def test_cache_flow(tmp_path, capsys):
    d = str(tmp_path / "cachedir")
    assert main(["cache", "dir", "--dir", d]) == EXIT_PASS
    assert capsys.readouterr().out.strip() == d
    assert main(["cache", "warm", "--dir", d, "--n", "2",
                 "--max-size", "2"]) == EXIT_PASS
    assert "cached 4 entries" in capsys.readouterr().out
    assert main(["cache", "list", "--dir", d]) == EXIT_PASS
    names = capsys.readouterr().out.split()
    assert len(names) == 4 and all(n.startswith("P_") for n in names)
    assert main(["cache", "clear", "--dir", d]) == EXIT_PASS
    assert "removed 4" in capsys.readouterr().out
    assert main(["cache", "list", "--dir", d]) == EXIT_PASS
    assert capsys.readouterr().out.strip() == ""


def test_cache_refuses_size_flags_it_does_not_read(tmp_path, capsys):
    # only warm reads --n and --max-size; dir, list and clear refuse them
    # before the directory is touched, and warm keeps its defaults
    d = str(tmp_path / "cachedir")
    assert main(["cache", "warm", "--dir", d, "--n", "2",
                 "--max-size", "2"]) == EXIT_PASS
    capsys.readouterr()
    kept = sorted(os.listdir(d))
    assert len(kept) == 4
    fresh = str(tmp_path / "fresh")
    for action in ("dir", "list", "clear"):
        for flags, flag in ((["--n", "3"], "--n"),
                            (["--max-size", "9"], "--max-size"),
                            (["--n", "3", "--max-size", "9"], "--n")):
            for where in (d, fresh):
                argv = ["cache", action] + flags + ["--dir", where]
                assert main(argv) == EXIT_USAGE, argv
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == (f"machyper: {flag} is not used by "
                                        f"cache {action}\n")
    assert sorted(os.listdir(d)) == kept
    assert not os.path.exists(fresh)
    assert main(["cache", "warm", "--dir", fresh]) == EXIT_PASS
    assert capsys.readouterr().out == (
        f"cached {len(enumerate_partitions(4, 2))} entries under {fresh}\n")


def test_cache_requires_directory(monkeypatch, capsys):
    monkeypatch.delenv("MACHYPER_CACHE_DIR", raising=False)
    assert main(["cache", "dir"]) == EXIT_PASS
    assert capsys.readouterr().out.strip() == "(memory only)"
    assert main(["cache", "clear"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["cache", "warm"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "machyper: no cache directory "
                                   "configured (set MACHYPER_CACHE_DIR or "
                                   "pass --dir)\n")


def test_cache_env_var(monkeypatch, tmp_path, capsys):
    # without --dir the command line, not the library, reads the variable
    d = str(tmp_path / "envcache")
    monkeypatch.setenv("MACHYPER_CACHE_DIR", d)
    assert main(["cache", "dir"]) == EXIT_PASS
    assert capsys.readouterr().out.strip() == d
    assert main(["compute", "P", "--partition", "[1]", "--n", "2"]) == EXIT_PASS
    assert capsys.readouterr().out == "P[1] (n=2) = m[1]\n"
    assert os.listdir(d) == ["P_n2_1.json"]


# ---------------------------------------------------------------------------
# module entry point

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "machyper", "compute", "P",
         "--partition", "[1]", "--n", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "P[1] (n=2) = m[1]\n"
