"""CLI behaviour: verbs, JSON/text agreement, scripts and exit codes."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from omegacalc import (cli, number_from_json, parse_number, parse_number_expr,
                       parse_ordinal)
from omegacalc.cli import Options, main, run_line, run_script
from omegacalc.errors import CalcError, OutputTooLarge, ParseError
from omegacalc.exprs import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent

O = Options()
OJ = Options(json=True)


def test_eval_and_nf():
    assert run_line("nf (w+1)*(w-1)", O) == "w^2*1 + -1"
    assert run_line("eval exp(w*eps[0])", O) == "eps[0]"
    out = run_line("eval 1/(w+1)", Options(max_terms=4))
    assert out == "w^-1*1 + w^-2*-1 + w^-3*1 + w^-4*-1 (inexact)"


# A cut answer prints only its true terms: those above its order, the
# exponent where the first left-out term of a cut series starts to count.
# Compared with --max-terms 40, the parent printed 13, 15 and 17 terms for
# the last three, of which only these were true.
@pytest.mark.parametrize("line, count, order", [
    ("eval 1/(w+1) + w^-20", 8, -9),     # no w^-20 term below the order
    ("eval 1/(w+1+w^-1)", 6, -9),        # the true w^-3 coefficient is 0
    ("eval exp(w^-1+w^-2)", 8, -8),
    ("eval ln(w+1+w^-1)", 9, -9),
])
def test_a_cut_answer_prints_only_its_true_terms(line, count, order):
    text = run_line(line, O)
    assert text.endswith(" (inexact)")
    assert text.count(" + ") + 1 == count
    data = json.loads(run_line(line, OJ))
    assert data["exact"] is False and len(data["value"]) == count
    assert data["order"] == [[[], [order, 1]]]
    true = parse_number_expr(line[len("eval "):], 40).value.terms
    assert parse_number_expr(line[len("eval "):]).value.terms == true[:count]


def test_only_a_cut_answer_has_an_order_key():
    assert set(json.loads(run_line("eval 1/w", OJ))) == {"exact", "value"}
    assert set(json.loads(run_line("eval 0*(1/(w+1))", OJ))) == \
        {"exact", "value"}
    # a non-real order is written as the Number it is
    data = json.loads(run_line("eval 1/(w^(w)+1)", Options(max_terms=2,
                                                              json=True)))
    assert number_from_json(data["order"]) == parse_number("w*(-3)")


def test_eval_json_agrees_with_text():
    for expr in ("(w+1)*(w-1)", "exp(w*eps[0])", "w^(1/2) + 2/3"):
        text = run_line("nf %s" % expr, O).replace(" (inexact)", "")
        data = json.loads(run_line("nf %s" % expr, OJ))
        assert number_from_json(data["value"]) == parse_number(text)


def test_cmp():
    assert run_line("cmp w ;; w - 1", O) == "GT"
    assert run_line("cmp 1/2 + 1/2 ;; 1", O) == "EQ"
    assert json.loads(run_line("cmp 0 ;; 1/w", OJ)) == {"result": "LT"}


# 1/(1+w^-1) is cut after w^-7 at the default 8 terms, at the order w^-8, so
# cmp compares the cut sum; the true difference from SERIES_7 is w^-8 - w^-9
# + ..., so GT, but the values agree above the order
SERIES_7 = "1 - w^-1 + w^-2 - w^-3 + w^-4 - w^-5 + w^-6 - w^-7"


@pytest.mark.parametrize("line, verdict", [
    ("cmp 1/(1+w^-1) ;; " + SERIES_7, "EQ"),
    ("cmp 1/(1+w^-1) ;; " + SERIES_7 + " + w^-9", "LT"),
    ("cmp 1/(1+w^-1) - 1/(1+w^-1) ;; 0", "EQ"),
])
def test_cmp_of_a_cut_series_is_marked(line, verdict):
    assert run_line(line, O) == verdict + " (inexact)"
    assert json.loads(run_line(line, OJ)) == {"result": verdict,
                                              "exact": False}


@pytest.mark.parametrize("line, verdict", [
    ("cmp 1 ;; 1/(1+w^-1)", "GT"),                    # differ at w^-1
    ("cmp 1/(1+w^-1) ;; " + SERIES_7 + " + w^-7*2", "LT"),     # at w^-7
    ("cmp w^-8 ;; 1/(w+1) - 1/(w+1)", "GT"),   # at w^-8, order w^-9
    ("cmp 1/(w+1)*w^2 ;; w", "LT"),                  # at 1, order w^-7
])
def test_a_certain_cmp_of_a_cut_series_is_unmarked(line, verdict):
    # the values differ at an exponent above both orders, where the true
    # values differ alike: no mark, and no "exact" key in the JSON answer
    assert run_line(line, O) == verdict
    assert json.loads(run_line(line, OJ)) == {"result": verdict}


def test_cmp_of_exact_operands_is_unmarked():
    # a monomial's inverse and a rational divisor are exact: no mark, and
    # no "exact" key in the JSON answer
    assert run_line("cmp 1/w ;; 0", O) == "GT"
    assert run_line("cmp (w+1)/2 ;; w/2", OJ) == '{"result": "GT"}'


def test_ord():
    assert run_line("ord (w+1) (+) (w+1)", O) == "w*2 + 2"
    assert run_line("ord 2 * w", O) == "w"
    assert run_line("ord (w+1) (*) (w+1)", O) == "w^2 + w*2 + 1"


def test_gap():
    assert run_line("gap add(w, +)", O) == "+inf_{w*2}"
    assert run_line("gap dyadic(3, -)", O) == "+inf_{3 + w^-1*-1}"
    data = json.loads(run_line("gap ordinal(w)", OJ))
    assert data["sign"] == "+"


def test_gap_ramp_takes_one_argument():
    # a ramp takes exactly one ordinal; extra arguments are not dropped
    for line in ("gap ordinal(w, junk)", "gap harmonic(w,,)",
                 "gap ordinal(w, 2)"):
        with pytest.raises(ParseError, match="expected"):
            run_line(line, O)


@pytest.mark.parametrize("game, value", [
    ("dyadic({0,1|2}, +)", "dyadic(3/2, +)"),
    ("add({0,1|}, -)", "add(2, -)"),
    ("scaledharmonic({1,2|3}, +)", "scaledharmonic(5/2, +)"),
])
def test_a_comma_inside_a_game_base_belongs_to_the_game(game, value):
    def outcome(line):
        try:
            return run_line(line, O)
        except (ParseError, CalcError) as exc:
            return type(exc), str(exc)
    assert outcome("gap " + game) == outcome("gap " + value)
    assert run_line("gap dyadic({0,1|2}, +)", O) == "+inf_{3/2 + w^-1*1}"


def test_jumps():
    data = json.loads(run_line("jumps w^2", OJ))
    assert data["census"] == {"w": "w", "w^2": "1"}
    assert data["embeddable"] is True
    data = json.loads(run_line("jumps w*2", OJ))
    assert data["census"] == {"w": "2"}
    assert data["embeddable"] is False


def test_leftright():
    out = run_line("leftright 3", O).splitlines()
    assert out[0] == "L: 0, 1/2, 5/8"
    assert out[1] == "R: 1, 3/4, 11/16"
    data = json.loads(run_line("leftright 6", OJ))
    assert data["limit"] == "2/3"
    # too few steps to pin the limit: a CalcError, not ZeroDivisionError
    for steps in (1, 2, 3):
        with pytest.raises(CalcError):
            run_line("leftright %d" % steps, OJ)


def test_skand_verbs():
    assert run_line("skand at cycle(1,2,3) @ [0,w^2) ;; w+4", O) == "2"
    assert run_line("skand strictly cycle(1,2,3) @ [0,w^2) ;; 3", O) == "true"
    assert run_line("skand strictly cycle(1,2,3) @ [0,w*3) ;; 3", O) == "false"
    assert run_line("skand eq const({a}) @ [0,w) ;; const({a}) @ [5,w)",
                    O) == "true"
    assert run_line("skand minperiod cycle(a,b,a,b,c) @ [0,w)", O) == "5"
    assert run_line("skand reflexive const({a}) @ [0,w*2)", O) == "true"
    assert run_line("skand selfsimilar const({a}) @ [0,w*2)", O) == "false"
    out = run_line("skand render const({1}) @ [0,w)", Options(depth=3))
    assert out == "{1,{1,{1,{...}}}} @ [0, w)"
    assert run_line("skand coords const({a}) @ [1,w) ;; 2", O) == \
        "[(-1, 1), (-1/2, 1/2)]"


def test_equal_skands_normalize_and_encode_alike():
    pairs = [("const(a):w;const(a):1;cycle(b,a):w;cycle(a,b) @ [0,w^2)",
              "const(a):w;cycle(a,b) @ [0,w^2)"),
             ("cycle(b,a):w;cycle(a,b) @ [0,w^2)",
              "const(b):1;cycle(a,b) @ [0,w^2)")]
    for x, y in pairs:
        assert run_line("skand eq %s ;; %s" % (x, y), O) == "true"
        for op in ("normalize", "encode"):
            assert run_line("skand %s %s" % (op, x), O) == \
                run_line("skand %s %s" % (op, y), O), (op, x, y)


def test_leftright_zero_is_a_parse_error():
    with pytest.raises(ParseError):
        run_line("leftright 0", O)


def test_leftright_non_integer_is_a_parse_error():
    with pytest.raises(ParseError):
        run_line("leftright abc", O)


@pytest.mark.parametrize("line, position, message", [
    ("leftright 1_0", 10, "leftright steps must be an integer, got '1_0'"),
    ("skand coords const({a}) @ [0,w) ;; 0_2", 35,
     "prefix must be an integer, got '0_2'"),
    # another script's digits (Arabic-Indic here) are a bad character in an
    # expression or a set term, and no integer argument
    ("eval \u0661\u0662", 5, "unexpected character '\u0661'"),
    ("ord w*\u0663", 6, "unexpected character '\u0663'"),
    ("coskand toset {\u0663}", 15, "unexpected character '\u0663'"),
    ("leftright \u0661\u0662", 10,
     "leftright steps must be an integer, got '\u0661\u0662'"),
    ("skand coords const(a) @ [0,w) ;; \u0663", 33,
     "prefix must be an integer, got '\u0663'"),
])
def test_a_count_is_a_run_of_decimal_digits(line, position, message):
    # int() takes '_' separators and other scripts' digits; a count, like an
    # integer in eval, takes neither
    with pytest.raises(ParseError, match=message) as exc:
        run_line(line, O)
    assert exc.value.position == position
    assert _error_position(line, True) == position


def test_an_atom_led_by_a_letter_keeps_other_digits():
    assert run_line("coskand toset {x\u0663}", O) == "{x\u0663}"


def test_coords_non_integer_prefix_is_a_parse_error():
    with pytest.raises(ParseError):
        run_line("skand coords const({a}) @ [1,w) ;; x", O)
    with pytest.raises(ParseError):
        run_line("coskand coords const({a}) @ [1,w) ;; x", O)


def test_coords_mark_a_truncated_coordinate():
    # 1/w is exact; 1/(w+1) and 1/(w+2) are cut at max_terms 8
    line = "skand coords const({a}) @ [w,w*2) ;; 3"
    text = run_line(line, O)
    assert text.startswith("[(w^-1*-1, w^-1*1), (w^-1*-1 + w^-2*1 + ")
    assert text.endswith("w^-8*-128)] (inexact)")
    data = json.loads(run_line(line, OJ))
    assert data["exact"] is False and data["text"] == text
    hi = number_from_json(data["value"][1][1])
    assert len(hi.terms) == 8 and hi.terms[1][1] == -1
    # finite positions, and every coskand coordinate, are exact
    for line in ("skand coords const({a}) @ [1,w) ;; 2",
                 "skand coords const({a}) @ [w,w*2) ;; 1",
                 "coskand coords const({a}) @ [w,w*2) ;; 3"):
        assert not run_line(line, O).endswith(" (inexact)"), line
        assert json.loads(run_line(line, OJ))["exact"] is True, line


def test_coords_honour_max_terms():
    # a transfinite position's 1/a is cut where eval cuts it
    two = Options(max_terms=2)
    text = run_line("skand coords const({a}) @ [w+1,w*2) ;; 1", two)
    assert text == "[(w^-1*-1 + w^-2*1, w^-1*1 + w^-2*-1)] (inexact)"
    assert text == "[(%s, %s)] (inexact)" % (
        run_line("eval -1/(w+1)", two)[:-len(" (inexact)")],
        run_line("eval 1/(w+1)", two)[:-len(" (inexact)")])
    data = json.loads(run_line("skand coords const({a}) @ [w+1,w*2) ;; 1",
                               Options(max_terms=2, json=True)))
    assert data["exact"] is False
    assert [len(number_from_json(x).terms) for x in data["value"][0]] == [2, 2]


def test_max_terms_below_one_is_a_parse_error(tmp_path, capsys):
    for line in ("eval 1/(w+1)",
                 "skand coords const({a}) @ [w+1,w*2) ;; 2",
                 "coskand coords const({a}) @ [w+1,w*2) ;; 2"):
        with pytest.raises(ParseError, match="max_terms must be >= 1, got 0"):
            run_line(line, Options(max_terms=0))
    script = tmp_path / "s.calc"
    script.write_text("eval 1/(w+1)\n")
    for flag in ("--max-terms", "--depth"):
        with pytest.raises(SystemExit) as exc:
            main([str(script), flag, "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


def test_depth_below_one_is_a_parse_error():
    for line in ("skand render cycle({a},{b}) @ [0,w)",
                 "skand restrict const({a}) @ [0,w*2) ;; w",
                 "coskand render const({}) @ [0,w)",
                 "solve reflexive {}"):
        with pytest.raises(ParseError, match="depth must be >= 1"):
            run_line(line, Options(depth=0))


def test_deep_nesting_is_a_parse_error():
    deep = "(" * 3000 + "1" + ")" * 3000
    for line in ("eval " + deep, "ord " + deep, "eval " + "w^(" * 3000 + "1"
                 + ")" * 3000, "ord " + "w^" * 3000 + "w",
                 "skand normalize const(" + "{" * 3000 + "}" * 3000
                 + ") @ [0,w)"):
        with pytest.raises(ParseError, match="nested more than"):
            run_line(line, O)
    assert run_line("eval " + "(" * 100 + "w" + ")" * 100, O) == "w*1"
    assert run_line("eval " + "-" * 3001 + "1", O) == "-1"


def test_coskand_verbs():
    assert run_line("coskand kind const({}) @ [0,w)", O) == "individual"
    assert run_line("coskand kind const({}) @ [0,w+2)", O) == "founded-set"
    assert run_line("coskand toset {b,{{a}}}", O) == "{b,{{a}}}"
    assert run_line("coskand eq const({}) @ [0,w) ;; asc const({}) @ [3,w)",
                    O) == "true"


def test_solve_verbs():
    assert run_line("solve reflexive {}", Options(depth=2)) == \
        "{{{...}}} @ [0, w)"
    assert run_line("solve check reflexive {} ;; const({}) @ [0,w^2)",
                    O) == "true"
    assert run_line("solve check periodic {a} ;; {b} ;; cycle({a},{b}) @ [0,w)",
                    O) == "true"
    assert run_line("solve check periodic {a} ;; {b} ;; cycle({b},{a}) @ [0,w)",
                    O) == "false"


def test_errors_raise():
    with pytest.raises(ParseError):
        run_line("frobnicate 1", O)
    with pytest.raises(CalcError):
        run_line("eval 1/0", O)
    with pytest.raises(ParseError):
        run_line("eval w +", O)


def test_deterministic_output():
    line = "eval exp(eps[0])"
    assert run_line(line, O) == run_line(line, O)


def test_scripts(tmp_path, capsys):
    empty = tmp_path / "empty.calc"
    empty.write_text("")
    assert run_script(str(empty), O) == 0
    assert capsys.readouterr().out == ""

    good = tmp_path / "good.calc"
    good.write_text("# a comment\nnf w + 1\n\ncmp 0 ;; 1\n")
    assert run_script(str(good), O) == 0
    assert capsys.readouterr().out == "w*1 + 1\nLT\n"

    bad = tmp_path / "bad.calc"
    bad.write_text("nf w + 1\neval 1/0\nnf 2\n")
    strict = Options(strict=True)
    assert run_script(str(bad), strict) == 1
    out = capsys.readouterr()
    assert out.out == "w*1 + 1\n"
    assert run_script(str(bad), O) == 1
    out = capsys.readouterr()
    assert out.out == "w*1 + 1\n2\n"

    syn = tmp_path / "syn.calc"
    syn.write_text("nf w +\n")
    assert run_script(str(syn), O) == 2


def test_main_entry(tmp_path, capsys):
    script = tmp_path / "s.calc"
    script.write_text("jumps w^2\n")
    assert main([str(script), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["census"] == {"w": "w", "w^2": "1"}
    assert main([str(tmp_path / "missing.calc")]) == 1


def test_golden_script(capsys):
    import pathlib
    golden = pathlib.Path(__file__).resolve().parent.parent / "golden.calc"
    assert run_script(str(golden), Options(strict=True)) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert len(out.out.splitlines()) >= 30


def test_repl_pipe():
    # the child imports the omegacalc this process imported, wherever
    # that is on the path
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(pathlib.Path(cli.__file__).parents[1]),
        os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "omegacalc.cli"], env=env,
        input="nf w + 1\nquit\n", text=True, capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "w*1 + 1"
    proc = subprocess.run(
        [sys.executable, "-m", "omegacalc.cli"], env=env,
        input="eval 1/0\nnf 3\n", text=True, capture_output=True)
    assert proc.returncode == 0
    assert "error" in proc.stdout and "3" in proc.stdout


def test_golden_output_matches_snapshot(capsys):
    golden = str(ROOT / "golden.calc")
    expected = (ROOT / "tests" / "golden.out").read_text()
    assert run_script(golden, Options(strict=True)) == 0
    assert capsys.readouterr().out == expected
    # the JSON [num, den] pairs are where a slip in a rational's spelling
    # would show, so the JSON answers are pinned byte for byte too
    assert run_script(golden, Options(strict=True, json=True)) == 0
    assert capsys.readouterr().out == \
        (ROOT / "tests" / "golden.jsonl").read_text()


@pytest.mark.parametrize("seed", ["1", "2"])
def test_golden_output_does_not_depend_on_string_hashing(seed):
    # atoms hash as strings, so set iteration order follows PYTHONHASHSEED;
    # the renderers' canonical sort must keep text and JSON fixed
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    for flags, snapshot in (([], "golden.out"), (["--json"], "golden.jsonl")):
        proc = subprocess.run(
            [sys.executable, "-m", "omegacalc.cli", str(ROOT / "golden.calc")]
            + flags, env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, (ROOT / "tests" / snapshot).read_text(), "")


_LONG = 5000   # digits, more than int() converts by default


@pytest.mark.parametrize("line, position, what", [
    ("eval " + "1" * _LONG, 5, "integer literal"),
    ("ord w*" + "1" * _LONG, 6, "integer literal"),
    ("eval w^" + "2" * _LONG, 7, "integer literal"),
    ("skand eq const(a):" + "1" * _LONG
     + ";const(b) @ [0,w) ;; const(a) @ [0,w)", 18, "integer literal"),
    ("leftright " + "1" * _LONG, 10, "leftright steps"),
])
def test_an_over_long_integer_is_a_parse_error_where_it_stands(
        tmp_path, capsys, line, position, what):
    limit = sys.get_int_max_str_digits()
    message = "%s has more than %d digits" % (what, limit)
    with pytest.raises(ParseError, match=message) as exc:
        run_line(line, O)
    assert exc.value.position == position
    script = tmp_path / "long.calc"
    script.write_text(line + "\n")
    assert main([str(script), "--json"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["kind"], error["position"]) == ("ParseError", position)


_NINES = "9" * 4300   # a literal int() accepts; a product of two does not


@pytest.mark.parametrize("line", [
    "eval %s*%s" % (_NINES, _NINES),
    "ord w*%s*%s" % (_NINES, _NINES),
    "nf w^(%s*%s)" % (_NINES, _NINES),
    "leftright 15000",
    # the int string limit also bounds the error messages built on the way
    "skand render const(a) @ [w*%s*%s, 1)" % (_NINES, _NINES),
    "skand at const(a) @ [0,w) ;; w*%s*%s" % (_NINES, _NINES),
], ids=["eval", "ord", "nf", "leftright", "render", "at"])
@pytest.mark.parametrize("as_json", [False, True])
def test_an_answer_with_an_over_long_integer_is_a_calc_error(
        tmp_path, capsys, line, as_json):
    message = "the answer has an integer of more than %d digits" \
        % sys.get_int_max_str_digits()
    script = tmp_path / "big.calc"
    script.write_text(line + "\n")
    assert main([str(script)] + ["--json"] * as_json) == 1
    out = capsys.readouterr()
    if as_json:
        assert json.loads(out.out) == {"error": {
            "kind": "OutputTooLarge", "message": message, "position": None}}
    else:
        assert (out.out, out.err) == ("", "error on line 1: %s\n" % message)


def test_leftright_refuses_a_long_denominator_at_the_exact_step():
    # 2^2127 is the first power of two over 640 digits: n steps end on the
    # denominator 2^(n+1), so 2126 is the first count refused for it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(OutputTooLarge, match="the answer has an integer "
                           "of more than 640 digits"):
            run_line("leftright 2126", O)
        with pytest.raises(OutputTooLarge, match="the answer has more than "
                           "1048576 characters"):
            run_line("leftright 2125", O)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("line", [
    "skand encode const(a) @ [w,w*22)",
    "skand encode const(a) @ [w,w*74)",
    "skand encode const({}) @ [0,40)",
    "skand encode cycle(a,b):100;const(c) @ [0,w)",
], ids=["w*22", "w*74", "const-40", "cycle-100"])
@pytest.mark.parametrize("as_json", [False, True])
def test_an_encoding_over_the_output_budget_is_a_calc_error(
        tmp_path, capsys, line, as_json):
    # nat_code(n) prints at least 2^n characters, so the size is known
    # before any set term is built
    message = "the answer has more than %d characters" \
        % cli.exprs.MAX_OUTPUT
    script = tmp_path / "big.calc"
    script.write_text(line + "\n")
    assert main([str(script)] + ["--json"] * as_json) == 1
    out = capsys.readouterr()
    if as_json:
        assert json.loads(out.out) == {"error": {
            "kind": "OutputTooLarge", "message": message, "position": None}}
    else:
        assert (out.out, out.err) == ("", "error on line 1: %s\n" % message)


def test_an_encoding_under_the_output_budget_still_answers():
    assert len(run_line("skand encode const(a) @ [w,w*16)", O)) == 82025


@pytest.mark.parametrize("line", [
    # nat_code(n) prints 5*2^(n-1) - 1 characters: n = 19 and 20 pass the
    # 2^n check, and the size fold over the code's DAG refuses them
    "skand encode const(a) @ [w,w*20)",
    "skand encode const(a) @ [w,w*21)",
    # each pair prints at least '(x, y), ', and 131 073 * 8 > 2^20
    "skand coords const(a) @ [0,w) ;; 131073",
    "coskand coords const(a) @ [0,w) ;; 1000000000",
    # one census entry of at least 'w: 1; ' per v in 1..1000000
    "jumps w^1000000",
    # halving k prints at least 2^k over 2^(k+1)
    "leftright 3000",
], ids=["encode-w*20", "encode-w*21", "coords", "coskand-coords", "jumps",
        "leftright"])
@pytest.mark.parametrize("as_json", [False, True])
def test_an_answer_over_the_output_budget_is_refused_before_it_is_built(
        tmp_path, capsys, line, as_json):
    message = "the answer has more than %d characters" % cli.exprs.MAX_OUTPUT
    script = tmp_path / "big.calc"
    script.write_text(line + "\n")
    assert main([str(script)] + ["--json"] * as_json) == 1
    out = capsys.readouterr()
    if as_json:
        assert json.loads(out.out) == {"error": {
            "kind": "OutputTooLarge", "message": message, "position": None}}
    else:
        assert (out.out, out.err) == ("", "error on line 1: %s\n" % message)


def test_answers_under_the_output_budget_still_print():
    # 19 pairs of nat_code(19) text fit; its JSON does not
    assert len(run_line("skand encode const(a) @ [w,w*19)", O)) == 655465
    with pytest.raises(CalcError, match="more than"):
        run_line("skand encode const(a) @ [w,w*19)", OJ)
    assert len(run_line("skand coords const(a) @ [0,w) ;; 20000", O)) \
        == 397772
    # a finite region bounds the pairs whatever the prefix
    assert run_line("skand coords const({a}) @ [0,5) ;; 100000000", O) \
        .count("(") == 5
    assert len(run_line("jumps w^10000", O)) == 157848
    assert len(run_line("leftright 1800", O)) == 983860


def _check_the_budget_is_exact(monkeypatch, line, options):
    """`line` prints the same answer at a budget of its own length, and is
    refused one character below it."""
    answer = run_line(line, options)
    monkeypatch.setattr(cli.exprs, "MAX_OUTPUT", len(answer))
    assert run_line(line, options) == answer
    monkeypatch.setattr(cli.exprs, "MAX_OUTPUT", len(answer) - 1)
    with pytest.raises(OutputTooLarge, match="^the answer has more than "
                       "%d characters$" % (len(answer) - 1)):
        run_line(line, options)


@pytest.mark.parametrize("line", [
    "skand encode cycle({a},b,{}):3;const({}) @ [w,w*4)",
    "skand encode const(a) @ [w,w*16)",
    "skand at const({aé,ab,{x𝔸,x٣}}) @ [0,w) ;; 2",
    "coskand toset cycle({a},{}) @ [0,7)",
    "coskand at const({}) @ [0,w) ;; 3",
])
@pytest.mark.parametrize("options", [O, OJ], ids=["text", "json"])
def test_the_set_term_budget_counts_the_printed_answer_exactly(
        monkeypatch, line, options):
    # shared subterms, and non-ASCII atoms, which json escapes as \uXXXX
    _check_the_budget_is_exact(monkeypatch, line, options)


@pytest.mark.parametrize("line", [
    # 1 897 characters in text, 6 590 in JSON: 125 pairs pass 8 * 125
    "skand coords const(a) @ [0,w) ;; 125",
    # 2 170 / 2 871: 166 census entries pass 6 * 166
    "jumps w^166",
    # 1 148 / 1 289: 55 dyadics pass the digit bound
    "leftright 54",
    # 1 117 / 4 316: normalize has no guard
    "skand normalize cycle(a,b):100;const(c) @ [0,w)",
], ids=["coords", "jumps", "leftright", "normalize"])
@pytest.mark.parametrize("options", [O, OJ], ids=["text", "json"])
def test_an_answer_that_passes_the_cost_guards_is_refused_when_written(
        monkeypatch, line, options):
    assert len(run_line(line, options)) > 1000
    monkeypatch.setattr(cli.exprs, "MAX_OUTPUT", 1000)
    with pytest.raises(OutputTooLarge, match="more than 1000 characters"):
        run_line(line, options)


@pytest.mark.parametrize("options", [O, OJ], ids=["text", "json"])
def test_a_normalize_answer_over_the_output_budget_is_refused(options):
    # 1 100 017 characters in text
    with pytest.raises(OutputTooLarge, match="the answer has more than"):
        run_line("skand normalize cycle(a,b):100000;const(c) @ [0,w)",
                 options)


def test_a_census_has_one_entry_of_six_characters_per_exponent():
    # the claim that refuses 'jumps' from the leading exponent alone
    for text in ("w", "w*3", "w^2", "w^2+w", "w^5*2+w^3+w", "w^9+w^4*7"):
        lam = parse_ordinal(text)
        rep = cli.gaps.jump_report(lam)
        lead = lam.terms[0][0]
        assert [size for size, _ in rep.census] == \
            [parse_ordinal("w^%d" % v) for v in range(1, lead + 1)]
        shown = cli._census(rep)
        assert len(shown) == lead and all(
            len("%s: %s; " % kv) >= 6 for kv in shown.items())


def test_a_json_answer_with_shared_subterms_dumps_as_by_default():
    # setterm_to_json shares the list of a repeated subterm: a DAG, which
    # run_line dumps without the encoder's cycle markers
    arg = "cycle({a},b,{}):3;const({}) @ [w,w*4)"
    tree = cli.SETTERM[1](
        cli.skands.encode_skand(cli.exprs.parse_skand(arg)), OJ)
    seen, shared = set(), []

    def walk(t):
        if isinstance(t, list):
            if id(t) in seen:
                shared.append(t)
            seen.add(id(t))
            for e in t:
                walk(e)
    walk(tree["value"])
    assert shared
    assert run_line("skand encode " + arg, OJ) == \
        json.dumps(tree, sort_keys=True)


def test_only_the_int_string_limit_is_output_too_large(monkeypatch):
    def refuse(o):
        raise ValueError("some other refusal")
    monkeypatch.setattr(cli.exprs, "render_ordinal", refuse)
    with pytest.raises(ValueError, match="some other refusal"):
        run_line("ord w", O)


def test_a_long_digit_atom_is_still_an_atom():
    # a set term reads a run of digits as an atom's name, never as an int
    atom = "7" * _LONG
    assert run_line("skand at const(%s) @ [0,w) ;; 3" % atom, O) == atom


def test_coskand_toset_with_atom_components_is_a_calc_error():
    with pytest.raises(CalcError, match="must be set terms"):
        run_line("coskand toset const(a) @ [0,3)", O)


def test_errors_under_json_print_the_envelope(tmp_path, capsys):
    script = tmp_path / "s.calc"
    script.write_text("eval w +\nnf 2\neval 1/0\n")
    assert main([str(script), "--json"]) == 2
    out = capsys.readouterr()
    assert out.err == ""
    first, second, third = (json.loads(x) for x in out.out.splitlines())
    # the position indexes the line "eval w +", not the argument "w +"
    assert first == {"error": {"kind": "ParseError", "position": 8,
                               "message": "expected a number (at position 8)"}}
    assert second["value"] == [[[], [2, 1]]]
    assert third["error"]["kind"] == "DivisionByZero"
    assert third["error"]["position"] is None
    assert isinstance(third["error"]["message"], str)
    # text mode keeps its messages, on stderr
    assert main([str(script)]) == 2
    out = capsys.readouterr()
    assert out.out == "2\n"
    assert out.err.splitlines()[0].startswith("parse error on line 1: ")
    assert out.err.splitlines()[1].startswith("error on line 3: ")
    assert main([str(tmp_path / "missing.calc"), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "IoError"


# -- the verb contract ---------------------------------------------------
#
# One valid line per key of cli.VERBS.  Every answer is a str or a
# ParseError/CalcError, and under --json every answer is one JSON object.

EXAMPLES = {
    "eval": "eval 1/(w+1)",
    "nf": "nf (w+1)*(w-1)",
    "cmp": "cmp w ;; w - 1",
    "ord": "ord (w+1) (+) (w+1)",
    "gap": "gap add(w, +)",
    "jumps": "jumps w^2",
    "leftright": "leftright 6",
    "skand render": "skand render const({1}) @ [0,w)",
    "skand normalize": "skand normalize cycle(a,a):w;cycle(b,a) @ [0,w*2)",
    "skand eq": "skand eq const({a}) @ [0,w) ;; const({a}) @ [5,w)",
    "skand at": "skand at cycle(1,2,3) @ [0,w^2) ;; w+4",
    "skand restrict": "skand restrict const({a}):w;const({b}) @ [0,w*2) ;; 3",
    "skand reflexive": "skand reflexive const({a}) @ [0,w*2)",
    "skand selfsimilar": "skand selfsimilar const({a}) @ [0,w^2)",
    "skand weakly": "skand weakly cycle(1,2,3) @ [0,w^2) ;; 3",
    "skand periodic": "skand periodic cycle(1,2,3) @ [0,w*3) ;; w",
    "skand strictly": "skand strictly cycle(1,2,3) @ [0,w^2) ;; 3",
    "skand minperiod": "skand minperiod cycle(a,b,a,b,c) @ [0,w)",
    "skand encode": "skand encode const({}) @ [0,w)",
    "skand coords": "skand coords const({a}) @ [1,w) ;; 2",
    "coskand render": "coskand render const({a}):1;const({}):1;const({b}) "
                      "@ [0,3)",
    "coskand eq": "coskand eq const({}) @ [0,w) ;; asc const({}) @ [3,w)",
    "coskand at": "coskand at const({a}):1;const({b}) @ [0,w) ;; 3",
    "coskand kind": "coskand kind const({}) @ [0,w)",
    "coskand toset": "coskand toset {b,{{a}}}",
    "coskand coords": "coskand coords {{a},{}} ;; 3",
    "solve reflexive": "solve reflexive {a}",
    "solve periodic": "solve periodic {a} ;; {b}",
    "solve extraordinary": "solve extraordinary {a} ;; {b} ;; {c}",
    "solve check": "solve check periodic {a} ;; {b} ;; "
                   "cycle({a},{b}) @ [0,w)",
}
JUNK = "$#!~\t{}()[];,:@^*+-|.ωε…½"


def test_every_verb_has_an_example():
    assert set(EXAMPLES) == set(cli.VERBS)


def test_every_example_answers_in_text_and_json():
    for key, line in EXAMPLES.items():
        text = run_line(line, O)
        data = json.loads(run_line(line, OJ))
        assert isinstance(data, dict), key
        # the formerly text-only forms carry their text line verbatim
        assert data.get("text", text) == text, key


@pytest.mark.parametrize("key", sorted(EXAMPLES))
@pytest.mark.parametrize("options", [O, OJ], ids=["text", "json"])
def test_the_output_budget_is_exact_on_every_verb(monkeypatch, key, options):
    _check_the_budget_is_exact(monkeypatch, EXAMPLES[key], options)


@st.composite
def mutated_lines(draw):
    line = EXAMPLES[draw(st.sampled_from(sorted(EXAMPLES)))]
    how = draw(st.sampled_from(["keep", "drop", "extra", "truncate", "junk"]))
    if how == "drop" and ";;" in line:
        line = line.replace(";;", " ", 1)
    elif how == "extra":
        i = draw(st.integers(0, len(line)))
        line = line[:i] + " ;; " + line[i:]
    elif how == "truncate":
        line = line[:draw(st.integers(0, len(line) - 1))]
    elif how == "junk":
        i = draw(st.integers(0, len(line)))
        line = line[:i] + draw(st.sampled_from(JUNK)) + line[i:]
    return line


@settings(deadline=None, max_examples=400)
@given(mutated_lines(), st.booleans(), st.sampled_from([1, 3, 8]))
def test_verb_contract(line, as_json, depth):
    options = Options(json=as_json, depth=depth, max_terms=depth)
    try:
        out = run_line(line, options)
    except (ParseError, CalcError):
        return
    assert isinstance(out, str)
    if as_json:
        assert isinstance(json.loads(out), dict)


# -- error positions index the line -------------------------------------------
#
# A '$' in place of one argument character of an example line, or an
# argument cut just after an operator, must be reported at the '$' or at
# the cut, counted in the whole line, as text and under --json.  The cuts
# are few enough to try them all.

# the argument kinds that the expression scanner reads in full
SCANNED = {cli._number, cli._ordinal, cli._skand, cli._coskand,
           cli._components}


def _arguments(key):
    """(start, text, kind) of each ';;'-separated argument of EXAMPLES[key];
    the kind is None where it is not one of SCANNED."""
    line = EXAMPLES[key]
    start = len(key) + 1
    parts = line[start:].split(";;")
    kinds = cli.VERBS[key][0]
    if key == "solve check":
        kinds = (None,) * (len(parts) - 1) + kinds[1:]
    elif kinds[-1] is ...:
        kinds = kinds[:1] * len(parts)
    out = []
    for kind, part in zip(kinds, parts):
        out.append((start, part, kind if kind in SCANNED else None))
        start += len(part) + 2
    return out


def _error_position(line, as_json):
    """The position that the error of `line` reports, checked to be the same
    in the message and, under --json, in the envelope."""
    with pytest.raises(ParseError) as info:
        run_line(line, O)
    pos = info.value.position
    if pos is not None:
        assert str(info.value).endswith("(at position %d)" % pos)
    if as_json:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli._answer(line, OJ, "", None) == 2
        assert json.loads(out.getvalue())["error"]["position"] == pos
    return pos


@st.composite
def dollar_lines(draw):
    key = draw(st.sampled_from(sorted(EXAMPLES)))
    spots = [(start + i, kind) for start, part, kind in _arguments(key)
             for i, c in enumerate(part) if not c.isspace()]
    i, kind = draw(st.sampled_from(spots))
    line = EXAMPLES[key]
    return line[:i] + "$" + line[i + 1:], i, kind


@settings(deadline=None, max_examples=300)
@given(dollar_lines(), st.booleans())
# a descriptor's base and an equation's block, read inside an argument
@example(("gap add($, +)", 8, None), False)
@example(("solve check periodic {a} ;; {$} ;; cycle({a},{b}) @ [0,w)", 29,
          None), True)
# an integer, a descriptor's direction and an equation's form
@example(("leftright $", 10, None), True)
@example(("gap add(w, $)", 11, None), False)
@example(("solve check per$odic {a} ;; {b} ;; cycle({a},{b}) @ [0,w)", 15,
          None), True)
def test_a_bad_character_is_reported_where_it_stands(case, as_json):
    line, i, kind = case
    pos = _error_position(line, as_json)
    # a piece the scanner does not read (an integer, a descriptor's kind or
    # direction, an equation's form) is reported at its first character:
    # such pieces are cut at spaces, parentheses and commas
    start = i
    while kind is None and line[start - 1] not in " (),":
        start -= 1
    assert pos in (i, start), (line, pos)


def test_an_argument_cut_after_an_operator_is_reported_at_its_end():
    cuts = 0
    for key, line in EXAMPLES.items():
        for start, part, kind in _arguments(key):
            if kind is None:
                continue
            for _, t, j in tokenize(part):
                if t in ("+", "-", "*", "/", "^", "(+)", "(*)"):
                    cut = start + j + len(t)
                    cut_line = line[:cut] + line[start + len(part):]
                    for as_json in (False, True):
                        assert _error_position(cut_line, as_json) == cut, \
                            cut_line
                    cuts += 1
    assert cuts >= 15
