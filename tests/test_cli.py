"""CLI behaviour: verbs, JSON/text agreement, scripts and exit codes."""

import json

import pytest

from omegacalc import number_from_json, parse_number, parse_ordinal
from omegacalc.cli import Options, main, run_line, run_script
from omegacalc.errors import CalcError, ParseError

O = Options()
OJ = Options(json=True)


def test_eval_and_nf():
    assert run_line("nf (w+1)*(w-1)", O) == "w^2*1 + -1"
    assert run_line("eval exp(w*eps[0])", O) == "eps[0]"
    out = run_line("eval 1/(w+1)", Options(max_terms=4))
    assert out == "w^-1*1 + w^-2*-1 + w^-3*1 + w^-4*-1 (inexact)"


def test_eval_json_agrees_with_text():
    for expr in ("(w+1)*(w-1)", "exp(w*eps[0])", "w^(1/2) + 2/3"):
        text = run_line("nf %s" % expr, O).replace(" (inexact)", "")
        data = json.loads(run_line("nf %s" % expr, OJ))
        assert number_from_json(data["value"]) == parse_number(text)


def test_cmp():
    assert run_line("cmp w ;; w - 1", O) == "GT"
    assert run_line("cmp 1/2 + 1/2 ;; 1", O) == "EQ"
    assert json.loads(run_line("cmp 0 ;; 1/w", OJ)) == {"result": "LT"}


def test_ord():
    assert run_line("ord (w+1) (+) (w+1)", O) == "w*2 + 2"
    assert run_line("ord 2 * w", O) == "w"
    assert run_line("ord (w+1) (*) (w+1)", O) == "w^2 + w*2 + 1"


def test_gap():
    assert run_line("gap add(w, +)", O) == "+inf_{w*2}"
    assert run_line("gap dyadic(3, -)", O) == "+inf_{3 + w^-1*-1}"
    data = json.loads(run_line("gap ordinal(w)", OJ))
    assert data["sign"] == "+"


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
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "omegacalc.cli"],
        input="nf w + 1\nquit\n", text=True, capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "w*1 + 1"
    proc = subprocess.run(
        [sys.executable, "-m", "omegacalc.cli"],
        input="eval 1/0\nnf 3\n", text=True, capture_output=True)
    assert proc.returncode == 0
    assert "error" in proc.stdout and "3" in proc.stdout
