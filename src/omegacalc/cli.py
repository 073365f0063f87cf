"""REPL and batch front-end.

One command per line:  VERB ARGS.  Multi-part arguments are separated by
';;'.  Exit codes: 0 ok, 1 domain error, 2 parse error.

  eval EXPR | nf EXPR          evaluate a surreal expression
  cmp EXPR ;; EXPR             LT / EQ / GT
  ord OEXPR                    ordinal arithmetic ('+', '*', '(+)', '(*)')
  gap DESCRIPTOR               e.g. gap add(w, +)   gap dyadic(3, -)
  jumps OEXPR                  jump report for a limit ordinal
  leftright N                  the alternating-halving endpoint lists
  skand OP ...                 render|normalize|eq|at|restrict|reflexive|
                               selfsimilar|weakly|periodic|strictly|
                               minperiod|encode|coords
  coskand OP ...               render|eq|at|kind|toset|coords
  solve FORM ...               reflexive|periodic|extraordinary|check
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from . import exprs, gaps, skands
from .errors import CalcError, IoError, ParseError
from .ordinals import Ordinal
from .surreal import nf_cmp, real_limit_from_sequences


@dataclass(frozen=True)
class Options:
    max_terms: int = 8
    json: bool = False
    depth: int = 4
    strict: bool = False


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _render_value(t, options) -> str:
    if options.json:
        return _json({"value": exprs.number_to_json(t.value),
                      "exact": t.exact})
    text = exprs.render_number(t.value)
    if not t.exact:
        text += " (inexact)"
    return text


def _split_args(rest: str, n=None):
    parts = [p.strip() for p in rest.split(";;")]
    if n is not None and len(parts) != n:
        raise ParseError("expected %d ';;'-separated arguments, got %d"
                         % (n, len(parts)))
    return parts


def _int_arg(text: str, what: str, minimum: int = 0) -> int:
    """A decimal integer argument of at least `minimum`; ParseError
    otherwise."""
    try:
        n = int(text)
    except ValueError:
        raise ParseError("%s must be an integer, got %r" % (what, text)) \
            from None
    if n < minimum:
        raise ParseError("%s must be >= %d, got %d" % (what, minimum, n))
    return n


def _braces(s, options) -> str:
    """The brace rendering of a skand or coskand at options.depth;
    ParseError for a depth below 1."""
    if options.depth < 1:
        raise ParseError("depth must be >= 1, got %d" % options.depth)
    return exprs.brace_render(s, options.depth)


def _coords(s, text: str) -> str:
    """The brace coordinates of the first `text` positions of s."""
    pairs = skands.brace_coordinates(s, _int_arg(text, "prefix"))
    return "[%s]" % ", ".join("(%s, %s)" % (exprs.render_number(lo),
                                             exprs.render_number(hi))
                              for lo, hi in pairs)


_CMP_NAMES = {-1: "LT", 0: "EQ", 1: "GT"}


def run_line(line: str, options: Options) -> str:
    line = line.strip()
    verb, _, rest = line.partition(" ")
    rest = rest.strip()
    if verb in ("eval", "nf"):
        return _render_value(exprs.parse_number_expr(rest, options.max_terms),
                             options)
    if verb == "cmp":
        a, b = _split_args(rest, 2)
        ta = exprs.parse_number_expr(a, options.max_terms)
        tb = exprs.parse_number_expr(b, options.max_terms)
        name = _CMP_NAMES[nf_cmp(ta.value, tb.value)]
        return _json({"result": name}) if options.json else name
    if verb == "ord":
        value = exprs.parse_ordinal(rest)
        if options.json:
            return _json({"value": exprs.ordinal_to_json(value),
                          "text": exprs.render_ordinal(value)})
        return exprs.render_ordinal(value)
    if verb == "gap":
        label = gaps.gap_of(_parse_descriptor(rest, options))
        if options.json:
            return _json({"sign": "+" if label.sign > 0 else "-",
                          "index": exprs.number_to_json(label.index),
                          "text": str(label)})
        return str(label)
    if verb == "jumps":
        rep = gaps.jump_report(exprs.parse_ordinal(rest))
        census = {exprs.render_ordinal(size): exprs.render_ordinal(count)
                  for size, count in rep.census}
        if options.json:
            return _json({"lambda": exprs.render_ordinal(rep.lam),
                          "embeddable": rep.embeddable,
                          "translation_invariant": rep.translation_invariant,
                          "tails_same_type": rep.tails_same_type,
                          "census": census})
        flags = "embeddable=%s translation_invariant=%s tails_same_type=%s" \
            % (rep.embeddable, rep.translation_invariant, rep.tails_same_type)
        body = "; ".join("%s: %s" % kv for kv in census.items())
        return "%s\ncensus: %s" % (flags, body)
    if verb == "leftright":
        steps = _int_arg(rest, "leftright steps", 1)
        left, right = gaps.left_right_construct(steps)
        if options.json:
            return _json({"L": [str(x) for x in left],
                          "R": [str(x) for x in right],
                          "limit": str(real_limit_from_sequences(left, right))})
        return "L: %s\nR: %s" % (", ".join(str(x) for x in left),
                                 ", ".join(str(x) for x in right))
    if verb == "skand":
        return _run_skand(rest, options)
    if verb == "coskand":
        return _run_coskand(rest, options)
    if verb == "solve":
        return _run_solve(rest, options)
    raise ParseError("unknown verb %r" % verb)


def _parse_descriptor(text, options):
    head, _, inner = text.partition("(")
    head = head.strip()
    if not inner.endswith(")"):
        raise ParseError("descriptor arguments must be parenthesised")
    args = [a.strip() for a in inner[:-1].split(",")]
    if head == "ordinal":
        return gaps.OrdinalRamp(exprs.parse_ordinal(args[0]))
    if head == "harmonic":
        return gaps.HarmonicRamp(exprs.parse_ordinal(args[0]))
    if head in ("add", "dyadic", "geometric", "scaledharmonic"):
        if len(args) != 2 or args[1] not in ("+", "-"):
            raise ParseError("expected %s(BASE, +|-)" % head)
        base = exprs.parse_number(args[0])
        direction = 1 if args[1] == "+" else -1
        cls = {"add": gaps.AddRamp, "dyadic": gaps.DyadicRamp,
               "geometric": gaps.GeometricRamp,
               "scaledharmonic": gaps.ScaledHarmonic}[head]
        return cls(base, direction)
    raise ParseError("unknown descriptor kind %r" % head)


def _flag(value, options) -> str:
    if options.json:
        return _json({"result": value})
    return "true" if value else "false"


def _run_skand(rest, options) -> str:
    op, _, body = rest.partition(" ")
    body = body.strip()
    if op in ("render", "normalize", "reflexive", "selfsimilar", "minperiod",
              "encode"):
        s = exprs.parse_skand(body)
        if not isinstance(s, skands.Skand):
            raise ParseError("expected a skand literal")
        if op == "render":
            return _braces(s, options)
        if op == "normalize":
            n = skands.normalize(s)
            return "%s @ [%s, %s)" % (exprs.render_segments(n.mapping),
                                      exprs.render_ordinal(n.start),
                                      exprs.render_ordinal(n.end))
        if op == "reflexive":
            return _flag(skands.is_reflexive(s), options)
        if op == "selfsimilar":
            return _flag(skands.is_self_similar(s), options)
        if op == "minperiod":
            n = skands.min_finite_period(s)
            if options.json:
                return _json({"result": n})
            return "none" if n is None else str(n)
        code = skands.encode_skand(s)
        return str(code)
    if op == "eq":
        a, b = _split_args(body, 2)
        x, y = exprs.parse_skand(a), exprs.parse_skand(b)
        if not (isinstance(x, skands.Skand) and isinstance(y, skands.Skand)):
            raise ParseError("expected two skand literals")
        return _flag(skands.skand_equal(x, y), options)
    if op in ("at", "restrict", "coords", "weakly", "periodic", "strictly"):
        a, b = _split_args(body, 2)
        s = exprs.parse_skand(a)
        if not isinstance(s, skands.Skand):
            raise ParseError("expected a skand literal")
        if op == "at":
            return exprs.render_setterm(
                skands.value_at(s, exprs.parse_ordinal(b)))
        if op == "restrict":
            r = skands.restrict(s, exprs.parse_ordinal(b))
            return _braces(r, options)
        if op == "coords":
            return _coords(s, b)
        tau = exprs.parse_ordinal(b)
        fn = {"weakly": skands.is_weakly_periodic,
              "periodic": skands.is_periodic,
              "strictly": skands.is_strictly_periodic}[op]
        return _flag(fn(s, tau), options)
    raise ParseError("unknown skand op %r" % op)


def _run_coskand(rest, options) -> str:
    op, _, body = rest.partition(" ")
    body = body.strip()
    if op == "eq":
        a, b = _split_args(body, 2)
        x = _as_coskand(exprs.parse_skand(a))
        y = _as_coskand(exprs.parse_skand(b))
        return _flag(skands.coskand_equal(x, y), options)
    if op == "at":
        a, b = _split_args(body, 2)
        c = _as_coskand(exprs.parse_skand(a))
        return exprs.render_setterm(skands.value_at(c, exprs.parse_ordinal(b)))
    if op == "coords":
        a, b = _split_args(body, 2)
        return _coords(_as_coskand(exprs.parse_skand(a)), b)
    c = _as_coskand(exprs.parse_skand(body))
    if op == "render":
        return _braces(c, options)
    if op == "kind":
        kind = skands.coskand_kind(c)
        return _json({"result": kind}) if options.json else kind
    if op == "toset":
        return exprs.render_setterm(skands.coskand_to_setterm(c))
    raise ParseError("unknown coskand op %r" % op)


def _as_coskand(value):
    if isinstance(value, skands.Coskand):
        return value
    if isinstance(value, skands.Skand):
        return skands.Coskand(value.start, value.mapping)
    raise ParseError("expected a coskand literal")


def _parse_setterm_only(text):
    p = exprs._Parser(text)
    t = exprs._setterm(p)
    if not p.done():
        p.fail("trailing input")
    return t


def _components(text):
    t = _parse_setterm_only(text)
    if isinstance(t, skands.Atom):
        raise ParseError("components must be a set, e.g. {a,b}")
    return t.elements


def _run_solve(rest, options) -> str:
    form, _, body = rest.partition(" ")
    body = body.strip()
    if form == "check":
        inner_form, _, inner = body.partition(" ")
        parts = _split_args(inner)
        if len(parts) < 2:
            raise ParseError("solve check FORM ARGS ;; SKAND")
        eq = _build_equation(inner_form, parts[:-1])
        s = exprs.parse_skand(parts[-1])
        if not isinstance(s, skands.Skand):
            raise ParseError("expected a skand literal")
        return _flag(skands.is_solution(s, eq), options)
    eq = _build_equation(form, _split_args(body))
    witness = skands.solve_mirimanoff(eq)
    return _braces(witness, options)


def _build_equation(form, parts):
    if form == "reflexive":
        if len(parts) != 1:
            raise ParseError("solve reflexive {elements}")
        return skands.Reflexive(frozenset(_components(parts[0])))
    if form == "periodic":
        return skands.Periodic(tuple(frozenset(_components(t))
                                     for t in parts))
    if form == "extraordinary":
        return skands.Extraordinary(
            tuple(frozenset(_components(t)) for t in parts), len(parts))
    raise ParseError("unknown equation form %r" % form)


def run_script(path: str, options: Options) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    worst = 0
    for lineno, line in enumerate(lines, 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            print(run_line(line, options))
        except ParseError as exc:
            print("parse error on line %d: %s" % (lineno, exc),
                  file=sys.stderr)
            worst = max(worst, 2)
            if options.strict:
                return 2
        except CalcError as exc:
            print("error on line %d: %s" % (lineno, exc), file=sys.stderr)
            worst = max(worst, 1)
            if options.strict:
                return 1
    return worst


def repl(options: Options) -> int:
    interactive = sys.stdin.isatty()
    while True:
        if interactive:
            print("> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            return 0
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line.strip() in ("quit", "exit"):
            return 0
        try:
            print(run_line(line, options))
        except ParseError as exc:
            print("parse error: %s" % exc)
        except CalcError as exc:
            print("error: %s" % exc)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="omegacalc",
        description="exact calculator for surreal normal forms, ordinals, "
                    "gap labels and skands")
    ap.add_argument("script", nargs="?", help="batch file; REPL when absent")
    ap.add_argument("--json", action="store_true", help="JSON output")
    ap.add_argument("--max-terms", type=int, default=8, metavar="N",
                    help="series truncation order (default 8)")
    ap.add_argument("--depth", type=int, default=4, metavar="N",
                    help="brace nesting depth for rendering (default 4)")
    ap.add_argument("--strict", action="store_true",
                    help="stop a script at its first error")
    ns = ap.parse_args(argv)
    for flag, value in (("--max-terms", ns.max_terms), ("--depth", ns.depth)):
        if value < 1:
            ap.error("%s must be >= 1, got %d" % (flag, value))
    options = Options(max_terms=ns.max_terms, json=ns.json, depth=ns.depth,
                      strict=ns.strict)
    if ns.script is None:
        return repl(options)
    try:
        return run_script(ns.script, options)
    except IoError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
