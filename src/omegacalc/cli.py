"""REPL and batch front-end.

One command per line:  VERB ARGS.  Multi-part arguments are separated by
';;'.  Exit codes: 0 ok, 1 domain error, 2 parse error.

  eval EXPR | nf EXPR          evaluate a surreal expression
  cmp EXPR ;; EXPR             LT / EQ / GT, marked when a cut leaves it open
  ord OEXPR                    ordinal arithmetic ('+', '*', '(+)', '(*)')
  gap DESCRIPTOR               e.g. gap add(w, +)   gap dyadic(3, -)
  jumps OEXPR                  jump report for a limit ordinal
  leftright N                  the alternating-halving endpoint lists
  skand OP ...                 render|normalize|eq|at|restrict|reflexive|
                               selfsimilar|weakly|periodic|strictly|
                               minperiod|encode|coords
  coskand OP ...               render|eq|at|kind|toset|coords
  solve FORM ...               reflexive|periodic|extraordinary|check

Every verb is one row of VERBS, keyed by the verb or, in the skand, coskand
and solve groups, by two words ("skand eq").  A row is (argument kinds,
function, result kind).  An argument kind parses one ';;'-separated argument
or raises ParseError; kinds ending in `...` take one or more arguments of
one kind.  The function maps the arguments to a value.  A result kind is a
pair (text renderer, JSON renderer) of functions of (value, options), and
run_line calls exactly one of the two, and refuses with OutputTooLarge any
rendered answer longer than exprs.MAX_OUTPUT: one exit check for every row.
Under --json every answer is one JSON object, and every error is
{"error": {"kind", "message", "position"}}.
A ParseError's position is a character index into the input line, also
inside a ';;'-separated argument, a gap descriptor or an equation.
"""

from __future__ import annotations

import argparse
import json
import sys
from . import exprs, gaps, skands
from .errors import CalcError, IoError, OutputTooLarge, ParseError, Record
from .surreal import exp_cmp, nf_cmp, real_limit_from_sequences, sub


class Options(Record):
    __slots__ = ("max_terms", "json", "depth", "strict")

    def __init__(self, max_terms: int = 8, json: bool = False,
                 depth: int = 4, strict: bool = False):
        self.max_terms = max_terms
        self.json = json
        self.depth = depth
        self.strict = strict


# -- argument kinds -----------------------------------------------------------
#
# An argument kind receives its argument stripped, so an argument that is
# wrong as a whole, or the kind word at its head, is reported at 0.

def _number(text, options):
    return exprs.parse_number_expr(text, options.max_terms)


def _ordinal(text, options):
    return exprs.parse_ordinal(text)


def _skand(text, options):
    s = exprs.parse_skand(text)
    if s.ascending:
        raise ParseError("expected a skand literal", 0)
    return s


def _coskand(text, options):
    s = exprs.parse_skand(text)
    return s if s.ascending else skands.Skand(s.start, s.mapping, True)


def _components(text, options):
    t = exprs.parse_setterm(text)
    if isinstance(t, str):
        raise ParseError("components must be a set, e.g. {a,b}", 0)
    return t


def _int_kind(what: str, minimum: int = 0):
    """The kind of an integer argument of at least `minimum`: an optionally
    signed run of ASCII digits, as the expression scanner reads one (int()
    would also take '_' separators and other scripts' digits)."""
    def kind(text, options):
        digits = text[1:] if text[:1] in ("+", "-") else text
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError("%s must be an integer, got %r" % (what, text),
                             0)
        limit = sys.get_int_max_str_digits()
        if limit and len(digits) > limit:
            raise ParseError("%s has more than %d digits" % (what, limit), 0)
        n = int(text)
        if n < minimum:
            raise ParseError("%s must be >= %d, got %d" % (what, minimum, n),
                             0)
        return n
    return kind


_PREFIX = _int_kind("prefix")


def _coords_prefix(text, options):
    """A coords prefix, with the max_terms its 1/a coordinates are cut at;
    a max_terms below 1 is the ParseError that eval gives."""
    if options.max_terms < 1:
        raise ParseError("max_terms must be >= 1, got %d" % options.max_terms)
    return _PREFIX(text, options), options.max_terms


# The cost guards of _coords, _jumps and _leftright: each refuses a build
# whose answer a lower bound on its length already puts over
# exprs.MAX_OUTPUT, such as jumps w^100000000.  They do not decide the
# answer's size; run_line measures the rendered answer.

def _coords(s, prefix):
    """The brace coordinates for prefix = (count, max_terms).  Cost guard:
    each of the min(count, length) pairs prints at least 8 characters,
    '(x, y), '."""
    count, length = prefix[0], s.length
    if 8 * (min(count, length.as_int()) if length.is_finite() else count) \
            > exprs.MAX_OUTPUT:
        raise exprs.too_large()
    return skands.brace_coordinates(s, *prefix)


def _jumps(lam):
    """The jump report of lam.  Cost guard: its census has one entry per v
    in 1..(leading exponent), each of at least 6 characters ('w: 1; ')."""
    if lam.is_limit() and type(lam.terms[0][0]) is int \
            and 6 * lam.terms[0][0] > exprs.MAX_OUTPUT:
        raise exprs.too_large()
    return gaps.jump_report(lam)


def _leftright(steps):
    """The left-right construction.  Cost guard: halving k prints a dyadic
    with a numerator of at least 2^k over 2^(k+1), together more than
    (2k+1)*log10(2) + 1 digits and slash, so the n+1 halvings of n steps
    print more than (n+1)*((n+1)*log10(2) + 1) characters.  When the last
    denominator, 2^(n+1), is past the int string limit, that is the
    refusal str() would give; below 3*limit bits it cannot be, as
    log2(10) > 3, so 10^limit is built only past that."""
    limit = sys.get_int_max_str_digits()
    if limit and steps + 1 > 3 * limit \
            and steps + 1 >= (10 ** limit).bit_length():
        raise _long_integer()
    if (steps + 1) * (30102 * (steps + 1) + 100000) // 100000 \
            > exprs.MAX_OUTPUT:
        raise exprs.too_large()
    return gaps.left_right_construct(steps)


_DESCRIPTORS = {"ordinal": (gaps.OrdinalRamp, False),
                "harmonic": (gaps.HarmonicRamp, False),
                "add": (gaps.AddRamp, True), "dyadic": (gaps.DyadicRamp, True),
                "geometric": (gaps.GeometricRamp, True),
                "scaledharmonic": (gaps.ScaledHarmonic, True)}


def _descriptor(text, options):
    """KIND(BASE) or KIND(BASE, +|-).  The base is read first, so a bad
    character in it is reported where it stands; a wrong argument count
    just after the base; a bad direction where it starts.  A comma inside
    braces belongs to a game in the base."""
    head, paren, inner = text.partition("(")
    kind = head.rstrip()
    if kind not in _DESCRIPTORS:
        raise ParseError("unknown descriptor kind %r" % kind, 0)
    if not paren:
        raise ParseError("descriptor arguments must be parenthesised",
                         len(text))
    cls, signed = _DESCRIPTORS[kind]
    closed = inner.endswith(")")
    args = []
    for piece in (inner[:-1] if closed else inner).split(","):
        if args and args[-1].count("{") > args[-1].count("}"):
            args[-1] += "," + piece
        else:
            args.append(piece)
    at = len(head) + 1   # where the base starts
    made = [_within(at, args[0], exprs.parse_number if signed
                    else exprs.parse_ordinal)]
    at += len(args[0]) + 1   # where the direction starts
    usage = "expected %s(%s)" % (kind, "BASE, +|-" if signed else "ORDINAL")
    if len(args) != 1 + signed:
        raise ParseError(usage, at - 1)
    if signed:
        direction = args[1].strip()
        if direction not in ("+", "-"):
            raise ParseError(usage, at + len(args[1]) - len(args[1].lstrip()))
        made.append(1 if direction == "+" else -1)
    if not closed:
        raise ParseError("descriptor arguments must be parenthesised",
                         len(text))
    return cls(*made)


# Mirimanoff equation forms: the argument kinds and the equation they make
_EQUATIONS = {
    "reflexive": ((_components,), skands.Reflexive),
    "periodic": ((_components, ...), lambda *b: skands.Periodic(b)),
    "extraordinary": ((_components, ...),
                      lambda *b: skands.Extraordinary(b)),
}


def _equation(text, options):
    """FORM ARGS: the Mirimanoff equation of one of the _EQUATIONS forms."""
    form, _, rest = text.partition(" ")
    if form not in _EQUATIONS:
        raise ParseError("unknown equation form %r" % form, 0)
    kinds, make = _EQUATIONS[form]
    return make(*_args(kinds, rest.split(";;"), options, len(form) + 1))


def _within(offset, part, parse, *args):
    """parse(part.strip(), *args), where `part` starts at `offset` of the
    text it was cut from: a ParseError's position moves from the stripped
    part into that text."""
    try:
        return parse(part.strip(), *args)
    except ParseError as exc:
        if exc.position is None:
            raise
        raise ParseError(exc.detail, exc.position + offset + len(part)
                         - len(part.lstrip())) from None


def _args(kinds, parts, options, offset):
    """The ';;'-separated parts parsed by their kinds; the first part
    starts at `offset` of the text they were split from."""
    if kinds[-1] is ...:
        kinds = kinds[:1] * len(parts)
    elif len(parts) != len(kinds):
        raise ParseError("expected %d ';;'-separated arguments, got %d"
                         % (len(kinds), len(parts)))
    out = []
    for kind, part in zip(kinds, parts):
        out.append(_within(offset, part, kind, options))
        offset += len(part) + 2
    return out


# -- result kinds -------------------------------------------------------------

def _as_result(v, options):
    return {"result": v}


def _valued(text, codec):
    """Prints text(value, options); in JSON {"text": that same text, "value":
    codec(value)}, the text first, so that a refusal on the way to it comes
    before the codec builds anything."""
    return (text, lambda v, options: {"text": text(v, options),
                                      "value": codec(v)})


def _braces(s, options) -> str:
    """The brace rendering of a skand or coskand at options.depth;
    ParseError for a depth below 1."""
    if options.depth < 1:
        raise ParseError("depth must be >= 1, got %d" % options.depth)
    return exprs.brace_render(s, options.depth)


def _marked(text, exact):
    """`text`, marked when a series was cut on the way to it."""
    return text if exact else text + " (inexact)"


def _number_text(t, options):
    return _marked(exprs.render_number(t.value), t.exact)


def _number_json(t, options):
    """The value, and whether it is exact; a cut value adds its order."""
    if t.order is None:
        return {"value": exprs.number_to_json(t.value), "exact": True}
    return {"value": exprs.number_to_json(t.value), "exact": False,
            "order": exprs.exponent_to_json(t.order)}


def _census(rep):
    return {exprs.render_ordinal(size): exprs.render_ordinal(count)
            for size, count in rep.census}


def _jumps_text(rep, options):
    return ("embeddable=%s translation_invariant=%s tails_same_type=%s\n"
            "census: %s" % (rep.embeddable, rep.translation_invariant,
                            rep.tails_same_type,
                            "; ".join("%s: %s" % kv
                                      for kv in _census(rep).items())))


def _jumps_json(rep, options):
    return {"lambda": exprs.render_ordinal(rep.lam),
            "embeddable": rep.embeddable,
            "translation_invariant": rep.translation_invariant,
            "tails_same_type": rep.tails_same_type, "census": _census(rep)}


def _leftright_json(lists, options):
    left, right = lists
    return {"L": [str(x) for x in left], "R": [str(x) for x in right],
            "limit": str(real_limit_from_sequences(left, right))}


def _normal_text(n, options):
    return "%s @ [%s, %s)" % (exprs.render_segments(n.mapping),
                              exprs.render_ordinal(n.start),
                              exprs.render_ordinal(n.end))


def _coords_text(coords, options):
    pairs, exact = coords
    return _marked("[%s]" % ", ".join("(%s, %s)" % (exprs.render_number(lo),
                                                     exprs.render_number(hi))
                                      for lo, hi in pairs), exact)


NUMBER = (_number_text, _number_json)
GAP = (lambda g, options: str(g),
       lambda g, options: {"sign": "+" if g.sign > 0 else "-",
                           "index": exprs.number_to_json(g.index),
                           "text": str(g)})
JUMPS = (_jumps_text, _jumps_json)
LEFTRIGHT = (lambda lists, options: "L: %s\nR: %s" % tuple(
    ", ".join(str(x) for x in xs) for xs in lists), _leftright_json)
WORD = (lambda v, options: v, _as_result)
# a cmp verdict and whether it is certain: an uncertain one is marked, and
# its JSON says "exact": false
VERDICT = (lambda v, options: _marked(*v),
           lambda v, options: {"result": v[0]} if v[1] else
           {"result": v[0], "exact": False})
FLAG = (lambda v, options: "true" if v else "false", _as_result)
PERIOD = (lambda n, options: "none" if n is None else str(n), _as_result)
ORDINAL = _valued(lambda o, options: exprs.render_ordinal(o),
                  exprs.ordinal_to_json)
SETTERM = _valued(lambda t, options: exprs.render_setterm(t),
                  exprs.setterm_to_json)
BRACES = _valued(_braces, exprs.skand_to_json)
NORMAL = _valued(_normal_text, exprs.skand_to_json)
COORDS = (_coords_text, lambda coords, options: {
    "value": [[exprs.number_to_json(lo), exprs.number_to_json(hi)]
              for lo, hi in coords[0]],
    "text": _coords_text(coords, options), "exact": coords[1]})


def _same(value):
    return value


def _compare(a, b):
    """The verdict of a against b, and whether it is certain: the two
    values differ at an exponent above both orders.  Where they agree above
    the orders, the verdict on the values stands, uncertain."""
    if a.order is None and b.order is None:
        return ("LT", "EQ", "GT")[nf_cmp(a.value, b.value) + 1], True
    d = sub(a.value, b.value).terms
    if not d:
        return "EQ", False
    return ("LT" if d[0][1] < 0 else "GT"), all(
        o is None or exp_cmp(d[0][0], o) > 0 for o in (a.order, b.order))


VERBS = {
    "eval": ((_number,), _same, NUMBER),
    "nf": ((_number,), _same, NUMBER),
    "cmp": ((_number, _number), _compare, VERDICT),
    "ord": ((_ordinal,), _same, ORDINAL),
    "gap": ((_descriptor,), gaps.gap_of, GAP),
    "jumps": ((_ordinal,), _jumps, JUMPS),
    "leftright": ((_int_kind("leftright steps", 1),), _leftright, LEFTRIGHT),
    "skand render": ((_skand,), _same, BRACES),
    "skand normalize": ((_skand,), skands.normalize, NORMAL),
    "skand eq": ((_skand, _skand), skands.skand_equal, FLAG),
    "skand at": ((_skand, _ordinal), skands.value_at, SETTERM),
    "skand restrict": ((_skand, _ordinal), skands.restrict, BRACES),
    "skand reflexive": ((_skand,), skands.is_reflexive, FLAG),
    "skand selfsimilar": ((_skand,), skands.is_self_similar, FLAG),
    "skand weakly": ((_skand, _ordinal), skands.is_weakly_periodic, FLAG),
    "skand periodic": ((_skand, _ordinal), skands.is_periodic, FLAG),
    "skand strictly": ((_skand, _ordinal), skands.is_strictly_periodic,
                       FLAG),
    "skand minperiod": ((_skand,), skands.min_finite_period, PERIOD),
    "skand encode": ((_skand,), skands.encode_skand, SETTERM),
    "skand coords": ((_skand, _coords_prefix), _coords, COORDS),
    "coskand render": ((_coskand,), _same, BRACES),
    "coskand eq": ((_coskand, _coskand), skands.skand_equal, FLAG),
    "coskand at": ((_coskand, _ordinal), skands.value_at, SETTERM),
    "coskand kind": ((_coskand,), skands.coskand_kind, WORD),
    "coskand toset": ((_coskand,), skands.coskand_to_setterm, SETTERM),
    "coskand coords": ((_coskand, _coords_prefix), _coords, COORDS),
    **{"solve " + form: (kinds, lambda *a, make=make:
                         skands.solve_mirimanoff(make(*a)), BRACES)
       for form, (kinds, make) in _EQUATIONS.items()},
    "solve check": ((_equation, _skand),
                    lambda eq, s: skands.is_solution(s, eq), FLAG),
}
_GROUPS = {key.partition(" ")[0] for key in VERBS if " " in key}


# one encoder for every answer and error envelope: json.dumps builds a new
# JSONEncoder on each call whose arguments are not the defaults.  Each
# to_json tree is built fresh for its answer, so it has no cycle;
# setterm_to_json's memo shares sub-lists, a DAG.
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def run_line(line: str, options: Options) -> str:
    command = line.strip()
    verb, _, rest = command.partition(" ")
    if verb in _GROUPS:
        op, _, rest = rest.strip().partition(" ")
        verb += " " + op
    try:
        kinds, fn, (text, to_json) = VERBS[verb]
    except KeyError:
        raise ParseError("unknown verb %r" % verb) from None
    parts = rest.split(";;")
    if verb == "solve check":
        # FORM ARGS ;; SKAND: every argument but the last is the equation's
        if len(parts) < 2:
            raise ParseError("solve check FORM ARGS ;; SKAND")
        parts = [";;".join(parts[:-1]), parts[-1]]
    # rest is a suffix of command, which starts after the line's indent
    offset = len(line) - len(line.lstrip()) + len(command) - len(rest)
    try:
        value = fn(*_args(kinds, parts, options, offset))
        out = _encode(to_json(value, options)) if options.json \
            else text(value, options)
        if len(out) > exprs.MAX_OUTPUT:
            raise exprs.too_large()
        return out
    except ValueError as exc:
        # str() and json refuse an int longer than the int string limit,
        # in the answer or in an error message built on the way to it
        if "integer string conversion" not in str(exc):
            raise
    raise _long_integer()


def _long_integer():
    return OutputTooLarge("the answer has an integer of more than %d digits"
                          % sys.get_int_max_str_digits())


def _report(exc, options, where="", stream=None) -> int:
    """Print a ParseError or CalcError and return its exit status: as text
    on `stream` (stderr by default), or under --json as the error envelope
    on stdout, in the place of the answer."""
    status = 2 if isinstance(exc, ParseError) else 1
    if options.json:
        print(_encode({"error": {
            "kind": type(exc).__name__, "message": str(exc),
            "position": getattr(exc, "position", None)}}))
    else:
        print("%s%s: %s" % ("parse error" if status == 2 else "error", where,
                            exc), file=stream or sys.stderr)
    return status


def _answer(line, options, where, stream) -> int:
    """Print the answer to one line, or its error; return the line's exit
    status."""
    try:
        print(run_line(line, options))
    except (ParseError, CalcError) as exc:
        return _report(exc, options, where, stream)
    return 0


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
        status = _answer(line, options, " on line %d" % lineno, sys.stderr)
        if status and options.strict:
            return status
        worst = max(worst, status)
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
        _answer(line, options, "", sys.stdout)


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
        return _report(exc, options)


if __name__ == "__main__":
    sys.exit(main())
