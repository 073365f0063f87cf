"""Text and JSON codecs: ordinal and surreal expressions, skand literals.

Grammar (ASCII; the Unicode aliases for w and eps are accepted on input):

  number expr   e := t (('+'|'-') t)* ;  t := f (('*'|'/') f)* ;
                f := '-' f | prim
                prim := 'w' ['^' xp] | 'eps' '[' e ']' | INT | '(' e ')'
                      | 'exp' '(' e ')' | 'ln' '(' e ')'
                      | '{' [e (',' e)*] '|' [e (',' e)*] '}'
                xp := ['-'] INT | '(' e ')'

  ordinal expr  the same shape with '+' '*' the usual ordinal operations and
                '(+)' '(*)' the natural ones; atoms are 'w' and integers.

  set term      st := IDENT | INT | '{' [st (',' st)*] '}'

  tokens        INT := [0-9]+, ASCII digits only ;  IDENT := an ASCII
                letter or '_', then any word characters, non-ASCII too.

  skand text    SEGS '@' '[' o ',' o ')'   or a nested-brace form whose
                trailing brace is the next layer and whose innermost brace
                may be '...' (constant continuation) or '...SEGS'.
                SEGS := seg (';' seg)* ;  seg := ('const(' st ')' |
                'cycle(' st (',' st)* ')') [':' o] ; the last length may be
                omitted.  A bare-brace form with no '@' is a finite coskand
                read innermost-first; 'asc SEGS @ [o,o)' is a general
                coskand.

One set-term grammar (_setterm) reads const(...) and cycle(...) values and
the nested-brace form, whose layers it collects as it goes; with a finite
length n, braces past the n-th layer are elements of that layer.

A text is scanned once, by one findall over the token table _TOKENS, into
its token texts, which every reader compares itself; a skand reader calls
a _Parser helper only on the way to a ParseError.  Only a Unicode alias runs
the positional scan, built from the same table, over the whole text; an error
runs it only up to the failing token.  Both expression grammars are read
by one precedence-climbing loop, _infix, over an (outer, inner) pair of
operator tables per sort (_ORDINAL, _NUMBER): one Python frame reads both
levels, and a bracket, whose depth it counts, by recursion.  Ordinal +
joins a literal in Cantor normal form (w^2*3 + w + 4) term by term and
takes ordinal + only where a term is out of order, and a finite factor
(w^2*3) scales a leading coefficient inside Ordinal.__mul__.  A number
expression evaluates to plain Numbers: w, w^n and integers are built as
their one term, and a literal's rationals (w^(1/2)*3/2) cost a coefficient
scale each, since surreal.mul and surreal.divide treat a rational operand
as one.  Where divide, exp or ln cut a series, the descent carries the
cut value as a TruncatedNumber (value, order) in the place of a Number, and
the rows combine orders by the valuation rules (see _NUMBER), so every
term of an answer is a true term; parse_number_expr wraps an exact value in
the parse's one TruncatedNumber, of order None.

Rendering is the exact inverse on canonical values: parse(render(v)) == v.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice
from operator import itemgetter

from .errors import (InsufficientPrecision, OutputTooLarge, ParseError,
                     PrefixTooLarge)
from .ordinals import OMEGA, ONE, Ordinal
from .ordinals import ZERO as OZERO
from .surreal import (OMEGA as NOMEGA, EpsilonAtom, Number, TruncatedNumber,
                      _higher, _known, _rational, add, divide, epsilon,
                      exp_cmp, exp_sum, exp_times, from_rational, from_terms,
                      known_negate, known_product, known_sum, mul, negate,
                      omega_pow, simplest_dyadic_game)
from . import explog
from . import skands as sk

# The token alternatives, tried in this order.  tokenize and _scan are both
# built from this one table, so they split every text alike.  The commonest,
# one-character symbols, go first; a '(' that opens '(+)' or '(*)' does not.
_TOKENS = (("sym", r"[)\[\]{}|,;:@^*/+\-]|\((?![+*]\))"), ("ws", r"\s+"),
           ("ellipsis", r"\.\.\."), ("natadd", r"\(\+\)"),
           ("natmul", r"\(\*\)"), ("int", r"[0-9]+"), ("name", r"[A-Za-z_]\w*"))
_TOKEN = re.compile("|".join("(?P<%s>%s)" % kp for kp in _TOKENS)
                    + "|(?P<bad>.)", re.DOTALL)
_TEXTS = re.compile("|".join(pattern for kind, pattern in _TOKENS
                             if kind != "ws"))
# every token text but a name's and an integer's, the end's "" included
_SYMBOLS = frozenset("()[]{}|,;:@^*/+-") | {"...", "(+)", "(*)", ""}

# the ASCII tokens each alias stands for, all at the alias's own position
_ALIASES = {"ω": (("name", "w"),), "ε": (("name", "eps"),),
            "…": (("ellipsis", "..."),),
            "½": (("int", "1"), ("sym", "/"), ("int", "2"))}


def _positioned(text):
    """Yield the (kind, text, position) tokens of `text`, then the end
    token.  The catch-all group makes every character start a match, so
    finditer walks the text with no gaps; a character only it matches is
    an alias, or else the first bad character, which stops the scan.  A
    caller that needs token i reads no further than token i."""
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            if m.group() not in _ALIASES:
                raise ParseError("unexpected character %r" % m.group(),
                                 m.start())
            for k, t in _ALIASES[m.group()]:
                yield k, t, m.start()
            continue
        yield kind, m.group(), m.start()
    yield "end", "", len(text)


def tokenize(text):
    return list(_positioned(text))


def _scan(text):
    """The token texts of `text`, then "" for the end.  One findall skips
    whatever no token matches; when that was more than whitespace, or the
    text has an alias (every alias is non-ASCII), tokenize scans it instead
    and reports the first bad character."""
    if text.isascii():
        texts = _TEXTS.findall(text)
        if len("".join(texts)) == len("".join(text.split())):
            texts.append("")
            return texts
    return [t for _, t, _ in tokenize(text)]


# Deepest bracket or exponent nesting a parser accepts.  Each level costs at
# most four Python frames (a game after a minus, -{...|}, passes _infix,
# _nfact twice and _game_side), well inside the recursion limit of 1000.
MAX_DEPTH = 100
_TOO_DEEP = "nested more than %d deep" % MAX_DEPTH

# Most characters an answer may print.  cli.run_line measures every
# rendered answer, text or JSON, against it; the set-term fold refuses the
# first node whose text is longer.  The longest answer on the benchmark's
# workloads has 1 169 characters.
MAX_OUTPUT = 1 << 20


def too_large():
    """The one refusal of an answer over MAX_OUTPUT characters."""
    return OutputTooLarge("the answer has more than %d characters"
                          % MAX_OUTPUT)


class _Parser:
    """Recursive descent over the token texts of one text.  A token's kind
    is read off its text, and its position is looked up only when an error
    is raised, by a positional scan that stops at the failing token."""

    def __init__(self, text, max_terms=None):
        self.text = text
        self.tokens = _scan(text)
        self.i = 0
        self.nest = 0   # _infix calls, w^w links and set-term elements open
        self.max_terms = max_terms   # where a number expression cuts series

    def expect(self, value):
        if self.tokens[self.i] != value:
            self.fail("expected %r, found %r"
                      % (value, self.tokens[self.i] or "end"))
        self.i += 1

    def run(self, parse, *args):
        """parse(self, *args) over the whole text.  int() refuses a digit
        token longer than sys.get_int_max_str_digits(), and every reader
        converts a digit token before it steps past it, so that refusal is
        a ParseError at the current token.  The readers call int() inline:
        a helper call per digit token would cost a frame each."""
        try:
            value = parse(self, *args)
        except ValueError:
            text = self.tokens[self.i]
            limit = sys.get_int_max_str_digits()
            if not (text.isdigit() and limit and len(text) > limit):
                raise
        else:
            if self.tokens[self.i]:
                self.fail("trailing input")
            return value
        self.fail("integer literal has more than %d digits" % limit)

    def fail(self, msg, at=None):
        """Raise a ParseError at token `at`, by default the next unread
        one."""
        i = self.i if at is None else at
        raise ParseError(msg, next(islice(_positioned(self.text), i,
                                          None))[2])


# -- the precedence core ------------------------------------------------------
#
# A sort of expression is its two precedence levels, a pair (outer, inner)
# of tables that map each operator token to a row, a function of (parser,
# left, right).  An operand is a bracketed expression of the sort, or else
# is read by the sort's primary reader.  Every operator is left-associative.
# A row calls the kernel through a module global (add, mul, ...) or a class
# operator, never through a function object stored in the table, so that
# wrapping either (as bench/tracing.py does) reaches every operator.

def _infix(p, sort, primary):
    """One expression of `sort`: `value` is the inner level's value so far,
    joined to `left` by the pending outer row once the inner level ends.  A
    bracket recurses, so it costs one frame; the outermost call counts too."""
    if p.nest > MAX_DEPTH:
        p.fail(_TOO_DEEP)
    p.nest += 1
    outer, inner = sort
    tokens = p.tokens
    orow = irow = None
    while True:
        if tokens[p.i] == "(":
            p.i += 1
            right = _infix(p, sort, primary)
            p.expect(")")
        else:
            right = primary(p)
        value = right if irow is None else irow(p, value, right)
        text = tokens[p.i]
        irow = inner.get(text)
        if irow is None:
            if orow is not None:
                value = orow(p, left, value)
            orow = outer.get(text)
            if orow is None:
                p.nest -= 1
                return value
            left = value
        p.i += 1


# -- ordinal expressions ----------------------------------------------------

def _plus(a: Ordinal, b: Ordinal) -> Ordinal:
    """a + b.  b's terms are appended where they continue a's descending
    order, so a literal in CNF (w^2*3 + w + 4) is joined term by term, and
    ordinal + is taken only where a term is out of order."""
    if a.terms and b.terms and exp_cmp(a.terms[-1][0], b.terms[0][0]) <= 0:
        return a + b
    return Ordinal(a.terms + b.terms)


_ORDINAL = ({"+": lambda p, a, b: _plus(a, b),
             "(+)": lambda p, a, b: a.nat_add(b)},
            {"*": lambda p, a, b: a * b,
             "(*)": lambda p, a, b: a.nat_mul(b)})
_POWERS = [Ordinal(((n, 1),)) for n in range(10)]   # w^n for n < 10
_FINITE = [OZERO] + [Ordinal(((0, n),)) for n in range(1, 10)]   # n < 10


def parse_ordinal(text) -> Ordinal:
    return _Parser(text).run(_infix, _ORDINAL, _ofact)


def _ofact(p) -> Ordinal:
    text = p.tokens[p.i]
    if text == "w":
        p.i += 1
        if p.tokens[p.i] != "^":
            return OMEGA
        p.i += 1
        n = p.tokens[p.i]
        if n.isdigit():
            e = int(n)
            p.i += 1
            return _POWERS[e] if e < 10 else Ordinal(((e, 1),))
        if n == "(":
            p.i += 1
            e = _infix(p, _ORDINAL, _ofact)
            if p.tokens[p.i] != ")":
                p.expect(")")
            p.i += 1
        elif n == "w":
            if p.nest > MAX_DEPTH:
                p.fail(_TOO_DEEP)
            p.nest += 1
            e = _ofact(p)
            p.nest -= 1
        else:
            p.fail("expected an ordinal exponent")
        return Ordinal.omega_pow(e)
    if text.isdigit():
        n = int(text)
        p.i += 1
        return _FINITE[n] if n < 10 else Ordinal(((0, n),))
    p.fail("expected an ordinal")


def render_ordinal(o: Ordinal) -> str:
    if not o.terms:
        return "0"
    parts = []
    for e, c in o.terms:
        if not e:
            parts.append(str(c))
            continue
        if type(e) is not int:
            base = "w^(%s)" % render_ordinal(e)
        elif e == 1:
            base = "w"
        else:
            base = "w^%d" % e
        parts.append(base if c == 1 else "%s*%d" % (base, c))
    return " + ".join(parts)


def ordinal_to_json(o):
    """The terms of o as [[exponent, coefficient], ...], recursively; a
    finite exponent n is the list of the ordinal n."""
    if type(o) is int:
        return [[[], o]] if o else []
    return [[ordinal_to_json(e), c] for e, c in o.terms]


# -- surreal expressions ------------------------------------------------------
#
# The descent evaluates to a Number where the value is exact.  Only three
# calls can cut a series: divide by a non-rational, exp and ln.  A cut value
# goes on as the TruncatedNumber (value, order) they return, whose value
# holds no term at or below its order, and every operator and function of a
# cut operand gives such a pair again, by the valuation rules.  Let v^(x) be
# the leading exponent of x's value, or x's order when that value is 0; an
# exact operand adds no bound:
#
#   -a      keeps a's order;
#   a +- b  takes the larger order;
#   a * b   takes max(o_a + v^(b), o_b + v^(a)), and an exact 0 factor
#           gives an exact 0;
#   1/b     takes the larger of invert's order and o_b - 2*v^(b);
#   exp(a)  takes the larger of its series order and v(exp(value)) + o_a;
#   ln(a)   takes the larger of its series order and o_a - v(value).
#
# The first four are surreal's known_negate, known_sum, known_product and
# divide, and the last two are _series.  A cut divisor or ln argument whose
# value is 0, and a cut exp argument of order >= 0, are known too little
# for an answer: InsufficientPrecision.  A row whose operands are both
# Numbers calls add, negate or mul itself, by the names a tracer wraps, and
# builds no pair of (value, order).

def parse_number_expr(text, max_terms: int = 8) -> TruncatedNumber:
    if max_terms < 1:
        raise ParseError("max_terms must be >= 1, got %d" % max_terms)
    value = _Parser(text, max_terms).run(_infix, _NUMBER, _nfact)
    return value if value.__class__ is TruncatedNumber else \
        TruncatedNumber(value)


def parse_number(text) -> Number:
    """Parse a closed normal-form rendering (always exact)."""
    t = parse_number_expr(text)
    if not t.exact:
        raise ParseError("expression is not exact; use the CLI eval verb",
                         0)
    return t.value


def _cut(t: TruncatedNumber):
    """The descent value of a divide, exp or ln result: its Number when it
    is exact, and otherwise the result itself, which keeps its order."""
    return t.value if t.order is None else t


def _sum(p, a, b):
    if a.__class__ is b.__class__ is Number:
        return add(a, b)
    return known_sum(a, b)


def _difference(p, a, b):
    if a.__class__ is b.__class__ is Number:
        return add(a, negate(b))
    return known_sum(a, known_negate(b))


def _product(p, a, b):
    if a.__class__ is b.__class__ is Number:
        return mul(a, b)
    return known_product(a, b)


def _series(name, arg, max_terms):
    """exp or ln of a cut descent value."""
    x, o = arg.value, arg.order
    if name == "exp":
        if exp_cmp(o, 0) >= 0:
            raise InsufficientPrecision("exp of a value cut at or above "
                                        "exponent 0")
        t = explog.exp(x, max_terms)
        shift = t.value.terms[0][0]                 # v(exp(value))
    else:
        if not x:
            raise InsufficientPrecision("ln of a value that is 0 above its "
                                        "order")
        t = explog.ln(x, max_terms)
        shift = exp_times(x.terms[0][0], -1)        # -v(value)
    return _known(t.value, _higher(t.order, exp_sum(o, shift)))


_NUMBER = ({"+": _sum, "-": _difference},
           {"*": _product,
            "/": lambda p, a, b: _cut(divide(a, b, p.max_terms))})


def _nfact(p) -> Number:
    """A primary, after a run of unary minus signs (_infix reads any other
    bracketed operand).  An epsilon index, a bracketed exponent and a game
    member must be exact: a Number, not a cut value."""
    i, text = p.i, p.tokens[p.i]
    if text == "-":
        neg = False
        while p.tokens[p.i] == "-":
            p.i += 1
            neg = not neg
        if p.tokens[p.i] == "(":
            p.i += 1
            value = _infix(p, _NUMBER, _nfact)
            p.expect(")")
        else:
            value = _nfact(p)   # one frame: the next token is not a '-'
        if not neg:
            return value
        return known_negate(value)
    if text == "w":
        p.i += 1
        if p.tokens[p.i] != "^":
            return NOMEGA
        p.i += 1
        if p.tokens[p.i] == "(":
            p.i += 1
            e = _infix(p, _NUMBER, _nfact)
            p.expect(")")
            if e.__class__ is not Number:
                p.fail("exponent must be exact", i + 2)
            return omega_pow(e)
        neg = p.tokens[p.i] == "-"
        p.i += neg
        n = p.tokens[p.i]
        if not n.isdigit():
            p.fail("expected an exponent")
        n = int(n)
        p.i += 1
        return Number(((-n if neg else n, 1),))
    if text == "eps":
        p.i += 1
        p.expect("[")
        index = _infix(p, _NUMBER, _nfact)
        p.expect("]")
        if index.__class__ is not Number:
            p.fail("epsilon index must be exact", i)
        return epsilon(index)
    if text in ("exp", "ln"):
        p.i += 1
        p.expect("(")
        arg = _infix(p, _NUMBER, _nfact)
        p.expect(")")
        if arg.__class__ is Number:
            return _cut((explog.exp if text == "exp" else explog.ln)(
                arg, p.max_terms))
        return _series(text, arg, p.max_terms)
    if text.isdigit():
        n = int(text)
        p.i += 1
        return Number(((0, n),) if n else ())
    if text == "{":
        p.i += 1
        left = _game_side(p, "|")
        p.expect("|")
        right = _game_side(p, "}")
        p.expect("}")
        return from_rational(simplest_dyadic_game(left, right))
    p.fail("expected a number")


def _game_side(p, stop):
    side = []
    if p.tokens[p.i] == stop:
        return side
    while True:
        q = _infix(p, _NUMBER, _nfact)
        if q.__class__ is not Number:
            p.fail("game members must be exact")
        r = _rational(q) if q else 0
        if r is None or r.denominator & (r.denominator - 1):
            p.fail("game members must be dyadic rationals")
        side.append(r)
        if p.tokens[p.i] != ",":
            return side
        p.i += 1


def render_number(x: Number) -> str:
    if not x.terms:
        return "0"
    parts = []
    for e, c in x.terms:
        if isinstance(e, EpsilonAtom):
            base = "eps[%s]" % render_number(e.index)
            parts.append(base if c == 1 else "%s*%s" % (base, c))
            continue
        if type(e) is Number:
            parts.append("w^(%s)*%s" % (render_number(e), c))
        elif not e:
            parts.append(str(c))
        elif e == 1:
            parts.append("w*%s" % c)
        elif type(e) is int:
            parts.append("w^%s*%s" % (e, c))
        else:
            parts.append("w^(%s)*%s" % (e, c))
    return " + ".join(parts)


def number_to_json(x: Number):
    out = []
    for e, c in x.terms:
        if type(e) is int or type(e) is Fraction:
            # a real exponent q is written as the Number q, [[0, q]]
            ej = [[[], [e.numerator, e.denominator]]] if e else []
        elif isinstance(e, EpsilonAtom):
            ej = {"eps": number_to_json(e.index)}
        else:
            ej = number_to_json(e)
        out.append([ej, [c.numerator, c.denominator]])
    return out


def exponent_to_json(e):
    """A canonical exponent as number_to_json writes it in a term: the
    exponent of the monomial w^e."""
    return number_to_json(Number(((e, 1),)))[0][0]


def number_from_json(data) -> Number:
    """The inverse of number_to_json; each [num, den] pair is read as one
    rational, which from_terms spells as an int when it is integral."""
    pairs = []
    for ej, (num, den) in data:
        if isinstance(ej, dict):
            e = EpsilonAtom(number_from_json(ej["eps"]))
        else:
            e = number_from_json(ej)
        pairs.append((e, Fraction(num, den)))
    return from_terms(pairs)


# -- set terms ----------------------------------------------------------------

def _fold_setterm(t, fset, memo):
    """(sort key, result) of a set term, folded bottom-up: an atom's result
    is its name, and a set's is fset(results), given its elements' results
    in the canonical order.  That order puts atoms (by name) before sets,
    and sets by the sorted tuple of their elements' keys.  `memo`, one per
    call of the public renderers, maps a set's id to its pair, so each
    node's key and result are computed once even where one subterm is
    referenced repeatedly (the encodings built by skands.kpair and nat_code
    are such DAGs)."""
    if isinstance(t, str):
        return (0, t), t
    got = memo.get(id(t))
    if got is None:
        kids = [_fold_setterm(e, fset, memo) for e in t]
        kids.sort(key=itemgetter(0))
        got = memo[id(t)] = ((1, tuple([k for k, _ in kids])),
                             fset([r for _, r in kids]))
    return got


def _braced(texts):
    """A set's text, refused over the budget: the text of a node is a
    substring of every answer that holds it, so a large DAG's render stops
    at its first node over MAX_OUTPUT."""
    text = "{%s}" % ",".join(texts)
    if len(text) > MAX_OUTPUT:
        raise too_large()
    return text


def render_setterm(t) -> str:
    return _fold_setterm(t, _braced, {})[1]


def parse_setterm(text):
    """Parse one set term: IDENT, INT or '{' [st (',' st)*] '}'."""
    return _Parser(text).run(_setterm)


def setterm_to_json(t):
    """An atom as its name, a set as the list of its elements' codes."""
    return _fold_setterm(t, list, {})[1]


def _setterm(p, layers=None):
    """IDENT, INT or '{' [st (',' st)*] '}'.  Given a list `layers`, a brace
    term is also read as the nested-brace form of a skand.  It appends its
    layers, outermost first, as (component, set term) pairs: a brace's
    component holds its elements before a trailing brace, and the trailing
    brace is the next layer.  An innermost '{...}' or '{...SEGS}' ends the
    list with (None, SEGS or None) and stands for no set term, so it must
    be the last element of its brace."""
    text = p.tokens[p.i]
    if text not in _SYMBOLS:   # a name or an integer
        p.i += 1
        return text
    if text != "{":
        p.fail("expected a set term" if layers is None
               else "expected a set term or nested brace")
    p.i += 1
    elems, inner = [], None
    if layers is not None and p.tokens[p.i] == "...":
        p.i += 1
        layers.append((None, _segments(p) if p.tokens[p.i] in
                       ("const", "cycle") else None))
    elif p.tokens[p.i] != "}":
        if p.nest >= MAX_DEPTH:   # a set term is in no expression
            p.fail(_TOO_DEEP)
        p.nest += 1
        while True:
            inner = None if layers is None else []
            elems.append(_setterm(p, inner))
            if p.tokens[p.i] != ",":
                break
            p.i += 1
            if inner and inner[-1][0] is None:
                p.fail("'...' cannot appear inside a set term")
        p.nest -= 1
    if p.tokens[p.i] != "}":
        p.expect("}")
    p.i += 1
    if layers:   # '{...}'; any other brace fills its list below
        return None
    t = sk.Fset(elems)
    if inner:
        layers.append((sk.Fset(elems[:-1]), t))
        layers += inner
    elif layers is not None:
        layers.append((t, t))
    return t


# -- skand / coskand literals ---------------------------------------------------

def render_segments(m: sk.TransfiniteMap) -> str:
    parts = []
    for i, (length, pat) in enumerate(m.segments):
        if len(pat) == 1:
            body = "const(%s)" % render_setterm(pat[0])
        else:
            body = "cycle(%s)" % ",".join(render_setterm(v) for v in pat)
        if i + 1 < len(m.segments):
            body += ":%s" % render_ordinal(length)
        parts.append(body)
    return ";".join(parts)


def _segments(p):
    """Parsed as (explicit length or None, pattern) pairs."""
    tokens, segs = p.tokens, []
    while True:
        head = tokens[p.i]
        if head != "const" and head != "cycle":
            p.fail("expected const(...) or cycle(...)")
        p.i += 1
        if tokens[p.i] != "(":
            p.expect("(")
        p.i += 1
        vals = [_setterm(p)]
        if head == "cycle":
            while tokens[p.i] == ",":
                p.i += 1
                vals.append(_setterm(p))
        if tokens[p.i] != ")":
            p.expect(")")
        p.i += 1
        colon = tokens[p.i] == ":"
        p.i += colon
        length = _infix(p, _ORDINAL, _ofact) if colon else None
        segs.append((length, tuple(vals)))
        if tokens[p.i] != ";":
            return segs
        p.i += 1


def _interval(p):
    """The clutch region '@ [start, end)', which ends the text, as (start,
    end - start)."""
    if p.tokens[p.i] != "@" or p.tokens[p.i + 1] != "[":
        p.expect("@")
        p.expect("[")
    p.i += 2
    start = _infix(p, _ORDINAL, _ofact)
    if p.tokens[p.i] != ",":
        p.expect(",")
    p.i += 1
    end = _infix(p, _ORDINAL, _ofact)
    if p.tokens[p.i] != ")":
        p.expect(")")
    p.i += 1
    try:
        total = end.sub_left(start)
    except PrefixTooLarge:
        total = OZERO
    if not total.terms:
        p.fail("empty clutch region")
    if p.tokens[p.i]:
        p.fail("trailing input")
    return start, total


def _resolve_lengths(segs, total, p):
    """The map of the (length, pattern) pairs, once their lengths fill
    `total`; only the last length may be None, and it is set to the rest.
    The lengths are summed once and the sum is compared with the total
    once: partial sums only grow, so no prefix exceeds the total unless the
    whole sum does."""
    used = OZERO
    for i, (length, pat) in enumerate(segs):
        if length is None:
            break
        used = _plus(used, length) if used.terms else length
    try:
        left = total.sub_left(used)
    except PrefixTooLarge:
        p.fail("segment lengths exceed the clutch region")
    if length is None:
        if i + 1 != len(segs):
            p.fail("only the last segment may omit its length")
        segs[-1] = (left, pat)
    elif left.terms:
        p.fail("segment lengths do not fill the clutch region")
    return sk.TransfiniteMap.from_segments(segs, total)


def parse_skand(text) -> object:
    """Parse skand or coskand text (see the module docstring)."""
    return _Parser(text).run(_skand)


def _skand(p):
    asc = p.tokens[p.i] == "asc"
    p.i += asc
    if asc or p.tokens[p.i] != "{":
        segs = _segments(p)
        start, total = _interval(p)
        return sk.Skand(start, _resolve_lengths(segs, total, p), asc)
    layers = []
    _setterm(p, layers)
    tail = layers.pop()[1] if layers[-1][0] is None else False
    if not p.tokens[p.i]:
        # bare braces: a finite coskand, innermost layer first (greedy)
        if tail is not False:
            p.fail("a bare-brace coskand cannot contain '...'")
        return sk.Skand(OZERO, sk.TransfiniteMap.from_segments(
            [(ONE, (c,)) for c, _ in reversed(layers)]), True)
    start, total = _interval(p)
    if total.is_finite() and len(layers) + (tail is not False) > \
            total.as_int():
        # braces past the finite length are elements of the last layer
        if tail is not False:
            p.fail("'...' cannot appear inside a set term")
        n = total.as_int()
        layers[n - 1:] = [(layers[n - 1][1], None)]
    segs = [(ONE, (c,)) for c, _ in layers]
    if tail is None:
        if not layers:
            p.fail("'...' needs a preceding component to continue")
        segs.append((None, segs[-1][1]))
    elif tail is not False:
        segs += tail
    return sk.Skand(start, _resolve_lengths(segs, total, p))


def brace_render(s, depth: int = 4) -> str:
    """Nested-brace rendering truncated at `depth` layers, with the clutch
    region annotation; finite coskands unfold as bare braces."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    suffix = " @ [%s, %s)" % (render_ordinal(s.start), render_ordinal(s.end))
    complete = s.length.is_finite() and s.length.as_int() <= depth
    if s.ascending and not complete:
        return "asc %s%s" % (render_segments(s.mapping), suffix)
    comps = [s.mapping.value_at(Ordinal.from_int(i))
             for i in range(s.length.as_int() if complete else depth)]
    if not all(isinstance(c, frozenset) for c in comps):
        # atom-valued components have no element list to splat: keep the
        # whole description behind the ellipsis marker
        return ("asc %s%s" if s.ascending else "{...%s}%s") % (
            render_segments(s.mapping), suffix)
    if complete:
        text = None   # innermost first: a coskand's first component
    else:
        tail = s.mapping.slice_from(Ordinal.from_int(depth))
        text = "{...}" if len(tail.segments) == 1 and \
            tail.segments[0][1] == (comps[-1],) \
            else "{...%s}" % render_segments(tail)
    for c in comps if s.ascending else reversed(comps):
        text = _layer_text(c, text)
    return text if s.ascending else text + suffix


def _layer_text(component, inner):
    elems = render_setterm(component)[1:-1]  # the text inside its braces
    if inner is None:
        return "{%s}" % elems
    if elems:
        return "{%s,%s}" % (elems, inner)
    return "{%s}" % inner


def skand_to_json(s) -> dict:
    segs = []
    for length, pat in s.mapping.segments:
        if len(pat) == 1:
            segs.append({"const": setterm_to_json(pat[0]),
                         "length": render_ordinal(length)})
        else:
            segs.append({"cycle": [setterm_to_json(v) for v in pat],
                         "length": render_ordinal(length)})
    return {"kind": "coskand" if s.ascending else "skand",
            "start": render_ordinal(s.start), "segments": segs}
