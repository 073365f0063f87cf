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

  skand text    SEGS '@' '[' o ',' o ')'   or a nested-brace form whose
                trailing brace is the next layer and whose innermost brace
                may be '...' (constant continuation) or '...SEGS'.
                SEGS := seg (';' seg)* ;  seg := ('const(' st ')' |
                'cycle(' st (',' st)* ')') [':' o] ; the last length may be
                omitted.  st := IDENT | INT | '{' [st (',' st)*] '}'.
                A bare-brace form with no '@' is a finite coskand read
                innermost-first; 'asc SEGS @ [o,o)' is a general coskand.

Rendering is the exact inverse on canonical values: parse(render(v)) == v.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter

from .errors import ParseError
from .ordinals import Ordinal
from .ordinals import ZERO as OZERO
from .surreal import (Dyadic, EpsilonAtom, Number, TruncatedNumber, add,
                      divide, epsilon, from_rational, from_terms, mul, negate,
                      omega_pow, simplest_dyadic_game)
from . import explog
from . import skands as sk

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<ellipsis>\.\.\.)
  | (?P<natadd>\(\+\))
  | (?P<natmul>\(\*\))
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<sym>[()\[\]{}|,;:@^*/+\-])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# the ASCII tokens each alias stands for, all at the alias's own position
_ALIASES = {"ω": (("name", "w"),), "ε": (("name", "eps"),),
            "…": (("ellipsis", "..."),),
            "½": (("int", "1"), ("sym", "/"), ("int", "2"))}


def tokenize(text):
    # the catch-all group makes every character start a match, so finditer
    # walks the text with no gaps; a character only it matches is an alias,
    # or else the first bad character, which stops the scan
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            if m.group() not in _ALIASES:
                raise ParseError("unexpected character %r" % m.group(),
                                 m.start())
            out.extend((k, t, m.start()) for k, t in _ALIASES[m.group()])
            continue
        out.append((kind, m.group(), m.start()))
    out.append(("end", "", len(text)))
    return out


# Deepest bracket or exponent nesting a parser accepts.  Each level costs up
# to six Python frames, so this keeps well inside the default recursion
# limit of 1000.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.next()
        if text != value:
            raise ParseError("expected %r, found %r" % (value, text or "end"),
                             pos)

    # at and accept run once per operator tested at every precedence level,
    # so they index the token list themselves rather than call peek/next
    def at(self, value):
        return self.tokens[self.i][1] == value

    def accept(self, value):
        if self.tokens[self.i][1] == value:
            self.i += 1
            return True
        return False

    def done(self):
        return self.peek()[0] == "end"

    def fail(self, msg):
        raise ParseError(msg, self.peek()[2])

    def nested(self, parse, *args):
        """parse(self, *args) one nesting level deeper; every recursive
        descent goes through here, so the depth is bounded in one place."""
        if self.depth >= MAX_DEPTH:
            self.fail("nested more than %d deep" % MAX_DEPTH)
        self.depth += 1
        value = parse(self, *args)
        self.depth -= 1
        return value


# -- ordinal expressions ----------------------------------------------------

def parse_ordinal(text) -> Ordinal:
    p = _Parser(text)
    value = _oexpr(p)
    if not p.done():
        p.fail("trailing input")
    return value


def _oexpr(p) -> Ordinal:
    value = _oterm(p)
    while True:
        if p.accept("+"):
            value = value + _oterm(p)
        elif p.peek()[0] == "natadd":
            p.next()
            value = value.nat_add(_oterm(p))
        else:
            return value


def _oterm(p) -> Ordinal:
    value = _ofact(p)
    while True:
        if p.accept("*"):
            value = value * _ofact(p)
        elif p.peek()[0] == "natmul":
            p.next()
            value = value.nat_mul(_ofact(p))
        else:
            return value


def _ofact(p) -> Ordinal:
    kind, text, pos = p.peek()
    if text == "w":
        p.next()
        if p.accept("^"):
            if p.accept("("):
                e = p.nested(_oexpr)
                p.expect(")")
            elif p.peek()[0] == "int":
                e = Ordinal.from_int(int(p.next()[1]))
            elif p.at("w"):
                e = p.nested(_ofact)
            else:
                p.fail("expected an ordinal exponent")
            return Ordinal.omega_pow(e)
        return Ordinal.omega_pow(Ordinal.from_int(1))
    if kind == "int":
        p.next()
        return Ordinal.from_int(int(text))
    if text == "(":
        p.next()
        value = p.nested(_oexpr)
        p.expect(")")
        return value
    raise ParseError("expected an ordinal", pos)


def render_ordinal(o: Ordinal) -> str:
    if not o.terms:
        return "0"
    parts = []
    for e, c in o.terms:
        if not e:
            parts.append(str(c))
            continue
        if e == Ordinal.from_int(1):
            base = "w"
        elif e.is_finite():
            base = "w^%d" % e.as_int()
        else:
            base = "w^(%s)" % render_ordinal(e)
        parts.append(base if c == 1 else "%s*%d" % (base, c))
    return " + ".join(parts)


def ordinal_to_json(o: Ordinal):
    return [[ordinal_to_json(e), c] for e, c in o.terms]


def ordinal_from_json(data) -> Ordinal:
    return Ordinal(tuple((ordinal_from_json(e), int(c)) for e, c in data))


# -- surreal expressions ------------------------------------------------------
#
# evaluation carries exactness: every value is a TruncatedNumber.

def _exact(x: Number) -> TruncatedNumber:
    return TruncatedNumber(x, True)


def _combine(a: TruncatedNumber, b: TruncatedNumber, value) -> TruncatedNumber:
    exact = a.exact and b.exact
    return TruncatedNumber(value, exact,
                           0 if exact else max(a.dropped_terms_bound,
                                               b.dropped_terms_bound))


def parse_number_expr(text, max_terms: int = 8) -> TruncatedNumber:
    if max_terms < 1:
        raise ParseError("max_terms must be >= 1, got %d" % max_terms)
    p = _Parser(text)
    value = _nexpr(p, max_terms)
    if not p.done():
        p.fail("trailing input")
    return value


def parse_number(text) -> Number:
    """Parse a closed normal-form rendering (always exact)."""
    t = parse_number_expr(text)
    if not t.exact:
        raise ParseError("expression is not exact; use the CLI eval verb")
    return t.value


def _nexpr(p, mt) -> TruncatedNumber:
    value = _nterm(p, mt)
    while True:
        if p.accept("+"):
            rhs = _nterm(p, mt)
            value = _combine(value, rhs, add(value.value, rhs.value))
        elif p.accept("-"):
            rhs = _nterm(p, mt)
            value = _combine(value, rhs, add(value.value, negate(rhs.value)))
        else:
            return value


def _nterm(p, mt) -> TruncatedNumber:
    value = _nfact(p, mt)
    while True:
        if p.accept("*"):
            rhs = _nfact(p, mt)
            value = _combine(value, rhs, mul(value.value, rhs.value))
        elif p.accept("/"):
            rhs = _nfact(p, mt)
            q = divide(value.value, rhs.value, mt)
            exact = value.exact and rhs.exact and q.exact
            value = TruncatedNumber(q.value, exact,
                                    0 if exact else mt)
        else:
            return value


def _nfact(p, mt) -> TruncatedNumber:
    neg = False
    while p.accept("-"):
        neg = not neg
    value = _nprim(p, mt)
    if not neg:
        return value
    return TruncatedNumber(negate(value.value), value.exact,
                           value.dropped_terms_bound)


def _nprim(p, mt) -> TruncatedNumber:
    kind, text, pos = p.peek()
    if text == "w":
        p.next()
        if p.accept("^"):
            return _exact(omega_pow(_nexponent(p, mt)))
        return _exact(omega_pow(from_rational(1)))
    if text == "eps":
        p.next()
        p.expect("[")
        idx = p.nested(_nexpr, mt)
        p.expect("]")
        if not idx.exact:
            raise ParseError("epsilon index must be exact", pos)
        return _exact(epsilon(idx.value))
    if text in ("exp", "ln"):
        p.next()
        p.expect("(")
        arg = p.nested(_nexpr, mt)
        p.expect(")")
        fn = explog.exp if text == "exp" else explog.ln
        res = fn(arg.value, mt)
        exact = arg.exact and res.exact
        return TruncatedNumber(res.value, exact,
                               0 if exact else max(arg.dropped_terms_bound,
                                                   res.dropped_terms_bound))
    if kind == "int":
        p.next()
        return _exact(from_rational(int(text)))
    if text == "(":
        p.next()
        value = p.nested(_nexpr, mt)
        p.expect(")")
        return value
    if text == "{":
        p.next()
        left = p.nested(_game_side, mt, "|")
        p.expect("|")
        right = p.nested(_game_side, mt, "}")
        p.expect("}")
        d = simplest_dyadic_game(left, right)
        return _exact(from_rational(Fraction(d)))
    raise ParseError("expected a number", pos)


def _nexponent(p, mt) -> Number:
    kind, text, pos = p.peek()
    if p.accept("("):
        e = p.nested(_nexpr, mt)
        p.expect(")")
        if not e.exact:
            raise ParseError("exponent must be exact", pos)
        return e.value
    neg = p.accept("-")
    kind, text, pos = p.peek()
    if kind != "int":
        raise ParseError("expected an exponent", pos)
    p.next()
    v = from_rational(int(text))
    return negate(v) if neg else v


def _game_side(p, mt, stop):
    side = []
    if p.at(stop):
        return side
    while True:
        v = _nexpr(p, mt)
        if not v.exact:
            p.fail("game members must be exact")
        q = v.value
        if q and (len(q.terms) != 1 or type(q.terms[0][0]) is not Fraction
                  or q.terms[0][0]):
            p.fail("game members must be dyadic rationals")
        try:
            side.append(Dyadic(q.terms[0][1] if q.terms else 0))
        except ValueError:
            p.fail("game members must be dyadic rationals")
        if not p.accept(","):
            return side


def render_number(x: Number) -> str:
    if not x.terms:
        return "0"
    parts = []
    for e, c in x.terms:
        if isinstance(e, EpsilonAtom):
            base = "eps[%s]" % render_number(e.index)
            parts.append(base if c == 1 else "%s*%s" % (base, c))
            continue
        if type(e) is not Fraction:
            parts.append("w^(%s)*%s" % (render_number(e), c))
        elif not e:
            parts.append(str(c))
        elif e == 1:
            parts.append("w*%s" % c)
        elif e.denominator == 1:
            parts.append("w^%s*%s" % (e, c))
        else:
            parts.append("w^(%s)*%s" % (e, c))
    return " + ".join(parts)


def number_to_json(x: Number):
    out = []
    for e, c in x.terms:
        if type(e) is Fraction:
            # a real exponent q is written as the Number q, [[0, q]]
            ej = [[[], [e.numerator, e.denominator]]] if e else []
        elif isinstance(e, EpsilonAtom):
            ej = {"eps": number_to_json(e.index)}
        else:
            ej = number_to_json(e)
        out.append([ej, [c.numerator, c.denominator]])
    return out


def number_from_json(data) -> Number:
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
    if isinstance(t, sk.Atom):
        return (0, t.name), t.name
    got = memo.get(id(t))
    if got is None:
        kids = [_fold_setterm(e, fset, memo) for e in t.elements]
        kids.sort(key=itemgetter(0))
        got = memo[id(t)] = ((1, tuple([k for k, _ in kids])),
                             fset([r for _, r in kids]))
    return got


def _braced(texts):
    return "{%s}" % ",".join(texts)


def render_setterm(t) -> str:
    return _fold_setterm(t, _braced, {})[1]


def parse_setterm(text):
    """Parse one set term: IDENT, INT or '{' [st (',' st)*] '}'."""
    p = _Parser(text)
    t = _setterm(p)
    if not p.done():
        p.fail("trailing input")
    return t


def setterm_to_json(t):
    """An atom as its name, a set as the list of its elements' codes."""
    return _fold_setterm(t, list, {})[1]


def _setterm(p):
    kind, text, pos = p.peek()
    if kind in ("name", "int"):
        p.next()
        return sk.Atom(text)
    if p.accept("{"):
        elems = []
        if not p.at("}"):
            while True:
                elems.append(p.nested(_setterm))
                if not p.accept(","):
                    break
        p.expect("}")
        return sk.Fset(frozenset(elems))
    raise ParseError("expected a set term", pos)


# -- skand / coskand literals ---------------------------------------------------

def render_segments(m: sk.TransfiniteMap) -> str:
    parts = []
    for i, (length, pat) in enumerate(m.segments):
        if isinstance(pat, sk.Constant):
            body = "const(%s)" % render_setterm(pat.value)
        else:
            body = "cycle(%s)" % ",".join(render_setterm(v)
                                          for v in pat.values)
        if i + 1 < len(m.segments):
            body += ":%s" % render_ordinal(length)
        parts.append(body)
    return ";".join(parts)


def _segments(p):
    """Parsed as (pattern, explicit-length-or-None) pairs."""
    segs = []
    while True:
        kind, text, pos = p.peek()
        if text == "const":
            p.next()
            p.expect("(")
            v = _setterm(p)
            p.expect(")")
            pat = sk.Constant(v)
        elif text == "cycle":
            p.next()
            p.expect("(")
            vals = [_setterm(p)]
            while p.accept(","):
                vals.append(_setterm(p))
            p.expect(")")
            pat = sk.Cycle(tuple(vals))
        else:
            raise ParseError("expected const(...) or cycle(...)", pos)
        length = None
        if p.accept(":"):
            length = _oexpr(p)
        segs.append((pat, length))
        if not p.accept(";"):
            return segs


def _interval(p):
    p.expect("@")
    p.expect("[")
    start = _oexpr(p)
    p.expect(",")
    end = _oexpr(p)
    p.expect(")")
    if end.cmp(start) <= 0:
        p.fail("empty clutch region")
    return start, end


def _resolve_lengths(segs, total, p):
    out = []
    left = total
    for i, (pat, length) in enumerate(segs):
        if length is None:
            if i + 1 != len(segs):
                p.fail("only the last segment may omit its length")
            length = left
        try:
            left = left.sub_left(length)
        except Exception:
            p.fail("segment lengths exceed the clutch region")
        out.append((length, pat))
    if left:
        p.fail("segment lengths do not fill the clutch region")
    return out


def _brace_tree(p):
    """Generic braced group: ('braced', items); items are ('leaf', text),
    nested trees, or a sole ('ellipsis', segs-or-None)."""
    p.expect("{")
    items = []
    if p.peek()[0] == "ellipsis":
        p.next()
        segs = None
        if p.peek()[1] in ("const", "cycle"):
            segs = _segments(p)
        p.expect("}")
        return ("braced", [("ellipsis", segs)])
    while not p.at("}"):
        kind, text, pos = p.peek()
        if kind in ("name", "int"):
            p.next()
            items.append(("leaf", text))
        elif p.at("{"):
            items.append(p.nested(_brace_tree))
        else:
            p.fail("expected a set term or nested brace")
        if not p.accept(","):
            break
    p.expect("}")
    return ("braced", items)


def _tree_to_setterm(tree, p):
    kind, payload = tree
    if kind == "leaf":
        return sk.Atom(payload)
    if kind == "ellipsis":
        p.fail("'...' cannot appear inside a set term")
    return sk.Fset(frozenset(_tree_to_setterm(t, p) for t in payload))


def _unroll_layers(tree, p, max_layers=None):
    """Walk trailing nested braces as successive layers, outermost first.
    Returns (components, tail) with tail False (complete), None (bare
    ellipsis) or a parsed segment list.  Stops early when max_layers is
    reached, treating deeper braces as set elements."""
    comps = []
    node = tree
    while True:
        items = node[1]
        if len(items) == 1 and items[0][0] == "ellipsis":
            return comps, (None if items[0][1] is None else items[0][1])
        last_is_layer = (items and items[-1][0] == "braced"
                         and (max_layers is None or len(comps) + 1 < max_layers))
        if last_is_layer:
            comps.append(sk.Fset(frozenset(
                _tree_to_setterm(t, p) for t in items[:-1])))
            node = items[-1]
        else:
            comps.append(sk.Fset(frozenset(
                _tree_to_setterm(t, p) for t in items)))
            return comps, False


def parse_skand(text) -> object:
    """Parse skand or coskand text (see the module docstring)."""
    p = _Parser(text)
    asc = False
    if p.peek()[1] == "asc":
        p.next()
        asc = True
    if p.at("{") and not asc:
        tree = _brace_tree(p)
        if p.done():
            # bare braces: a finite coskand, innermost layer first (greedy)
            comps, tail = _unroll_layers(tree, p)
            if tail is not False:
                p.fail("a bare-brace coskand cannot contain '...'")
            segs = [(Ordinal.from_int(1), sk.Constant(c))
                    for c in reversed(comps)]
            return sk.make_coskand(0, segs)
        start, end = _interval(p)
        if not p.done():
            p.fail("trailing input")
        total = end.sub_left(start)
        cap = total.as_int() if total.is_finite() else None
        comps, tail = _unroll_layers(tree, p, cap)
        units = [(sk.Constant(c), Ordinal.from_int(1)) for c in comps]
        if tail is False:
            segs = units
        else:
            rest = total.sub_left(Ordinal.from_int(len(units)))
            if tail is None:
                if not comps:
                    p.fail("'...' needs a preceding component to continue")
                segs = units + [(sk.Constant(comps[-1]), rest)]
            else:
                segs = units + list(tail)
        resolved = _resolve_lengths(segs, total, p)
        return sk.Skand(start, sk.TransfiniteMap.from_segments(resolved))
    segs = _segments(p)
    start, end = _interval(p)
    if not p.done():
        p.fail("trailing input")
    resolved = _resolve_lengths(segs, end.sub_left(start), p)
    return sk.Skand(start, sk.TransfiniteMap.from_segments(resolved), asc)


def brace_render(s, depth: int = 4) -> str:
    """Nested-brace rendering truncated at `depth` layers, with the clutch
    region annotation; finite coskands unfold as bare braces."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if s.ascending:
        if s.length.is_finite() and s.length.as_int() <= depth:
            n = s.length.as_int()
            comps = [s.mapping.value_at(Ordinal.from_int(i)) for i in range(n)]
            if all(isinstance(c, sk.Fset) for c in comps):
                text = _layer_text(comps[0], None)
                for c in comps[1:]:
                    text = _layer_text(c, text)
                return text
        return "asc %s @ [%s, %s)" % (render_segments(s.mapping),
                                      render_ordinal(s.start),
                                      render_ordinal(s.end))
    suffix = " @ [%s, %s)" % (render_ordinal(s.start), render_ordinal(s.end))
    if s.length.is_finite() and s.length.as_int() <= depth:
        n = s.length.as_int()
        comps = [s.mapping.value_at(Ordinal.from_int(i)) for i in range(n)]
        if all(isinstance(c, sk.Fset) for c in comps):
            text = _layer_text(comps[-1], None)
            for c in reversed(comps[:-1]):
                text = _layer_text(c, text)
            return text + suffix
        return "{...%s}%s" % (render_segments(s.mapping), suffix)
    comps = [s.mapping.value_at(Ordinal.from_int(i)) for i in range(depth)]
    if not all(isinstance(c, sk.Fset) for c in comps):
        # atom-valued components have no element list to splat: keep the
        # whole description behind the ellipsis marker
        return "{...%s}%s" % (render_segments(s.mapping), suffix)
    tail = s.mapping.slice_from(Ordinal.from_int(depth))
    if len(tail.segments) == 1 and tail.segments[0][1] == sk.Constant(comps[-1]):
        inner = "{...}"
    else:
        inner = "{...%s}" % render_segments(tail)
    text = inner
    for c in reversed(comps):
        text = _layer_text(c, text)
    return text + suffix


def _layer_text(component, inner):
    if not isinstance(component, sk.Fset):
        raise ValueError("brace rendering needs set-valued components")
    elems = render_setterm(component)[1:-1]  # the text inside its braces
    if inner is None:
        return "{%s}" % elems
    if elems:
        return "{%s,%s}" % (elems, inner)
    return "{%s}" % inner


def skand_to_json(s) -> dict:
    segs = []
    for length, pat in s.mapping.segments:
        if isinstance(pat, sk.Constant):
            segs.append({"const": setterm_to_json(pat.value),
                         "length": render_ordinal(length)})
        else:
            segs.append({"cycle": [setterm_to_json(v) for v in pat.values],
                         "length": render_ordinal(length)})
    return {"kind": "coskand" if s.ascending else "skand",
            "start": render_ordinal(s.start), "segments": segs}


def skand_from_json(data):
    segs = []
    for seg in data["segments"]:
        length = parse_ordinal(seg["length"])
        if "const" in seg:
            segs.append((length, sk.Constant(_setterm_unjson(seg["const"]))))
        else:
            segs.append((length, sk.Cycle(tuple(_setterm_unjson(v)
                                                for v in seg["cycle"]))))
    return sk.Skand(parse_ordinal(data["start"]),
                    sk.TransfiniteMap.from_segments(segs),
                    data.get("kind") == "coskand")


def _setterm_unjson(data):
    if isinstance(data, str):
        return sk.Atom(data)
    return sk.Fset(frozenset(_setterm_unjson(e) for e in data))
