"""Text and JSON codec round trips."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omegacalc import (add, brace_render, divide, epsilon, from_rational,
                       from_terms, mul, negate, number_from_json,
                       number_to_json, omega_pow, ordinal_from_json,
                       ordinal_to_json, parse_number, parse_number_expr,
                       parse_ordinal, parse_skand, render_number,
                       render_ordinal)
from omegacalc.errors import ParseError
from omegacalc.exprs import parse_setterm
from omegacalc.ordinals import Ordinal
from omegacalc.skands import Atom, Constant, Cycle, Fset
from omegacalc.surreal import EpsilonAtom


def test_ordinal_text_forms():
    assert render_ordinal(parse_ordinal("w^2*3 + w*1 + 5")) == "w^2*3 + w + 5"
    assert parse_ordinal("w^2*3+w*1+5") == parse_ordinal("w^2*3 + w + 5")
    assert render_ordinal(parse_ordinal("0")) == "0"
    assert parse_ordinal("w^w") == parse_ordinal("w^(w)")
    assert parse_ordinal("w^(w+1)*2") == parse_ordinal("w^(w+1) + w^(w+1)")
    assert render_ordinal(parse_ordinal("w+1*2")) == "w + 2"


def test_ordinal_json_round_trip():
    import test_ordinals as to
    rng = random.Random(61)
    for _ in range(100):
        a = to.random_ordinal(rng)
        assert ordinal_from_json(ordinal_to_json(a)) == a


def test_ordinal_json_decodes_finite_exponents_as_ints():
    data = [[[[[[[], 1]], 1], [[], 2]], 3], [[[[], 1]], 4], [[], 5]]
    a = ordinal_from_json(data)
    assert a == parse_ordinal("w^(w+2)*3 + w*4 + 5")
    assert [type(e) for e, _ in a.terms] == [Ordinal, int, int]
    assert a.terms[0][0].terms == ((1, 1), (0, 2))
    assert ordinal_to_json(a) == data


@pytest.mark.parametrize("data", [
    [[[], 0]],                       # renders 0, yet was truthy and != 0
    [[[], 1], [[[[], 1]], 1]],       # the terms of 1 + w, out of order
    [[[[[], 1]], 1], [[[[], 1]], 2]],  # a repeated exponent
    [[[[[], 1]], -1]],                # a negative coefficient
    [[[], 2.0]],                     # a coefficient that is not an int
    [[[], True]],
    [[[[[], 0]], 1]],                # a bad term inside an exponent
])
def test_ordinal_json_rejects_non_canonical_terms(data):
    with pytest.raises(ValueError):
        ordinal_from_json(data)


def test_number_text_forms():
    assert render_number(parse_number("(w+1)*(w-1)")) == "w^2*1 + -1"
    # every operator is left-associative
    assert render_number(parse_number("1-2-3")) == "-4"
    assert render_number(parse_number("2/4/2")) == "1/4"
    assert parse_number("2/3") == from_rational(2) * parse_number("1/3")
    assert parse_number("w^(1/2)") == parse_number("w^(1/2)*1")
    assert parse_number("eps[0]*2") == mul(epsilon(from_rational(0)),
                                           from_rational(2))
    assert render_number(epsilon(parse_number("1/2"))) == "eps[1/2]"


def test_unicode_aliases():
    assert parse_number("ω + 1") == parse_number("w + 1")
    assert parse_number("ε[0]") == epsilon(from_rational(0))


def test_tokenize_reports_the_first_bad_character():
    from omegacalc.exprs import tokenize
    for text, char, pos in (("w + $", "$", 4), ("#", "#", 0),
                            ("w^(1/2) .. 1", ".", 8), ("1 + 2 ? ?", "?", 6)):
        with pytest.raises(ParseError) as info:
            tokenize(text)
        assert str(info.value) == \
            "unexpected character %r (at position %d)" % (char, pos)
        assert info.value.position == pos
    kinds = [(k, t) for k, t, _ in tokenize("ω^2 + ε[0] … ½")]
    assert kinds == [("name", "w"), ("sym", "^"), ("int", "2"), ("sym", "+"),
                     ("name", "eps"), ("sym", "["), ("int", "0"),
                     ("sym", "]"), ("ellipsis", "..."), ("int", "1"),
                     ("sym", "/"), ("int", "2"), ("end", "")]


_PIECES = (list("()[]{}|,;:@^*/+-") + [
    "(+)", "(*)", "(+", "(*", "( + )", "+)", "...", "..", ".", " ", "\t",
    "\n", "w", "eps", "const", "x_1", "0", "12", "1x", "w2", "2w", "_", "$",
    "#", "?", "!", "~", "'", "\\", "\x00"])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
def test_scan_and_tokenize_split_every_text_alike(text):
    from omegacalc.exprs import _scan, tokenize
    try:
        tokens = tokenize(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            _scan(text)
        assert (str(info.value), info.value.position) == \
            (str(exc), exc.position)
    else:
        assert _scan(text) == [t for _, t, _ in tokens]


def test_positions_after_an_alias_index_the_input():
    # an alias scans in place, so positions are the input's own indices
    for text, pos in (("ω $", 2), ("½+ε[0] $", 7)):
        with pytest.raises(ParseError) as info:
            parse_number(text)
        assert info.value.position == pos
    assert parse_number("½+ε[0]") == parse_number("1/2+eps[0]")
    from omegacalc.exprs import tokenize
    assert tokenize("2ω½") == [
        ("int", "2", 0), ("name", "w", 1), ("int", "1", 2), ("sym", "/", 2),
        ("int", "2", 2), ("end", "", 3)]


def test_number_json_round_trip():
    import test_surreal as ts
    rng = random.Random(62)
    for _ in range(100):
        x = ts.random_number(rng)
        assert number_from_json(number_to_json(x)) == x
    e = mul(epsilon(parse_number("w")), from_rational(3))
    assert number_from_json(number_to_json(e)) == e


def test_truncated_expression_flags():
    t = parse_number_expr("1/(w+1)", 4)
    assert not t.exact and t.dropped_terms_bound == 4
    t = parse_number_expr("exp(w)")
    assert t.exact
    t = parse_number_expr("exp(w + w^-1)", 3)
    assert not t.exact


# (text, exact): a value is inexact iff divide, exp or ln cut a series on the
# way to it, even where the cut terms cancel or are multiplied away
EXACT_FLAGS = (
    ("1 + 2", True), ("w - w", True), ("2*w^-1", True), ("-w", True),
    ("w/3", True), ("w/w^2", True), ("(w + 1)*(w - 1)", True),
    ("exp(w)", True), ("ln(w)", True), ("ln(exp(w))", True),
    ("exp(-(w^2 - w^2))", True), ("1/(w+1)", False), ("-1/(w+1)", False),
    ("-(1/(w+1))", False), ("((1/(w+1)))", False), ("2 + 1/(w+1)", False),
    ("1/(w+1) - 1/(w+1)", False), ("0*(1/(w+1))", False),
    ("(w^2 - 1)/(w + 1)", False), ("exp(w^-1)", False), ("ln(w + 1)", False),
    ("exp(1/(w+1)-1/(w+1))", False), ("ln(w*(1/(w+1) - 1/(w+1)) + w)", False),
)


@pytest.mark.parametrize("text,exact", EXACT_FLAGS)
def test_exactness_through_every_operator(text, exact):
    t = parse_number_expr(text, 5)
    assert t.exact is exact
    assert t.dropped_terms_bound == (0 if exact else 5)


def test_places_that_need_an_exact_value_reject_a_cut():
    # positions are in the coordinates of the eval line
    from omegacalc.cli import Options, run_line
    for line, detail, position in (
            ("eval w^(1/(w+1))", "exponent must be exact", 7),
            ("eval eps[1/(w+1)]", "epsilon index must be exact", 5),
            ("eval {1, 1/(w+1)|2}", "game members must be exact", 16)):
        with pytest.raises(ParseError) as info:
            run_line(line, Options())
        assert (info.value.detail, info.value.position) == \
            (detail, position), line


def test_an_exact_parse_builds_one_truncated_number(monkeypatch):
    # when every node of the descent was a TruncatedNumber, this literal
    # built 23 of them
    from omegacalc.surreal import TruncatedNumber
    built = []
    init = TruncatedNumber.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(TruncatedNumber, "__init__", counted)
    t = parse_number_expr("(w + 1)*(w - 1) - w^2*3 + eps[w^-1]*2 + "
                          "w^(w^-2) + {0, 1|}")
    assert t.exact and built == [t]


def test_parse_errors_have_positions():
    with pytest.raises(ParseError):
        parse_number("w +")
    with pytest.raises(ParseError):
        parse_number("3 $ 4")
    with pytest.raises(ParseError):
        parse_ordinal("w^")
    err = None
    try:
        parse_number("(w")
    except ParseError as exc:
        err = exc
    assert err is not None and err.position is not None


def test_game_literals():
    assert parse_number("{|}") == parse_number("0")
    assert parse_number("{0|1}") == parse_number("1/2")
    assert parse_number("{0,1|}") == parse_number("2")
    from omegacalc.errors import IllFormedGame
    with pytest.raises(IllFormedGame):
        parse_number("{1|0}")
    with pytest.raises(ParseError):
        parse_number("{1/3|}")


def test_skand_literals():
    s = parse_skand("cycle(1,2,3) @ [0,w^2)")
    assert s.length == parse_ordinal("w^2")
    s = parse_skand("const({a}):w;const({b}) @ [0,w*2)")
    assert s.length == parse_ordinal("w*2")
    with pytest.raises(ParseError):
        parse_skand("const({a}):w @ [0,w*2)")   # lengths do not fill
    with pytest.raises(ParseError):
        parse_skand("const({a}) @ [5,5)")


def test_skand_brace_text():
    s = parse_skand("{a,{a,{a,{...}}}} @ [0,w)")
    from omegacalc import constant_skand, skand_equal
    assert skand_equal(s, constant_skand(Fset.of(Atom("a")),
                                         parse_ordinal("w")))
    t = parse_skand("{a,{b}} @ [0,2)")
    assert t.length == parse_ordinal("2")
    u = parse_skand("{a,{b}} @ [0,1)")
    assert u.length == parse_ordinal("1")
    assert u.mapping.value_at(parse_ordinal("0")) == \
        Fset.of(Atom("a"), Fset.of(Atom("b")))


def test_brace_render_examples():
    from omegacalc import constant_skand, make_coskand
    s = constant_skand(Fset.of(Atom("1")), parse_ordinal("w"))
    assert brace_render(s, 3) == "{1,{1,{1,{...}}}} @ [0, w)"
    e3 = make_coskand(0, [(3, Constant(Fset()))])
    assert brace_render(e3, 5) == "{{{}}}"
    assert parse_skand("{{{}}}").length == parse_ordinal("3")


def test_brace_render_cut_mid_cycle_round_trips():
    from omegacalc import cycle_skand, skand_equal
    s = cycle_skand([Fset.of(Atom(c)) for c in "abc"], parse_ordinal("w^2"))
    for depth in (1, 2, 3, 4, 5, 7):
        text = brace_render(s, depth)
        assert skand_equal(parse_skand(text), s), text


def test_skand_json_round_trip_keeps_the_orientation():
    from omegacalc.exprs import skand_from_json, skand_to_json
    for text in ("cycle(a,b) @ [1,w*2)", "asc const({}) @ [3,w)", "{{a},{}}"):
        s = parse_skand(text)
        assert skand_from_json(skand_to_json(s)) == s
    assert parse_skand("{{a},{}}").ascending
    assert not parse_skand("{{a},{}} @ [0,2)").ascending


# -- the parser against the ordinal operations --------------------------------

@st.composite
def ordinal_exprs(draw, depth=2):
    """(text, value) of a random ordinal expression: a sum of products whose
    terms are mostly monomials w^e*c, in or out of CNF order, joined by '+'
    or '(+)', with '(*)' and parenthesised exponents.  The value is folded
    here with the ordinal operations themselves, in the parser's
    precedence."""
    text, value = draw(_ordinal_product(depth))
    for _ in range(draw(st.integers(0, 3))):
        t, v = draw(_ordinal_product(depth))
        if draw(st.integers(0, 4)):
            text, value = "%s + %s" % (text, t), value + v
        else:
            text, value = "%s (+) %s" % (text, t), value.nat_add(v)
    return text, value


@st.composite
def _ordinal_product(draw, depth):
    text, value = draw(_ordinal_factor(depth))
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["*n", "*n", "*", "(*)"]))
        if how == "*n":
            n = draw(st.integers(0, 4))
            text, value = "%s*%d" % (text, n), value * Ordinal.from_int(n)
        else:
            t, v = draw(_ordinal_factor(depth))
            text = "%s %s %s" % (text, how, t)
            value = value * v if how == "*" else value.nat_mul(v)
    return text, value


@st.composite
def _ordinal_factor(draw, depth):
    kinds = ["int", "w", "w^n", "w^w"] + (["w^(e)", "(e)"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        n = draw(st.integers(0, 5))
        return str(n), Ordinal.from_int(n)
    if kind == "w":
        return "w", Ordinal.omega_pow(1)
    if kind == "w^n":
        n = draw(st.integers(0, 4))
        return "w^%d" % n, Ordinal.omega_pow(n)
    if kind == "w^w":
        return "w^w", Ordinal.omega_pow(Ordinal.omega_pow(1))
    text, value = draw(ordinal_exprs(depth - 1))
    if kind == "(e)":
        return "(%s)" % text, value
    return "w^(%s)" % text, Ordinal.omega_pow(value)


@settings(deadline=None, max_examples=300)
@given(ordinal_exprs())
def test_ordinal_literals_parse_to_the_folded_value(case):
    text, value = case
    assert parse_ordinal(text) == value, text
    assert parse_ordinal(render_ordinal(value)) == value


# -- the parser against the number operations ---------------------------------

@st.composite
def number_exprs(draw, depth=2):
    """(text, value) of a random number expression: sums and differences of
    products and quotients of factors, each factor an integer, w^n, w^(e)
    or a parenthesised expression after a run of unary minus signs.  The
    value is folded here with add, negate, mul and divide, in the parser's
    precedence: unary minus binds tightest, then '*' and '/', then '+' and
    '-', each left-associative.  A divisor is a rational or a monomial, so
    every value is exact."""
    text, value = draw(_number_product(depth))
    for _ in range(draw(st.integers(0, 3))):
        t, v = draw(_number_product(depth))
        if draw(st.booleans()):
            text, value = "%s + %s" % (text, t), add(value, v)
        else:
            text, value = "%s - %s" % (text, t), add(value, negate(v))
    return text, value


@st.composite
def _number_product(draw, depth):
    text, value = draw(_number_factor(depth))
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            t, v = draw(_number_factor(depth))
            text, value = "%s*%s" % (text, t), mul(value, v)
        else:
            t, v = draw(_number_divisor(depth))
            text, value = "%s/%s" % (text, t), divide(value, v).value
    return text, value


def _minus_run(draw, text, value):
    n = draw(st.integers(0, 3))
    return "-" * n + text, negate(value) if n % 2 else value


@st.composite
def _number_factor(draw, depth):
    kinds = ["int", "w^n"] + (["w^(e)", "(e)"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        n = draw(st.integers(0, 5))
        text, value = str(n), from_rational(n)
    elif kind == "w^n":
        n = draw(st.integers(-3, 3))
        text, value = "w^%d" % n if n >= 0 else "w^-%d" % -n, omega_pow(n)
    else:
        t, v = draw(number_exprs(depth - 1))
        text, value = ("(%s)" % t, v) if kind == "(e)" else \
            ("w^(%s)" % t, omega_pow(v))
    return _minus_run(draw, text, value)


@st.composite
def _number_divisor(draw, depth):
    """A nonzero integer, (p/q), w, w^n or w^(e), after a minus run."""
    kind = draw(st.sampled_from(["int", "p/q", "w", "w^n"]
                                + (["w^(e)"] if depth else [])))
    if kind == "int":
        n = draw(st.integers(1, 5))
        text, value = str(n), from_rational(n)
    elif kind == "p/q":
        q = Fraction(draw(st.integers(-5, 5).filter(bool)),
                     draw(st.integers(1, 5)))
        text = "(%d/%d)" % (q.numerator, q.denominator)
        value = from_rational(q)
    elif kind == "w":
        text, value = "w", omega_pow(1)
    elif kind == "w^n":
        n = draw(st.integers(0, 3))
        text, value = "w^%d" % n, omega_pow(n)
    else:
        t, v = draw(number_exprs(depth - 1))
        text, value = "w^(%s)" % t, omega_pow(v)
    return _minus_run(draw, text, value)


@settings(deadline=None, max_examples=300)
@given(number_exprs())
def test_number_expressions_parse_to_the_folded_value(case):
    text, value = case
    got = parse_number_expr(text)
    assert got.exact, text
    assert got.value == value, text
    assert parse_number(render_number(value)) == value


_CHAIN = 20000   # operators, far more than the Python stack has frames


@pytest.mark.parametrize("op, atom, want", [
    ("+", "1", from_rational(_CHAIN + 1)),
    ("-", "1", from_rational(1 - _CHAIN)),
    ("*", "w", omega_pow(_CHAIN + 1)),
    ("/", "w", omega_pow(1 - _CHAIN)),
])
def test_a_flat_number_chain_needs_no_recursion(op, atom, want):
    got = parse_number_expr(op.join([atom] * (_CHAIN + 1)))
    assert got.exact and got.value == want


@pytest.mark.parametrize("op, atom, want", [
    ("+", "w", Ordinal.omega_pow(1, _CHAIN + 1)),
    ("(+)", "w", Ordinal.omega_pow(1, _CHAIN + 1)),
    ("*", "w", Ordinal.omega_pow(_CHAIN + 1)),
    ("(*)", "w", Ordinal.omega_pow(_CHAIN + 1)),
])
def test_a_flat_ordinal_chain_needs_no_recursion(op, atom, want):
    assert parse_ordinal(op.join([atom] * (_CHAIN + 1))) == want


# -- stack headroom -----------------------------------------------------------
# Each shape nests through a different reader: parentheses, an exponent, a
# game, an ordinal exponent, and an exponent after a unary minus.  At
# MAX_DEPTH they need 111, 211, 315, 211 and 311 frames above the filled
# stack, so all five answer on a stack filled to 679 frames under pytest on
# Python 3.11 (the limit being 1000); FILLED keeps nine of those frames
# spare for the runner's own stack.  One more frame per nesting level in any
# reader of the game costs 100 frames and fails here.
FILLED = 670


def _frames():
    f, n = sys._getframe(1), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


def _called_at_depth(frames, fn):
    """fn(), called with `frames` frames on the Python stack."""
    return fn() if _frames() >= frames else _called_at_depth(frames, fn)


@pytest.mark.parametrize("verb, opening, closing", [
    ("eval", "1+1*(", ")"), ("eval", "1+1*w^(", ")"),
    ("eval", "{1+1*", "|}"),   # the deepest: _nfact, then _game_side
    ("ord", "1+1*w^(", ")"),
    ("eval", "1+1*-w^(", ")"),   # a minus run costs a frame
])
def test_max_depth_fits_on_a_filled_stack(verb, opening, closing):
    from omegacalc.cli import Options, run_line
    from omegacalc.exprs import MAX_DEPTH

    def line(depth):
        return lambda: run_line("%s %s1%s" % (verb, opening * depth,
                                              closing * depth), Options())

    assert _called_at_depth(FILLED, line(MAX_DEPTH))
    with pytest.raises(ParseError, match="nested more than %d deep"
                       % MAX_DEPTH):
        _called_at_depth(FILLED, line(MAX_DEPTH + 1))


# -- what a tracer can wrap ---------------------------------------------------

def test_every_operator_calls_the_kernel_through_a_patchable_name(
        monkeypatch):
    # wrapping a module global or a class operator, as bench/tracing.py
    # does, must reach every operator of both expression sorts
    from omegacalc import exprs
    calls = {}

    def counted(owner, name):
        fn = getattr(owner, name)
        calls[name] = 0

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("add", "mul", "divide", "negate"):
        counted(exprs, name)
    for name in ("__add__", "__mul__", "nat_add", "nat_mul"):
        counted(Ordinal, name)
    parse_number_expr("(w + 1)*(w - 1)/(w + 1) - w")
    parse_ordinal("(w + 1)*w (+) w (*) w + 1 + w")
    assert all(calls.values()), calls


# -- one set-term grammar -------------------------------------------------------

set_trees = st.recursive(st.sampled_from(["a", "b", "0"]),
                         lambda kids: st.lists(kids, max_size=3),
                         max_leaves=12)


def _tree_text(t):
    return t if isinstance(t, str) else "{%s}" % ",".join(map(_tree_text, t))


def _tree_term(t):
    return Atom(t) if isinstance(t, str) else \
        Fset(frozenset(map(_tree_term, t)))


@settings(deadline=None, max_examples=200)
@given(st.lists(set_trees, max_size=4))
def test_set_terms_read_alike_in_const_and_brace_forms(elems):
    text = ",".join(map(_tree_text, elems))
    term = Fset(frozenset(map(_tree_term, elems)))
    assert parse_setterm("{%s}" % text) == term
    zero = parse_ordinal("0")
    # a const(...) value; one brace layer, which the length 1 caps, so a
    # trailing brace is an element; a layer continued by '{...}'
    for literal in ("const({%s}) @ [0,1)" % text, "{%s} @ [0,1)" % text,
                    "{%s{...}} @ [0,w)" % (text + "," if text else "")):
        assert parse_skand(literal).mapping.value_at(zero) == term, literal


# -- the parser's ordinal work ---------------------------------------------------

WORK_LITERALS = (
    # lengths in CNF order, and lengths that absorb (1 + 1 + w = w)
    "cycle(a,b):w^3*2;const({a}):w^2;cycle(c,d,e) @ [w,w^3*2 + w^2*3 + 5)",
    "const({a}):1;const(c):1;cycle({a},d,{a},c):w;cycle({a},c,{a},d):w^3*3;"
    "cycle(b,d,{},{}):w^2*3 @ [2,w^3*3 + w^2*3)",
    "{a,{b,{...cycle(c,d)}}} @ [1,w*3)",
)


def test_parse_skand_ordinal_work_is_pinned(monkeypatch):
    # when every literal was built through ordinal + and *, and the lengths
    # were summed again for the total, these three made 65 cmp and 33 +
    # calls; while finite exponents were Ordinals, each exponent comparison
    # was a cmp call, 32 in all
    calls = {"cmp": 0, "__add__": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Ordinal, name, counted(name, getattr(Ordinal,
                                                                 name)))
    for text in WORK_LITERALS:
        parse_skand(text)
    assert calls == {"cmp": 0, "__add__": 4}


# -- rational factors in number literals --------------------------------------
# A term list is drawn as (exponent, coefficient) pairs together with the text
# of w^exponent, and rendered here with its rationals spelled several ways.
# The expected value is from_terms of the pairs, so it never goes through
# mul or divide.

_POSITIVE = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
SPELLINGS = 5


def _spell(power, c, how):
    """The term power*|c| in one of four spellings, or power*c with the
    sign inside the rational (how = 4)."""
    a, b = abs(c.numerator), c.denominator
    return ("%s*(%d/%d)" % (power, a, b), "%s*%d/%d" % (power, a, b),
            "(%d/%d)*%s" % (a, b, power), "%s/(%d/%d)" % (power, b, a),
            "%s*(%d/%d)" % (power, c.numerator, b))[how]


def _sum_text(terms, hows, parens):
    """terms [(power text, coefficient)] joined with + and -; a negative
    first term gets a leading '-' unless its sign is inside its rational,
    and a term may be parenthesized."""
    out = []
    for (power, c), how, paren in zip(terms, hows, parens):
        text = _spell(power, c, how)
        if paren:
            text = "(%s)" % text
        neg = c < 0 and how != 4
        out.append(("- " if neg else "+ ") + text if out else
                   ("-" if neg else "") + text)
    return " ".join(out) or "0"


@st.composite
def _inner_sum(draw, depth):
    """(value, text) of a Number written as a sum, for a nested exponent or
    an epsilon index; its spellings are drawn."""
    terms = draw(_term_lists(depth, max_size=2))
    n = len(terms)
    text = _sum_text([(t, c) for _, t, c in terms],
                     draw(st.lists(st.integers(0, SPELLINGS - 1),
                                   min_size=n, max_size=n)),
                     draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return from_terms([(e, c) for e, _, c in terms]), text


@st.composite
def _power(draw, depth):
    """(exponent, text of w^exponent): a real exponent (negative and
    non-integer ones included), an epsilon atom, or a nested one."""
    kind = draw(st.sampled_from(["real", "real", "eps"]
                                + (["nested"] if depth else [])))
    if kind == "real":
        q = Fraction(draw(st.integers(-7, 7)), draw(st.integers(1, 4)))
        texts = ["w^(%d/%d)" % (q.numerator, q.denominator)]
        if q.denominator == 1:
            texts.append("w^%d" % q if q >= 0 else "w^-%d" % -q)
        if q == 1:
            texts.append("w")
        return q, draw(st.sampled_from(texts))
    if kind == "nested":
        value, text = draw(_inner_sum(depth - 1))
        return value, "w^(%s)" % text
    if depth:
        index, text = draw(_inner_sum(depth - 1))
    else:
        q = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        index = from_terms([(Fraction(0), q)])
        text = "%d/%d" % (q.numerator, q.denominator)
    atom = "eps[%s]" % text
    return EpsilonAtom(index), draw(st.sampled_from([atom,
                                                     "w^(%s)" % atom]))


@st.composite
def _term_lists(draw, depth=2, max_size=4):
    """[(exponent, text of w^exponent, nonzero Fraction coefficient)]."""
    terms = draw(st.lists(st.tuples(_power(depth), _POSITIVE,
                                    st.booleans()), max_size=max_size))
    return [(e, text, -c if neg else c) for (e, text), c, neg in terms]


@settings(deadline=None, max_examples=150)
@given(_term_lists(), st.data())
def test_rational_factors_parse_to_the_built_value(terms, data):
    want = from_terms([(e, c) for e, _, c in terms])
    pairs = [(text, c) for _, text, c in terms]
    n = len(pairs)
    spellings = [([how] * n, [False] * n) for how in range(SPELLINGS)]
    spellings.append((data.draw(st.lists(st.integers(0, SPELLINGS - 1),
                                         min_size=n, max_size=n)),
                      data.draw(st.lists(st.booleans(), min_size=n,
                                         max_size=n))))
    for hows, parens in spellings:
        text = _sum_text(pairs, hows, parens)
        for literal in (text, "(%s)" % text):
            got = parse_number_expr(literal)
            assert got.exact, literal
            assert got.value.terms == want.terms, literal


def test_rational_literals_make_no_inverse_and_no_sort(monkeypatch):
    # when x/r went through invert and omega_pow through from_terms's sort,
    # the first two literals made 3 and 2, and 2 and 1 calls
    from omegacalc import surreal
    calls = {"invert": 0, "from_terms": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(surreal, name, counted(name,
                                                   getattr(surreal, name)))

    def work(text):
        calls.update(invert=0, from_terms=0)
        parse_number_expr(text)
        return dict(calls)

    assert work("w^(1/2)*(3/2) + w^(-1)*2/3 + 4") == \
        {"invert": 0, "from_terms": 0}
    assert work("w^((1/3))*(-2/5) + eps[0]*(2)") == \
        {"invert": 0, "from_terms": 0}
    assert work("1/(w + 1 + w^-1)")["invert"] == 1
