"""Surreal normal forms: ordering, ring laws, inversion, embeddings."""

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from omegacalc import surreal
from omegacalc import (Number, add, divide, epsilon, from_ordinal,
                       from_rational, invert, mul, negate, nf_cmp, omega_pow,
                       ord_cmp, ord_nat_add, parse_number, parse_ordinal,
                       render_number, sub)
from omegacalc.errors import DivisionByZero
from omegacalc.surreal import (ZERO, EpsilonAtom, _norm_exp, exp_as_number,
                               exp_cmp)

n = parse_number
W = n("w")
E0 = epsilon(from_rational(0))


def random_rational(rng):
    return Fraction(rng.randrange(-6, 7) or 1, rng.randrange(1, 7))


def random_number(rng, depth=2, max_terms=3):
    if depth == 0:
        if rng.random() < 0.5:
            return ZERO
        return from_rational(random_rational(rng))
    exps = []
    for _ in range(rng.randrange(0, max_terms + 1)):
        e = random_number(rng, depth - 1, 2)
        if all(nf_cmp(e, f) != 0 for f in exps):
            exps.append(e)
    pairs = [(e, random_rational(rng)) for e in exps]
    from omegacalc import from_terms
    return from_terms(pairs)


def test_cmp_examples():
    assert nf_cmp(W, sub(W, n("1"))) == 1            # w > w-1
    assert nf_cmp(invert(W).value, ZERO) == 1        # 1/w > 0
    assert nf_cmp(omega_pow(n("1/2")), mul(W, n("1/2"))) == -1


def test_add_examples():
    assert add(n("1/2"), n("1/2")) == n("1")
    assert add(W, n("1")) == n("w + 1")
    d = add(E0, n("-1"))
    assert d.terms[0][1] == 1 and d.terms[1][1] == -1
    assert nf_cmp(d, E0) == -1


def test_mul_examples():
    assert mul(W, W) == n("w^2")
    assert mul(W, E0) == omega_pow(add(n("1"), E0))
    assert nf_cmp(mul(W, E0), E0) == 1
    assert mul(n("1/2"), W) == mul(W, n("1/2"))


def test_invert_examples():
    t = invert(W, 1)
    assert t.exact and t.value == n("w^-1")
    t = invert(add(W, n("1")), 4)
    assert not t.exact
    assert t.value == n("w^-1 - w^-2 + w^-3 - w^-4")
    t = invert(n("2"), 1)
    assert t.exact and t.value == n("1/2")
    with pytest.raises(DivisionByZero):
        invert(ZERO)


def test_invert_residual_shrinks():
    rng = random.Random(3)
    for _ in range(50):
        x = random_number(rng)
        if not x.terms or len(x.terms) == 1:
            continue
        prev = None
        for mt in (2, 4, 6):
            t = invert(x, mt)
            r = sub(mul(x, t.value), n("1"))
            if not r.terms:
                break
            # residual is infinitesimal relative to 1
            assert exp_cmp(r.terms[0][0], ZERO) < 0
            lead = r.terms[0][0]
            if prev is not None:
                from omegacalc.surreal import exp_as_number
                assert nf_cmp(exp_as_number(lead), exp_as_number(prev)) < 0
            prev = lead


def test_omega_pow_examples():
    assert omega_pow(n("1/2")) == n("w^(1/2)")
    assert omega_pow(E0) == E0
    assert omega_pow(ZERO) == n("1")


def test_omega_pow_laws():
    rng = random.Random(4)
    for _ in range(100):
        x, y = random_number(rng, 1), random_number(rng, 1)
        assert omega_pow(add(x, y)) == mul(omega_pow(x), omega_pow(y))
        assert invert(omega_pow(x)).value == omega_pow(negate(x))


def test_embeddings():
    assert from_ordinal(parse_ordinal("w*2+1")) == n("w*2 + 1")
    assert from_rational(Fraction(2, 3)) == n("2/3")
    assert omega_pow(E0) == E0


def test_from_ordinal_respects_order_and_natural_sum():
    import test_ordinals as to
    rng = random.Random(5)
    for _ in range(200):
        a, b = to.random_ordinal(rng), to.random_ordinal(rng)
        assert ord_cmp(a, b) == nf_cmp(from_ordinal(a), from_ordinal(b))
        assert from_ordinal(ord_nat_add(a, b)) == \
            add(from_ordinal(a), from_ordinal(b))


def test_field_laws_random():
    rng = random.Random(6)
    for _ in range(300):
        x, y, z = (random_number(rng) for _ in range(3))
        assert add(x, y) == add(y, x)
        assert add(add(x, y), z) == add(x, add(y, z))
        assert mul(x, y) == mul(y, x)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert add(x, negate(x)) == ZERO
        if x.terms:
            t = invert(x, 3)
            assert t.exact == (len(x.terms) == 1)
            if t.exact:
                assert mul(x, t.value) == n("1")


def test_divide():
    t = divide(n("2"), n("3"))
    assert t.exact and t.value == n("2/3")
    t = divide(n("1"), add(W, n("1")), 4)
    assert not t.exact


def test_epsilon_ordering():
    e1 = epsilon(n("1"))
    assert nf_cmp(E0, e1) == -1
    assert nf_cmp(E0, omega_pow(omega_pow(omega_pow(W)))) == 1
    assert nf_cmp(epsilon(n("-1")), E0) == -1
    assert nf_cmp(epsilon(n("-1")), omega_pow(W)) == 1
    assert nf_cmp(E0, add(E0, n("1"))) == -1
    assert nf_cmp(E0, mul(E0, n("2"))) == -1
    assert nf_cmp(E0, mul(E0, n("1/2"))) == 1
    # eps_0 < w^(eps_0 + 1) = eps_0 * w
    assert nf_cmp(E0, omega_pow(add(E0, n("1")))) == -1


def test_total_order_random():
    rng = random.Random(11)
    vals = [random_number(rng) for _ in range(40)] + [E0, negate(E0)]
    for x in vals:
        for y in vals:
            c = nf_cmp(x, y)
            assert c == -nf_cmp(y, x)
            assert (c == 0) == (x == y)
            for z in vals:
                if c <= 0 and nf_cmp(y, z) <= 0:
                    assert nf_cmp(x, z) <= 0


def test_render_parse_round_trip():
    rng = random.Random(12)
    for _ in range(200):
        x = random_number(rng)
        assert parse_number(render_number(x)) == x
    assert parse_number(render_number(E0)) == E0
    assert parse_number(render_number(mul(E0, n("3/2")))) == mul(E0, n("3/2"))


def test_invert_residual_exponent_law():
    # peeling N series terms leaves a residual whose leading exponent is
    # exactly N times the (negative) leading gap of x
    rng = random.Random(13)
    from omegacalc.surreal import exp_as_number
    checked = 0
    for _ in range(200):
        x = random_number(rng)
        if len(x.terms) < 2:
            continue
        e1 = exp_as_number(x.terms[0][0])
        e2 = exp_as_number(x.terms[1][0])
        gap = sub(e2, e1)
        for mt in (1, 2, 3):
            t = invert(x, mt)
            r = sub(mul(x, t.value), n("1"))
            assert r.terms, (x, mt)
            lead = exp_as_number(r.terms[0][0])
            assert lead == mul(from_rational(mt), gap)
        checked += 1
    assert checked > 50


def test_rationals_hash_as_fractions():
    for q in (0, 3, -1, Fraction(2, 3), Fraction(-7, 4), 2 ** 70):
        assert from_rational(q) == q
        assert hash(from_rational(q)) == hash(q)
    assert len({from_rational(3), 3}) == 1
    assert len({from_rational(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert hash(W) != hash(1)


# -- canonical-form properties ------------------------------------------------
# Numbers are built by a naive quadratic merge that compares every incoming
# exponent with every kept one by value (exp_cmp).  It never relies on
# structural equality of exponents, so it can check from_terms, which does.


def naive_from_terms(pairs):
    merged = []
    for e, c in pairs:
        c = Fraction(c)
        if not c:
            continue
        e = _norm_exp(e)
        for k, (f, d) in enumerate(merged):
            if exp_cmp(e, f) == 0:
                merged[k] = (f, d + c)
                break
        else:
            merged.append((e, c))
    merged = [(e, c) for e, c in merged if c]
    merged.sort(key=cmp_to_key(lambda p, q: exp_cmp(p[0], q[0])),
                reverse=True)
    return Number(tuple(merged))


RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def exponents(depth):
    """Canonical exponents: Numbers of the given depth and eps atoms over
    them (a Number equal to eps[a] is collapsed to the atom)."""
    inner = numbers(depth)
    return st.one_of(inner, inner.map(EpsilonAtom)).map(_norm_exp)


def numbers(depth):
    if depth == 0:
        return RATIONALS.map(from_rational)
    return st.lists(st.tuples(exponents(depth - 1), RATIONALS),
                    max_size=3).map(naive_from_terms)


def rebuilt(e):
    """A structurally equal copy of e that shares no outer object with it."""
    if isinstance(e, EpsilonAtom):
        return EpsilonAtom(rebuilt(e.index))
    return naive_from_terms([(rebuilt(f), c) for f, c in reversed(e.terms)])


@st.composite
def pair_lists(draw, depth=2):
    """Pairs over a small pool of exponents, so that exponents repeat; an
    eps atom may come as the Number w^eps[a] that from_terms must collapse."""
    pool = draw(st.lists(exponents(depth), min_size=1, max_size=4))
    spellings = st.sampled_from(pool).flatmap(
        lambda e: st.sampled_from([rebuilt(e), exp_as_number(rebuilt(e))]))
    return draw(st.lists(st.tuples(spellings, RATIONALS), max_size=8))


@settings(deadline=None)
@given(exponents(2), st.data())
def test_exp_cmp_zero_exactly_when_equal(e, data):
    f = data.draw(st.one_of(exponents(2), st.just(rebuilt(e))))
    assert (exp_cmp(e, f) == 0) == (e == f)
    assert exp_cmp(e, f) == -exp_cmp(f, e)


@settings(deadline=None)
@given(pair_lists(), st.randoms(use_true_random=False))
def test_from_terms_matches_naive_merge_and_ignores_order(pairs, rng):
    expected = naive_from_terms(pairs)
    assert surreal.from_terms(pairs) == expected
    rng.shuffle(pairs)
    assert surreal.from_terms(pairs) == expected


@settings(deadline=None)
@given(numbers(2), numbers(2), numbers(2))
def test_add_mul_commute_and_associate(x, y, z):
    assert add(x, y) == add(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(x, y) == mul(y, x)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_series_merge_is_not_quadratic(monkeypatch):
    # a merge that scans every kept term per incoming pair makes ~7*10^5
    # comparisons here; one run-merging sort makes ~3*10^4
    calls = [0]
    inner = surreal.nf_cmp

    def counted(a, b):
        calls[0] += 1
        return inner(a, b)

    x = n("w^(1/2) + 1 + w^(-1/3)")
    monkeypatch.setattr(surreal, "nf_cmp", counted)
    t = invert(x, 32)
    assert calls[0] <= 75_000
    assert len(t.value.terms) == 150
