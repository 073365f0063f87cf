"""Surreal normal forms: ordering, ring laws, inversion, embeddings."""

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings, strategies as st

from omegacalc import surreal
from omegacalc import (Number, add, divide, epsilon, from_ordinal,
                       from_rational, invert, mul, negate, nf_cmp, omega_pow,
                       parse_number, parse_ordinal, render_number, sub)
from omegacalc.errors import DivisionByZero
from omegacalc import explog
from omegacalc.surreal import (ZERO, EpsilonAtom, _norm_exp, exp_as_number,
                               exp_cmp, power_series, split_at_zero)
import oracles
from test_ordinals import TUPLES, ordinal_of, tuple_of

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
    # 1/w^(-eps_0) is w^(eps_0), whose one canonical spelling is the atom
    t = invert(omega_pow(negate(E0)), 1)
    assert t.exact and t.value == E0
    assert_canonical(t.value)
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
            assert exp_cmp(r.terms[0][0], Fraction(0)) < 0
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


@settings(deadline=None, max_examples=300)
@given(TUPLES, TUPLES)
def test_from_ordinal_respects_order_and_natural_sum(a, b):
    # the surreal order, sum and product of two ordinals' Numbers are the
    # ordinal order and natural (Hessenberg) sum and product of the tuple
    # oracle, read back as canonical Numbers
    x, y = ordinal_of(a), ordinal_of(b)
    nx, ny = from_ordinal(x), from_ordinal(y)
    assert nx.terms is x.terms and ny.terms is y.terms
    assert nf_cmp(nx, ny) == oracles.ord_compare(a, b)
    assert tuple_of(add(nx, ny), Number) == oracles.ord_nat_plus(a, b)
    assert tuple_of(mul(nx, ny), Number) == oracles.ord_nat_times(a, b)


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


def test_equality_with_ordinals_is_transitive():
    from omegacalc import OMEGA, Ordinal
    for k in (0, 1, 3, 2 ** 70):
        assert from_rational(k) == Ordinal.from_int(k)
        assert Ordinal.from_int(k) == from_rational(k)
        assert len({from_rational(k), Ordinal.from_int(k), k}) == 1
    # an infinite ordinal equals no Number, so hash needs no agreement
    assert from_ordinal(OMEGA) != OMEGA and OMEGA != from_ordinal(OMEGA)
    assert len({from_ordinal(OMEGA), OMEGA}) == 2
    assert from_rational(Fraction(1, 2)) != Ordinal.from_int(1)


def test_the_cut_value_rules_refuse_an_ordinal_operand():
    # an Ordinal took the TruncatedNumber branch of _parts and leaked
    # AttributeError: 'Ordinal' object has no attribute 'value'
    w, one = parse_ordinal("w"), n("1")
    for call in (lambda: divide(one, w), lambda: divide(w, n("2")),
                 lambda: divide(w, W), lambda: surreal.known_sum(one, w),
                 lambda: surreal.known_sum(w, one),
                 lambda: surreal.known_product(one, w)):
        with pytest.raises(TypeError, match="^Ordinal<w> is not a Number "
                                            "or a TruncatedNumber$"):
            call()
    # a Number and a TruncatedNumber still pass
    assert surreal.known_sum(one, divide(one, W + one)).order is not None


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
    # each rational in its one spelling: an int when it is integral
    merged = [(e, c.numerator if c.denominator == 1 else c)
              for e, c in merged if c]
    merged.sort(key=cmp_to_key(lambda p, q: exp_cmp(p[0], q[0])),
                reverse=True)
    return Number(tuple(merged))


RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def exponents(depth):
    """Canonical exponents: Numbers of the given depth and eps atoms over
    them (a real Number is collapsed to its Fraction, and a Number equal to
    eps[a] to the atom)."""
    inner = numbers(depth)
    return st.one_of(inner, inner.map(EpsilonAtom)).map(_norm_exp)


def numbers(depth):
    if depth == 0:
        return RATIONALS.map(from_rational)
    return st.lists(st.tuples(exponents(depth - 1), RATIONALS),
                    max_size=3).map(naive_from_terms)


def rebuilt(e):
    """A structurally equal copy of e that shares no outer object with it."""
    if type(e) is int:
        return e
    if type(e) is Fraction:
        return Fraction(e.numerator, e.denominator)
    if isinstance(e, EpsilonAtom):
        return EpsilonAtom(rebuilt(e.index))
    return naive_from_terms([(rebuilt(f), c) for f, c in reversed(e.terms)])


@st.composite
def pair_lists(draw, depth=2):
    """Pairs over a small pool of exponents, so that exponents repeat; a
    real exponent q may come as the Number from_rational(q) and an eps atom
    as the Number w^eps[a], both of which from_terms must collapse."""
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
    assert_canonical(surreal.from_terms(pairs))
    rng.shuffle(pairs)
    assert surreal.from_terms(pairs) == expected


@settings(deadline=None)
@given(numbers(2), numbers(2), numbers(2))
def test_add_mul_commute_and_associate(x, y, z):
    assert add(x, y) == add(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(x, y) == mul(y, x)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))


# -- the merge kernel -----------------------------------------------------------
# add and mul merge canonical term sequences; the oracles below form every
# term pair themselves (exponent sums included) and call neither function.


def oracle_add(a, b):
    return naive_from_terms(a.terms + b.terms)


def oracle_mul(a, b):
    return naive_from_terms(
        (oracle_add(exp_as_number(e), exp_as_number(f)), c * d)
        for e, c in a.terms for f, d in b.terms)


def is_real_number(e):
    """True for a Number that spells a rational: 0 or one w^0 term."""
    t = e.terms
    return not t or (len(t) == 1 and type(t[0][0]) in (int, Fraction)
                     and not t[0][0])


def is_stored_rational(q):
    """The one spelling of a rational in a Number: an int, or a Fraction
    with denominator > 1; never a float or a bool."""
    return type(q) is int or (type(q) is Fraction and q.denominator > 1)


def assert_canonical(x):
    """Strictly decreasing exponents, nonzero coefficients and real
    exponents each an int or a Fraction with denominator > 1, and no Number
    exponent spelling an eps atom, all the way down."""
    exps = [e for e, _ in x.terms]
    assert all(is_stored_rational(c) and c for _, c in x.terms), x.terms
    assert all(exp_cmp(e, f) > 0 for e, f in zip(exps, exps[1:]))
    for e in exps:
        assert type(e) in (int, Fraction, EpsilonAtom, Number)
        if type(e) in (int, Fraction):
            assert is_stored_rational(e), e
            continue
        assert _norm_exp(e) is e
        if isinstance(e, EpsilonAtom):
            assert_canonical(e.index)
            continue
        assert not is_real_number(e), e
        assert not (len(e.terms) == 1 and e.terms[0][1] == 1
                    and isinstance(e.terms[0][0], EpsilonAtom)), e
        assert_canonical(e)


@st.composite
def sharing_numbers(draw, k=2):
    """k Numbers over one small pool of exponents, so their terms collide
    and cancel in sums and products."""
    pool = draw(st.lists(exponents(2), min_size=1, max_size=4))
    pairs = st.lists(st.tuples(st.sampled_from(pool), RATIONALS), max_size=5)
    return [naive_from_terms(draw(pairs)) for _ in range(k)]


@settings(deadline=None)
@given(st.one_of(sharing_numbers(), st.lists(numbers(2), min_size=2,
                                              max_size=2)))
def test_add_and_mul_match_pairwise_oracle(xy):
    x, y = xy
    for got, want in ((add(x, y), oracle_add(x, y)),
                      (mul(x, y), oracle_mul(x, y))):
        assert got == want
        assert_canonical(got)
    assert add(x, negate(x)) == ZERO


def test_mul_collapses_to_an_epsilon_atom():
    # w^(eps0 - 1) * w = w^eps0, whose normal form is the atom eps0 itself
    r = mul(omega_pow(sub(E0, n("1"))), W)
    assert r == E0
    assert isinstance(r.terms[0][0], EpsilonAtom)
    assert_canonical(r)


def test_mul_collapses_to_a_real_exponent():
    # w^(w + 1/2) * w^(-w) = w^(1/2), whose exponent is the Fraction 1/2
    r = mul(omega_pow(add(W, n("1/2"))), omega_pow(negate(W)))
    assert r == n("w^(1/2)")
    assert type(r.terms[0][0]) is Fraction
    assert_canonical(r)


@settings(deadline=None)
@given(RATIONALS, exponents(2))
@example(Fraction(1), n("1 + w^-1"))    # ties on w^0*1: the second term
@example(Fraction(1), n("1 - w^-1"))    # decides
@example(Fraction(0), n("-w^-1 + w^-2"))
def test_cmp_real_matches_nf_cmp(q, t):
    # a Fraction exponent against every kind of canonical exponent, compared
    # with the same two values as Numbers
    assert exp_cmp(q, t) == nf_cmp(from_rational(q), exp_as_number(t))
    assert exp_cmp(t, q) == -exp_cmp(q, t)


def counting(monkeypatch, name, weight):
    """Replace surreal.<name> by a wrapper that adds weight(*args) to the
    returned one-element list on every call."""
    total = [0]
    inner = getattr(surreal, name)

    def counted(*args):
        total[0] += weight(*args)
        return inner(*args)

    monkeypatch.setattr(surreal, name, counted)
    return total


def test_series_merge_is_not_quadratic(monkeypatch):
    # counts the merge's comparator, exp_cmp: a merge that scans every kept
    # term per incoming pair makes ~7*10^5 comparisons here, one sort per
    # add ~3*10^4, the linear merge ~9*10^3 under Horner's rule and ~2.7*10^3
    # summing powers; the lattice path, cut at the order, makes one, to see
    # that no term of -d lies at or below the order
    x = n("w^(1/2) + 1 + w^(-1/3)")
    calls = counting(monkeypatch, "exp_cmp", lambda e, f: 1)
    t = invert(x, 32)
    assert calls[0] == 1
    assert t.value.terms == roadmap_terms()


def test_invert_multiplies_only_the_newest_power(monkeypatch):
    # term products formed by mul: Horner's rule, which multiplies -d by the
    # whole partial sum, forms 4 512 here; summing the powers of -d ~1 100;
    # the lattice path multiplies only to peel the leader
    x = n("w^(1/2) + 1 + w^(-1/3)")
    products = counting(monkeypatch, "mul",
                        lambda a, b: len(a.terms) * len(b.terms))
    t = invert(x, 32)
    assert products[0] == 2
    assert t.value.terms == roadmap_terms()


def roadmap_terms():
    """The terms of 1/(w^(1/2) + 1 + w^(-1/3)) above its order w^(-33/2)
    at 32 terms, from the oracle series: 92 of the 150 terms of the 32-term
    partial sum."""
    x = n("w^(1/2) + 1 + w^(-1/3)")
    return oracle_above(horner_invert(x, 32),
                        invert_order(x, 32)).terms


def horner_invert(x, max_terms):
    """1/x by Horner's rule, acc = 1 + (-d)*acc, built from the pairwise
    oracles only: the partial sum invert must reproduce exactly."""
    e1, r1 = x.terms[0]
    lead = naive_from_terms(
        [(naive_from_terms((f, -c) for f, c in exp_as_number(e1).terms),
          Fraction(1, r1))])
    neg_delta = naive_from_terms(
        (e, -c) for e, c in oracle_mul(Number(x.terms[1:]), lead).terms)
    one = from_rational(1)
    acc = one
    for _ in range(max_terms - 1):
        acc = oracle_add(one, oracle_mul(neg_delta, acc))
    return oracle_mul(lead, acc)


@st.composite
def series_inputs(draw):
    """Numbers of 2-4 terms: distinct exponents, nonzero coefficients."""
    exps = draw(st.lists(exponents(1), min_size=2, max_size=4, unique=True))
    coeffs = RATIONALS.filter(bool)
    return naive_from_terms((e, draw(coeffs)) for e in exps)


def scaled_exponent(e, k):
    """k*e as a Number, built from the pairwise oracles."""
    return naive_from_terms((f, c * k) for f, c in exp_as_number(e).terms)


def series_order(s, y, count):
    """s + count*v(y) as a Number: the order of a series of `count` powers
    of y times a monomial of exponent s."""
    return oracle_add(exp_as_number(s), scaled_exponent(y.terms[0][0], count))


def invert_order(x, max_terms):
    """-e1 + max_terms*(e2 - e1) for x's two leading exponents e1 > e2."""
    e1, e2 = x.terms[0][0], x.terms[1][0]
    gap = oracle_add(exp_as_number(e2), scaled_exponent(e1, -1))
    return oracle_add(scaled_exponent(e1, -1),
                      scaled_exponent(_norm_exp(gap), max_terms))


def oracle_above(x, order):
    """The terms of x whose exponents lie above the Number `order`."""
    return Number(tuple((e, c) for e, c in x.terms
                        if nf_cmp(exp_as_number(e), order) > 0))


def assert_order(got, order):
    """got is cut at the Number `order`, spelled canonically."""
    assert got.order == _norm_exp(order)
    assert exp_as_number(got.order) == order


@settings(deadline=None)
@given(series_inputs(), st.sampled_from([1, 2, 8]))
def test_invert_matches_horner_oracle(x, max_terms):
    got = invert(x, max_terms)
    assert not got.exact
    order = invert_order(x, max_terms)
    assert got.value.terms == \
        oracle_above(horner_invert(x, max_terms), order).terms
    assert_order(got, order)
    assert_canonical(got.value)


# -- fraction-free power series -------------------------------------------------


def oracle_power_series(y, coeffs):
    """sum coeffs[n] * y^n built from the pairwise oracles only."""
    acc, power = ZERO, from_rational(1)
    for k, a in enumerate(coeffs):
        if k:
            power = oracle_mul(power, y)
        acc = oracle_add(acc, oracle_mul(power, from_rational(a)))
    return acc


def oracle_series(y, coeffs, lead_exponent=0):
    """The terms of sum coeffs[n] * y^n that power_series keeps: those
    above the order lead_exponent + len(coeffs)*v(y), and every term when
    y is 0."""
    got = oracle_power_series(y, coeffs)
    if not y:
        return got
    return oracle_above(got, series_order(lead_exponent, y, len(coeffs)))


def infinitesimal_part(y):
    """y's terms below exponent 0: the variable power_series is given."""
    return Number(split_at_zero(y.terms)[2])


SERIES_COEFFS = st.one_of(st.just(0), st.integers(-3, 3), RATIONALS)
# power_series sums powers of an infinitesimal y, or of 0
INFINITESIMALS = numbers(2).map(infinitesimal_part)


@settings(deadline=None)
@given(INFINITESIMALS, st.lists(SERIES_COEFFS, min_size=1, max_size=5))
@example(n("w^(-1/2)*2/3 + w^(-eps[0])/5"),
         [0, Fraction(1, 2), 0, Fraction(-3, 4)])
@example(n("w^-1/2 + w^(-w)/3"), [Fraction(1, 6)] * 4)
@example(ZERO, [Fraction(2, 3), 1])
def test_power_series_matches_oracle(y, coeffs):
    got = power_series(y, coeffs)
    assert got.value.terms == oracle_series(y, coeffs).terms
    assert got.exact == (not y)
    if y:
        assert_order(got, series_order(0, y, len(coeffs)))
    assert_canonical(got.value)


def test_series_multiply_by_fractions_a_fixed_number_of_times(monkeypatch):
    # mul calls with a Fraction coefficient in either operand.  Inside
    # power_series every product has int coefficients, so only the fixed
    # calls around each series remain (peeling the leader, the exact factor
    # of exp, the shift of ln) and the count does not grow with N.
    x = n("w^(1/2)*2/3 + 1/5 + w^(-1/3)*3/4")
    e = n("w/2 + w^-1*2/3 + w^-2/5")
    y = n("w + 1/3 + w^-1*3/4")

    def fraction_muls(max_terms):
        calls = [0]
        inner = surreal.mul

        def counted(a, b):
            if any(type(c) is Fraction for _, c in a.terms + b.terms):
                calls[0] += 1
            return inner(a, b)

        with monkeypatch.context() as m:
            m.setattr(surreal, "mul", counted)
            m.setattr(explog, "mul", counted)
            invert(x, max_terms)
            explog.exp(e, max_terms)
            explog.ln(y, max_terms)
        return calls[0]

    assert fraction_muls(8) == fraction_muls(32)


# -- the Kronecker lattice path ---------------------------------------------------
# power_series packs a y whose exponents are all negative Fractions into one
# int; these inputs lie on a lattice g*Z and are checked against the oracle.

BIG_RATIONALS = st.builds(Fraction,
                          st.integers(-10 ** 12, 10 ** 12).filter(bool),
                          st.integers(1, 10 ** 9))


@st.composite
def lattice_numbers(draw):
    """1-4 terms with exponents -(g/L)*p on a lattice, p a positive int, and
    mixed-sign coefficients with large numerators and denominators."""
    step = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 12)))
    ps = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4,
                       unique=True))
    return naive_from_terms((-step * p, draw(BIG_RATIONALS)) for p in ps)


# the tail of the ROADMAP's w^(1/2) + 1 + w^(-1/3), peeled as invert peels it
ROADMAP_TAIL = n("-w^(-1/2) - w^(-5/6)")


@settings(deadline=None)
@given(lattice_numbers(),
       st.lists(st.one_of(SERIES_COEFFS, BIG_RATIONALS), min_size=1,
                max_size=12))
@example(ROADMAP_TAIL, [1] * 32)
@example(ROADMAP_TAIL, [Fraction(1, 7)] * 31 + [Fraction(-10 ** 9, 3)])
@example(n("w^(-3/4)*(-10000000)/3 + w^(-9/4)*5/1000000"),
         [0, 1, Fraction(-1, 2)] * 10 + [3, 0])
def test_lattice_power_series_matches_oracle(y, coeffs):
    got = power_series(y, coeffs)
    assert got.value.terms == oracle_series(y, coeffs).terms
    assert_order(got, series_order(0, y, len(coeffs)))
    assert_canonical(got.value)


@pytest.mark.parametrize("y, coeffs", [
    (n("w^-1*255"), [0, 1]),                # |top slot| = bound = 2^8 - 1
    (n("w^-1*(-255)"), [0, 1]),
    (n("w^(-1/3)*15"), [0, 0, 1]),          # 15^2 = 225, eight bits
    (n("w^(-1/3)*(-15)"), [1, 1, 1]),       # 1 - 15z + 225z^2
    (n("w^-2*(-65535)"), [0, 1]),
    (n("w^(-1/2)*(-3)/2"), [1] * 32),       # monomial, odd powers negative
    # two terms: slots 4 to 6 of the dense sum lie at or below the order
    # and are cut, and X = 255*2^b - 255*2^(2b) < 0 sends the accumulator
    # below 0 before each reduction; slot 3 holds -255^3
    (n("w^-1*255 - w^-2*255"), [1, 1, 1, 1]),
])
def test_lattice_slot_holds_its_bound(y, coeffs):
    # a monomial y puts |k_n| * S^n in slot n exactly, so the top slot
    # carries most of the bound the slot width is computed from
    got = power_series(y, coeffs)
    assert got.value.terms == oracle_series(y, coeffs).terms
    assert_canonical(got.value)


def test_lattice_path_divides_out_the_step(monkeypatch):
    # exponents -1000 and -2000 lie on the step 1000; packed on the step,
    # 32 powers take 32 slots above the order, and unscaled 32 000, more
    # than the 528 terms the sparse sum can have, which would send the
    # input to the row merge
    y = n("w^-1000*3 - w^-2000/7")
    products = counting(monkeypatch, "mul", lambda a, b: 1)
    got = power_series(y, [1] * 32)
    assert products[0] == 0
    assert got.value.terms == oracle_series(y, [1] * 32).terms


# -- the lead folded into the unpack ------------------------------------------------
# On the lattice path, power_series adds its lead's exponent to each slot's
# exponent as it unpacks it, whatever that exponent is; the oracle multiplies
# the oracle sum by the lead monomial instead.


def _signed_exponents(s):
    return exponents(1).filter(lambda e: exp_cmp(e, 0) == s)


def _terms(exps):
    return st.lists(st.tuples(exps, RATIONALS.filter(bool)), min_size=1,
                    max_size=2)


@st.composite
def lead_exponents(draw, y):
    """A canonical lead exponent of one of six kinds: a rational, an eps
    atom, a Number with terms only above 0 or only below 0, one with both
    and a rational part that cancels the exponent of a term of y, and one
    with a term whose own exponent is a non-real Number."""
    kind = draw(st.sampled_from(["real", "atom", "hi", "lo", "both",
                                 "nested"]))
    if kind == "real":
        return _norm_exp(draw(RATIONALS))
    if kind == "atom":
        return EpsilonAtom(draw(numbers(1)))
    if kind == "nested":
        return _norm_exp(naive_from_terms(draw(_terms(
            exponents(1).filter(lambda e: type(e) is Number)))))
    hi = draw(_terms(_signed_exponents(1))) if kind != "lo" else []
    lo = draw(_terms(_signed_exponents(-1))) if kind != "hi" else []
    mid = [(0, -draw(st.sampled_from(y.terms))[0])] if kind == "both" else []
    return _norm_exp(naive_from_terms(hi + mid + lo))


@st.composite
def folded_leads(draw):
    y = draw(lattice_numbers())
    coeffs = draw(st.lists(SERIES_COEFFS, min_size=1, max_size=6))
    r = draw(RATIONALS.filter(bool))
    return y, coeffs, (draw(lead_exponents(y)),
                       r.numerator if r.denominator == 1 else r)


@settings(deadline=None)
@given(folded_leads())
@example((n("w^-1"), [1] * 4, (n("1 + w^(-1/2)"), 1)))
@example((n("w^-1 - w^-2"), [1, 1, Fraction(1, 2)],
          (n("w^(w^-1) + w^-1"), Fraction(-2, 3))))
@example((n("w^(-1/2)*3"), [0, 1, 1], (n("eps[0] + 1/2"), 1)))
def test_folded_lead_matches_oracle(case):
    y, coeffs, lead = case
    got = power_series(y, coeffs, lead)
    order = series_order(lead[0], y, len(coeffs))
    want = oracle_mul(Number((lead,)), oracle_power_series(y, coeffs))
    assert got.value.terms == oracle_above(want, order).terms
    assert_order(got, order)
    assert_canonical(got.value)


# -- the sparse row merge ---------------------------------------------------------
# A non-real exponent keeps power_series on the row merge; these twins of the
# merge and products guards above pin that path's counts at N = 32, so a
# quadratic merge, a return to Horner's rule or a power left uncut at the
# order shows as a change.  All 528 terms of the 32-term partial sum lie
# above the order w^(-w*33 + 32), so nothing is cut here, and each power's
# cut check costs two comparisons (63 in all).

SPARSE_INPUT = "w^(w) + w + 1"


def sparse_terms():
    x = n(SPARSE_INPUT)
    return oracle_above(horner_invert(x, 32), invert_order(x, 32)).terms


def test_sparse_series_merge_is_not_quadratic(monkeypatch):
    x = n(SPARSE_INPUT)
    calls = counting(monkeypatch, "exp_cmp", lambda e, f: 1)
    t = invert(x, 32)
    assert calls[0] == 14_412
    assert t.value.terms == sparse_terms()


def test_sparse_invert_multiplies_only_the_newest_power(monkeypatch):
    x = n(SPARSE_INPUT)
    products = counting(monkeypatch, "mul",
                        lambda a, b: len(a.terms) * len(b.terms))
    t = invert(x, 32)
    assert products[0] == 1_520
    assert t.value.terms == sparse_terms()


def test_wide_gap_takes_the_sparse_path():
    # packed densely, the 32 powers of w^-9999 + w^-10000 would need
    # 310 001 slots; the sparse sum has 528 terms
    import tracemalloc
    from omegacalc import cli
    options = cli.Options(max_terms=32)
    tracemalloc.start()
    try:
        out = cli.run_line("eval 1/(1+w^(-9999)+w^(-10000))", options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert out.count("w^") == 527


def test_a_term_below_the_order_is_not_packed():
    # w^-1000000000 lies below the order w^-8 of the 8-term series, so it
    # changes no kept term; packed, it would need a 10^10-bit int
    import tracemalloc
    from omegacalc import cli
    options = cli.Options(json=True)
    tracemalloc.start()
    try:
        out = cli.run_line("eval 1/(1+w^-1+w^-1000000000)", options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert out == cli.run_line("eval 1/(1+w^-1)", options)


# -- a rational operand is a scale --------------------------------------------
# mul and divide scale by a rational operand without exponent sums, merges or
# an inverse; the expected values are formed term by term here.

NONZERO_RATIONALS = RATIONALS.filter(bool)


@settings(deadline=None)
@given(numbers(2), NONZERO_RATIONALS)
def test_rational_operand_scales_term_by_term(x, r):
    rn = from_rational(r)
    want = naive_from_terms((e, c * r) for e, c in x.terms)
    assert mul(x, rn).terms == want.terms
    assert mul(rn, x).terms == want.terms
    q = divide(x, rn)
    assert q.exact
    assert q.value.terms == \
        naive_from_terms((e, c / r) for e, c in x.terms).terms


@settings(deadline=None)
@given(NONZERO_RATIONALS, numbers(2).filter(bool), st.sampled_from([1, 3, 8]))
def test_rational_over_a_number_scales_its_inverse(r, y, max_terms):
    inv = invert(y, max_terms)
    got = divide(from_rational(r), y, max_terms)
    assert got.value.terms == \
        naive_from_terms((e, r * c) for e, c in inv.value.terms).terms
    assert got.exact == inv.exact


def test_scale_keeps_int_coefficients():
    # an integral coefficient is an int, and a scale by an int keeps it so
    ints = Number(((-1, 3), (-2, -5)))
    two = Number(((0, 2),))
    for got in (mul(ints, two), mul(two, ints)):
        assert got.terms == ((-1, 6), (-2, -10))
        assert all(type(c) is int for _, c in got.terms)
    with pytest.raises(DivisionByZero):
        divide(W, ZERO)


def test_non_real_lead_keeps_the_lattice_path(monkeypatch):
    # the tail peeled off w^w*2 is -w^(-1/2)/2 - w^-1/2, on a lattice: only
    # the peel calls mul, for the non-real lead w^-w/2 joins each slot's
    # exponent as it is unpacked, where the row merge would add one call
    # per power
    x = n("w^(w)*2 + w^(w-1/2) + w^(w-1)")
    calls = counting(monkeypatch, "mul", lambda a, b: 1)
    got = invert(x, 8)
    assert calls[0] == 1
    assert got.value.terms == \
        oracle_above(horner_invert(x, 8), invert_order(x, 8)).terms


# -- one spelling per rational ----------------------------------------------------
# A coefficient or real exponent is an int when it is integral and a Fraction
# otherwise; every kernel operation and both codecs keep that, at any depth.


@settings(deadline=None)
@given(pair_lists(), numbers(2), numbers(2), st.sampled_from([1, 3, 8]),
       st.lists(SERIES_COEFFS, min_size=1, max_size=4))
# Fraction sums and products that are integral: in a merge, in the row of
# a rational scale and in a general row
@example([], n("w/3 + 1/2"), n("w*2/3 + 1/2"), 1, [1])
@example([], n("w*2/3 + 1/2"), n("3/2"), 1, [1])
@example([], n("w*3/2 + 1"), n("w*2/3 + w^-1"), 1, [1])
def test_every_kernel_result_spells_its_rationals_once(pairs, x, y, max_terms,
                                                       coeffs):
    from omegacalc import number_from_json, number_to_json
    got = [surreal.from_terms(pairs), add(x, y), mul(x, y), negate(x),
           power_series(infinitesimal_part(y), coeffs).value,
           number_from_json(number_to_json(x)),
           parse_number(render_number(x))]
    if y:
        got += [divide(x, y, max_terms).value, invert(y, max_terms).value]
        # y scaled to leading coefficient 1, for ln
        one_led = divide(y, from_rational(y.terms[0][1])).value
        if explog.in_ln_domain(one_led):
            got.append(explog.ln(one_led, max_terms).value)
    # x without its real part, for exp
    got.append(explog.exp(Number(tuple(t for t in x.terms
                                       if exp_cmp(t[0], 0))), max_terms).value)
    for value in got:
        assert_canonical(value)


@settings(deadline=None)
@given(TUPLES)
def test_from_ordinal_spells_its_rationals_once(m):
    x = from_ordinal(ordinal_of(m))
    assert_canonical(x)
    if x:
        assert_canonical(invert(x, 3).value)


def test_integral_rationals_agree_in_every_spelling():
    from omegacalc import Ordinal, number_from_json
    two = Ordinal.from_int(2)
    for x in (from_rational(Fraction(6, 3)), from_rational(2),
              number_from_json([[[], [6, 3]]]), parse_number("6/3")):
        assert x.terms == ((0, 2),)
        assert type(x.terms[0][0]) is int and type(x.terms[0][1]) is int
        assert x == two and hash(x) == hash(two) == hash(2)


def test_a_reciprocal_is_a_fraction_not_a_float():
    q = divide(n("w*2 + 1"), from_rational(3)).value
    assert q.terms == ((1, Fraction(2, 3)), (0, Fraction(1, 3)))
    assert all(type(c) is Fraction for _, c in q.terms)
    assert divide(n("w*3"), from_rational(3)).value.terms == ((1, 1),)
    inv = invert(n("3 + w^-1"), 4).value
    assert inv.terms == ((0, Fraction(1, 3)), (-1, Fraction(-1, 9)),
                         (-2, Fraction(1, 27)), (-3, Fraction(-1, 81)))
    assert all(type(c) is Fraction for _, c in inv.terms)
    assert_canonical(inv)


def fraction_constructions(work) -> int:
    """The number of Fractions built while work() runs (Dyadic's included),
    counted by wrapping Fraction.__new__ and surreal._reduced, which builds
    a reduced Fraction without it, and restoring both afterwards."""
    saved = Fraction.__dict__["__new__"]
    inner = saved.__func__
    reduced = surreal._reduced
    count = [0]

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return inner(cls, *args, **kwargs)

    def counted_reduced(num, den):
        count[0] += 1
        return reduced(num, den)

    Fraction.__new__ = staticmethod(counted)
    surreal._reduced = explog._reduced = counted_reduced
    try:
        work()
    finally:
        Fraction.__new__ = saved
        surreal._reduced = explog._reduced = reduced
    return count[0]


def test_fraction_constructions_counts_reduced_ones():
    from omegacalc.cli import Options, run_line
    # exp(w^-1) to four terms builds the coefficients 1/2 and 1/6 and the
    # output terms w^-2/2 and w^-3/6, all four by _reduced
    assert fraction_constructions(
        lambda: run_line("eval exp(w^-1)", Options(max_terms=4))) == 4


INTS = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                 st.integers(-10 ** 200, 10 ** 200))


@settings(deadline=None)
@given(INTS, INTS.filter(bool), INTS.filter(bool))
@example(0, -7, 1)
@example(6, -4, 1)
@example(-10 ** 199, 10 ** 200, -3)
def test_div_builds_what_fraction_builds(c, r, k):
    # _div stores a reduced Fraction's two slots itself; every pair is
    # checked plain, scaled by a common factor k and made divisible
    for a, b in ((c, r), (c * k, r * k), (c * r, r)):
        got, want = surreal._div(a, b), Fraction(a, b)
        assert type(got) is (int if a % b == 0 else Fraction)
        assert got == want and hash(got) == hash(want)
        assert (got.numerator, got.denominator) == \
            (want.numerator, want.denominator)
        assert repr(got) == repr(want if type(got) is Fraction
                                 else want.numerator)
        assert got + Fraction(1, 3) == want + Fraction(1, 3)


def test_integral_literals_build_no_fraction():
    from omegacalc.cli import Options, run_line
    texts = ("w^2*3 + w + 4", "w^(2)*(3) + w^(-1)*(2)")

    def integral():
        for text in texts:
            assert parse_number(render_number(parse_number(text))) == \
                parse_number(text)
        assert run_line("cmp %s ;; %s" % texts, Options()) == "GT"

    assert fraction_constructions(integral) == 0
    # 1/2 and 3/2 are one Fraction each, and the scale by 3/2 makes one
    assert 0 < fraction_constructions(
        lambda: render_number(parse_number("w^(1/2)*(3/2)"))) <= 3
