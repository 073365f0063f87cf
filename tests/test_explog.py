"""Exponential/logarithm identities on the exact fragment."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from omegacalc import (add, decompose, epsilon, exp, from_rational,
                       from_terms, in_ln_domain, invert, leader, ln, mul,
                       negate, nf_cmp, omega_pow, parse_number, sub)
from omegacalc.errors import (LeadingCoefficientNotOne, NonPositive,
                              NotInDomain, RealPartNotZero, ZeroInput)
from omegacalc.surreal import ZERO, Number, exp_as_number, exp_cmp
from test_surreal import (assert_canonical, assert_order, horner_invert,
                          naive_from_terms, oracle_above, oracle_add,
                          oracle_mul, series_inputs, series_order)

n = parse_number
W = n("w")
E0 = epsilon(from_rational(0))


def purely_infinite(rng, max_terms=2):
    import test_surreal as ts
    exps = []
    while len(exps) < rng.randrange(1, max_terms + 1):
        e = ts.random_number(rng, 1)
        if nf_cmp(e, ZERO) > 0 and all(nf_cmp(e, f) != 0 for f in exps):
            exps.append(e)
    return from_terms((e, ts.random_rational(rng)) for e in exps)


def test_decompose_examples():
    d = decompose(n("w + 3 + w^-1"))
    assert d.purely_infinite == W
    assert d.real_part == 3
    assert d.infinitesimal == n("w^-1")
    d = decompose(E0)
    assert d.purely_infinite == E0 and d.real_part == 0
    d = decompose(n("5/7"))
    assert d.real_part == Fraction(5, 7) and not d.purely_infinite.terms


def test_exp_examples():
    assert exp(ZERO).exact and exp(ZERO).value == n("1")
    t = exp(W)
    assert t.exact and t.value == W
    t = exp(mul(W, E0))
    assert t.exact and t.value == E0


def test_exp_rejects_real_part():
    with pytest.raises(RealPartNotZero):
        exp(n("w + 3"))


def test_exp_infinitesimal_series():
    t = exp(n("w^-1"), 3)
    assert not t.exact
    assert t.value == n("1 + w^-1 + w^-2*1/2")


def test_anti_zeno():
    t = exp(E0)
    assert t.exact
    assert t.value == omega_pow(omega_pow(sub(E0, n("1"))))
    assert nf_cmp(t.value, E0) == -1
    assert exp(mul(W, E0)).value == E0
    assert nf_cmp(mul(W, E0), E0) == 1
    assert omega_pow(E0) == E0


def test_ln_examples():
    t = ln(W)
    assert t.exact and t.value == W
    t = ln(E0)
    assert t.exact and t.value == mul(W, E0)
    t = ln(omega_pow(W))
    assert t.exact and t.value == n("w^2")
    t = ln(mul(E0, omega_pow(W)))
    assert t.exact and t.value == add(mul(W, E0), n("w^2"))


def test_ln_periodic_band():
    # ln eps_a = w*eps_a > eps_a, yet ln(eps_a * w^w) < eps_a * w^w
    assert nf_cmp(ln(E0).value, E0) == 1
    y = mul(E0, omega_pow(W))
    assert nf_cmp(ln(y).value, y) == -1


def test_ln_errors():
    with pytest.raises(NonPositive):
        ln(ZERO)
    with pytest.raises(NonPositive):
        ln(n("-3"))
    with pytest.raises(NotInDomain):
        ln(omega_pow(n("w^-1")))
    with pytest.raises(LeadingCoefficientNotOne):
        ln(n("w*2"))


def test_ln_series():
    t = ln(n("w + 1"), 2)
    assert not t.exact
    assert t.value == n("w + w^-1 - w^-2*1/2")


def test_in_ln_domain_examples():
    assert in_ln_domain(n("w + 1"))
    assert not in_ln_domain(omega_pow(n("w^-1")))
    assert in_ln_domain(n("3"))
    assert not in_ln_domain(n("-1"))
    assert in_ln_domain(n("w^-1"))
    assert in_ln_domain(E0)


def test_leader_examples():
    assert leader(n("w*7 + 3")) == W
    assert leader(n("5/9")) == n("1")
    assert leader(mul(E0, n("1/2"))) == E0
    with pytest.raises(ZeroInput):
        leader(ZERO)


def test_exp_homomorphism_on_purely_infinite():
    rng = random.Random(21)
    for _ in range(200):
        x, y = purely_infinite(rng), purely_infinite(rng)
        a, b = exp(x), exp(y)
        both = exp(add(x, y))
        assert a.exact and b.exact and both.exact
        assert both.value == mul(a.value, b.value)


def test_ln_exp_round_trip():
    rng = random.Random(22)
    for _ in range(200):
        x = purely_infinite(rng)
        t = exp(x)
        assert t.exact
        back = ln(t.value)
        assert back.exact and back.value == x
    # and the other way
    for _ in range(100):
        y = omega_pow(purely_infinite(rng))
        if not in_ln_domain(y):
            continue
        t = ln(y)
        if t.exact:
            again = exp(t.value)
            assert again.exact and again.value == y


def test_exp_monotone():
    rng = random.Random(23)
    for _ in range(200):
        x, y = purely_infinite(rng), purely_infinite(rng)
        c = nf_cmp(x, y)
        if c:
            assert nf_cmp(exp(x).value, exp(y).value) == c


def test_domain_and_leader_commensurate_invariance():
    rng = random.Random(24)
    import test_surreal as ts
    for _ in range(200):
        y = omega_pow(ts.random_number(rng, 1))
        # a finite, non-infinitesimal positive factor keeps y in its class
        c = from_rational(abs(ts.random_rational(rng)) or 1)
        scaled = mul(y, c)
        assert in_ln_domain(scaled) == in_ln_domain(y)
        assert leader(scaled) == leader(y)


# -- series oracles ----------------------------------------------------------------
# exp and ln as they were written before power_series: a loop that adds each
# power scaled by its rational coefficient, here built from the pairwise
# oracles only.


def omega_to(e):
    return naive_from_terms([(e, 1)])


def oracle_exp(x, max_terms):
    inf = Number(tuple(t for t in x.terms if exp_cmp(t[0], Fraction(0)) > 0))
    small = Number(tuple(t for t in x.terms
                         if exp_cmp(t[0], Fraction(0)) < 0))
    factor = omega_to(oracle_mul(omega_to(Fraction(-1)), inf))
    series, power = ZERO, from_rational(1)
    for k in range(max_terms):
        series = oracle_add(series, oracle_mul(
            power, from_rational(Fraction(1, factorial(k)))))
        power = oracle_mul(power, small)
    return oracle_mul(factor, series)


def oracle_ln(y, max_terms):
    z0 = exp_as_number(y.terms[0][0])
    main = oracle_mul(omega_to(Fraction(1)), z0)
    neg_z0 = naive_from_terms((f, -c) for f, c in z0.terms)
    delta = oracle_mul(omega_to(neg_z0), Number(y.terms[1:]))
    series, power = ZERO, delta
    for k in range(1, max_terms + 1):
        series = oracle_add(series, oracle_mul(
            power, from_rational(Fraction((-1) ** (k - 1), k))))
        power = oracle_mul(power, delta)
    return oracle_add(main, series)


def exp_input(x):
    """x without its real part, which exp rejects."""
    return Number(tuple(t for t in x.terms if exp_cmp(t[0], Fraction(0))))


def ln_input(y):
    """y with leading coefficient 1, so positive."""
    return Number(((y.terms[0][0], 1),) + y.terms[1:])


def exp_order(x, max_terms):
    """The exponent x'/w of exp's exact factor plus max_terms times the
    leading exponent of x's infinitesimal part."""
    inf = Number(tuple(t for t in x.terms if exp_cmp(t[0], Fraction(0)) > 0))
    return series_order(oracle_mul(omega_to(Fraction(-1)), inf),
                        decompose(x).infinitesimal, max_terms)


def ln_order(y, max_terms):
    """max_terms + 1 times the leading exponent of y/w^z0 - 1."""
    neg_z0 = naive_from_terms((f, -c) for f, c in
                              exp_as_number(y.terms[0][0]).terms)
    return series_order(0, oracle_mul(omega_to(neg_z0), Number(y.terms[1:])),
                        max_terms + 1)


@settings(deadline=None)
@given(series_inputs(), st.sampled_from([1, 2, 8]))
def test_exp_matches_oracle_loop(x, max_terms):
    # keep an infinitesimal part
    x = exp_input(x)
    assume(decompose(x).infinitesimal)
    got = exp(x, max_terms)
    assert not got.exact
    order = exp_order(x, max_terms)
    assert got.value.terms == \
        oracle_above(oracle_exp(x, max_terms), order).terms
    assert_order(got, order)
    assert_canonical(got.value)


@settings(deadline=None)
@given(series_inputs(), st.sampled_from([1, 2, 8]))
def test_ln_matches_oracle_loop(y, max_terms):
    # inside ln's domain
    y = ln_input(y)
    assume(in_ln_domain(y))
    got = ln(y, max_terms)
    assert not got.exact
    order = ln_order(y, max_terms)
    assert got.value.terms == \
        oracle_above(oracle_ln(y, max_terms), order).terms
    assert_order(got, order)
    assert_canonical(got.value)


# -- every printed term is a true term ----------------------------------------
# A cut series holds exactly the terms on which the order-N and the
# order-(N+8) oracle sums agree: the terms above its true order.  The
# oracles are the loops above and horner_invert, and none reads `order`.

ORACLES = {"invert": (invert, horner_invert),
           "exp": (exp, oracle_exp), "ln": (ln, oracle_ln)}


def agreeing_prefix(low, high):
    n = 0
    for a, b in zip(low.terms, high.terms):
        if a != b:
            break
        n += 1
    return n


@settings(deadline=None, max_examples=50)
@given(series_inputs(), st.sampled_from(sorted(ORACLES)),
       st.sampled_from([1, 2, 8]))
def test_a_cut_series_holds_exactly_its_true_terms(x, name, max_terms):
    x = {"invert": lambda v: v, "exp": exp_input, "ln": ln_input}[name](x)
    if name == "exp":
        assume(decompose(x).infinitesimal)
    if name == "ln":
        assume(in_ln_domain(x))
    fn, oracle = ORACLES[name]
    got = fn(x, max_terms)
    low, high = oracle(x, max_terms), oracle(x, max_terms + 8)
    order = exp_as_number(got.order)
    assert got.value.terms == oracle_above(high, order).terms
    assert len(got.value.terms) == agreeing_prefix(low, high)
