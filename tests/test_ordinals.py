"""Ordinal CNF arithmetic, checked against small independent oracles.

The oracle represents ordinals below w^3 with finite coefficients as triples
(a2, a1, a0) meaning w^2*a2 + w*a1 + a0.  Comparison is the lexicographic
order-embedding; addition follows straight from concatenation of well-ordered
sets: appending a sequence with an infinite head makes every shorter-class
tail of the left operand an initial segment of cofinally many elements, so
the lower classes of the left summand vanish.
"""

import random

import pytest

from omegacalc import (OMEGA, Ordinal, classify_ordinal, ord_add, ord_cmp,
                       ord_mul, ord_nat_add, ord_nat_mul, ord_sub_left,
                       parse_ordinal, render_ordinal)
from omegacalc.errors import PrefixTooLarge

o = parse_ordinal


def tri(x: Ordinal):
    coeffs = [0, 0, 0]
    for e, c in x.terms:
        coeffs[e.as_int()] = c
    return coeffs[2], coeffs[1], coeffs[0]


def tri_add(a, b):
    a2, a1, a0 = a
    b2, b1, b0 = b
    if b2:
        return (a2 + b2, b1, b0)
    if b1:
        return (a2, a1 + b1, b0)
    return (a2, a1, a0 + b0)


def small_ordinals(coeff_max=3):
    out = []
    for a2 in range(coeff_max):
        for a1 in range(coeff_max):
            for a0 in range(coeff_max):
                out.append(o("w^2*%d + w*%d + %d" % (a2, a1, a0))
                           if a2 or a1 else Ordinal.from_int(a0))
    return out


def random_ordinal(rng, depth=3, max_terms=3, coeff_max=4):
    if depth == 0 or rng.random() < 0.3:
        return Ordinal.from_int(rng.randrange(coeff_max))
    exps = set()
    while len(exps) < rng.randrange(1, max_terms + 1):
        exps.add(random_ordinal(rng, depth - 1, 2, 3))
    terms = sorted(exps, reverse=True)
    return Ordinal(tuple((e, rng.randrange(1, coeff_max + 1))
                         for e in terms))


def test_cmp_examples():
    assert ord_cmp(o("0"), o("0")) == 0
    assert ord_cmp(OMEGA, o("w+1")) == -1
    assert ord_cmp(o("w*2+1"), o("w^2")) == -1


def test_cmp_agrees_with_lex_embedding():
    xs = small_ordinals()
    for a in xs:
        for b in xs:
            want = (tri(a) > tri(b)) - (tri(a) < tri(b))
            assert ord_cmp(a, b) == want


def test_add_examples():
    assert ord_add(1, OMEGA) == OMEGA
    assert ord_add(OMEGA, 1) == o("w+1")
    assert ord_add(o("w+3"), o("w^2")) == o("w^2")


def test_add_agrees_with_concatenation_oracle():
    xs = small_ordinals()
    for a in xs:
        for b in xs:
            assert tri(ord_add(a, b)) == tri_add(tri(a), tri(b))


def test_mul_examples():
    assert ord_mul(OMEGA, 2) == o("w*2")
    assert ord_mul(2, OMEGA) == OMEGA
    assert ord_mul(OMEGA, OMEGA) == o("w^2")
    assert ord_mul(o("w+1"), o("w")) == o("w^2")
    assert ord_mul(o("w+1"), o("w+1")) == o("w^2 + w + 1")


def test_nat_add_examples():
    assert ord_nat_add(OMEGA, 1) == o("w+1")
    assert ord_nat_add(o("w+1"), OMEGA) == o("w*2+1")
    assert ord_nat_add(o("w+1"), o("w+1")) == o("w*2+2")


def test_nat_add_max_formula_with_one_finite_argument():
    # max{a+b, b+a} computes the natural sum whenever one side is finite
    for n in range(5):
        for b in small_ordinals():
            a = Ordinal.from_int(n)
            lhs = ord_nat_add(a, b)
            assert lhs == max(ord_add(a, b), ord_add(b, a))


def test_nat_mul_examples():
    assert ord_nat_mul(OMEGA, OMEGA) == o("w^2")
    assert ord_nat_mul(2, OMEGA) == o("w*2")
    assert ord_nat_mul(o("w+1"), o("w+1")) == o("w^2 + w*2 + 1")


def test_sub_left_examples():
    assert ord_sub_left(o("w+3"), OMEGA) == Ordinal.from_int(3)
    assert ord_sub_left(o("w^2"), o("w*5")) == o("w^2")
    assert ord_sub_left(o("w*2"), OMEGA) == OMEGA
    with pytest.raises(PrefixTooLarge):
        ord_sub_left(OMEGA, o("w+1"))


def test_classify_examples():
    c = classify_ordinal(o("w^2"))
    assert c.is_limit and c.is_additively_indecomposable and not c.is_main
    c = classify_ordinal(o("w*2"))
    assert c.is_limit and not c.is_additively_indecomposable
    c = classify_ordinal(o("w^w"))
    assert c.is_limit and c.is_additively_indecomposable and c.is_main
    assert classify_ordinal(o("0")).is_zero
    assert classify_ordinal(o("3")).is_successor


def test_nat_add_commutative_associative_monotone():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (random_ordinal(rng) for _ in range(3))
        assert ord_nat_add(a, b) == ord_nat_add(b, a)
        assert ord_nat_add(ord_nat_add(a, b), c) == ord_nat_add(a, ord_nat_add(b, c))
        if ord_cmp(a, b) < 0:
            assert ord_cmp(ord_nat_add(a, c), ord_nat_add(b, c)) < 0


def test_usual_add_associative_and_bounded_below():
    rng = random.Random(8)
    for _ in range(300):
        a, b, c = (random_ordinal(rng) for _ in range(3))
        assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))
        s = ord_add(a, b)
        assert ord_cmp(s, a) >= 0 and ord_cmp(s, b) >= 0


def test_sub_left_round_trip():
    rng = random.Random(9)
    for _ in range(300):
        a, b = random_ordinal(rng), random_ordinal(rng)
        total = ord_add(a, b)
        assert ord_add(a, ord_sub_left(total, a)) == total


def test_indecomposable_iff_closed_under_addition():
    for lam in small_ordinals(coeff_max=5):
        if not lam.is_limit():
            continue
        below = [a for a in small_ordinals(coeff_max=5) if ord_cmp(a, lam) < 0]
        closed = all(ord_cmp(ord_add(a, b), lam) < 0
                     for a in below for b in below)
        assert closed == classify_ordinal(lam).is_additively_indecomposable


def test_sub_left_fixed_iff_indecomposable():
    for lam in small_ordinals(coeff_max=4):
        if not lam:
            continue
        below = [a for a in small_ordinals(coeff_max=4)
                 if ord_cmp(a, lam) < 0]
        fixed = all(ord_sub_left(lam, a) == lam for a in below)
        assert fixed == classify_ordinal(lam).is_additively_indecomposable


def test_render_parse_round_trip():
    rng = random.Random(10)
    for _ in range(200):
        a = random_ordinal(rng)
        assert parse_ordinal(render_ordinal(a)) == a


def test_finite_ordinals_hash_as_ints():
    for k in (0, 1, 7, 2 ** 70):
        assert Ordinal.from_int(k) == k
        assert hash(Ordinal.from_int(k)) == hash(k)
    assert len({Ordinal.from_int(3), 3}) == 1
    assert hash(OMEGA) != hash(1)
