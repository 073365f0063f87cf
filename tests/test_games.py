"""Dyadic {L|R} games, birthdays and pinned limits, against the day-by-day
enumeration oracle."""

from fractions import Fraction

import pytest

from omegacalc import (Dyadic, birthday, real_limit_from_sequences,
                       simplest_dyadic_game)
from omegacalc.errors import IllFormedGame, NoConvergenceDetected
from omegacalc.surreal import simplest_rational_between
from oracles import game_geq, numbers_born_by


def first_day(x, table):
    for day, made in enumerate(table):
        if x in made:
            return day
    raise AssertionError("not born within the table")


def day_table(limit):
    return [numbers_born_by(d) for d in range(limit + 1)]


def test_birth_lists_day_0_to_2():
    t = day_table(2)
    assert t[0] == [0]
    assert sorted(t[1]) == [-1, 0, 1]
    assert sorted(t[2]) == [-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2]


def test_game_examples():
    assert simplest_dyadic_game([], []) == 0
    assert simplest_dyadic_game([0], []) == 1
    assert simplest_dyadic_game([], [0]) == -1
    assert simplest_dyadic_game([0, 1], []) == 2
    assert simplest_dyadic_game([0], [1]) == Fraction(1, 2)
    assert simplest_dyadic_game([-1], [0]) == Fraction(-1, 2)
    assert simplest_dyadic_game([], [-1, 0]) == -2
    with pytest.raises(IllFormedGame):
        simplest_dyadic_game([1], [0])


def test_game_matches_enumeration_oracle():
    # {L|R} with L,R drawn from early days must be the earliest-born number
    # strictly between the sides (the midpoint of day-5 neighbours is born
    # on day 6, so search candidates one day deeper)
    table = day_table(6)
    made = table[5]
    for lo in made:
        for hi in made:
            if lo >= hi:
                continue
            v = simplest_dyadic_game([lo], [hi])
            candidates = [x for x in table[6] if lo < x < hi]
            best = min(candidates, key=lambda x: (first_day(x, table), abs(x)))
            assert v == best


def test_birthday_examples_and_oracle():
    assert birthday(Fraction(1, 2)) == 2
    assert birthday(-2) == 2
    assert birthday(Fraction(3, 4)) == 3
    table = day_table(6)
    for x in table[6]:
        assert birthday(x) == first_day(x, table)


def test_limit_one_third():
    left = [Fraction(0), Fraction(1, 4), Fraction(5, 16), Fraction(21, 64)]
    right = [Fraction(1, 2), Fraction(3, 8), Fraction(11, 32),
             Fraction(43, 128)]
    assert real_limit_from_sequences(left, right) == Fraction(1, 3)


def test_limit_dyadic_point():
    left = (1 - Fraction(1, 2 ** k) for k in range(1, 30))
    right = (1 + Fraction(1, 2 ** k) for k in range(1, 30))
    assert real_limit_from_sequences(left, right) == 1


def test_limit_rejects_open_gap():
    left = [Fraction(0), Fraction(1, 8), Fraction(3, 16)]
    right = [Fraction(9, 8), Fraction(17, 16), Fraction(33, 32)]
    # pinned around different simplest rationals at half vs full depth
    with pytest.raises(NoConvergenceDetected):
        real_limit_from_sequences(left, right)


def test_limit_rejects_non_monotone():
    with pytest.raises(NoConvergenceDetected):
        real_limit_from_sequences([Fraction(0), Fraction(0)],
                                  [Fraction(1), Fraction(1, 2)])


def test_game_geq_definition_consistency():
    # the textbook comparison on birthday forms agrees with numeric order
    table = day_table(4)

    def lr_of(x):
        day = first_day(x, table)
        older = table[day - 1] if day else []
        return ([y for y in older if y < x], [y for y in older if y > x])

    made = table[4]
    for x in made:
        for y in made:
            assert game_geq(x, y, lr_of) == (x >= y)


def test_dyadic_validation():
    assert Dyadic(Fraction(3, 8)) == Fraction(3, 8)
    with pytest.raises(ValueError):
        Dyadic(Fraction(1, 3))


def brute_simplest_rational(lo, hi):
    """Smallest denominator in (lo, hi), then smallest absolute numerator."""
    q = 1
    while True:
        inside = [p for p in range(int(lo * q) - 1, int(hi * q) + 2)
                  if lo < Fraction(p, q) < hi]
        if inside:
            return Fraction(min(inside, key=abs), q)
        q += 1


def test_simplest_rational_between_matches_brute_force():
    assert simplest_rational_between(Fraction(1, 3), Fraction(1, 2)) == \
        Fraction(2, 5)
    assert simplest_rational_between(Fraction(0), Fraction(1, 3)) == \
        Fraction(1, 4)
    values = sorted({Fraction(a, b) for a in range(-6, 7)
                     for b in range(1, 7)})
    for i, lo in enumerate(values):
        for hi in values[i + 1:]:
            assert simplest_rational_between(lo, hi) == \
                brute_simplest_rational(lo, hi), (lo, hi)
