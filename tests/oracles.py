"""Test oracles that share no code with the library: exhaustive day-by-day
enumeration of the numbers born by a given day, the recursive {L|R}
comparison on explicit game forms, and ordinal arithmetic and JSON below
epsilon_0 on nested tuples of exponents."""

from fractions import Fraction
from itertools import groupby


def numbers_born_by(day: int):
    """List of all numbers (as Fractions) in M_day, constructed day by day
    with the simplicity rule; day 0 is [0]."""
    made = [Fraction(0)]
    for _ in range(day):
        new = []
        ext = sorted(made)
        new.append(ext[0] - 1)
        new.append(ext[-1] + 1)
        for a, b in zip(ext, ext[1:]):
            new.append((a + b) / 2)
        made = sorted(set(made) | set(new))
    return made


def game_geq(x, y, lr_of) -> bool:
    """x >= y iff no x^R <= y and x <= no y^L, on explicit game forms."""
    _, xr = lr_of(x)
    yl, _ = lr_of(y)
    if any(game_geq(y, r, lr_of) for r in xr):
        return False
    if any(game_geq(l, x, lr_of) for l in yl):
        return False
    return True


# -- ordinals below epsilon_0 as plain nested tuples -------------------------
# An ordinal is the tuple (e1, ..., ek) of the exponents of
# w^e1 + ... + w^ek with e1 >= ... >= ek, each exponent itself such a tuple:
# 0 is (), n is ((),) * n and w is (((),),).  A coefficient c is an exponent
# written c times, so equal ordinals are equal tuples.

def ord_compare(a, b) -> int:
    """-1, 0 or 1: the first differing exponent decides, and a proper
    prefix is the smaller."""
    for x, y in zip(a, b):
        c = ord_compare(x, y)
        if c:
            return c
    return (len(a) > len(b)) - (len(a) < len(b))


def ord_sorted(exps) -> tuple:
    """The exponents in non-increasing order, by insertion."""
    out = []
    for e in exps:
        i = len(out)
        while i and ord_compare(out[i - 1], e) < 0:
            i -= 1
        out.insert(i, e)
    return tuple(out)


def ord_plus(a, b) -> tuple:
    """a + b: the exponents of a below b's first one are absorbed."""
    if not b:
        return a
    i = len(a)
    while i and ord_compare(a[i - 1], b[0]) < 0:
        i -= 1
    return a[:i] + b


def ord_times(a, b) -> tuple:
    """a * b, right-distributed over b's terms: a * w^f = w^(a's first
    exponent + f) for f > 0, and a * 1 = a."""
    out = ()
    for f in b:
        if a:
            out = ord_plus(out, (ord_plus(a[0], f),) if f else a)
    return out


def ord_minus_left(total, prefix):
    """The r with prefix + r = total, or None when prefix > total."""
    if ord_compare(prefix, total) > 0:
        return None
    i = 0
    while i < len(prefix) and prefix[i] == total[i]:
        i += 1
    return total[i:]


def ord_nat_plus(a, b) -> tuple:
    return ord_sorted(a + b)


def ord_nat_times(a, b) -> tuple:
    return ord_sorted(ord_nat_plus(e, f) for e in a for f in b)


def ord_divmod_omega_pow(a, k) -> tuple:
    """(q, r) with a = w^k * q + r and r < w^k."""
    return (tuple(ord_minus_left(e, k) for e in a if ord_compare(e, k) >= 0),
            tuple(e for e in a if ord_compare(e, k) < 0))


def ord_json(a) -> list:
    """The [[exponent, coefficient], ...] JSON terms of a: a run of equal
    exponents is one term, and 0 is []."""
    return [[ord_json(e), len(list(run))] for e, run in groupby(a)]
