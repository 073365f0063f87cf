"""Exact arithmetic on a computable fragment of the surreal numbers.

A Number is a finite normal form  sum of w^e * r  where the exponents e are
themselves Numbers (or epsilon atoms) in strictly decreasing order and the
coefficients r are nonzero rationals.  The empty sum is 0.  Ordinals, reals
with terminating expansions, w-powers with arbitrary Number exponents and
epsilon-numbers (as atomic leaves) all live in this fragment; arithmetic on
it is exact except for inversion, which peels a geometric series and is
truncated after a caller-chosen number of terms.

Dyadic {L|R} games, birthdays and limits of dyadic sequences live here too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import ceil, floor

from .errors import DivisionByZero, IllFormedGame, NoConvergenceDetected
from .ordinals import Ordinal

LT, EQ, GT = -1, 0, 1


@dataclass(frozen=True)
class EpsilonAtom:
    """The epsilon-number with the given Number index, kept atomic.

    Its defining normal form is the single term w^(eps_a) * 1, so the atom
    can only ever appear in exponent position.
    """
    index: "Number"

    def __repr__(self):
        return "eps[%r]" % (self.index,)


@dataclass(frozen=True)
class Number:
    terms: tuple = ()

    def __bool__(self):
        return bool(self.terms)

    # equality is structural; canonical construction makes it semantic
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = from_rational(other)
        if not isinstance(other, Number):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a rational hashes as its Fraction, so that == and hash agree
        t = self.terms
        if len(t) < 2 and (not t or not t[0][0]):
            return hash(t[0][1]) if t else 0
        return hash(("Number", self.terms))

    def cmp(self, other) -> int:
        return nf_cmp(self, _coerce(other))

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, negate(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), negate(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __neg__(self):
        return negate(self)

    def __str__(self):
        from .exprs import render_number
        return render_number(self)

    def __repr__(self):
        return "Number<%s>" % (self,)


ZERO = Number()


def _coerce(x) -> Number:
    if isinstance(x, Number):
        return x
    if isinstance(x, (int, Fraction)):
        return from_rational(x)
    if isinstance(x, Ordinal):
        return from_ordinal(x)
    raise TypeError("cannot interpret %r as a Number" % (x,))


def _norm_exp(e):
    """Canonical exponent: a Number equal to eps_a collapses to the atom."""
    if isinstance(e, Number) and len(e.terms) == 1:
        inner, coeff = e.terms[0]
        if isinstance(inner, EpsilonAtom) and coeff == 1:
            return inner
    return e


def exp_as_number(e) -> Number:
    if isinstance(e, EpsilonAtom):
        return Number(((e, Fraction(1)),))
    return e


def exp_cmp(e, f) -> int:
    """Total order on exponents (Numbers and epsilon atoms mixed)."""
    ea, fa = isinstance(e, EpsilonAtom), isinstance(f, EpsilonAtom)
    if ea and fa:
        return nf_cmp(e.index, f.index)
    if ea:
        return _cmp_atom_number(e, f)
    if fa:
        return -_cmp_atom_number(f, e)
    return nf_cmp(e, f)


def _cmp_atom_number(atom: EpsilonAtom, t: Number) -> int:
    # eps_a against an arbitrary normal form t: compare w^(eps_a) with the
    # leading monomial; eps_a beats every exponent not itself reaching an
    # atom of index >= a.
    if not t.terms:
        return GT
    e1, r1 = t.terms[0]
    if r1 < 0:
        return GT
    c = exp_cmp(atom, e1)
    if c != EQ:
        return c
    if r1 > 1:
        return LT
    if r1 < 1:
        return GT
    return -sign(Number(t.terms[1:]))


def nf_cmp(a: Number, b: Number) -> int:
    """Lexicographic comparison of normal forms (sign of a - b)."""
    if a is b:
        return EQ
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = exp_cmp(ea, eb)
        if c == GT:
            return GT if ca > 0 else LT
        if c == LT:
            return LT if cb > 0 else GT
        if ca != cb:
            return GT if ca > cb else LT
    na, nb = len(a.terms), len(b.terms)
    if na > nb:
        return GT if a.terms[nb][1] > 0 else LT
    if nb > na:
        return LT if b.terms[na][1] > 0 else GT
    return EQ


def sign(x: Number) -> int:
    if not x.terms:
        return 0
    return 1 if x.terms[0][1] > 0 else -1


def from_terms(pairs) -> Number:
    """Build a Number from (exponent, coefficient) pairs in any order.

    Exponents are canonical (built here, with _norm_exp collapsing a Number
    equal to eps_a to the atom), so equal exponents are structurally equal
    and lie side by side after one sort by exp_cmp.  The sort merges the
    sorted runs callers pass: two for add, one row a_i*b per term for mul
    (Monagan & Pearce's row merge, without a heap).  Hashing the exponents
    instead would re-hash every Fraction in them, which costs more.
    """
    terms = [(_norm_exp(e), c if type(c) is Fraction else Fraction(c))
             for e, c in pairs if c]
    terms.sort(key=cmp_to_key(lambda p, q: exp_cmp(p[0], q[0])), reverse=True)
    merged = []
    for e, c in terms:
        if merged and merged[-1][0] == e:
            c += merged.pop()[1]
        merged.append((e, c))
    return Number(tuple(p for p in merged if p[1]))


# -- embeddings ---------------------------------------------------------

def from_rational(q) -> Number:
    q = Fraction(q)
    if not q:
        return ZERO
    return Number(((ZERO, q),))


ONE = from_rational(1)
MINUS_ONE = from_rational(-1)
OMEGA = Number(((ONE, Fraction(1)),))


def from_ordinal(a: Ordinal) -> Number:
    return from_terms((from_ordinal(e), Fraction(c)) for e, c in a.terms)


def epsilon(index) -> Number:
    return Number(((EpsilonAtom(_coerce(index)), Fraction(1)),))


def omega_pow(x) -> Number:
    return from_terms([(_coerce(x), Fraction(1))])


# -- ring operations ------------------------------------------------------

def add(a: Number, b: Number) -> Number:
    return from_terms(itertools.chain(a.terms, b.terms))


def negate(a: Number) -> Number:
    return Number(tuple((e, -c) for e, c in a.terms))


def sub(a: Number, b: Number) -> Number:
    return add(a, negate(b))


def mul(a: Number, b: Number) -> Number:
    out = []
    for e, c in a.terms:
        en = exp_as_number(e)
        for f, d in b.terms:
            out.append((add(en, exp_as_number(f)), c * d))
    return from_terms(out)


@dataclass(frozen=True)
class TruncatedNumber:
    """A normal-form prefix of a possibly non-terminating expansion.

    `exact` means nothing was dropped; otherwise `dropped_terms_bound`
    records the series order at which the expansion was cut.
    """
    value: Number
    exact: bool
    dropped_terms_bound: int = 0

    def __post_init__(self):
        if self.exact and self.dropped_terms_bound:
            raise ValueError("exact results drop nothing")


def invert(x: Number, max_terms: int = 8) -> TruncatedNumber:
    """Inverse by peeling the leading monomial: x = w^e*r*(1+d) with d
    infinitesimal, 1/x = w^-e/r * sum (-d)^n.  Exact iff d = 0."""
    if not x.terms:
        raise DivisionByZero("invert(0)")
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    e1, r1 = x.terms[0]
    inv_lead = from_terms([(negate(exp_as_number(e1)), 1 / r1)])
    if len(x.terms) == 1:
        return TruncatedNumber(inv_lead, True)
    delta = mul(Number(x.terms[1:]), inv_lead)
    neg_delta = negate(delta)
    acc = ONE
    for _ in range(max_terms - 1):
        acc = add(ONE, mul(neg_delta, acc))
    return TruncatedNumber(mul(inv_lead, acc), False, max_terms)


def divide(a: Number, b: Number, max_terms: int = 8) -> TruncatedNumber:
    t = invert(b, max_terms)
    return TruncatedNumber(mul(a, t.value), t.exact,
                           0 if t.exact else t.dropped_terms_bound)


# -- dyadics, games and birthdays -----------------------------------------

class Dyadic(Fraction):
    """A rational with power-of-two denominator."""

    def __new__(cls, *args):
        self = super().__new__(cls, *args)
        d = self.denominator
        if d & (d - 1):
            raise ValueError("%s is not dyadic" % (self,))
        return self


def simplest_dyadic_game(left, right) -> Dyadic:
    """The value of {L|R} for finite dyadic sides: the unique dyadic of
    minimal birthday between max(L) and min(R)."""
    left = [Dyadic(x) for x in left]
    right = [Dyadic(x) for x in right]
    lo = max(left) if left else None
    hi = min(right) if right else None
    if lo is not None and hi is not None and lo >= hi:
        raise IllFormedGame("%s >= %s" % (lo, hi))
    if lo is None and hi is None:
        return Dyadic(0)
    if lo is None:
        return Dyadic(0) if hi > 0 else Dyadic(ceil(hi) - 1)
    if hi is None:
        return Dyadic(0) if lo < 0 else Dyadic(floor(lo) + 1)
    return _simplest_dyadic_between(lo, hi)


def _simplest_dyadic_between(lo: Fraction, hi: Fraction) -> Dyadic:
    if lo < 0 < hi:
        return Dyadic(0)
    if lo >= 0:
        n = floor(lo) + 1
        if n < hi:
            return Dyadic(n)
    else:
        n = ceil(hi) - 1
        if n > lo:
            return Dyadic(n)
    a, b = Fraction(floor(lo)), Fraction(floor(lo) + 1)
    while True:
        mid = (a + b) / 2
        if mid <= lo:
            a = mid
        elif mid >= hi:
            b = mid
        else:
            return Dyadic(mid)


def birthday(d) -> int:
    """The day the dyadic d is first created (its sign-expansion length)."""
    d = Dyadic(d)
    a = abs(d)
    if a.denominator == 1:
        return int(a)
    return int(a) + 1 + a.denominator.bit_length() - 1


def simplest_rational_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator rational strictly inside (lo, hi)."""
    if not lo < hi:
        raise ValueError("empty interval")
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -simplest_rational_between(-hi, -lo)
    n = floor(lo) + 1
    if lo < n < hi:
        return Fraction(n)
    k = floor(lo)
    if lo == k:
        return k + Fraction(1, floor(1 / (hi - k)) + 1)
    inner = simplest_rational_between(1 / (hi - k), 1 / (lo - k))
    return k + 1 / inner


def real_limit_from_sequences(left, right, max_iter: int = 64) -> Fraction:
    """The rational pinned between a strictly increasing dyadic sequence and
    a strictly decreasing one; detected by the simplest rational of the
    nested intervals stabilising within max_iter pulls."""
    ls = list(itertools.islice(iter(left), max_iter))
    rs = list(itertools.islice(iter(right), max_iter))
    if not ls or not rs:
        raise NoConvergenceDetected("empty sequence")
    for xs, up in ((ls, True), (rs, False)):
        for a, b in zip(xs, xs[1:]):
            if (b <= a) if up else (b >= a):
                raise NoConvergenceDetected("sequence not strictly monotone")
    lo, hi = max(ls), min(rs)
    if not lo < hi:
        raise NoConvergenceDetected("sides cross")
    if len(ls) >= 2 and len(rs) >= 2 and (hi - lo) > (rs[0] - ls[0]) / 2:
        raise NoConvergenceDetected("gap does not close")
    candidate = simplest_rational_between(lo, hi)
    witness = simplest_rational_between(max(ls[:max(len(ls) // 2, 1)]),
                                        min(rs[:max(len(rs) // 2, 1)]))
    if candidate != witness:
        raise NoConvergenceDetected(
            "no stable pinned rational within %d terms" % max_iter)
    return candidate


# -- exhaustive day-by-day game enumeration (kept simple; it is also the
#    oracle used by the acceptance suite) ---------------------------------

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
