"""Ordinal arithmetic in hereditary Cantor normal form.

An ordinal is a finite descending sum  w^e1*c1 + w^e2*c2 + ... + w^ek*ck
with exponents e1 > e2 > ... > ek and integer coefficients ci >= 1.
The empty sum is 0.  Everything representable lies below epsilon_0, which
keeps all algorithms total.

The ordinals are a sub-order of the surreals, and an ordinal's Cantor
normal form is its surreal normal form (Conway, On Numbers and Games, 1976,
ch. 2), so its terms are spelled as a Number's: a finite exponent is an
`int`, and an infinite one is the exponent's `surreal.Number`, whose terms
are spelled the same way.  `_exp` spells an ordinal as an exponent and
`_from_exp` reads one back; no other module re-derives the spelling.  So
`Ordinal.terms` are a canonical Number's terms, and the questions the two
share are answered by the surreal kernel: `cmp` is `nf_cmp`, and the
Hessenberg natural sum and product are the surreal sum (`_merge` of the two
term tuples) and product (`mul`) (Gonshor, An Introduction to the Theory of
Surreal Numbers, 1986, ch. 5).  This module keeps what belongs to ordinals
alone: the usual (non-commutative) `a + b` and `a * b`, `sub_left`,
`divmod_omega_pow` and the classification, which compare exponents with
`exp_cmp`.  The usual product adds exponents with the ordinal sum, through
`Ordinal.__add__`: Number's `+` would take the natural sum.

`Ordinal(terms)` is the raw constructor and takes canonical terms;
`from_int`, `omega_pow` and the operations build them.  `_coerce` turns an
`int` operand into an `Ordinal` at the public boundary only: the operators,
the free `ord_*` functions and the positions and periods that `skands`
takes.  A finite Ordinal equals its int and its rational Number, and hashes
as the int; an infinite one equals no Number.  As in the surreals, every
ordinal is above a negative int and equals none.

An `Ordinal` is a plain class with `__slots__`, immutable by convention as
`Fraction` is: `__init__` stores the terms, and nothing stores to them
afterwards.
"""

from __future__ import annotations

from .errors import PrefixTooLarge, Record
from .surreal import Number, _merge, exp_cmp, mul, nf_cmp

LT, EQ, GT = -1, 0, 1


def _coerce(x) -> "Ordinal":
    if isinstance(x, Ordinal):
        return x
    if isinstance(x, int):
        return Ordinal.from_int(x)
    raise TypeError("cannot interpret %r as an ordinal" % (x,))


# -- exponents: an int when finite, the exponent's Number otherwise --------

def _exp(x):
    """The exponent spelling of the ordinal or non-negative int x."""
    if type(x) is int and x >= 0:
        return x
    t = _coerce(x).terms
    if not t:
        return 0
    if len(t) == 1 and not t[0][0]:
        return t[0][1]
    return Number(t)


def _from_exp(e) -> "Ordinal":
    """The Ordinal that the exponent e spells: the inverse of _exp."""
    return Ordinal.from_int(e) if type(e) is int else Ordinal(e.terms)


class Ordinal:
    __slots__ = ("terms",)

    def __init__(self, terms: tuple = ()):
        self.terms = terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return Ordinal(((0, n),))

    @staticmethod
    def omega_pow(exp, coeff: int = 1) -> "Ordinal":
        exp = _exp(exp)
        if coeff < 1:
            raise ValueError("coefficient must be >= 1")
        return Ordinal(((exp, coeff),))

    # -- basic structure ----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def leading_exp(self) -> "Ordinal":
        if not self.terms:
            raise ValueError("0 has no leading term")
        return _from_exp(self.terms[0][0])

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][0])

    def as_int(self) -> int:
        if not self.terms:
            return 0
        if self.is_finite():
            return self.terms[0][1]
        raise OverflowError("not a finite ordinal")

    def finite_part(self) -> int:
        """The n with  self = (limit or 0) + n."""
        if self.terms and not self.terms[-1][0]:
            return self.terms[-1][1]
        return 0

    def limit_part(self) -> "Ordinal":
        if self.terms and not self.terms[-1][0]:
            return Ordinal(self.terms[:-1])
        return self

    def is_limit(self) -> bool:
        return bool(self.terms) and bool(self.terms[-1][0])

    def is_successor(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0]

    # -- order ---------------------------------------------------------

    def cmp(self, other) -> int:
        if type(other) is not Ordinal:
            if isinstance(other, int) and other < 0:
                # every ordinal is above a negative int, as in the surreals
                return GT
            other = _coerce(other)
        return nf_cmp(self, other)

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, int):
            # the int's terms: a negative int's are no ordinal's
            return self.terms == (((0, other),) if other else ())
        if isinstance(other, Number):
            # a finite ordinal has its rational Number's terms; Python also
            # calls this reflected, for Number == Ordinal
            return self.is_finite() and self.terms == other.terms
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a finite ordinal hashes as its int, so that == and hash agree
        t = self.terms
        if len(t) < 2 and (not t or not t[0][0]):
            return hash(t[0][1]) if t else 0
        return hash(("Ordinal", self.terms))

    # -- usual arithmetic (non-commutative) -----------------------------

    def __add__(self, other) -> "Ordinal":
        if type(other) is not Ordinal:
            other = _coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        lead = other.terms[0][0]
        kept = []
        for e, c in self.terms:
            r = exp_cmp(e, lead)
            if r == GT:
                kept.append((e, c))
            elif r == EQ:
                kept.append((e, c + other.terms[0][1]))
                return Ordinal(tuple(kept) + other.terms[1:])
            else:
                break
        return Ordinal(tuple(kept) + other.terms)

    def __radd__(self, other) -> "Ordinal":
        return _coerce(other) + self

    def __mul__(self, other) -> "Ordinal":
        if type(other) is not Ordinal:
            other = _coerce(other)
        t, u = self.terms, other.terms
        if not t or not u:
            return ZERO
        if len(u) == 1 and not u[0][0]:
            # times a finite n: n scales the leading coefficient
            return Ordinal(((t[0][0], t[0][1] * u[0][1]),) + t[1:])
        acc = ZERO
        lead = t[0][0]
        for f, d in u:
            if f:
                # the exponents add as ordinals, not as Numbers (whose +
                # is the natural sum): w * w^w is w^w
                e = lead + f if type(lead) is type(f) is int else \
                    _exp(_from_exp(lead) + _from_exp(f))
                acc = acc + Ordinal(((e, d),))
            else:
                # the finite last term d: w^lead*(c1*d) + lower terms of self
                acc = acc + Ordinal(((lead, t[0][1] * d),) + t[1:])
        return acc

    def __rmul__(self, other) -> "Ordinal":
        return _coerce(other) * self

    def sub_left(self, prefix) -> "Ordinal":
        """The unique r with  prefix + r = self;  PrefixTooLarge if prefix > self."""
        if type(prefix) is not Ordinal:
            prefix = _coerce(prefix)
        i = 0
        while i < len(self.terms) and i < len(prefix.terms):
            (et, ct), (ep, cp) = self.terms[i], prefix.terms[i]
            r = exp_cmp(ep, et)
            if r == LT:
                return Ordinal(self.terms[i:])
            if r == GT:
                raise PrefixTooLarge("%s > %s" % (prefix, self))
            if cp < ct:
                return Ordinal(((et, ct - cp),) + self.terms[i + 1:])
            if cp > ct:
                raise PrefixTooLarge("%s > %s" % (prefix, self))
            i += 1
        if i < len(prefix.terms):
            raise PrefixTooLarge("%s > %s" % (prefix, self))
        return Ordinal(self.terms[i:]) if i else self

    # -- natural (Hessenberg) arithmetic --------------------------------

    def nat_add(self, other) -> "Ordinal":
        if type(other) is not Ordinal:
            other = _coerce(other)
        return Ordinal(tuple(_merge(self.terms, other.terms)))

    def nat_mul(self, other) -> "Ordinal":
        if type(other) is not Ordinal:
            other = _coerce(other)
        return Ordinal(mul(self, other).terms)

    # -- display --------------------------------------------------------

    def __str__(self):
        from .exprs import render_ordinal
        return render_ordinal(self)

    def __repr__(self):
        return "Ordinal<%s>" % (self,)


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal(((1, 1),))


class OrdinalClass(Record):
    __slots__ = ("is_zero", "is_limit", "is_successor",
                 "is_additively_indecomposable", "is_main")


# -- free-function operation aliases ------------------------------------

def ord_cmp(a, b) -> int:
    return a.cmp(b) if type(a) is Ordinal else -_coerce(b).cmp(a)


def ord_add(a, b) -> Ordinal:
    return _coerce(a) + b


def ord_mul(a, b) -> Ordinal:
    return _coerce(a) * b


def ord_nat_add(a, b) -> Ordinal:
    return _coerce(a).nat_add(b)


def ord_nat_mul(a, b) -> Ordinal:
    return _coerce(a).nat_mul(b)


def ord_sub_left(total, prefix) -> Ordinal:
    return _coerce(total).sub_left(prefix)


def classify_ordinal(a) -> OrdinalClass:
    a = _coerce(a)
    indec = len(a.terms) == 1 and a.terms[0][1] == 1
    # main (Jacobsthal): w^(w^kappa), i.e. the exponent is itself w^kappa;
    # the only finite such exponent is 1 = w^0
    e = a.terms[0][0] if indec else 0
    main = e == 1 if type(e) is int else \
        len(e.terms) == 1 and e.terms[0][1] == 1
    return OrdinalClass(not a, a.is_limit(), a.is_successor(), indec, main)


def divmod_omega_pow(a, k) -> tuple:
    """(q, r) with  a = w^k * q + r  and  r < w^k."""
    a, k = _coerce(a), _exp(k)
    hi = []
    i = 0
    for e, c in a.terms:
        if exp_cmp(e, k) >= 0:
            hi.append((e - k if type(e) is int else
                       _exp(_from_exp(e).sub_left(_from_exp(k))), c))
            i += 1
        else:
            break
    return Ordinal(tuple(hi)), Ordinal(a.terms[i:])
