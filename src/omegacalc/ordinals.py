"""Ordinal arithmetic in hereditary Cantor normal form.

An ordinal is a finite descending sum  w^e1*c1 + w^e2*c2 + ... + w^ek*ck
with exponents e1 > e2 > ... > ek and integer coefficients ci >= 1.
The empty sum is 0.  Everything representable lies below epsilon_0, which
keeps all algorithms total.

Every exponent has one spelling: a finite exponent is an `int` and only an
infinite one is an `Ordinal`, so comparing and summing the exponents of the
common case is `int` arithmetic.  `Ordinal(terms)` is the raw constructor and
takes canonical terms; `from_int`, `omega_pow` and the operations build them.
`_coerce` turns an `int` operand into an `Ordinal` at the public boundary
only: the operators and the free `ord_*` functions.

An `Ordinal` is a plain class with `__slots__`, immutable by convention as
`Fraction` is: `__init__` stores the terms, and nothing stores to them
afterwards.

Both the usual (non-commutative) sum/product and the Hessenberg natural
sum/product are provided.  `a + b` and `a * b` are the usual operations;
natural ones are named methods.
"""

from __future__ import annotations

from functools import cmp_to_key

from .errors import PrefixTooLarge, Record

LT, EQ, GT = -1, 0, 1


def _coerce(x) -> "Ordinal":
    if isinstance(x, Ordinal):
        return x
    if isinstance(x, int):
        return Ordinal.from_int(x)
    raise TypeError("cannot interpret %r as an ordinal" % (x,))


# -- exponents: an int when finite, an infinite Ordinal otherwise -----------

def _exp(x):
    """The exponent spelling of the ordinal or non-negative int x."""
    if type(x) is int and x >= 0:
        return x
    t = _coerce(x).terms
    if not t:
        return 0
    if len(t) == 1 and not t[0][0]:
        return t[0][1]
    return x


def _ecmp(a, b) -> int:
    """Compare two exponents; every int lies below every Ordinal."""
    if type(a) is int:
        if type(b) is int:
            return EQ if a == b else GT if a > b else LT
        return LT
    return GT if type(b) is int else a.cmp(b)


def _enat_add(a, b):
    """The natural sum of two exponents."""
    if type(a) is int and type(b) is int:
        return a + b
    return _coerce(a).nat_add(b)


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
        return _coerce(self.terms[0][0])

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
            other = _coerce(other)
        for (ea, ca), (eb, cb) in zip(self.terms, other.terms):
            c = _ecmp(ea, eb)
            if c:
                return c
            if ca != cb:
                return GT if ca > cb else LT
        if len(self.terms) != len(other.terms):
            return GT if len(self.terms) > len(other.terms) else LT
        return EQ

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
            other = Ordinal.from_int(other)
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
            r = _ecmp(e, lead)
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
                # an exponent sum: int + int is an int, and a sum with an
                # infinite Ordinal is an infinite Ordinal
                acc = acc + Ordinal(((lead + f, d),))
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
            r = _ecmp(ep, et)
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
        return Ordinal(self.terms[i:])

    # -- natural (Hessenberg) arithmetic --------------------------------

    def nat_add(self, other) -> "Ordinal":
        if type(other) is not Ordinal:
            other = _coerce(other)
        merged = {}
        for e, c in self.terms + other.terms:
            merged[e] = merged.get(e, 0) + c
        return _from_dict(merged)

    def nat_mul(self, other) -> "Ordinal":
        if type(other) is not Ordinal:
            other = _coerce(other)
        merged = {}
        for e, c in self.terms:
            for f, d in other.terms:
                g = _enat_add(e, f)
                merged[g] = merged.get(g, 0) + c * d
        return _from_dict(merged)

    # -- display --------------------------------------------------------

    def __str__(self):
        from .exprs import render_ordinal
        return render_ordinal(self)

    def __repr__(self):
        return "Ordinal<%s>" % (self,)


def _from_dict(merged: dict) -> Ordinal:
    items = [(e, c) for e, c in merged.items() if c]
    items.sort(key=cmp_to_key(lambda a, b: _ecmp(a[0], b[0])), reverse=True)
    return Ordinal(tuple(items))


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal(((1, 1),))


class OrdinalClass(Record):
    __slots__ = ("is_zero", "is_limit", "is_successor",
                 "is_additively_indecomposable", "is_main")


# -- free-function operation aliases ------------------------------------

def ord_cmp(a, b) -> int:
    return _coerce(a).cmp(b)


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
        if _ecmp(e, k) >= 0:
            hi.append((e - k if type(e) is int else _exp(e.sub_left(k)), c))
            i += 1
        else:
            break
    return Ordinal(tuple(hi)), Ordinal(a.terms[i:])
