"""Exact arithmetic on a computable fragment of the surreal numbers.

A Number is a finite normal form  sum of w^e * r  where the exponents e are
in strictly decreasing order and the coefficients r are nonzero rationals.
The empty sum is 0.  Every rational, a coefficient or a real exponent, has
one spelling: an int when its denominator is 1 and a Fraction otherwise
(_q makes an arithmetic result so), as PARI/GP keeps t_INT apart from
t_FRAC.  Most rationals met are integers, and int arithmetic skips the
Python code of the fractions module.  Each exponent has one canonical
spelling: a real exponent is its rational, eps_a is an EpsilonAtom, and any
other exponent is a non-real Number (itself in normal form).  Ordinals,
reals with terminating expansions, w-powers with arbitrary Number exponents
and epsilon-numbers (as atomic leaves) all live in this fragment;
arithmetic on it is exact except for inversion, which sums a geometric
series and is cut after a caller-chosen number of terms.  A cut result is a
TruncatedNumber (value, order): the value holds exactly the true terms
above the order, the exponent where the first left-out power of the series
starts to count (the O(x^n) of truncated power series).  known_sum,
known_product and divide take cut operands too, and carry the orders by
the valuation rules set out above known_sum.

power_series sums a cut series over a scaled copy of its variable whose
coefficients are all ints, and divides once at the end (fraction-free
arithmetic); it forms no term at or below the order.  When every exponent
of the variable is a negative rational, the exponents are scaled too: they
lie on a lattice -(g/L)*Z, so the variable is an int polynomial in
z = w^(-g/L) that starts at z^p_1, and power_series packs the sum's N*p_1
slots above the order into one Python int (Kronecker substitution), by
Horner's rule modulo 2^(bits*N*p_1), with slots wide enough for a bound on
every coefficient.  It does so only when the packing has no more slots
than the sparse sum can have terms; otherwise, and for non-real exponents,
the powers go through mul and _merge, each cut at the order.  A reduced
quotient of two ints is stored into a Fraction's two slots by _reduced,
without the gcd and parsing of Fraction's constructor.

A rational operand (one term at exponent 0) is a coefficient scale: mul
by r is the one row of r's exponent-0 term, and divide by r divides every
coefficient of the other operand by r (a Fraction or an int, never a
float), with no exponent sums, no row merge and no inverse.  So a number
literal's rationals (w^(1/2)*3/2) cost one scale each, and so does ln's
w*z0 for a real z0.  The leading monomial that invert and exp multiply
their series by is folded into power_series: on the lattice path its
exponent, real or not, is added to each unpacked exponent and its
coefficient joins the final division, so each output term is built once.

An ordinal's Cantor normal form is its normal form here, and
ordinals.Ordinal spells its terms as a canonical Number's, so from_ordinal
is a view that builds no term, and ordinals compares and takes natural
sums and products with nf_cmp, _merge and mul.  The import runs one way:
ordinals imports this module, and this module reads an Ordinal only
through its terms.

Number, EpsilonAtom and TruncatedNumber are plain classes with __slots__,
immutable by convention as Fraction is: an explicit __init__ stores the
fields, and nothing stores to them afterwards.

Dyadic {L|R} games, birthdays and limits of dyadic sequences live here too.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cmp_to_key
from math import ceil, comb, floor, gcd, lcm

from .errors import (DivisionByZero, IllFormedGame, InsufficientPrecision,
                     NoConvergenceDetected, Record)

LT, EQ, GT = -1, 0, 1
_new = object.__new__


class EpsilonAtom:
    """The epsilon-number with the given Number index, kept atomic.

    Its defining normal form is the single term w^(eps_a) * 1, so the atom
    can only ever appear in exponent position.
    """
    __slots__ = ("index",)

    def __init__(self, index: "Number"):
        self.index = index

    def __eq__(self, other):
        if other.__class__ is not EpsilonAtom:
            return NotImplemented
        return self.index == other.index

    def __hash__(self):
        return hash((self.index,))

    def __repr__(self):
        return "eps[%r]" % (self.index,)


class Number:
    __slots__ = ("terms",)

    def __init__(self, terms: tuple = ()):
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    # equality is structural; canonical construction makes it semantic
    def __eq__(self, other):
        # an Ordinal gets NotImplemented, and Python then asks
        # Ordinal.__eq__, which equates a finite ordinal with its rational
        if isinstance(other, (int, Fraction)):
            other = from_rational(other)
        if not isinstance(other, Number):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a rational hashes as its int or Fraction, so that == and hash agree
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
    raise TypeError("cannot interpret %r as a Number" % (x,))


def _q(x):
    """The canonical spelling of a rational result x (an int or a
    Fraction): an int when its denominator is 1, else x itself."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _rational_of(x):
    """The canonical spelling of any rational x: a bool, a Fraction
    subclass such as Dyadic, or a float is first made a Fraction."""
    return x if type(x) is int else \
        _q(x if type(x) is Fraction else Fraction(x))


def _reduced(n, d):
    """The Fraction n/d for coprime ints n and d > 1, built without
    Fraction.__new__'s parsing and gcd: the two slot stores that Python
    3.12's Fraction._from_coprime_ints makes.  Fraction has the slots
    _numerator and _denominator in every CPython from 3.10 on, and a
    store to any other name would raise; test_surreal checks the result
    against Fraction(n, d) in value, hash and repr."""
    f = _new(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _div(c, r):
    """c/r for canonical rationals c and r != 0, canonical.  Two ints take
    one gcd, signed as r so that the denominator stays positive: an int
    when r divides c, and otherwise _reduced of the two quotients, which
    are coprime with a denominator above 1, so nothing is left for
    Fraction's constructor to check.  c / r of two ints would be a float,
    so it is taken only when one of them is a Fraction."""
    if type(c) is int and type(r) is int:
        g = gcd(c, r)
        if r < 0:
            g = -g
        return c // r if g == r else _reduced(c // g, r // g)
    return _q(c / r)


def _norm_exp(e):
    """Canonical exponent: a Fraction with denominator 1 becomes its int, a
    real Number (0 or a single w^0 term) collapses to its rational, and a
    Number equal to eps_a collapses to the atom.  Every other exponent
    stays as it is."""
    te = type(e)
    if te is Fraction:
        return _q(e)
    if te is Number:
        t = e.terms
        if not t:
            return 0
        if len(t) == 1:
            inner, coeff = t[0]
            if type(inner) is int and not inner:
                return coeff
            if type(inner) is EpsilonAtom and coeff == 1:
                return inner
    return e


def exp_as_number(e) -> Number:
    """The Number an exponent stands for (a rational or an atom lifted)."""
    te = type(e)
    if te is int or te is Fraction:
        return Number(((0, e),)) if e else ZERO
    if te is EpsilonAtom:
        return Number(((e, 1),))
    return e


def exp_cmp(e, f) -> int:
    """Total order on canonical exponents: rationals (ints and Fractions),
    epsilon atoms and non-real Numbers mixed.  Two ints, the common case of
    ordinal and series exponents alike, are tested for first and compare
    directly; two rationals otherwise by cross-multiplying their integers;
    a rational against anything else goes through _cmp_real, which
    allocates nothing."""
    te, tf = type(e), type(f)
    if te is tf is int:
        return GT if e > f else (LT if e < f else EQ)
    if te is int or te is Fraction:
        if tf is int or tf is Fraction:
            d = e.numerator * f.denominator - f.numerator * e.denominator
            return GT if d > 0 else (LT if d else EQ)
        return _cmp_real(e, f)
    if tf is int or tf is Fraction:
        return -_cmp_real(f, e)
    if te is EpsilonAtom:
        if tf is EpsilonAtom:
            return nf_cmp(e.index, f.index)
        return _cmp_atom_number(e, f)
    if tf is EpsilonAtom:
        return -_cmp_atom_number(f, e)
    return nf_cmp(e, f)


def _cmp_real(q, t) -> int:
    # the rational q against a non-real exponent t (an atom or a Number):
    # an atom is infinite; a Number is decided by its leading term, and by
    # its second one when it leads with q itself.
    if type(t) is EpsilonAtom:
        return LT
    e1, r1 = t.terms[0]
    # s has the sign of t's leading exponent e1
    te = type(e1)
    if te is int or te is Fraction:
        s = e1.numerator
    else:
        s = 1 if te is EpsilonAtom else e1.terms[0][1].numerator
    if s > 0:
        return LT if r1 > 0 else GT
    if s < 0:
        if q:
            return GT if q.numerator > 0 else LT
        return LT if r1 > 0 else GT
    if q != r1:
        return GT if q > r1 else LT
    return LT if t.terms[1][1] > 0 else GT


def _cmp_atom_number(atom: EpsilonAtom, t: Number) -> int:
    # eps_a against a non-real normal form t: compare w^(eps_a) with the
    # leading monomial; eps_a beats every exponent not itself reaching an
    # atom of index >= a.
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
    return LT if t.terms[1][1] > 0 else GT


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

    This is the one constructor that sorts: the parser and the embeddings
    hand it pairs in no particular order.  Exponents and coefficients are
    made canonical here (_norm_exp collapses a real Number to its rational
    and a Number equal to eps_a to the atom; a rational becomes an int when
    it is integral), so equal exponents are structurally equal and lie side
    by side after one sort by exp_cmp.  Hashing the exponents instead would
    re-hash every rational in them, which costs more.
    """
    terms = [(_norm_exp(e), _rational_of(c)) for e, c in pairs if c]
    terms.sort(key=cmp_to_key(lambda p, q: exp_cmp(p[0], q[0])), reverse=True)
    merged = []
    for e, c in terms:
        if merged and merged[-1][0] == e:
            c = _q(c + merged.pop()[1])
        merged.append((e, c))
    return Number(tuple(p for p in merged if p[1]))


def _merge(s, t) -> list:
    """The sum of two canonical term sequences, as a canonical list.

    A canonical sequence has canonical exponents in strictly decreasing
    exp_cmp order and nonzero canonical coefficients: ints, or Fractions
    with a denominator above 1.  A single linear pass keeps the invariant:
    the larger head goes first, equal heads add their coefficients (and a
    sum of two Fractions may be an int), and a zero sum is dropped.
    """
    out = []
    i = j = 0
    ns, nt = len(s), len(t)
    while i < ns and j < nt:
        e, c = s[i]
        f, d = t[j]
        k = exp_cmp(e, f)
        if k > 0:
            out.append(s[i])
            i += 1
        elif k < 0:
            out.append(t[j])
            j += 1
        else:
            c += d
            if c:
                out.append((e, _q(c)))
            i += 1
            j += 1
    out.extend(s[i:])
    out.extend(t[j:])
    return out


# -- embeddings ---------------------------------------------------------

def from_rational(q) -> Number:
    q = _rational_of(q)
    if not q:
        return ZERO
    return Number(((0, q),))


ONE = from_rational(1)
MINUS_ONE = from_rational(-1)
OMEGA = Number(((1, 1),))


def from_ordinal(a) -> Number:
    """The Number of the ordinal a: a view of a's terms, which are spelled
    as a canonical Number's (see ordinals)."""
    return Number(a.terms)


def epsilon(index) -> Number:
    return Number(((EpsilonAtom(_coerce(index)), 1),))


def omega_pow(x) -> Number:
    return Number(((_norm_exp(_coerce(x)), 1),))


# -- ring operations ------------------------------------------------------

def add(a: Number, b: Number) -> Number:
    if not a.terms:
        return b
    if not b.terms:
        return a
    return Number(tuple(_merge(a.terms, b.terms)))


def negate(a: Number) -> Number:
    return Number(tuple((e, -c) for e, c in a.terms))


def sub(a: Number, b: Number) -> Number:
    return add(a, negate(b))


def exp_sum(e, f):
    """The canonical sum of two canonical exponents: two rationals add as
    one int quotient, which _div reduces (mul adds two ints itself), and
    non-real exponents can sum to a real one or to eps_a."""
    te, tf = type(e), type(f)
    if te is tf is int:
        return e + f
    if (te is int or te is Fraction) and (tf is int or tf is Fraction):
        return _div(e.numerator * f.denominator + f.numerator * e.denominator,
                    e.denominator * f.denominator)
    return _norm_exp(add(exp_as_number(e), exp_as_number(f)))


def split_at_zero(terms) -> tuple:
    """(hi, mid, lo) for canonical terms: the terms with exponents above
    0 and below 0 as tuples, and the coefficient at exponent 0 (0 when
    there is none)."""
    hi, mid, lo = [], 0, []
    for e, c in terms:
        s = exp_cmp(e, 0)
        if s > 0:
            hi.append((e, c))
        elif s == 0:
            mid = c
        else:
            lo.append((e, c))
    return tuple(hi), mid, tuple(lo)


def _rational(x: Number):
    """The coefficient of x when x is a nonzero rational (one term at
    exponent 0), else None."""
    t = x.terms
    if len(t) == 1:
        e, c = t[0]
        if type(e) is int and not e:
            return c
    return None


def mul(a: Number, b: Number) -> Number:
    """Sparse product: one row a_i*b per term of the shorter operand,
    merged pairwise (Monagan & Pearce's row merge).  Adding a fixed
    exponent keeps a row strictly decreasing, so no row needs sorting.  Two
    int exponents add as ints, and a row for the exponent 0 keeps b's
    exponents as they are.  So a rational operand r is a scale: it is made
    the shorter operand, its one row multiplies the other's coefficients by
    r, and no exponent is added or merged.  Each coefficient product is
    made canonical by _q, so two ints multiply as ints, and a row whose
    coefficient is 1 keeps b's coefficients as they are (exp multiplies
    its series by a monomial w^e*1)."""
    na, nb = len(a.terms), len(b.terms)
    if na > nb or na == nb == 1 and _rational(b) is not None:
        a, b = b, a
    if not a.terms:
        return ZERO
    other = b.terms
    rows = []
    for e, c in a.terms:
        unit = type(c) is int and c == 1
        if type(e) is int and not e:
            rows.append(list(other) if unit else
                        [(f, _q(c * d)) for f, d in other])
            continue
        rows.append([(e + f if type(e) is type(f) is int else exp_sum(e, f),
                      d if unit else _q(c * d)) for f, d in other])
    while len(rows) > 1:
        odd = rows[-1:] if len(rows) % 2 else []
        rows = [_merge(s, t) for s, t in zip(rows[::2], rows[1::2])] + odd
    return Number(tuple(rows[0]))


class TruncatedNumber(Record):
    """A value known up to an order: the true value agrees with `value` at
    every exponent above `order`, and `value` holds no term at or below it.

    `order` is None when the value is exact: no series was cut on the way
    to it.  Otherwise it is the exponent of the first term a cut series
    left out, carried through later arithmetic by the valuation rules of
    exprs, as the O(x^n) term of PARI/GP is.
    """
    __slots__ = ("value", "order")

    def __init__(self, value: Number, order=None):
        self.value = value
        self.order = order

    @property
    def exact(self) -> bool:
        return self.order is None


def above(x: Number, order) -> Number:
    """The terms of x whose exponents lie above the exponent `order`: a
    leading part of x, found from its end."""
    t = x.terms
    n = len(t)
    while n and exp_cmp(t[n - 1][0], order) <= 0:
        n -= 1
    return x if n == len(t) else Number(t[:n])


def exp_times(e, k: int):
    """k*e for a canonical exponent e and a nonzero int k, without a mul."""
    te = type(e)
    if te is int:
        return e * k
    if te is Fraction:
        return _div(e.numerator * k, e.denominator)
    return _norm_exp(Number(tuple((f, _q(c * k))
                                  for f, c in exp_as_number(e).terms)))


def power_series(y: Number, coeffs, lead=None) -> TruncatedNumber:
    """sum coeffs[n] * y^n for an infinitesimal y, times the monomial w^s*r
    when lead = (s, r) is given, known up to its order s + N*v(y), where
    N = len(coeffs) >= 1 and v(y) is y's leading exponent: the powers y^n
    for n >= N that the sum leaves out start there.  No term at or below
    the order is formed, and y's own terms at or below N*v(y) are dropped
    first, as they only feed such terms.  Each coefficient is an int or a
    Fraction, and a y of 0 gives coeffs[0] * w^s*r exactly.

    Fraction-free (Bareiss): with D the lcm of the denominators of y's
    coefficients, Y = D*y has int coefficients, and so does every power
    Y^n.  Term n adds Y^n scaled by the int k_n = a_n * L * D^(N-1-n), where
    L is the lcm of the a_n's denominators, so the whole sum is Q times the
    answer for Q = L * D^(N-1).  Each output coefficient is divided by Q
    once: one gcd per term instead of two per product and per merge step.

    The sum of the k_n * Y^n is formed by one of two paths, which give the
    same terms.  When every exponent of y is a negative rational, y lies on
    a lattice and _lattice_sum packs the sum's N*p_1 slots above the order
    into one int (Kronecker substitution), unless they are more than the
    sparse sum can have terms.  Otherwise _row_sum multiplies the powers of
    Y as Numbers with mul, cuts each at the order and merges them; a zero
    a_n adds nothing there, and no power beyond Y^(N-1) is formed.

    On the lattice path the lead exponent s is added while the slots are
    unpacked, and r joins the final division, so each output term costs
    one rational for its exponent and one for its coefficient, and an
    integral one builds no Fraction; a non-real s costs one Number per
    term more, and no mul.  On the row path the lead multiplies the sum
    with mul.
    """
    shift, r = lead or (0, 1)
    if not y.terms:
        c = _q(coeffs[0] * r)
        return TruncatedNumber(Number(((shift, c),)) if c else ZERO)
    n_terms = len(coeffs)
    cut = exp_times(y.terms[0][0], n_terms)
    order = exp_sum(shift, cut)
    # a term of y at or below the cut only feeds terms below the order
    y = above(y, cut)
    den = lcm(*(c.denominator for _, c in y.terms))
    big_y = tuple((e, c.numerator * (den // c.denominator))
                  for e, c in y.terms)
    lcm_a = lcm(*(a.denominator for a in coeffs))
    ks = [a.numerator * (lcm_a // a.denominator) * den ** (n_terms - 1 - n)
          for n, a in enumerate(coeffs)]
    q = lcm_a * den ** (n_terms - 1)
    acc = _lattice_sum(big_y, ks, shift)
    if acc is None:
        series = Number(tuple((e, _div(c, q))
                              for e, c in _row_sum(big_y, ks, cut)))
        return TruncatedNumber(
            series if lead is None else mul(Number((lead,)), series), order)
    num, q = r.numerator, q * r.denominator
    return TruncatedNumber(Number(tuple((e, _div(c * num, q))
                                        for e, c in acc)), order)


def _row_sum(big_y, ks, cut) -> list:
    # sum k_n * Y^n above the exponent `cut` as a canonical term list, for a
    # Y with no term at or below it: each power is one sparse mul of the
    # previous power by Y, less its terms at or below the cut, which only
    # feed lower terms as Y is infinitesimal; each nonzero k_n merges its
    # power in
    big_y = Number(big_y)
    acc = []
    power = ONE
    for n, k in enumerate(ks):
        if n:
            power = above(mul(power, big_y), cut) if n > 1 else big_y
        if k:
            acc = _merge(acc, [(e, k * c) for e, c in power.terms])
    return acc


def _lattice_sum(big_y, ks, shift):
    """w^shift * sum k_n * Y^n by Kronecker substitution, for any canonical
    exponent shift, as a canonical term list of the terms above the order
    w^shift * Y^N, or None when Y is not on a lattice of negative rationals
    or the packing would be larger than the sparse sum can be.

    Every exponent of Y is a negative rational -(g/L)*p_i, where L is the
    lcm of their denominators, g the gcd of the integers -e_i*L and p_i a
    positive int, p_1 the least; so Y is an int polynomial sum C_i z^p_i in
    z = w^(-g/L), and Y^N starts at z^(N*p_1).  Evaluating at z = 2^b gives
    the int X = sum C_i 2^(b*p_i), and Horner's rule forms P = sum k_n X^n
    modulo 2^(b*N*p_1), with one int product per power (each by the
    fixed-size X, so it costs what forming the next power would): the
    first N*p_1 slots of P are exact, and only the accumulator is reduced.
    Slot j of P (its b bits from b*j) is the coefficient of z^j, which is
    at most B = sum |k_n| S^n in size with S = sum |C_i|; b is the bit
    length of B plus a sign bit, rounded up to whole bytes, so no slot
    overflows.  Adding 2^(b-1) to every slot, modulo 2^(b*N*p_1) again,
    makes each one a non-negative b-bit digit, and one to_bytes call
    unpacks them all; a zero slot is skipped, and slot j's exponent
    shift - j*g/L is built as one rational.  A non-real shift is split once
    by split_at_zero into its terms above 0, its rational m at 0 and its
    terms below 0: the rational m - j*g/L is built as for a real shift and
    set between the two, so each slot's exponent is one Number, which
    _norm_exp collapses when it is eps_a.

    A sum of N powers of a t-term sparse Y has at most C(N+t-1, t) distinct
    exponents.  When the N*p_1 slots are more (Y's exponents are many
    steps g/L below 0), the row merge is cheaper, so None is returned.
    """
    if not big_y or any((type(e) is not int and type(e) is not Fraction)
                        or e.numerator >= 0 for e, _ in big_y):
        return None
    step_den = lcm(*(e.denominator for e, _ in big_y))
    scaled = [-e.numerator * (step_den // e.denominator) for e, _ in big_y]
    step = gcd(*scaled)
    ps = [m // step for m in scaled]
    slots = len(ks) * ps[0]
    if slots > comb(len(ks) + len(ps) - 1, len(ps)):
        return None
    s = sum(abs(c) for _, c in big_y)
    bound = 0
    for k in reversed(ks):
        bound = bound * s + abs(k)
    width = (bound.bit_length() + 8) // 8
    bits = 8 * width
    x = sum(c << (bits * p) for (_, c), p in zip(big_y, ps))
    mask = (1 << (bits * slots)) - 1
    packed = 0
    for k in reversed(ks):
        packed = (packed * x + k) & mask
    half = 1 << (bits - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    raw = ((packed + bias) & mask).to_bytes(width * slots, "little")
    te = type(shift)
    hi, mid, lo = ((), shift, ()) if te is int or te is Fraction else \
        split_at_zero(exp_as_number(shift).terms)
    # slot j's exponent is hi + (top - j*step) / exp_den + lo
    exp_den = mid.denominator * step_den
    top = mid.numerator * step_den
    step *= mid.denominator
    out = []
    for j in range(slots):
        c = int.from_bytes(raw[j * width:(j + 1) * width], "little") - half
        if c:
            out.append((_div(top - j * step, exp_den), c))
    if not (hi or lo):
        return out
    return [(_norm_exp(Number(hi + ((0, m),) + lo if m else hi + lo)), c)
            for m, c in out]


def invert(x: Number, max_terms: int = 8) -> TruncatedNumber:
    """Inverse by peeling the leading monomial: x = w^e*r*(1+d) with d
    infinitesimal, 1/x = w^-e/r * sum (-d)^n for n < max_terms, summed by
    power_series with int coefficients and w^-e/r as its lead, up to the
    order -e + max_terms*v(d).  Exact iff d = 0."""
    if not x.terms:
        raise DivisionByZero("invert(0)")
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    e1, r1 = x.terms[0]
    neg_e1 = -e1 if type(e1) is int or type(e1) is Fraction else \
        exp_times(e1, -1)
    inv_r1 = _div(1, r1)
    if len(x.terms) == 1:
        return TruncatedNumber(Number(((neg_e1, inv_r1),)))
    neg_delta = mul(Number(x.terms[1:]), Number(((neg_e1, -inv_r1),)))
    return power_series(neg_delta, [1] * max_terms, (neg_e1, inv_r1))


def divide(a, b, max_terms: int = 8) -> TruncatedNumber:
    """a/b, where a and b are Numbers or cut values.  An exact rational b
    scales a, which keeps its order; otherwise a times the inverse of b by
    known_product.  For a cut b, 1/b takes the larger of invert's order and
    o_b - 2*v^(b), and a b that is 0 above its order is refused."""
    y, q = _parts(b)
    r = _rational(y) if q is None else None
    if r is not None:
        x, o = _parts(a)
        return TruncatedNumber(Number(tuple((e, _div(c, r))
                                            for e, c in x.terms)), o)
    if q is not None and not y:
        raise InsufficientPrecision("the divisor is 0 above its order")
    t = invert(y, max_terms)
    if q is not None:
        t = _known(t.value, _higher(
            t.order, exp_sum(q, exp_times(y.terms[0][0], -2))))
    p = known_product(a, t)
    return p if p.__class__ is TruncatedNumber else TruncatedNumber(p)


# -- values known up to an order ------------------------------------------
#
# Arithmetic on cut values, as the O(x^n) of truncated power series: an
# operand is a Number, which is exact and adds no bound, or a TruncatedNumber.
# Let v^(x) be the leading exponent of x's value, or x's order when that
# value is 0.  -a keeps a's order; a + b takes the larger order; a * b takes
# max(o_a + v^(b), o_b + v^(a)), and an exact 0 factor gives an exact 0; a / b
# is divide's.  known_sum and known_product return a Number when both
# operands are exact, and otherwise their value cut at its order.

def _parts(x):
    """(value, order) of a Number or a TruncatedNumber."""
    if x.__class__ is Number:
        return x, None
    if x.__class__ is TruncatedNumber:
        return x.value, x.order
    raise TypeError("%r is not a Number or a TruncatedNumber" % (x,))


def _lead(value: Number, order):
    """v^: value's leading exponent, or `order` when value is 0."""
    return value.terms[0][0] if value.terms else order


def _higher(e, f):
    """The larger of two orders, where None, exact, is below every one."""
    if e is None or f is not None and exp_cmp(f, e) > 0:
        return f
    return e


def _known(value: Number, order):
    """`value` known above `order`: itself when order is None, exact."""
    return value if order is None else \
        TruncatedNumber(above(value, order), order)


def known_negate(a):
    return negate(a) if a.__class__ is Number else \
        TruncatedNumber(negate(a.value), a.order)


def known_sum(a, b):
    (x, o), (y, q) = _parts(a), _parts(b)
    return _known(add(x, y), _higher(o, q))


def known_product(a, b):
    (x, o), (y, q) = _parts(a), _parts(b)
    if o is None and not x or q is None and not y:
        return ZERO
    return _known(mul(x, y), _higher(
        None if o is None else exp_sum(o, _lead(y, q)),
        None if q is None else exp_sum(q, _lead(x, o))))


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
