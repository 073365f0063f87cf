"""Exponential and logarithm on the exact fragment.

exp is defined by  e^x = w^(x'/w) * e^(x'')  where x' is the purely infinite
part and x'' the infinitesimal part; a nonzero real part would need the
transcendental e^r and is rejected.  ln inverts this through
y = w^(z0) * r0 * (1 + d):  ln y = w*z0 + ln(1+d), restricted to r0 = 1 and
to leading exponents whose own exponents all exceed -1 (the domain in which
a logarithm exists at all).  Each series is one call to
surreal.power_series, which sums max_terms orders of it with int
coefficients, divides once at the end, multiplies exp's sum by its exact
factor as it builds the output terms, and returns the sum with its order:
the exponent of the first term the cut leaves out, None when nothing was
cut.
The series coefficients 1/n! and +-1/n are reduced already, so they are
built by surreal._reduced, and the first ones are the int 1.  decompose
splits x by exponent sign with surreal.split_at_zero, the same split that
power_series makes of a non-real lead exponent.
"""

from __future__ import annotations

from math import factorial

from .errors import (LeadingCoefficientNotOne, NonPositive, NotInDomain,
                     RealPartNotZero, Record, ZeroInput)
from .surreal import (MINUS_ONE, OMEGA, Number, TruncatedNumber, _reduced,
                      add, exp_as_number, exp_cmp, mul, negate, omega_pow,
                      power_series, sign, split_at_zero)


class Decomposition(Record):
    """The Number parts of x above, at and below exponent 0; the real part
    is an int or a Fraction."""
    __slots__ = ("purely_infinite", "real_part", "infinitesimal")


def decompose(x: Number) -> Decomposition:
    """Split by exponent sign: positive / zero / negative."""
    inf, real, small = split_at_zero(x.terms)
    return Decomposition(Number(inf), real, Number(small))


def exp(x: Number, max_terms: int = 8) -> TruncatedNumber:
    """e^x for x with zero real part: the exact factor w^(x'/w) times
    sum x''^n / n! for n < max_terms, up to the order of the factor times
    x''^max_terms.  Exact iff x has no infinitesimal part x''."""
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    d = decompose(x)
    if d.real_part:
        raise RealPartNotZero("exp needs a zero exponent-0 coefficient, got %s"
                              % (d.real_part,))
    factor = omega_pow(mul(omega_pow(MINUS_ONE), d.purely_infinite))
    if not d.infinitesimal:
        return TruncatedNumber(factor)
    return power_series(d.infinitesimal,
                        [_reduced(1, factorial(n)) if n > 1 else 1
                         for n in range(max_terms)],
                        factor.terms[0])


def in_ln_domain(y: Number) -> bool:
    """True iff y > 0 and every exponent in the normal form of y's leading
    exponent exceeds -1."""
    if sign(y) <= 0:
        return False
    z0 = exp_as_number(y.terms[0][0])
    return all(exp_cmp(t, -1) > 0 for t, _ in z0.terms)


def ln(y: Number, max_terms: int = 8) -> TruncatedNumber:
    """ln y = w*z0 + ln(1+d) for y = w^z0 * (1+d), with ln(1+d) summed as
    (-1)^(n-1) d^n / n for 1 <= n <= max_terms, up to the order of
    d^(max_terms+1); exact iff d = 0."""
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if sign(y) <= 0:
        raise NonPositive("ln of a non-positive number")
    if not in_ln_domain(y):
        raise NotInDomain("leading exponent has an exponent <= -1")
    e1, r1 = y.terms[0]
    if r1 != 1:
        raise LeadingCoefficientNotOne("leading coefficient %s != 1" % (r1,))
    z0 = exp_as_number(e1)
    main = mul(OMEGA, z0)
    rest = Number(y.terms[1:])
    if not rest:
        return TruncatedNumber(main)
    delta = mul(omega_pow(negate(z0)), rest)
    series = power_series(delta, [0] + [_reduced((-1) ** (n - 1), n)
                                        if n > 1 else 1
                                        for n in range(1, max_terms + 1)])
    return TruncatedNumber(add(main, series.value), series.order)


def leader(y: Number) -> Number:
    """w^z0, the simplest member of y's commensurability class."""
    if not y.terms:
        raise ZeroInput("leader(0)")
    return Number(((y.terms[0][0], 1),))
