"""Symbols of infinity, the jump calculus and the left-right construction.

A GapLabel marks a Dedekind gap in the number line.  It is indexed by the
simplest number adjacent to the defining sequence and deliberately carries
no arithmetic: gaps are not numbers.

gap_of covers the catalogued monotone sequence families; jump_report
answers, for a limit ordinal L, whether the jump (+inf_L, L] swallows an
isometric copy of [0, +inf_L) (it does exactly for additively
indecomposable L) and counts the jumps of each size w^v below L.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotIndecomposable, NotLimit, Record, \
    UnsupportedDescriptor
from .ordinals import OMEGA, Ordinal, classify_ordinal, divmod_omega_pow
from .surreal import (Dyadic, Number, add, exp_as_number, exp_cmp,
                      from_ordinal, from_terms, negate, nf_cmp, sign)
from .surreal import ZERO as NZERO


class GapLabel(Record):
    """`sign` is +1 or -1; `index` is never arithmetic-bearing, and +/-inf_0
    is the degenerate sup/inf of the empty set."""
    __slots__ = ("sign", "index")

    def __init__(self, sign: int, index: Number):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.sign = sign
        self.index = index

    def __str__(self):
        from .exprs import render_number
        return "%sinf_{%s}" % ("+" if self.sign > 0 else "-",
                               render_number(self.index))


# -- sequence descriptors -------------------------------------------------

class OrdinalRamp(Record):
    """(alpha) for 0 < alpha < lam, lam a limit ordinal."""
    __slots__ = ("lam",)


class AddRamp(Record):
    """(b + alpha) or (b - alpha) over alpha < w."""
    __slots__ = ("base", "direction")


class DyadicRamp(Record):
    """(b -+ 1/2^alpha): direction is the sign in front of 1/2^alpha."""
    __slots__ = ("base", "direction")


class GeometricRamp(Record):
    """(b +- 2^alpha/w)."""
    __slots__ = ("base", "direction")


class HarmonicRamp(Record):
    """(1/alpha) for 0 < alpha < lam."""
    __slots__ = ("lam",)


class ScaledHarmonic(Record):
    """(b -+ 1/(2^alpha * w))."""
    __slots__ = ("base", "direction")


# The ramps b +- w^step: (step, the least exp_cmp of every exponent of b
# against the step, 1 where it must exceed the step and 0 where it may equal
# it, the family named in the error).  The label is indexed by
# b + direction * w^step.
_STEPPED = {DyadicRamp: (-1, 1, "1/w"),
            GeometricRamp: (Fraction(-1, 2), 0, "w^(-1/2)"),
            ScaledHarmonic: (-2, 1, "1/w^2")}


def gap_of(s) -> GapLabel:
    """The symbol of infinity of a catalogued monotone sequence."""
    if type(s) in _STEPPED:
        step, least, family = _STEPPED[type(s)]
        if any(exp_cmp(e, step) < least for e, _ in s.base.terms):
            raise UnsupportedDescriptor("base outside the %s-type family"
                                        % family)
        index = add(s.base, from_terms([(step, s.direction)]))
        return GapLabel(1 if sign(index) >= 0 else -1, index)
    if isinstance(s, OrdinalRamp):
        if not s.lam.is_limit():
            raise UnsupportedDescriptor("ordinal ramp needs a limit ordinal")
        return GapLabel(1, from_ordinal(s.lam))
    if isinstance(s, AddRamp):
        if s.direction > 0:
            # (beta*w + alpha) -> +inf_{(beta+1)*w}
            beta = _as_finite_multiple_of_omega(s.base)
            if beta is None:
                raise UnsupportedDescriptor("increasing ramp base must be beta*w")
            return GapLabel(1, from_terms([(1, beta + 1)]))
        # (w/2^beta - alpha) -> +inf_{w/2^(beta+1)}
        frac = _as_dyadic_multiple_of_omega(s.base)
        if frac is None:
            raise UnsupportedDescriptor("decreasing ramp base must be w/2^beta")
        return GapLabel(1, from_terms([(1, frac / 2)]))
    if isinstance(s, HarmonicRamp):
        if not s.lam.is_limit():
            raise UnsupportedDescriptor("harmonic ramp needs a limit ordinal")
        if len(s.lam.terms) != 1:
            raise UnsupportedDescriptor("harmonic ramp needs a monomial length")
        c = s.lam.terms[0][1]
        return GapLabel(1, from_terms([(negate(from_ordinal(s.lam.leading_exp)),
                                        Fraction(1, c))]))
    raise UnsupportedDescriptor("unknown descriptor %r" % (s,))


def _as_finite_multiple_of_omega(b: Number):
    """beta if b = w*beta with integer beta >= 0, else None."""
    if b == NZERO:
        return 0
    if len(b.terms) != 1:
        return None
    e, c = b.terms[0]
    if type(e) is int and e == 1 and type(c) is int and c > 0:
        return c
    return None


def _as_dyadic_multiple_of_omega(b: Number):
    """c if b = w*c with dyadic 0 < c <= 1, else None."""
    if len(b.terms) != 1:
        return None
    e, c = b.terms[0]
    if not (type(e) is int and e == 1) or not 0 < c <= 1:
        return None
    try:
        return Fraction(Dyadic(c))
    except ValueError:
        return None


# -- jumps ---------------------------------------------------------------

class JumpReport(Record):
    """`census` is ((w^v, count), ...)."""
    __slots__ = ("lam", "embeddable", "translation_invariant",
                 "tails_same_type", "census")

    def __init__(self, lam: Ordinal, embeddable: bool,
                 translation_invariant: bool, tails_same_type: bool,
                 census: tuple = ()):
        self.lam = lam
        self.embeddable = embeddable
        self.translation_invariant = translation_invariant
        self.tails_same_type = tails_same_type
        self.census = census


def jump_report(lam: Ordinal) -> JumpReport:
    """Flags are all equivalent to additive indecomposability of lam; the
    census counts, per jump size w^v, the limit ordinals <= lam whose normal
    form ends in a w^v term.  Computed symbolically from the normal form."""
    if not lam.is_limit():
        raise NotLimit("%r is not a limit ordinal" % (lam,))
    lead = lam.terms[0][0]
    if type(lead) is not int:
        raise UnsupportedDescriptor(
            "census needs a leading exponent below w (finite jump-size list)")
    indec = classify_ordinal(lam).is_additively_indecomposable
    census = []
    for v in range(1, lead + 1):
        size = Ordinal.omega_pow(v)
        q, r = divmod_omega_pow(lam, v + 1)
        a = 0
        if r.terms and r.terms[0][0] == v:
            a = r.terms[0][1]
        count = OMEGA * q + a
        if count:
            census.append((size, count))
    return JumpReport(lam, indec, indec, indec, tuple(census))


def _exceeds_all_ordinals_below(y: Number, mu: Ordinal) -> bool:
    """True iff y > kappa for every ordinal kappa < mu, a limit ordinal
    (its only caller passes a limit).  Peels one copy of mu's last term w^m
    and recurses on the rest."""
    last_e, last_c = mu.terms[-1]
    head = Ordinal(mu.terms[:-1] + (((last_e, last_c - 1),) if last_c > 1 else ()))
    d = add(y, negate(from_ordinal(head)))
    return _exceeds_all_below_monomial(
        d, Ordinal.from_int(last_e) if type(last_e) is int else last_e)


def _exceeds_all_below_monomial(d: Number, m: Ordinal) -> bool:
    """True iff d > theta for every ordinal theta < w^m (m >= 1)."""
    if sign(d) <= 0:
        return False
    e1 = exp_as_number(d.terms[0][0])
    if m.is_successor():
        pred = Ordinal(m.terms[:-1] + (((0, m.terms[-1][1] - 1),)
                                       if m.terms[-1][1] > 1 else ()))
        return nf_cmp(e1, from_ordinal(pred)) > 0
    return _exceeds_all_ordinals_below(e1, m)


def in_jump_interior(b: Number, lam: Ordinal) -> bool:
    """True iff b lies in the translation-stable interval
    (+inf_lam, +inf_{lam/2}) for lam = w^mu: alpha < b < lam - alpha for
    every ordinal alpha < lam.  On one-term numbers this is the exponent
    band (mu-1, mu) for successor mu, resp. exceeding every ordinal below mu
    for limit mu; lower terms with small exponents cannot leave the band."""
    cls = classify_ordinal(lam)
    if not (cls.is_additively_indecomposable and lam.is_limit()):
        raise NotIndecomposable("%r is not w^mu with mu >= 1" % (lam,))
    if not b.terms:
        return False
    mu = lam.leading_exp
    upper = add(from_ordinal(lam), negate(b))
    return (_exceeds_all_below_monomial(b, mu)
            and _exceeds_all_below_monomial(upper, mu))


# -- left-right construction ----------------------------------------------

def left_right_construct(steps: int):
    """Alternating halving of [0, 1]: choose the right half, then the left,
    and so on; collect the left endpoints and the right endpoints.  steps=n
    performs n+1 halvings, matching the catalogued chain."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    left, right = [Dyadic(0)], [Dyadic(1)]
    lo, hi = Fraction(0), Fraction(1)
    for k in range(steps + 1):
        mid = (lo + hi) / 2
        if k % 2 == 0:      # keep the right half: new left endpoint
            lo = mid
            left.append(Dyadic(mid))
        else:               # keep the left half: new right endpoint
            hi = mid
            right.append(Dyadic(mid))
    return left, right


# -- magnitude classification ----------------------------------------------

def classify(x: Number) -> str:
    """'zero' or '<sign> <infinitesimal|finite|infinite>' by leading exponent."""
    if not x.terms:
        return "zero"
    word = "positive" if sign(x) > 0 else "negative"
    c = exp_cmp(x.terms[0][0], 0)
    if c > 0:
        return word + " infinite"
    if c == 0:
        return word + " finite"
    return word + " infinitesimal"
