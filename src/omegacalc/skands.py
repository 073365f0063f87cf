"""Skands and coskands: finitely-described transfinite nested tuples.

A skand assigns to every ordinal position in a clutch region [start,
start+length) a component (a founded-set term), with decreasing nesting;
a coskand, a Skand with `ascending` set, nests the other way.  Components
are described by finitely many segments, each a constant or a repeating
cycle over an ordinal length.  Cycle values restart at limit positions: the
value at offset limit+m is values[m mod n].

Values are plain Python values.  An atom is a str, and a set term an Fset:
a frozenset of atoms and set terms, which, built bottom-up, is a
hereditarily finite founded set.  A pattern is the tuple of a cycle's
values, and a constant is the 1-tuple of its value (Constant(x) is (x,)).

Every description has one canonical form, computed in a single pass
(`canonical_segments`), and a value is its components: TransfiniteMap ==
compares canonical forms and hash reads them, so a Skand, whose == is over
(start, mapping, ascending), is == only to a skand_equal one.  The
positions split into w-blocks [lambda, lambda+w), lambda zero or a limit.
A block's components form a word h + p^w: h finite, p the cycle the block
ends in.  The canonical form takes p primitive and h shortest; h is written
as constant runs, a block whose p is a rotation of the segment's cycle gets
a piece of length w of its own, and adjacent equal patterns merge.  Two
descriptions are equal iff their canonical forms are, and the founded-set
encoding encodes the canonical form.  Finite periods are read off the same
form: since h is shortest and p primitive, a block is purely periodic
exactly when h is empty, that is, when it lies in a canonical segment of
limit length, and its finite periods are then the multiples of |p|
(Fine-Wilf).  Every period tau, with leading exponent xi, finite part f and
W = w^(xi+1), is read off the same form: a skand is weakly tau-periodic iff
its first canonical segment (l, p) has l >= W and |p| dividing f (one rule
for every tau, see is_weakly_periodic; reflexivity is the case tau = 1); it
is tau-periodic, for an infinite tau, iff its canonical segments are
constants over multiples of W, and strictly so iff, moreover, there is one
segment and the length is w^mu (see is_periodic).  The predicates are
decided symbolically on the finite description: none slices or
re-canonicalizes a tail, and nothing is ever enumerated transfinitely.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

from .errors import InfiniteLength, InvalidPeriod, NotASet, \
    OutOfClutchRegion, Record
from .ordinals import OMEGA, ONE as OONE, ZERO as OZERO, Ordinal, \
    classify_ordinal, divmod_omega_pow
from .surreal import from_ordinal, from_rational, invert, negate

# -- founded-set terms ------------------------------------------------------

Atom = str


class Fset(frozenset):
    """A set term: a frozenset of atoms (str) and set terms."""
    __slots__ = ()

    @staticmethod
    def of(*elems) -> "Fset":
        return Fset(elems)

    def __str__(self):
        from .exprs import render_setterm
        return render_setterm(self)


EMPTY = Fset()


def kpair(a, b) -> Fset:
    """Kuratowski ordered pair {{a},{a,b}}."""
    return Fset.of(Fset.of(a), Fset.of(a, b))


def nat_code(n: int) -> Fset:
    t = EMPTY
    codes = []
    for _ in range(n):
        codes.append(t)
        t = Fset(codes)
    return t


def ordinal_code(o) -> Fset:
    """The code of an ordinal or of a finite exponent n (the code of n)."""
    if type(o) is int:
        return Fset.of(kpair(EMPTY, nat_code(o))) if o else EMPTY
    return Fset(kpair(ordinal_code(e), nat_code(c)) for e, c in o.terms)


# -- patterns and transfinite maps -----------------------------------------


def Constant(value) -> tuple:
    """The pattern of a constant: the 1-tuple of its value."""
    return (value,)


Cycle = tuple


def _primitive(values: tuple) -> tuple:
    """The primitive root of a pattern; a constant is its own."""
    n = len(values)
    for p in range(1, n):
        if n % p == 0 and values == values[p:] + values[:p]:
            return values[:p]
    return values


class TransfiniteMap:
    """(length, pattern) segments in order.  `total`, the sum of the
    lengths, is stored: a constructor that knows it passes it, and it is
    summed once otherwise.  == is pointwise (equal written segments, else
    map_equal), hash reads the canonical segments, and repr the written
    ones."""
    __slots__ = ("segments", "total")

    def __init__(self, segments: tuple = (), total: Ordinal = None):
        if total is None:
            total = OZERO
            for length, _ in segments:
                total = total + length
        self.segments = segments
        self.total = total

    def __eq__(self, other):
        if other.__class__ is not TransfiniteMap:
            return NotImplemented
        return self.segments == other.segments or map_equal(self, other)

    def __hash__(self):
        return hash(tuple(canonical_segments(self)))

    def __repr__(self):
        return "TransfiniteMap(segments=%r)" % (self.segments,)

    @staticmethod
    def from_segments(segs, total=None) -> "TransfiniteMap":
        out = []
        for length, pat in segs:
            if not isinstance(length, Ordinal):
                length = Ordinal.from_int(length)
            if not length:
                continue
            pat = _primitive(pat)
            if out and len(pat) == 1 and out[-1][1] == pat:
                out[-1] = (out[-1][0] + length, pat)
            else:
                out.append((length, pat))
        return TransfiniteMap(tuple(out), total)

    def value_at(self, offset: Ordinal):
        for length, pat in self.segments:
            if offset.cmp(length) < 0:
                return _pattern_value(pat, offset)
            offset = offset.sub_left(length)
        raise OutOfClutchRegion("offset beyond the described region")

    def slice_from(self, offset: Ordinal) -> "TransfiniteMap":
        segs = list(self.segments)
        out = []
        i = 0
        while i < len(segs):
            length, pat = segs[i]
            if not offset:
                out.extend(segs[i:])
                break
            if offset.cmp(length) >= 0:
                offset = offset.sub_left(length)
                i += 1
                continue
            remaining = length.sub_left(offset)
            out.extend(_cut_pattern_tail(pat, offset, remaining))
            out.extend(segs[i + 1:])
            break
        else:
            if offset:
                raise OutOfClutchRegion("offset beyond the described region")
        return TransfiniteMap.from_segments(out)

    def boundaries(self) -> list:
        """Cumulative start offsets of each segment (first is 0)."""
        out, t = [], OZERO
        for length, _ in self.segments:
            out.append(t)
            t = t + length
        return out


def _pattern_value(pat, offset: Ordinal):
    return pat[offset.finite_part() % len(pat)]


def _cut_pattern_tail(pat, offset: Ordinal, remaining: Ordinal):
    """Segments describing a pattern's tail from `offset`, given that
    `remaining` positions are left.  Cycles restart at limit positions, so a
    mid-phase cut needs a rotated head block up to the next limit."""
    phase = offset.finite_part() % len(pat)
    if phase == 0:
        return [(remaining, pat)]
    rotated = pat[phase:] + pat[:phase]
    if remaining.cmp(OMEGA) <= 0:
        return [(remaining, rotated)]
    return [(OMEGA, rotated), (remaining.sub_left(OMEGA), pat)]


# -- canonical form ---------------------------------------------------------


def _extend_runs(runs: list, values: tuple, count: int) -> list:
    """Append the first `count` values of the cycle `values` to a list of
    [value, count] runs, and return the list."""
    n = len(values)
    if n == 1:
        added = [(values[0], count)] if count else []
    else:
        added = ((values[i % n], 1) for i in range(count))
    for value, k in added:
        if runs and runs[-1][0] == value:
            runs[-1][1] += k
        else:
            runs.append([value, k])
    return runs


def _canonical_pieces(m: TransfiniteMap):
    """The w-block pieces of m, in order, before adjacent equal patterns
    merge.  `head` holds the open block's finite prefix as [value, count]
    runs.  An infinite segment closes that block as head + p^w: the head's
    trailing values that p's rotations absorb are dropped, so the block gets
    its shortest prefix, and a rotated p covers only the first w positions,
    because the segment's later blocks restart p at their limits."""
    head = []
    for length, pat in m.segments:
        values = _primitive(pat)
        n = len(values)
        if length.is_finite():
            _extend_runs(head, values, length.as_int())
            continue
        period = values
        while head and head[-1][0] == period[-1]:
            # a constant absorbs the whole run, a cycle one value per turn
            head[-1][1] = head[-1][1] - 1 if n > 1 else 0
            if not head[-1][1]:
                head.pop()
            period = period[-1:] + period[:-1]
        for value, count in head:
            yield Ordinal.from_int(count), (value,)
        if period == values:
            yield length.limit_part(), values
        else:
            yield OMEGA, period
            yield length.sub_left(OMEGA).limit_part(), values
        head = _extend_runs([], values, length.finite_part())
    for value, count in head:
        yield Ordinal.from_int(count), (value,)


def canonical_segments(m: TransfiniteMap):
    """Yield the canonical description of m (see the module docstring) in
    one pass.  Merging adjacent equal patterns is sound because every cycle
    piece has limit length, so the next piece starts at a limit, where
    cycles restart.  The form depends only on the component map, so two
    maps are equal iff their canonical segments are."""
    last = None
    for length, pat in _canonical_pieces(m):
        if last and last[1] == pat:
            last = (last[0] + length, pat)
        elif length:
            if last:
                yield last
            last = (length, pat)
    if last:
        yield last


def _first_segment(m: TransfiniteMap):
    """(length, primitive period) of m's first canonical segment.  Because
    the canonical h is shortest, the first w positions form a word p^w
    exactly when this length is infinite, and p is then the period.  Only
    the segments up to the first pattern change are read."""
    return next(canonical_segments(m))


def _leading_period(m: TransfiniteMap):
    """p when the first w positions of m form the word p^w, else None."""
    length, p = _first_segment(m)
    return None if length.is_finite() else p


def normalize_map(m: TransfiniteMap) -> TransfiniteMap:
    """The canonical description of m (see canonical_segments)."""
    return TransfiniteMap(tuple(canonical_segments(m)), m.total)


def map_equal(a: TransfiniteMap, b: TransfiniteMap) -> bool:
    """Pointwise equality: equal canonical segments, compared lazily so
    that the first difference stops both passes.  The segments sum to the
    total, so unequal totals need no separate check."""
    return all(x == y for x, y in zip_longest(canonical_segments(a),
                                              canonical_segments(b)))


# -- skand / coskand values --------------------------------------------------


class Skand(Record):
    """A skand, or with `ascending` a coskand: the same finite description,
    nested downward or upward."""
    __slots__ = ("start", "mapping", "ascending")

    def __init__(self, start: Ordinal, mapping: TransfiniteMap,
                 ascending: bool = False):
        if not mapping.total:
            raise ValueError("a skand has length >= 1")
        self.start = start
        self.mapping = mapping
        self.ascending = ascending

    @property
    def length(self) -> Ordinal:
        return self.mapping.total

    @property
    def end(self) -> Ordinal:
        return self.start + self.length

    def __repr__(self):
        return "%s<[%s, %s): %d segs>" % (
            "Coskand" if self.ascending else "Skand", self.start, self.end,
            len(self.mapping.segments))


def make_skand(start, segments) -> Skand:
    return Skand(_ord(start), TransfiniteMap.from_segments(segments))


def make_coskand(start, segments) -> Skand:
    return Skand(_ord(start), TransfiniteMap.from_segments(segments), True)


def constant_skand(value, length, start=0) -> Skand:
    return make_skand(start, [(_ord(length), (value,))])


def cycle_skand(values, length, start=0) -> Skand:
    return make_skand(start, [(_ord(length), tuple(values))])


def _ord(x) -> Ordinal:
    return x if isinstance(x, Ordinal) else Ordinal.from_int(x)


def value_at(s, pos) -> object:
    pos = _ord(pos)
    if pos.cmp(s.start) < 0 or pos.cmp(s.end) >= 0:
        raise OutOfClutchRegion("%s outside [%s, %s)" % (pos, s.start, s.end))
    return s.mapping.value_at(pos.sub_left(s.start))


def restrict(s, from_pos):
    """The remainder on [from_pos, end)."""
    from_pos = _ord(from_pos)
    if from_pos.cmp(s.start) < 0 or from_pos.cmp(s.end) >= 0:
        raise OutOfClutchRegion("%s outside [%s, %s)" % (from_pos, s.start,
                                                         s.end))
    return Skand(from_pos, s.mapping.slice_from(from_pos.sub_left(s.start)),
                 s.ascending)


def normalize(s):
    """The canonical representative: clutch region moved to [0, length) and
    the description rewritten to canonical form."""
    return Skand(OZERO, normalize_map(s.mapping), s.ascending)


def skand_equal(x: Skand, y: Skand) -> bool:
    """Equal iff the clutch regions have the same order type and the
    components agree under the unique isomorphism between them, that is,
    iff the canonical forms are equal.  Also decides coskand equality."""
    return map_equal(x.mapping, y.mapping)


def is_reflexive(s: Skand) -> bool:
    """Equal to its one-step tail: weakly periodic with period 1, that is,
    one constant value on the first w positions."""
    return is_weakly_periodic(s, 1)


def is_self_similar(s: Skand) -> bool:
    """Equal to every tail: one canonical segment, a constant, over an
    additively indecomposable length >= w."""
    segs = canonical_segments(s.mapping)
    length, pat = next(segs)
    return len(pat) == 1 and next(segs, None) is None and \
        length.cmp(OMEGA) >= 0 and \
        classify_ordinal(length).is_additively_indecomposable


# -- periodicity -------------------------------------------------------------


def is_weakly_periodic(s: Skand, tau) -> bool:
    """Tails inside the window [0, W), W = w^(xi+1) with xi the leading
    exponent of tau, repeat under a natural-sum shift: tail(P) equals
    tail(P (+) tau) for every P < W.  Decided from the first canonical
    segment (l, p) alone: s is weakly periodic iff l >= W and |p| divides
    f, the finite part of tau.

    A finite tau: W = w, and the tails from P < w and P + tau agree from w
    on, so the first w-block must be n-periodic for n = tau; it is p^w
    exactly when l is infinite, and its finite periods are the multiples of
    the primitive |p| (Fine-Wilf).

    An infinite tau = w^xi*c + rho, rho < w^xi: every P < W has P (+) tau
    < W <= L (the length), so both tails have L's order type, and an offset
    d >= W is absorbed on both sides (P + d = d).  So only the window
    counts: the component map m must have m(P + d) == m((P (+) tau) + d)
    for d < W.
    - P = 0 and d in the k-th w^xi-block, k >= 1: tau + d lies in block
      k + c at the same place, so the blocks after the first are
      c-periodic.  Past the last segment boundary below W they lie in one
      segment and start at limits, where cycles restart, so they are equal
      there and made of words p^w.  A c-periodic sequence that is
      eventually constant is constant: every block k >= 1 is that block B.
    - P = w^xi and a finite d: P (+) tau = w^xi*(c+1) + rho, so B(d) ==
      B(rho + d), and the finite part of rho + d is f + d: |p| divides f.
    - P = 0 and d < w^xi: m(d) == B(rho + d) == B(d), as a value of B
      depends only on the finite part mod |p|.  So the whole window is
      words p^w, that is, l >= W.
    Conversely, if l >= W and |p| divides f, a value in the window depends
    only on its position's finite part mod |p|, and P + d and
    (P (+) tau) + d have the same finite part when d is infinite, and ones
    that differ by f when d is finite."""
    tau = _ord(tau)
    if not tau:
        raise InvalidPeriod("period must be a nonzero ordinal")
    length, p = _first_segment(s.mapping)
    return length.cmp(Ordinal.omega_pow(tau.leading_exp + 1)) >= 0 and \
        tau.finite_part() % len(p) == 0


def is_periodic(s: Skand, tau) -> bool:
    """Every tail is weakly periodic with the same period.  Equivalent to:
    every normal-form exponent of the length is > xi, the leading exponent
    of tau, and tail(P) equals tail(P + tau) at every position P.  Decided in
    one pass over the canonical segments.

    A finite tau: every w-block must be p^w with |p| dividing tau, that is,
    every canonical segment has limit length (no block has a prefix h) and
    such a pattern.

    An infinite tau, with leading term w^xi*c: let W = w^(xi+1).  Then s is
    periodic iff every canonical segment is a constant whose length (so
    every boundary) is a multiple of W, that is, the component is constant
    on every W-window [W*a, W*(a+1)):
    - for rho < w^xi, rho + tau = tau, so all P in one w^xi-block share
      P + tau and therefore their tails; at offset 0 this makes the
      component constant on each w^xi-block;
    - inside a W-window, block n's tail is then block (n+c)'s, so the block
      values are c-periodic.  A finite description makes them eventually
      constant, because past the window's last boundary every block starts
      at a limit of one segment, where cycles restart; a periodic sequence
      that is eventually constant is constant;
    - conversely, if the component is constant on every W-window, P and
      P + tau lie in one window (tau < W), so their tails have the same
      order type and the same values.
    So the verdict depends on tau only through xi."""
    return _periodic_segment_count(s, tau) > 0


def _periodic_segment_count(s: Skand, tau) -> int:
    """The number of canonical segments of s when s is periodic with period
    tau (see is_periodic), else 0."""
    tau = _ord(tau)
    if not tau:
        raise InvalidPeriod("period must be a nonzero ordinal")
    exp1 = tau.leading_exp + 1
    kappa, rem = divmod_omega_pow(s.length, exp1)
    if rem or not kappa:
        return 0
    # every segment's length is a multiple of W (for a finite tau, a limit)
    # and its pattern's period divides tau (for an infinite one, is 1)
    finite = tau.is_finite()
    t = tau.as_int() if finite else 1
    count = 0
    for length, pat in canonical_segments(s.mapping):
        aligned = length.is_limit() if finite else \
            not divmod_omega_pow(length, exp1)[1]
        if not aligned or t % len(pat):
            return 0
        count += 1
    return count


def is_strictly_periodic(s: Skand, tau) -> bool:
    """Periodic, with every tail at a multiple lam of W = w^(xi+1) equal to
    the whole skand.  A tail at 0 < lam < length has the whole's order type
    only when the length is additively indecomposable (w^mu).  Then the
    condition holds iff the canonical form has one segment: the canonical
    segments of a periodic skand start at multiples of W, one segment's
    pattern restarts at each of them, and a second segment's tail begins
    with a pattern other than the first's (adjacent ones differ), over a
    whole w-block."""
    return _periodic_segment_count(s, tau) == 1 and \
        classify_ordinal(s.length).is_additively_indecomposable


def min_finite_period(s: Skand):
    """Smallest finite n with is_weakly_periodic(s, n): |p| when the first
    canonical segment is infinite, else None (no finite period works)."""
    p = _leading_period(s.mapping)
    return None if p is None else len(p)


# -- founded-set encoding -----------------------------------------------------


def _pattern_code(pat) -> Fset:
    if len(pat) == 1:
        return kpair("const", pat[0])
    return kpair("cycle", Fset(kpair(nat_code(i), v)
                               for i, v in enumerate(pat)))


def _largest_natural(o) -> int:
    """The largest n for which ordinal_code(o) builds nat_code(n)."""
    if type(o) is int:
        return o
    return max((max(c, _largest_natural(e)) for e, c in o.terms), default=0)


def encode_skand(s: Skand) -> Fset:
    """Injective founded encoding of the canonical description: one ordered
    pair (pattern, (start offset, length)) per segment, so equal skands get
    equal codes.

    nat_code(n) holds 2^(n-1) empty sets, so any text or JSON form of a code
    that contains it has at least 2^n characters.  A cost guard refuses,
    before any set is built, a code whose largest natural n has
    2^n > exprs.MAX_OUTPUT; the answer's own size is measured where it is
    rendered."""
    from .exprs import MAX_OUTPUT, too_large
    n = normalize(s)
    segs = list(zip(n.mapping.boundaries(), n.mapping.segments))
    top = max(max(_largest_natural(off), _largest_natural(length),
                  len(pat) - 1) for off, (length, pat) in segs)
    if top >= MAX_OUTPUT.bit_length():
        raise too_large()
    return Fset(kpair(_pattern_code(pat),
                      kpair(ordinal_code(off), ordinal_code(length)))
                for off, (length, pat) in segs)


# -- coskand specifics --------------------------------------------------------


def coskand_kind(c: Skand) -> str:
    """'individual' when the region's supremum is a limit ordinal (nothing
    can contain such a coskand as a member), else 'founded-set'."""
    return "individual" if c.length.is_limit() else "founded-set"


def coskand_to_setterm(c: Skand) -> Fset:
    """Unroll a finite-length coskand into the ordinary founded set built by
    increasing nesting."""
    if not c.length.is_finite():
        raise InfiniteLength("only finite coskands are ordinary sets")
    n = c.length.as_int()
    comps = [c.mapping.value_at(Ordinal.from_int(i)) for i in range(n)]
    for comp in comps:
        if not isinstance(comp, frozenset):
            raise NotASet("components must be set terms, got %s" % (comp,))
    acc = comps[0]
    for comp in comps[1:]:
        acc = Fset(comp | {acc})
    return acc


def prepend_component(s: Skand, component) -> Skand:
    """The set {component-elements, s}: one more layer of decreasing nesting."""
    return Skand(OZERO, TransfiniteMap.from_segments(
        ((OONE, (component,)),) + s.mapping.segments))


# -- brace coordinates ---------------------------------------------------------


def brace_coordinates(s, prefix: int, max_terms: int = 8) -> tuple:
    """(pairs, exact): the Conway coordinates of the first `prefix` brace
    pairs, (-1/a, 1/a) per position for skands and (-a, a) for coskands,
    with the position-0 conventions (-2, 2) and (-1/2, 1/2).  A 1/a that is
    not exact, for a position a that is not a monomial such as w+1, holds
    only its terms above invert's order for max_terms terms, and then
    `exact` is False."""
    out, exact = [], True
    pos = s.start
    for _ in range(prefix):
        if pos.cmp(s.end) >= 0:
            break
        if not pos:
            if not s.ascending:
                pair = (from_rational(-2), from_rational(2))
            else:
                half = from_rational(Fraction(1, 2))
                pair = (negate(half), half)
        else:
            v = from_ordinal(pos)
            if not s.ascending:
                inv = invert(v, max_terms)
                exact = exact and inv.exact
                pair = (negate(inv.value), inv.value)
            else:
                pair = (negate(v), v)
        out.append(pair)
        pos = pos + OONE
    return out, exact


# -- Mirimanoff equations -------------------------------------------------------


class Reflexive(Record):
    """X = {x0, x1, ..., X}."""
    __slots__ = ("components",)


class Periodic(Record):
    """X = {block0, {block1, { ... {block(n-1), X} ... }}}."""
    __slots__ = ("blocks",)


class Extraordinary(Record):
    """X = {block0, {block1, ... {block(n-1), ...}}}: the blocks are the
    first n components, and the rest is free (the canonical witness repeats
    the last block)."""
    __slots__ = ("blocks",)


def solve_mirimanoff(eq) -> Skand:
    """The canonical witness over [0, w); the solution family also contains
    every longer skand with the same first-w prefix."""
    if isinstance(eq, Reflexive):
        return constant_skand(Fset(eq.components), OMEGA)
    if isinstance(eq, Periodic):
        return cycle_skand(map(Fset, eq.blocks), OMEGA)
    if isinstance(eq, Extraordinary):
        blocks = [Fset(b) for b in eq.blocks]
        if not blocks:
            raise ValueError("an extraordinary equation needs a block")
        segs = [(OONE, (b,)) for b in blocks[:-1]]
        segs.append((OMEGA, (blocks[-1],)))
        return make_skand(0, segs)
    raise TypeError("not a Mirimanoff equation: %r" % (eq,))


def is_solution(s: Skand, eq) -> bool:
    """Checks the defining first-w structure of the equation."""
    if s.length.cmp(OMEGA) < 0:
        return False
    if isinstance(eq, Reflexive):
        return _leading_period(s.mapping) == (Fset(eq.components),)
    if isinstance(eq, Periodic):
        # two purely periodic words are equal iff their primitive roots are
        vals = tuple(map(Fset, eq.blocks))
        return _leading_period(s.mapping) == _primitive(vals)
    if isinstance(eq, Extraordinary):
        return all(s.mapping.value_at(Ordinal.from_int(i)) == Fset(b)
                   for i, b in enumerate(eq.blocks))
    raise TypeError("not a Mirimanoff equation: %r" % (eq,))
