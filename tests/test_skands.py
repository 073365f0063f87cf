"""Skands and coskands: predicates cross-validated against definitional
restriction-equality oracles on randomized finite descriptions, and the
canonical form and the finite-period predicates against pointwise value_at
oracles on every small description."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from omegacalc import (Atom, Constant, Cycle, Extraordinary, Fset,
                       Ordinal, Periodic, Reflexive, Skand, TransfiniteMap,
                       brace_coordinates, parse_skand, brace_render,
                       constant_skand, coskand_kind,
                       coskand_to_setterm, cycle_skand, encode_skand,
                       is_periodic, is_reflexive, is_self_similar,
                       is_solution, is_strictly_periodic, is_weakly_periodic,
                       make_coskand, make_skand, min_finite_period, normalize,
                       ord_add, ord_cmp, parse_number, parse_ordinal,
                       prepend_component, restrict, skand_equal,
                       solve_mirimanoff, value_at)
from omegacalc import skands
from omegacalc.errors import InfiniteLength, InvalidPeriod, OutOfClutchRegion
from omegacalc.skands import EMPTY, map_equal, normalize_map

o = parse_ordinal
W = o("w")
A, B, C = Atom("a"), Atom("b"), Atom("c")
SA, SB, SC = Fset.of(A), Fset.of(B), Fset.of(C)


def example3(length="w^2"):
    return cycle_skand([Atom("1"), Atom("2"), Atom("3")], o(length))


def example2():
    # periodic but not strictly periodic: the first w-block runs a different
    # cycle than all later blocks
    return make_skand(0, [(W, Cycle((A, B, C))),
                          (o("w^2"), Cycle((Atom("1"), Atom("2"), Atom("3"))))])


# -- value access -------------------------------------------------------------

def test_value_at():
    s = constant_skand(SA, W)
    assert value_at(s, 5) == SA
    assert value_at(example3(), o("w + 4")) == Atom("2")
    s = cycle_skand([A, B], W)
    assert value_at(s, 0) == A
    with pytest.raises(OutOfClutchRegion):
        value_at(s, W)


def test_a_position_or_period_is_an_int_or_an_ordinal():
    s = constant_skand(SA, W)
    for call in (lambda: value_at(s, 1.5), lambda: restrict(s, 1.5),
                 lambda: is_periodic(s, 1.5), lambda: constant_skand(SA, 1.5),
                 lambda: make_skand(0.0, [(W, Constant(SA))])):
        with pytest.raises(TypeError, match="as an ordinal"):
            call()


def test_value_at_respects_start():
    s = Skand(o("w"), TransfiniteMap.from_segments([(W, Cycle((A, B)))]))
    assert value_at(s, o("w + 3")) == B
    with pytest.raises(OutOfClutchRegion):
        value_at(s, 3)


# -- equality ------------------------------------------------------------------

def test_equal_examples():
    x = constant_skand(SA, W, start=0)
    y = constant_skand(SA, W, start=5)
    assert skand_equal(x, y)
    z = constant_skand(SB, W)
    assert not skand_equal(x, z)
    assert not skand_equal(example3(), example3("w*3"))


def test_equal_across_descriptions():
    # the same component stream described with different segment boundaries
    x = make_skand(0, [(W, Cycle((B, A))), (W, Cycle((A, B)))])
    y = make_skand(0, [(o("1"), Constant(B)), (o("w*2"), Cycle((A, B)))])
    assert map_equal(x.mapping, y.mapping)
    assert skand_equal(x, y)
    z = make_skand(0, [(o("1"), Constant(A)), (o("w*2"), Cycle((A, B)))])
    assert not skand_equal(x, z)
    # one written canonical form, not only pointwise equal ones
    assert normalize(x).mapping.segments == normalize(y).mapping.segments


def test_restrict():
    s = constant_skand(SA, o("w*2"))
    r = restrict(s, W)
    assert r.start == W and r.length == W
    assert skand_equal(restrict(example3(), W), example3())
    assert restrict(s, 0) == s


def test_restrict_mid_cycle_phase():
    s = example3()
    r = restrict(s, 2)
    assert value_at(r, 2) == Atom("3")
    assert value_at(r, 4) == Atom("2")
    # cycles restart at limits regardless of the cut phase
    assert value_at(r, o("w")) == Atom("1")
    assert skand_equal(restrict(r, W), example3())


# -- reflexivity / self-similarity ---------------------------------------------

def test_reflexive_examples():
    assert is_reflexive(constant_skand(EMPTY, W))
    assert not is_reflexive(cycle_skand([A, B], W))
    assert is_reflexive(constant_skand(SA, o("w + 1")))
    assert not is_reflexive(constant_skand(SA, o("5")))


def test_self_similar_examples():
    assert is_self_similar(constant_skand(SA, W))
    assert not is_self_similar(constant_skand(SA, o("w*2")))
    assert is_self_similar(constant_skand(SA, o("w^w")))
    assert not is_self_similar(cycle_skand([A, B], W))


def test_self_similarity_reads_the_canonical_form():
    # the raw segments differ, but the components are one constant over w^2
    s = parse_skand("const({a}):w;cycle({a},{b}):1;const({a}):w^2 @ [0,w^2)")
    assert normalize(s).mapping.segments == ((o("w^2"), Constant(SA)),)
    assert is_self_similar(s) and is_self_similar(normalize(s))


def test_reflexive_but_not_self_similar():
    s = constant_skand(SA, o("w*2"))
    assert is_reflexive(s) and not is_self_similar(s)


def test_reflexive_matches_definition():
    rng = random.Random(41)
    for _ in range(200):
        s = random_skand(rng)
        want = s.length.cmp(W) >= 0 and \
            skand_equal(restrict(s, ord_add(s.start, 1)), s)
        assert is_reflexive(s) == want


def test_self_similar_matches_definition():
    # a sampled tail that differs refutes a true verdict; the pinned count
    # of true verdicts and the known examples refute a predicate that says
    # false where the definition holds
    rng = random.Random(42)
    trues = 0
    for _ in range(200):
        s = random_skand(rng)
        got = is_self_similar(s)
        trues += got
        for p in sample_positions(rng, s):
            if p != s.start and not skand_equal(restrict(s, p), s):
                assert not got
                break
    assert trues == 18
    for text in ("const({a}):w @ [0,w)", "const(a):w^2 @ [w+2,w^2)",
                 "const({a}):w;const({a}):w^2 @ [0,w^2)",
                 "cycle(b,b):w^3 @ [0,w^3)", "const({}):w^w @ [0,w^w)",
                 "const(a):w;cycle(a,a):w^3 @ [0,w^3)"):
        assert is_self_similar(parse_skand(text)), text


# -- periodicity ----------------------------------------------------------------

def test_periodicity_examples():
    s3 = example3()
    assert is_weakly_periodic(s3, 3)
    assert is_periodic(s3, 3)
    assert is_strictly_periodic(s3, 3)
    v = example3("w*3")
    assert is_weakly_periodic(v, 3)
    assert is_periodic(v, 3)
    assert not is_strictly_periodic(v, 3)
    e2 = example2()
    assert is_weakly_periodic(e2, 3)
    assert is_periodic(e2, 3)
    assert not is_strictly_periodic(e2, 3)
    with pytest.raises(InvalidPeriod):
        is_weakly_periodic(s3, 0)


def test_periodicity_chain_on_examples():
    for s in (example3(), example3("w*3"), example2(),
              constant_skand(SA, o("w*2"))):
        for tau in (1, 2, 3, o("w"), o("w*2")):
            strict = is_strictly_periodic(s, tau)
            per = is_periodic(s, tau)
            weak = is_weakly_periodic(s, tau)
            assert (not strict or per) and (not per or weak)


def test_transfinite_period():
    # a period of leading exponent xi needs length >= w^(xi+1): alternating
    # blocks over w*6 are too short for period w*2
    s = make_skand(0, [(W, Constant(SA)), (W, Constant(SB))] * 3)
    assert s.length == o("w*6")
    assert not is_weakly_periodic(s, o("w*2"))
    assert not is_weakly_periodic(s, o("w"))
    t = make_skand(0, [(o("w^2"), Constant(SA))])
    assert is_weakly_periodic(t, o("w"))
    assert is_strictly_periodic(t, o("w"))
    u = make_skand(0, [(o("w^3"), Constant(SA))])
    assert is_weakly_periodic(u, o("w*2"))
    assert is_periodic(u, o("w*2"))
    assert is_strictly_periodic(u, o("w*2"))
    # an alternating prefix breaks the w-shift at rotated positions
    v = make_skand(0, [(W, Constant(SA)), (o("w^2"), Constant(SB))])
    assert is_weakly_periodic(v, o("w")) is False
    # a w-cycle is not w-periodic: limit restarts break inner-phase tails
    cyc = cycle_skand([A, B], o("w^2"))
    assert not is_periodic(cyc, o("w"))
    assert is_periodic(constant_skand(SA, o("w^2")), o("w"))


def test_min_finite_period():
    assert min_finite_period(example3()) == 3
    assert min_finite_period(cycle_skand([A, A], W)) == 1
    assert min_finite_period(cycle_skand([A, B, A, B, C], W)) == 5
    assert min_finite_period(constant_skand(SA, o("3"))) is None
    s = make_skand(0, [(o("2"), Constant(SA)), (W, Constant(SB))])
    assert min_finite_period(s) is None


def test_finite_period_predicates_do_not_expand_a_long_prefix():
    # a constant run of 10^6 positions is one segment; expanding it into
    # components position by position allocates about 16 MB
    for total in ("w", "w^2"):
        s = make_skand(0, [(10 ** 6, Constant(A)), (o(total), Constant(B))])
        for check in (is_reflexive, lambda s: is_weakly_periodic(s, 2),
                      lambda s: is_periodic(s, 2),
                      lambda s: is_solution(s, Reflexive(frozenset([A])))):
            tracemalloc.start()
            try:
                assert not check(s)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10 ** 6, (total, peak)


def test_min_finite_period_does_not_search_candidates(monkeypatch):
    # trying every n up to the prefix length makes ~10^3 calls here
    calls = [0]
    inner = skands.is_weakly_periodic

    def counted(s, tau):
        calls[0] += 1
        return inner(s, tau)

    monkeypatch.setattr(skands, "is_weakly_periodic", counted)
    s = make_skand(0, [(1000, Constant(A)), (W, Constant(B))])
    assert min_finite_period(s) is None
    assert calls[0] <= 1


def weakly_periodic_oracle(s, tau, rng):
    """Definition 6 directly: sampled restriction equalities inside the
    window."""
    tau = tau if isinstance(tau, Ordinal) else Ordinal.from_int(tau)
    window = Ordinal.omega_pow(ord_add(tau.leading_exp, 1))
    if s.length.cmp(window) < 0:
        return False
    for p in sample_positions(rng, s, window):
        off = p.sub_left(s.start)
        shifted = ord_add(s.start, off.nat_add(tau))
        if not skand_equal(restrict(s, p), restrict(s, shifted)):
            return False
    return True


def sample_positions(rng, s, window=None):
    """A handful of in-region positions biased toward segment boundaries."""
    out = []
    bound = window if window is not None and window.cmp(s.length) < 0 \
        else s.length
    cums = s.mapping.boundaries()
    candidates = [Ordinal.from_int(k) for k in range(4)]
    candidates += cums + [ord_add(c, 1) for c in cums]
    candidates += [ord_add(c, o("w")) for c in cums]
    for c in candidates:
        if c.cmp(bound) < 0:
            p = ord_add(s.start, c)
            if p not in out:
                out.append(p)
    return out


def phase_shifted_skand(rng):
    """cycle(u) over a first block, then cycle over a rotation of u: the
    shapes on which a shift by P + tau and one by P (+) tau land in
    different phases, as in cycle(b,a):w;cycle(a,b):w^2 with tau = w+1."""
    u = rng.sample(VALUES, rng.randrange(2, 4))
    r = rng.randrange(1, len(u))
    return make_skand(o(rng.choice(["0", "0", "w"])),
                      [(o(rng.choice(["w", "w*2", "w^2"])), Cycle(tuple(u))),
                       (o(rng.choice(["w^2", "w^2*2", "w^3"])),
                        Cycle(tuple(u[r:] + u[:r])))])


def test_weakly_periodic_matches_definition():
    rng = random.Random(43)
    pool = [random_skand(rng) for _ in range(200)]
    pool += [phase_shifted_skand(rng) for _ in range(40)]
    pool.append(parse_skand("cycle({b},{a}):w;cycle({a},{b}):w^2 @ [0,w^2)"))
    for s in pool:
        for tau in (1, 2, 3, o("w"), o("w+1"), o("w*2+1")):
            assert is_weakly_periodic(s, tau) == \
                weakly_periodic_oracle(s, tau, rng), \
                (s, tau)


def test_periodic_matches_definition():
    rng = random.Random(44)
    for _ in range(150):
        s = random_skand(rng)
        for tau in (2, 3, o("w")):
            got = is_periodic(s, tau)
            want = True
            for p in sample_positions(rng, s):
                if not weakly_periodic_oracle(restrict(s, p), tau, rng):
                    want = False
                    break
            if got:
                assert want, (s, tau)
            elif want:
                # sampled positions all pass: a justified refusal can only
                # come from the length-divisibility requirement
                from omegacalc import divmod_omega_pow
                tau_o = tau if isinstance(tau, Ordinal) else \
                    Ordinal.from_int(tau)
                q, r = divmod_omega_pow(s.length,
                                        ord_add(tau_o.leading_exp, 1))
                assert r or not q, (s, tau)


def test_strictly_periodic_matches_definition():
    from omegacalc import classify_ordinal, divmod_omega_pow
    rng = random.Random(45)
    for _ in range(150):
        s = random_skand(rng)
        for tau in (2, 3, o("w")):
            got = is_strictly_periodic(s, tau)
            if not is_periodic(s, tau):
                assert not got
                continue
            tau_o = tau if isinstance(tau, Ordinal) else Ordinal.from_int(tau)
            exp1 = ord_add(tau_o.leading_exp, 1)
            window = Ordinal.omega_pow(exp1)
            # sample window multiples, including boundary-derived transfinite
            # ones, and check the defining tail equalities directly
            kappas = [Ordinal.from_int(k) for k in (1, 2, 3)]
            for b in s.mapping.boundaries():
                q, _ = divmod_omega_pow(b, exp1)
                kappas += [q, ord_add(q, 1)]
            want = classify_ordinal(s.length).is_additively_indecomposable
            for kappa in kappas:
                if not kappa:
                    continue
                lam = window * kappa
                if lam.cmp(s.length) >= 0:
                    continue
                if not skand_equal(restrict(s, ord_add(s.start, lam)), s):
                    want = False
                    break
            assert got == want, (s, tau)


# -- random generation ----------------------------------------------------------

LENGTHS = ["1", "2", "3", "w", "w*2", "w*3", "w^2", "w^2*2", "w^3"]
VALUES = [A, B, SA, SB, EMPTY, Fset.of(A, B)]


def random_skand(rng, start_random=True):
    segs = []
    for _ in range(rng.randrange(1, 4)):
        length = o(rng.choice(LENGTHS))
        if rng.random() < 0.5:
            segs.append((length, Constant(rng.choice(VALUES))))
        else:
            k = rng.randrange(1, 4)
            segs.append((length, Cycle(tuple(rng.choice(VALUES)
                                             for _ in range(k)))))
    start = o(rng.choice(["0", "0", "1", "w", "w+2"])) if start_random else o("0")
    return make_skand(start, segs)


def split_at(m, cut):
    """m re-described with a segment boundary at `cut`: the segments before
    it, then m.slice_from(cut)."""
    head, left = [], cut
    for length, pat in m.segments:
        if not left:
            break
        part = length if length.cmp(left) <= 0 else left
        head.append((part, pat))
        left = left.sub_left(part)
    return TransfiniteMap(tuple(head) + m.slice_from(cut).segments)


def equivalent_variant(rng, s):
    """Re-describe the same component stream: shift the start and split a
    segment at a random point."""
    m = s.mapping
    cut = None
    for c in sample_positions(rng, Skand(o("0"), m)):
        if c and c.cmp(m.total) < 0:
            cut = c
            break
    if cut is not None:
        m = split_at(m, cut)
    start = o(rng.choice(["0", "3", "w", "w*2+1"]))
    return Skand(start, m)


def test_redescription_keeps_every_verdict():
    # a skand, a variant with another start and a split segment, and its
    # canonical form are one skand, so every predicate agrees on them
    rng = random.Random(56)
    pool = [parse_skand("const({a}):w;cycle({a},{b}):1;const({a}):w^2 "
                        "@ [0,w^2)")]
    pool += [random_skand(rng) for _ in range(150)]
    taus = [o(t) for t in ("1", "2", "3", "w", "w+1", "w*2")]

    def verdicts(s):
        return (is_reflexive(s), is_self_similar(s), min_finite_period(s),
                [(is_weakly_periodic(s, tau), is_periodic(s, tau),
                  is_strictly_periodic(s, tau)) for tau in taus])

    for s in pool:
        want = verdicts(s)
        assert verdicts(equivalent_variant(rng, s)) == want, s
        assert verdicts(normalize(s)) == want, s


def test_equality_is_equivalence_and_encode_injective():
    rng = random.Random(46)
    pool = [random_skand(rng) for _ in range(120)]
    for s in pool:
        assert skand_equal(s, s)
        v = equivalent_variant(rng, s)
        assert skand_equal(s, v) and skand_equal(v, s)
        assert encode_skand(s) == encode_skand(v)
    for i, x in enumerate(pool):
        for y in pool[i + 1:]:
            exy = skand_equal(x, y)
            assert exy == skand_equal(y, x)
            assert exy == (encode_skand(x) == encode_skand(y))
    # transitivity over a chain of variants
    for s in pool[:30]:
        u, v = equivalent_variant(rng, s), equivalent_variant(rng, s)
        assert skand_equal(u, v)


def test_brace_roundtrip_random():
    rng = random.Random(47)
    for _ in range(200):
        s = random_skand(rng)
        for depth in (1, 3, 6):
            t = brace_render(s, depth)
            assert skand_equal(parse_skand(t), s), t


# -- encoding -------------------------------------------------------------------

def test_encode_examples():
    x = constant_skand(SA, W)
    y = constant_skand(SB, W)
    assert encode_skand(x) != encode_skand(y)
    assert encode_skand(x) == encode_skand(constant_skand(SA, W, start=7))
    e = constant_skand(EMPTY, W)
    code = encode_skand(e)
    assert isinstance(code, Fset) and len(code) == 1


def test_skand_values_are_plain_python_values():
    # an atom is a str, a set term a frozenset and a pattern a tuple, so
    # equality and hashing run in C; a wrapper would put a Python-level
    # __eq__/__hash__ back on every comparison
    assert skands.Atom is str
    assert type(Constant(A)) is tuple and type(Cycle([A, B])) is tuple
    assert Fset.__eq__ is frozenset.__eq__
    assert Fset.__hash__ is frozenset.__hash__
    assert Fset.__slots__ == ()
    assert Atom("a") == "a" and Fset([A]) == frozenset([A])
    assert Constant(SA) == Cycle((SA,))


def test_a_plain_frozenset_is_a_set_term():
    # Fset(x) == frozenset(x), so equal skands render and unroll alike
    plain = constant_skand(frozenset([A]), W)
    assert skand_equal(plain, constant_skand(SA, W))
    assert brace_render(plain) == brace_render(constant_skand(SA, W))
    e3 = make_coskand(0, [(o("3"), Constant(frozenset()))])
    assert coskand_to_setterm(e3) == Fset.of(Fset.of(EMPTY))


# -- brace coordinates ------------------------------------------------------------

def test_brace_coordinates():
    s = Skand(o("1"), constant_skand(SA, W).mapping)
    pairs, exact = brace_coordinates(s, 2)
    assert exact
    assert pairs[0] == (parse_number("-1"), parse_number("1"))
    assert pairs[1] == (parse_number("-1/2"), parse_number("1/2"))
    s0 = constant_skand(SA, W)
    assert brace_coordinates(s0, 1) == ([(parse_number("-2"),
                                          parse_number("2"))], True)
    c = make_coskand(0, [(W, Constant(EMPTY))])
    pairs, _ = brace_coordinates(c, 2)
    assert pairs[0] == (parse_number("-1/2"), parse_number("1/2"))
    assert pairs[1] == (parse_number("-1"), parse_number("1"))


def test_brace_coordinates_monotone_nesting():
    s = Skand(o("1"), constant_skand(SA, o("w")).mapping)
    pairs, _ = brace_coordinates(s, 6)
    for (lo1, hi1), (lo2, hi2) in zip(pairs, pairs[1:]):
        assert lo1 < lo2 < hi2 < hi1


# -- coskands ----------------------------------------------------------------------

def test_coskand_equal():
    x = make_coskand(0, [(W, Constant(EMPTY))])
    y = Skand(o("3"), TransfiniteMap.from_segments([(W, Constant(EMPTY))]),
              True)
    assert skand_equal(x, y)
    assert not skand_equal(make_coskand(0, [(o("3"), Constant(EMPTY))]),
                           make_coskand(0, [(o("4"), Constant(EMPTY))]))
    a = make_coskand(0, [(o("3"), Constant(SA))])
    b = make_coskand(0, [(o("2"), Constant(SA)), (o("1"), Constant(SB))])
    assert not skand_equal(a, b)


def test_coskand_equal_matches_inductive_set_identity():
    # on finite lengths, description equality coincides with equality of the
    # unrolled founded sets built per the increasing-nesting rule
    rng = random.Random(48)
    sets = [v for v in VALUES if isinstance(v, Fset)]
    for _ in range(200):
        n1 = rng.randrange(1, 4)
        n2 = rng.randrange(1, 4)
        c1 = make_coskand(0, [(1, Constant(rng.choice(sets)))
                              for _ in range(n1)])
        c2 = make_coskand(0, [(1, Constant(rng.choice(sets)))
                              for _ in range(n2)])
        lhs = skand_equal(c1, c2)
        rhs = coskand_to_setterm(c1) == coskand_to_setterm(c2)
        # distinct descriptions may collide as plain sets only through the
        # trailing-brace ambiguity; equality must still imply set equality
        assert not lhs or rhs


def test_coskand_kind():
    assert coskand_kind(make_coskand(0, [(W, Constant(EMPTY))])) == "individual"
    assert coskand_kind(make_coskand(0, [(o("3"), Constant(EMPTY))])) == \
        "founded-set"
    assert coskand_kind(make_coskand(0, [(o("w+2"), Constant(EMPTY))])) == \
        "founded-set"


def test_coskand_to_setterm():
    e3 = make_coskand(0, [(o("3"), Constant(EMPTY))])
    assert coskand_to_setterm(e3) == Fset.of(Fset.of(EMPTY))
    mixed = make_coskand(0, [(1, Constant(SA)), (1, Constant(EMPTY)),
                             (1, Constant(SB))])
    assert coskand_to_setterm(mixed) == Fset.of(B, Fset.of(Fset.of(A)))
    with pytest.raises(InfiniteLength):
        coskand_to_setterm(make_coskand(0, [(W, Constant(EMPTY))]))


# -- Mirimanoff ----------------------------------------------------------------------

def test_solve_reflexive():
    s = solve_mirimanoff(Reflexive(frozenset()))
    assert s.length == W and value_at(s, 0) == EMPTY
    assert is_solution(s, Reflexive(frozenset()))
    longer = constant_skand(EMPTY, o("w^2"))
    assert is_solution(longer, Reflexive(frozenset()))


def test_solve_reproduces_pair_identity():
    one = Fset.of(EMPTY)
    y = solve_mirimanoff(Reflexive(frozenset([one])))
    assert value_at(y, 3) == Fset.of(one)
    xy = prepend_component(y, Fset.of(one))
    assert skand_equal(xy, y)


def test_solve_periodic():
    eq = Periodic((frozenset([A]), frozenset([B])))
    s = solve_mirimanoff(eq)
    assert value_at(s, 0) == SA and value_at(s, 1) == SB
    assert is_solution(s, eq)
    mutated = make_skand(0, [(1, Constant(SB)),
                             (W, Cycle((SB, SA)))])
    assert not is_solution(mutated, eq)


def test_solve_extraordinary():
    eq = Extraordinary((frozenset([A]), frozenset([B]), frozenset([C])))
    s = solve_mirimanoff(eq)
    assert [value_at(s, k) for k in range(4)] == [SA, SB, SC, SC]
    assert is_solution(s, eq)
    assert not is_solution(solve_mirimanoff(Reflexive(frozenset([A]))), eq)


def test_is_solution_rejects_mutations():
    rng = random.Random(49)
    eq = Periodic((frozenset([A]), frozenset([B]), frozenset([C])))
    base = solve_mirimanoff(eq)
    assert is_solution(base, eq)
    rejected = 0
    for _ in range(100):
        k = rng.randrange(0, 6)
        other = rng.choice([SA, SB, SC, EMPTY, Fset.of(A, B)])
        segs = [(k, Cycle((SA, SB, SC))), (1, Constant(other)),
                (W, Cycle((SA, SB, SC)))]
        mutated = make_skand(0, [(ln, pat) for ln, pat in segs if ln])
        if value_at(mutated, k) != value_at(base, k):
            assert not is_solution(mutated, eq)
            rejected += 1
    assert rejected >= 60


def test_self_similar_implies_reflexive():
    rng = random.Random(51)
    for _ in range(300):
        s = random_skand(rng)
        if is_self_similar(s):
            assert is_reflexive(s)


def test_brace_coordinates_transfinite_positions():
    s = Skand(o("w"), constant_skand(SA, o("w*2")).mapping)
    pairs, exact = brace_coordinates(s, 3)
    # 1/w exact, then truncated expansions of 1/(w+1), 1/(w+2)
    assert pairs[0][1] == parse_number("w^-1") and not exact
    for (lo1, hi1), (lo2, hi2) in zip(pairs, pairs[1:]):
        assert lo1 < lo2 < hi2 < hi1


def test_components_can_name_encoded_skands():
    inner = constant_skand(SA, W)
    tag = encode_skand(inner)
    outer = constant_skand(Fset.of(tag), W)
    assert value_at(outer, 0) == Fset.of(tag)
    assert skand_equal(outer, constant_skand(Fset.of(encode_skand(
        constant_skand(SA, W, start=9))), W))


def test_skand_json_is_injective_on_descriptions():
    # equal JSON exactly when the written descriptions are equal: drawn
    # skands, each also rebuilt apart, re-described with a boundary at 1,
    # moved to another start and read as a coskand
    from omegacalc.exprs import skand_to_json
    rng = random.Random(52)
    pool = []
    for _ in range(30):
        s = random_skand(rng)
        pool += [s, Skand(s.start, TransfiniteMap(s.mapping.segments)),
                 Skand(s.start, split_at(s.mapping, o("1"))),
                 Skand(s.start + 1, s.mapping),
                 Skand(s.start, s.mapping, True)]
    written = [(s.start, s.mapping.segments, s.ascending) for s in pool]
    codes = [skand_to_json(s) for s in pool]
    for a, x in zip(written, codes):
        for b, y in zip(written, codes):
            assert (x == y) == (a == b)


# -- pointwise oracle --------------------------------------------------------
#
# Every description of at most two segments with lengths in GRID_LENGTHS and
# patterns in GRID_PATTERNS, judged by component values alone.

GRID_LENGTHS = [o(t) for t in ("1", "2", "w", "w+1", "w*2", "w^2")]
GRID_PATTERNS = [Constant(A), Constant(B)] + \
    [Cycle(vs) for k in (1, 2) for vs in itertools.product((A, B), repeat=k)]
GRID_SEGMENTS = [(length, pat) for length in GRID_LENGTHS
                 for pat in GRID_PATTERNS]
GRID_MAPS = [TransfiniteMap.from_segments(segs) for segs in
             [[s] for s in GRID_SEGMENTS]
             + [[s, t] for s in GRID_SEGMENTS for t in GRID_SEGMENTS]]
# m runs to 2 * lcm(cycle lengths) + the longest finite run = 2*2 + (2+2)
GRID = [o("w^2*%d + w*%d + %d" % (a, b, m))
        for a in range(2) for b in range(4) for m in range(9)]


def grid_signature(m):
    """The total and the components of m on GRID, found with value_at only.

    The grid is complete for GRID_MAPS: two of them with equal signatures
    are equal at every position.  A position is lam + m with lam zero or a
    limit, and [lam, lam+w) is a w-block.
    - Within one block a description's components form a word h + p^w with
      |p| dividing a cycle length (so |p| <= 2) and |h| at most the sum of
      the finite parts of the segment lengths (at most 4): the block's
      prefix is the finite tail of an earlier segment plus finite segments.
      Two such words are equal iff they agree on their first
      max |h| + lcm(|p|, |p'|) letters, which m < 9 covers.  A last,
      partial block is a finite word of at most 4 letters.
    - Across blocks: let [lam, lam+w) contain no segment boundary of either
      description, and let c be the last boundary before it.  From the
      block after c's block on, each description stays inside one segment
      whose cycle restarts at every limit, so block lam has the word of
      block lp(c) + w (lp: the limit part), or of block c itself when c is
      a limit.  A map in GRID_MAPS has boundaries 0 and a length in
      GRID_LENGTHS, with limit parts 0, w, w*2 and w^2; its canonical form
      adds boundaries only inside those blocks or at the limit ending one.
      So every block that can differ starts at a*w^2 + b*w, a <= 1, b <= 3.
    """
    total = m.total
    return total, tuple(m.value_at(p) for p in GRID if p.cmp(total) < 0)


def test_normalize_preserves_semantics():
    for m in GRID_MAPS:
        canon = normalize_map(m)
        assert grid_signature(canon) == grid_signature(m), (m, canon)
        # the canonical form is a fixpoint, as written (== is pointwise)
        assert normalize_map(canon).segments == canon.segments, m
        n = normalize(Skand(o("w+3"), m, True))
        assert (n.start, n.mapping.segments, n.ascending) == \
            (o("0"), canon.segments, True)


def test_map_equal_agrees_with_pointwise_grid():
    # grouping by grid signature and grouping by canonical form give the
    # same partition: each signature has one canonical form and vice versa
    pairs = {(grid_signature(m), normalize_map(m).segments)
             for m in GRID_MAPS}
    assert len({sig for sig, _ in pairs}) == len(pairs)
    assert len({canon for _, canon in pairs}) == len(pairs)
    # map_equal decides the same relation: equal within a signature class,
    # unequal between classes of the same total; == is this relation, and
    # equal maps hash alike
    reps = {}
    for m in GRID_MAPS:
        r = reps.setdefault(grid_signature(m), m)
        assert map_equal(m, r) and m == r and hash(m) == hash(r), m
    reps = list(reps.items())
    assert len(reps) < len(GRID_MAPS) / 4
    for i, (sig, x) in enumerate(reps):
        for other, y in reps[i + 1:]:
            assert sig[0] != other[0] or not map_equal(x, y)
            assert x != y, (x, y)


def test_normalize_identifies_adversarial_redescriptions():
    one, two = Atom("1"), Atom("2")
    cases = [
        # a unit prefix is absorbed into a rotated w-block
        ([(W, Cycle((two, one))), (W, Cycle((one, two)))],
         [(o("1"), Constant(two)), (o("w*2"), Cycle((one, two)))]),
        # an aligned full period folds into the cycle
        ([(o("1"), Constant(one)), (o("1"), Constant(two)),
          (W, Cycle((one, two)))],
         [(W, Cycle((one, two)))]),
        ([(o("2"), Cycle((one, two))), (o("w^2"), Cycle((one, two)))],
         [(o("w^2"), Cycle((one, two)))]),
        # a trailing finite run splits off a cycle
        ([(o("w+1"), Cycle((one, two)))],
         [(W, Cycle((one, two))), (o("1"), Constant(one))]),
        # constants merge across an absorbing boundary
        ([(W, Constant(SA)), (o("w^2"), Constant(SA))],
         [(o("w^2"), Constant(SA))]),
        # a misaligned unit must NOT fold
        ([(o("1"), Constant(one)), (o("w*2"), Cycle((one, two)))],
         [(o("1"), Constant(one)), (o("w*2"), Cycle((one, two)))]),
        # a unit that a rotation absorbs, after a constant block and alone
        ([(W, Constant(A)), (o("1"), Constant(A)), (W, Cycle((B, A))),
          (o("w^2"), Cycle((A, B)))],
         [(W, Constant(A)), (o("w^2"), Cycle((A, B)))]),
        ([(W, Cycle((B, A))), (o("w^2"), Cycle((A, B)))],
         [(o("1"), Constant(B)), (o("w^2"), Cycle((A, B)))]),
    ]
    for left, right in cases:
        lm = normalize_map(TransfiniteMap.from_segments(left))
        rm = normalize_map(TransfiniteMap.from_segments(right))
        assert lm.segments == rm.segments, (left, right, lm, rm)
        assert skand_equal(Skand(o("0"), lm),
                           Skand(o("0"), TransfiniteMap.from_segments(left)))


def test_multi_cut_variants_share_canonical_form():
    rng = random.Random(55)
    for _ in range(200):
        s = random_skand(rng, False)
        m = s.mapping
        for _ in range(2):
            cuts = [c for c in sample_positions(rng, Skand(o("0"), m))
                    if c and c.cmp(m.total) < 0]
            if not cuts:
                break
            m = split_at(m, rng.choice(cuts))
        v = Skand(o("0"), m)
        assert skand_equal(s, v)
        assert encode_skand(s) == encode_skand(v)


# Each block's word is h + p^w with |h| <= 4 and |p| <= 2 (see
# grid_signature); a shift n <= 6 compares letters up to 6 + 6.
PERIODS = range(1, 7)
BLOCK_STARTS = [o("w^2*%d + w*%d" % (a, b)) for a in range(2) for b in range(4)]


def finite_period_oracle(m):
    """Reflexivity, weak periodicity and periodicity for n in PERIODS, and
    the least finite period, judged from component values read with
    value_at only.

    A block [lam, lam+w) with components x is n-periodic when x[i] ==
    x[i+n] for every finite i.  Its word is h + p^w with |h| <= 4 and
    |p| <= 2 (grid_signature), and past h the comparison repeats with
    period |p|, so i < |h| + |p| <= 6 decides it.  The tails from P < w and
    from P + n agree from w on (P + n + a = P + a for a >= w), so weak
    periodicity is n-periodicity of a complete first block; reflexivity is
    weak periodicity with n = 1.  Periodicity asks every block to be
    complete and n-periodic: the length is a limit, and by grid_signature's
    across-blocks argument every block repeats the word of one starting at
    a*w^2 + b*w, a <= 1, b <= 3.  The least period of h + p^w, when h is
    empty, is at most |p| <= 2, so PERIODS covers it.
    """
    total = m.total
    words = [[m.value_at(lam + Ordinal.from_int(i)) for i in range(12)]
             for lam in BLOCK_STARTS if (lam + W).cmp(total) <= 0]

    def shifts(x, n):
        return all(x[i] == x[i + n] for i in range(6))

    weakly = {n: bool(words) and shifts(words[0], n) for n in PERIODS}
    periodic = {n: total.is_limit() and all(shifts(x, n) for x in words)
                for n in PERIODS}
    least = next((n for n in PERIODS if weakly[n]), None)
    return weakly[1], weakly, periodic, least


def test_finite_periods_agree_with_pointwise_oracle():
    seen = [0, 0, 0, 0]
    for m in GRID_MAPS:
        s = Skand(o("0"), m)
        reflexive, weakly, periodic, least = finite_period_oracle(m)
        assert is_reflexive(s) == reflexive, m
        assert min_finite_period(s) == least, m
        for n in PERIODS:
            assert is_weakly_periodic(s, n) == weakly[n], (m, n)
            assert is_periodic(s, n) == periodic[n], (m, n)
        seen[0] += sum(weakly.values())
        seen[1] += sum(periodic.values())
        seen[2] += reflexive
        seen[3] += least is not None
    # the oracle is not vacuous: true weakly / periodic / reflexive /
    # least-period verdicts over the grid
    assert seen == [9360, 4122, 1344, 1776]


# -- transfinite periods -----------------------------------------------------
#
# GRID_MAPS, extended with w^3 segments so that a period of leading
# exponent 2 (window w^3) can hold, judged by component values alone.

W2, W3 = o("w^2"), o("w^3")
W3_SEGMENTS = [(W3, pat) for pat in GRID_PATTERNS]
TAU_GRID_MAPS = GRID_MAPS + [
    TransfiniteMap.from_segments(segs) for segs in
    [[s] for s in W3_SEGMENTS]
    + [[s, t] for s in GRID_SEGMENTS + W3_SEGMENTS
       for t in GRID_SEGMENTS + W3_SEGMENTS if W3 in (s[0], t[0])]]
TAUS = [o(t) for t in ("1", "2", "w", "w+1", "w*2", "w^2")]


def position_type(x):
    """The coefficients (w^3, w^2, w, 1) of x < w^4, with the w^2 one capped
    at 2, the w one at 4, and the finite one n, when n >= 3, replaced by the
    one of 3, 4 with n's parity."""
    k = dict(x.terms)
    n = k.get(0, 0)
    return (k.get(3, 0), min(k.get(2, 0), 2), min(k.get(1, 0), 4),
            n if n < 3 else 3 + (n - 3) % 2)


# every type below w^3*2 (the longest total), with its least position
TYPES = {(a, b, c, n): W3 * a + W2 * b + W * c + n
         for a in range(2) for b in range(3) for c in range(5)
         for n in range(5)}


def multiple_of_omega_pow(x, exp):
    return all(ord_cmp(e, exp) >= 0 for e, _ in x.terms)


def period_pairs(tau):
    """The position types that the definitions compare for tau.

    weak: (type of P + d, type of (P (+) tau) + d) for P, d in TYPES below
    W, where W = w^(xi+1), xi is tau's leading exponent and (+) is the
    natural sum.
    shifts: (type of P + d, type of P + tau + d) for P, d in TYPES, d < W.
    tails: for each nonzero multiple lam of W in TYPES, the pairs (type of
    lam + d, d) for d in TYPES."""
    exp1 = tau.leading_exp + 1
    window = Ordinal.omega_pow(exp1)
    below = [p for p in TYPES.values() if p.cmp(window) < 0]
    weak = {(position_type(p + d), position_type(p.nat_add(tau) + d))
            for p in below for d in below}
    shifts = {(position_type(p + d), position_type(p + tau + d))
              for p in TYPES.values() for d in below}
    tails = {lam: [(position_type(TYPES[lam] + TYPES[d]), d) for d in TYPES]
             for lam in TYPES
             if any(lam) and multiple_of_omega_pow(TYPES[lam], exp1)}
    return weak, shifts, tails


def period_oracle(total, values, tau, weak, shifts, tails):
    """(weakly periodic, periodic, strictly periodic) for a map in
    TAU_GRID_MAPS and tau, from its total and `values` (its component at
    each type below the total, read with value_at) only.

    Weakly periodic: the length L is at least W, and tail(P) equals
    tail(P (+) tau) for every P < W.  P and P (+) tau are below W <= L, so
    both tails have L's order type, and for d >= W both P + d and
    (P (+) tau) + d are d; so m(P + d) == m((P (+) tau) + d) for every
    d < W decides it.  Periodic: every exponent of L is >= xi+1 (a multiple
    of W), and tail(P) equals tail(P + tau) for every P: m(P + d) ==
    m(P + tau + d) for every d < W (for d >= W, tau + d = d).  P and P + tau
    lie in one W-window, as W is additively indecomposable, so the two
    tails have the same order type.  Strictly periodic: periodic, and the
    tail at every nonzero multiple lam < L of W has L's order type
    (lam + L == L) and m(lam + d) == m(d) for every d < L.

    The pairs are complete for TAU_GRID_MAPS:
    - m(x), and whether x < L when L is a multiple of w, depend only on x's
      position_type.  m's first boundary l1 is a grid length, with
      coefficients at most 1 (w^3, w^2) and 2 (w, finite), below the caps,
      so the type decides x < l1 and whether x lies in l1's w-block.  A
      cycle has length <= 2 and its phase at x is x's finite part, minus
      l1's in l1's block, so the parity decides it.  A total that is a
      multiple of w is w^3*a + w^2*b + w*c with b <= 2 and c <= 4, where
      b = 2 or c = 4 only with zeros below (w^2*2, w*4), so the capped
      coefficients decide x < L too.
    - Types add: type(x + y) == type(type(x) + type(y)).  x + y keeps x's
      terms above y's leading exponent, adds the coefficients there, and
      takes y's terms below; capping, like parity, commutes with that.
      Likewise type(x (+) y) == type(type(x) (+) type(y)): the natural sum
      adds the coefficients exponent by exponent, and capping and parity
      commute with each of those additions.
    So replacing P, d and lam by their types' least positions keeps every
    compared value and every range test, and a multiple of W stays one: the
    finitely many type pairs decide all three definitions at every
    position."""
    weakly = total.cmp(Ordinal.omega_pow(tau.leading_exp + 1)) >= 0 and \
        all(values[x] == values[y] for x, y in weak)
    if not multiple_of_omega_pow(total, tau.leading_exp + 1):
        return weakly, False, False
    periodic = all(values[x] == values[y] for x, y in shifts if x in values)
    strict = periodic and all(
        TYPES[lam] + total == total
        and all(values[x] == values[d] for x, d in rows if d in values)
        for lam, rows in tails.items() if lam in values)
    return weakly, periodic, strict


def test_transfinite_periods_agree_with_pointwise_oracle():
    pairs = {tau: period_pairs(tau) for tau in TAUS}
    seen = {tau: [0, 0, 0] for tau in TAUS}
    for m in TAU_GRID_MAPS:
        s = Skand(o("0"), m)
        total = m.total
        values = {t: m.value_at(p) for t, p in TYPES.items()
                  if p.cmp(total) < 0}
        for tau in TAUS:
            verdicts = period_oracle(total, values, tau, *pairs[tau])
            assert (is_weakly_periodic(s, tau), is_periodic(s, tau),
                    is_strictly_periodic(s, tau)) == verdicts, (m, tau)
            for i, v in enumerate(verdicts):
                seen[tau][i] += v
    # the oracle is not vacuous: true weakly / periodic / strictly periodic
    # verdicts per tau over the grid
    assert [seen[tau] for tau in TAUS] == [
        [1920, 840, 270], [2540, 1392, 300], [1116, 348, 222],
        [876, 348, 222], [1116, 348, 222], [578, 156, 120]]


def test_transfinite_periods_do_not_slice_or_normalize(monkeypatch):
    # with an infinite tau the three predicates read the canonical segments
    # of the whole map once: no tail is sliced off or canonicalized
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(TransfiniteMap, "slice_from",
                        counted(TransfiniteMap.slice_from))
    monkeypatch.setattr(skands, "normalize_map",
                        counted(skands.normalize_map))
    rng = random.Random(47)
    cases = [example3(), example2(), constant_skand(SA, o("w^3")),
             make_skand(0, [(W2, Constant(SA)), (o("w^3"), Constant(SB))])]
    cases += [random_skand(rng) for _ in range(100)]
    for s in cases:
        for tau in (o("w"), o("w+1"), o("w*2"), o("w^2*3+w")):
            is_weakly_periodic(s, tau)
            is_periodic(s, tau)
            is_strictly_periodic(s, tau)
    assert calls[0] == 0
    # the wrappers count: restrict slices
    restrict(cases[2], W)
    assert calls[0] > 0


SEGMENTS = st.tuples(
    st.sampled_from(LENGTHS).map(o),
    st.one_of(st.sampled_from(VALUES).map(Constant),
              st.lists(st.sampled_from(VALUES), min_size=1, max_size=3)
              .map(lambda vs: Cycle(tuple(vs)))))


@settings(deadline=None)
@given(st.lists(SEGMENTS, min_size=1, max_size=4), st.integers(1, 4),
       st.integers(0, 4))
def test_transfinite_verdicts_depend_only_on_the_leading_exponent(segs, k, j):
    s = make_skand(0, segs)
    for lead in (W, W2):
        tau = lead * k + j
        assert is_periodic(s, tau) == is_periodic(s, lead)
        assert is_strictly_periodic(s, tau) == is_strictly_periodic(s, lead)


# -- stored patterns are primitive ---------------------------------------------
# The canonical pass reads every stored pattern as its own primitive root, so
# each way of building a map must store it so.  Cycles over two values, up to
# four long, are often powers: (a,a), (a,b,a,b).

POWERS = st.tuples(
    st.sampled_from(LENGTHS).map(o),
    st.lists(st.sampled_from([A, SA]), min_size=1, max_size=4).map(tuple))
CUTS = ["1", "2", "3", "w", "w+1", "w*2+1", "w^2+3"]


def _stored_primitive(m):
    return all(skands._primitive(pat) == pat for _, pat in m.segments)


@settings(deadline=None, max_examples=200)
@given(st.lists(POWERS, min_size=1, max_size=4), st.sampled_from(CUTS),
       st.sampled_from(VALUES))
def test_every_builder_stores_primitive_patterns(segs, cut, component):
    from omegacalc.exprs import render_ordinal, render_setterm
    m = TransfiniteMap.from_segments(segs)
    # the same description written out, powers and all
    text = ";".join("cycle(%s):%s" % (",".join(map(render_setterm, pat)),
                                      render_ordinal(length))
                    for length, pat in segs)
    parsed = parse_skand("%s @ [w,w + %s)"
                         % (text, render_ordinal(m.total))).mapping
    assert map_equal(parsed, m)
    built = [m, normalize_map(m), parsed,
             prepend_component(Skand(o("0"), m), component).mapping]
    if o(cut).cmp(m.total) < 0:
        built.append(m.slice_from(o(cut)))
    for x in built:
        assert _stored_primitive(x), x
