"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go.
Everything here is exact; there are no numeric tolerances to tune.
"""

import random
from fractions import Fraction

from omegacalc import (AddRamp, DyadicRamp, OrdinalRamp, add, birthday,
                       classify_ordinal, divide, encode_skand, epsilon, exp,
                       from_ordinal, from_rational, from_terms, gap_of,
                       in_ln_domain, invert, is_periodic, is_reflexive,
                       is_self_similar, is_solution, is_strictly_periodic,
                       is_weakly_periodic, jump_report, leader,
                       left_right_construct, ln, mul, negate, nf_cmp,
                       omega_pow, ord_add, ord_cmp, ord_nat_add, ord_sub_left,
                       parse_number, parse_ordinal, prepend_component,
                       real_limit_from_sequences, restrict, simplest_dyadic_game,
                       skand_equal, solve_mirimanoff, sub)
from omegacalc import (Atom, Constant, Cycle, Fset, Periodic, Reflexive,
                       Skand, parse_skand, brace_render, constant_skand,
                       cycle_skand, make_skand, normalize)
from omegacalc.ordinals import OMEGA, Ordinal
from omegacalc.skands import EMPTY
from omegacalc.surreal import ZERO
from oracles import numbers_born_by

n = parse_number
o = parse_ordinal
W = n("w")
E0 = epsilon(from_rational(0))


def _check(num, desc, body):
    try:
        body()
    except BaseException:
        print("FAIL  criterion %2d: %s" % (num, desc))
        raise
    print("PASS  criterion %2d: %s" % (num, desc))


# -- oracles -------------------------------------------------------------------

def day_table(limit):
    return [numbers_born_by(d) for d in range(limit + 1)]


def first_day(x, table):
    for day, made in enumerate(table):
        if x in made:
            return day
    raise AssertionError


def make_game_cmp(table):
    """Memoised game-theoretic comparison on birthday forms."""
    lr = {}
    for x in table[-1]:
        day = first_day(x, table)
        older = table[day - 1] if day else []
        lr[x] = ([y for y in older if y < x], [y for y in older if y > x])
    cache = {}

    def geq(x, y):
        key = (x, y)
        if key in cache:
            return cache[key]
        cache[key] = True   # cut cycles; the recursion is well-founded
        out = not (any(geq(y, r) for r in lr[x][1])
                   or any(geq(l, x) for l in lr[y][0]))
        cache[key] = out
        return out

    return geq


# -- criteria -------------------------------------------------------------------

def test_criterion_01_birthday_table():
    def body():
        t = day_table(3)
        assert t[0] == [0]
        assert sorted(t[1]) == [-1, 0, 1]
        assert sorted(t[2]) == [-2, -1, Fraction(-1, 2), 0,
                                Fraction(1, 2), 1, 2]
        assert simplest_dyadic_game([], []) == 0
        assert simplest_dyadic_game([0], []) == 1
        assert simplest_dyadic_game([], [0]) == -1
        assert simplest_dyadic_game([0, 1], []) == 2
        assert simplest_dyadic_game([0], [1]) == Fraction(1, 2)
        assert simplest_dyadic_game([-1], [0]) == Fraction(-1, 2)
        assert simplest_dyadic_game([], [-1, 0]) == -2
        assert birthday(Fraction(3, 4)) == first_day(Fraction(3, 4), t) == 3
        for x in t[3]:
            assert birthday(x) == first_day(x, t)
    _check(1, "day-0..2 birth lists and birthday(3/4) = 3", body)


def test_criterion_02_comparison_oracle():
    def body():
        table = day_table(6)
        geq = make_game_cmp(table)
        made = table[6]
        assert len(made) == 127
        for x in made:
            nx = from_rational(x)
            for y in made:
                want_geq = geq(x, y)
                assert want_geq == (nf_cmp(nx, from_rational(y)) >= 0)
    _check(2, "nf_cmp agrees with the game rule on all 127^2 day-<=6 pairs",
           body)


def test_criterion_03_field_laws():
    def body():
        import test_surreal as ts
        rng = random.Random(103)
        ok_exact = 0
        for _ in range(1000):
            x, y, z = (ts.random_number(rng, depth=2, max_terms=3)
                       for _ in range(3))
            assert add(x, y) == add(y, x)
            assert add(add(x, y), z) == add(x, add(y, z))
            assert mul(x, y) == mul(y, x)
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
            assert add(x, negate(x)) == ZERO
            if x.terms:
                t = invert(x, 4)
                assert t.exact == (len(x.terms) == 1)
                if t.exact:
                    assert mul(x, t.value) == n("1")
                    ok_exact += 1
                else:
                    assert mul(x, t.value) != n("1")
        assert ok_exact > 50
    _check(3, "ring axioms and the invert exactness flag on 1000 triples",
           body)


def test_criterion_04_inverse_series():
    def body():
        t = invert(add(W, n("1")), 4)
        assert not t.exact
        assert t.value == n("w^-1 - w^-2 + w^-3 - w^-4")
        assert t.value == from_terms([(n("-1"), 1), (n("-2"), -1),
                                      (n("-3"), 1), (n("-4"), -1)])
    _check(4, "invert(w+1, 4) is the alternating series w^-1-w^-2+w^-3-w^-4",
           body)


def test_criterion_05_anti_zeno():
    def body():
        t = exp(W)
        assert t.exact and t.value == W
        t = exp(mul(W, E0))
        assert t.exact and t.value == E0
        assert nf_cmp(mul(W, E0), E0) > 0
        t = exp(E0)
        assert t.exact
        eps_over_w = divide(E0, W)
        assert eps_over_w.exact
        assert t.value == omega_pow(eps_over_w.value)
        assert nf_cmp(t.value, E0) == -1
        assert omega_pow(E0) == E0
    _check(5, "exp(w) = w, exp(w*eps0) = eps0, exp(eps0) = w^(eps0/w) < eps0",
           body)


def test_criterion_06_logarithms():
    def body():
        t = ln(E0)
        assert t.exact and t.value == mul(W, E0)
        t = ln(mul(E0, omega_pow(W)))
        assert t.exact and t.value == add(mul(W, E0), n("w^2"))
        import test_explog as tx
        rng = random.Random(106)
        for _ in range(200):
            x = tx.purely_infinite(rng)
            e = exp(x)
            assert e.exact
            back = ln(e.value)
            assert back.exact and back.value == x
    _check(6, "ln(eps0) = w*eps0, ln(eps0*w^w) = w*eps0 + w^2, ln(exp(x)) = x",
           body)


def test_criterion_07_ln_domain_and_leaders():
    def body():
        assert in_ln_domain(add(W, n("1")))
        assert not in_ln_domain(omega_pow(n("w^-1")))
        import test_surreal as ts
        rng = random.Random(107)
        for _ in range(200):
            y = omega_pow(ts.random_number(rng, 1))
            c = from_rational(abs(ts.random_rational(rng)) or 1)
            assert leader(mul(y, c)) == leader(y)
            assert in_ln_domain(mul(y, c)) == in_ln_domain(y)
    _check(7, "t_gamma > -1 domain test and leader commensurate-invariance",
           body)


def test_criterion_08_natural_sum():
    def body():
        smalls = []
        for a1 in range(5):
            for a0 in range(10):
                smalls.append(o("w*%d + %d" % (a1, a0)))
        for k in range(10):
            fin = Ordinal.from_int(k)
            for b in smalls:
                want = max(ord_add(fin, b), ord_add(b, fin))
                assert ord_nat_add(fin, b) == want
                assert ord_nat_add(b, fin) == want
        # the erratum pair: the max formula gives w*2+1, the natural sum is
        # the coefficientwise merge w*2+2
        a = o("w + 1")
        assert ord_nat_add(a, a) == o("w*2 + 2")
        assert max(ord_add(a, a), ord_add(a, a)) == o("w*2 + 1")
    _check(8, "natural sum: max formula with a finite side; (w+1)(+)(w+1) "
              "= w*2+2", body)


def test_criterion_09_jump_calculus():
    def body():
        smalls = []
        for a2 in range(5):
            for a1 in range(5):
                for a0 in range(5):
                    smalls.append(o("w^2*%d + w*%d + %d" % (a2, a1, a0)))
        limits = [lam for lam in smalls if lam.is_limit()]
        assert len(limits) == 24
        for lam in limits:
            below = [a for a in smalls if ord_cmp(a, lam) < 0]
            closed = all(ord_cmp(ord_add(a, b), lam) < 0
                         for a in below for b in below)
            rep = jump_report(lam)
            assert rep.embeddable == rep.translation_invariant \
                == rep.tails_same_type == closed
            assert closed == classify_ordinal(lam).is_additively_indecomposable
            # indecomposable lengths absorb every shorter prefix
            if closed:
                for a in below[:40]:
                    assert ord_sub_left(lam, a) == lam
        rep = jump_report(o("w^2"))
        assert rep.census == ((o("w"), o("w")), (o("w^2"), o("1")))
    _check(9, "jump flags = indecomposability below w^3; census(w^2) = "
              "{w: w, w^2: 1}", body)


def test_criterion_10_left_right():
    def body():
        left, right = left_right_construct(6)
        assert Fraction(5, 8) in left and Fraction(21, 32) in left
        assert Fraction(3, 4) in right and Fraction(11, 16) in right \
            and Fraction(43, 64) in right
        assert left[:3] == [0, Fraction(1, 2), Fraction(5, 8)]
        assert right[:3] == [1, Fraction(3, 4), Fraction(11, 16)]
        assert real_limit_from_sequences(left, right) == Fraction(2, 3)
    _check(10, "left-right chain endpoints and the pinned limit 2/3", body)


def test_criterion_11_gap_labels():
    def body():
        assert gap_of(OrdinalRamp(o("w"))).index == W
        assert gap_of(AddRamp(W, 1)).index == n("w*2")
        assert gap_of(AddRamp(W, -1)).index == mul(W, n("1/2"))
        for beta in range(4):
            base = mul(W, from_rational(Fraction(1, 2 ** beta)))
            want = mul(W, from_rational(Fraction(1, 2 ** (beta + 1))))
            lbl = gap_of(AddRamp(base, -1))
            assert lbl.sign == 1 and lbl.index == want
        import test_surreal as ts
        rng = random.Random(111)
        seen = 0
        while seen < 50:
            b = ts.random_number(rng, 1)
            from omegacalc.errors import UnsupportedDescriptor
            try:
                down = gap_of(DyadicRamp(b, -1))
                up = gap_of(DyadicRamp(b, 1))
            except UnsupportedDescriptor:
                continue
            seen += 1
            assert down.index == sub(b, n("w^-1"))
            assert up.index == add(b, n("w^-1"))
            for lbl in (down, up):
                if lbl.index.terms:
                    want_sign = 1 if lbl.index.terms[0][1] > 0 else -1
                    assert lbl.sign == want_sign
    _check(11, "gap catalogue: +inf_w, +inf_{2w}, +inf_{w/2^k}, +-inf_{b-+1/w}",
           body)


def _random_bounded_skand(rng):
    import test_skands as tk
    while True:
        s = tk.random_skand(rng)
        if s.length.cmp(o("w^3")) <= 0:
            return s


def test_criterion_12_skand_predicates():
    def body():
        import test_skands as tk
        ex3 = cycle_skand([Atom("1"), Atom("2"), Atom("3")], o("w^2"))
        assert is_weakly_periodic(ex3, 3)
        assert is_periodic(ex3, 3)
        assert is_strictly_periodic(ex3, 3)
        v3 = cycle_skand([Atom("1"), Atom("2"), Atom("3")], o("w*3"))
        assert is_periodic(v3, 3) and not is_strictly_periodic(v3, 3)
        c2 = constant_skand(Fset.of(Atom("a")), o("w*2"))
        assert is_reflexive(c2) and not is_self_similar(c2)
        from omegacalc import divmod_omega_pow
        rng = random.Random(112)
        for _ in range(500):
            s = _random_bounded_skand(rng)
            assert is_reflexive(s) == (
                s.length.cmp(OMEGA) >= 0
                and skand_equal(restrict(s, ord_add(s.start, 1)), s))
            if is_self_similar(s):
                for p in tk.sample_positions(rng, s):
                    assert skand_equal(restrict(s, p), s)
            for tau in (2, 3):
                weak = is_weakly_periodic(s, tau)
                assert weak == tk.weakly_periodic_oracle(s, tau, rng)
                per = is_periodic(s, tau)
                strict = is_strictly_periodic(s, tau)
                assert (not strict or per) and (not per or weak)
                sampled = all(tk.weakly_periodic_oracle(restrict(s, p),
                                                        tau, rng)
                              for p in tk.sample_positions(rng, s))
                if per:
                    assert sampled
                elif sampled:
                    # a justified refusal can only be length-structural
                    _, rem = divmod_omega_pow(s.length, Ordinal.from_int(1))
                    assert rem
                if strict:
                    window = OMEGA
                    k, lam = 1, window
                    while lam.cmp(s.length) < 0 and k <= 3:
                        assert skand_equal(
                            restrict(s, ord_add(s.start, lam)), s)
                        k += 1
                        lam = window * k
    _check(12, "periodicity trio on the catalogue examples and 500 random "
               "descriptions vs definitional oracles", body)


def test_criterion_13_encoding_equality():
    def body():
        import test_skands as tk
        rng = random.Random(113)
        pool = [normalize(_random_bounded_skand(rng)) for _ in range(500)]
        by_code = {}
        for s in pool:
            by_code.setdefault(encode_skand(s), []).append(s)
        for group in by_code.values():
            rep = group[0]
            for other in group[1:]:
                assert skand_equal(rep, other)
        reps = [g[0] for g in by_code.values()]
        for _ in range(2000):
            x, y = rng.sample(reps, 2)
            assert not skand_equal(x, y)
        # equivalence relation: reflexive, symmetric, transitive over
        # re-described variants
        for s in pool[:100]:
            assert skand_equal(s, s)
            u = tk.equivalent_variant(rng, s)
            v = tk.equivalent_variant(rng, u)
            assert skand_equal(s, u) and skand_equal(u, s)
            assert skand_equal(u, v) and skand_equal(s, v)
            assert encode_skand(u) == encode_skand(s)
        for s in pool:
            t = brace_render(s, 4)
            assert skand_equal(parse_skand(t), s)
    _check(13, "encode injectivity, equivalence laws and brace round-trip "
               "on 500 random skands", body)


def test_criterion_14_mirimanoff():
    def body():
        triv = solve_mirimanoff(Reflexive(frozenset()))
        assert skand_equal(triv, constant_skand(EMPTY, OMEGA))
        assert is_solution(triv, Reflexive(frozenset()))
        one = Fset.of(EMPTY)
        yeq = Reflexive(frozenset([one]))
        y = solve_mirimanoff(yeq)
        assert skand_equal(y, constant_skand(Fset.of(one), OMEGA))
        assert is_solution(y, yeq)
        xy = prepend_component(y, Fset.of(one))
        assert skand_equal(xy, y)
        rng = random.Random(114)
        blocks = (frozenset([Atom("a")]), frozenset([Atom("b")]))
        eq = Periodic(blocks)
        base = solve_mirimanoff(eq)
        assert is_solution(base, eq)
        vals = (Fset.of(Atom("a")), Fset.of(Atom("b")))
        others = [EMPTY, Fset.of(Atom("c")), Fset.of(Atom("a"), Atom("b"))]
        rejected = 0
        while rejected < 100:
            k = rng.randrange(0, 8)
            wrong = rng.choice(others)
            segs = ([(Ordinal.from_int(k), Cycle(vals))] if k else []) \
                + [(Ordinal.from_int(1), Constant(wrong)),
                   (OMEGA, Cycle(vals if k % 2 == 0 else (vals[1], vals[0])))]
            mutated = make_skand(0, segs)
            assert not is_solution(mutated, eq)
            rejected += 1
    _check(14, "canonical Mirimanoff witnesses, the {X,Y} = Y identity, and "
               "mutation rejection", body)
