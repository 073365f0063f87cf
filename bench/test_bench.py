"""Tests of the benchmark itself: references, generators, tracing hygiene.

    python3 -m pytest bench/test_bench.py
"""

import collections
import json
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import reference as R  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from worker import run_pass, _prepare  # noqa: E402


# -- references ---------------------------------------------------------------


def _true_terms(kind, terms, order=8):
    low = R.series_partial_sum(kind, terms, order)
    return R.trusted_prefix(low, R.series_partial_sum(kind, terms, 40)), \
        len(low)


def test_series_reference_matches_known_expansions():
    # 1/(w+1) = w^-1 - w^-2 + w^-3 - ...
    s = R.series_partial_sum("inv", [(Q(1), Q(1)), (Q(0), Q(1))], 8)
    assert s == tuple((R.rat(-k), Q((-1) ** (k + 1))) for k in range(1, 9))
    # the trusted prefixes the ROADMAP reports, found against 40 orders
    one = Q(1)
    assert _true_terms("inv", [(one, one), (0, one), (-one, one)]) == (6, 13)
    assert _true_terms("exp", [(-one, one), (Q(-2), one)]) == (8, 15)
    assert _true_terms("ln", [(one, one), (0, one), (-one, one)]) == (9, 17)


def test_number_reference_orders_epsilon_atoms():
    eps0, eps1 = R.Eps(R.NZERO), R.Eps(R.rat(1))
    tower = R.nfrom_terms([(R.nfrom_terms([(R.rat(3), 1)]), 1)])  # w^w^3
    assert R.ecmp(eps0, tower) > 0
    assert R.ecmp(eps1, R.nadd(R._as_num(eps0), R.rat(1))) > 0
    # eps0 * w = w^(eps0 + 1)
    prod = R.nmul(((eps0, Q(1)),), ((R.NUM_ONE, Q(1)),))
    assert R.render_number(prod) == "w^(eps[0] + 1)*1"


def test_ordinal_reference():
    w1 = R.oadd(R.OMEGA, R.ord_int(1))
    assert R.render_ordinal(R.oadd(R.oadd(R.OMEGA, R.ord_int(3)),
                                   W._w(2))) == "w^2"
    assert R.render_ordinal(R.onat_mul(w1, w1)) == "w^2 + w*2 + 1"
    assert R.render_ordinal(R.omul(w1, w1)) == "w^2 + w + 1"
    text = "w^(w + 1)*3 + w^2 + 5"
    assert R.render_ordinal(R.parse_ordinal(text)) == text


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_redescriptions_equal_and_perturbations_unequal(seed):
    import random
    rng = random.Random(seed)
    for _ in range(40):
        segs = W._base(rng, rng, rng.randint(2, 5))
        assert R.same_components(W._redescribe(rng, segs), segs, 3, 12)
        assert not R.same_components(W._unequal(rng, rng, segs), segs, 3,
                                     12)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_second_seed_keeps_mix_with_new_lines(name):
    a, b = W.WORKLOADS[name](1), W.WORKLOADS[name](2)
    assert collections.Counter(x.cell for x in a) == \
        collections.Counter(x.cell for x in b)
    assert len({x.text for x in a} & {x.text for x in b}) < len(a) // 4


def test_lines_do_not_depend_on_string_hashing():
    code = ("import hashlib, workloads; print(hashlib.sha256(repr([(x.text, "
            "x.max_terms, x.json) for w in sorted(workloads.WORKLOADS) for x "
            "in workloads.WORKLOADS[w](3)]).encode()).hexdigest())")
    digests = {subprocess.run([sys.executable, "-c", code], cwd=HERE,
                              env={"PYTHONHASHSEED": h}, capture_output=True,
                              text=True, check=True).stdout
               for h in ("1", "2")}
    assert len(digests) == 1


def test_crashers_fail_without_making_the_run_wrong():
    crash = ["error", "other", "ValueError", "boom"]
    for line in W.crasher_lines(__import__("random").Random(0)):
        assert run.verdict(line.expect, crash, {}) == "failed"
    assert run.verdict(W.Expect("text", "1"), crash, {}) == "wrong"
    assert run.verdict(W.Expect("error", bases=(W.PARSE,)),
                       ["error", "CalcError", "X", ""], {}) == "wrong"


# -- tracing hygiene ----------------------------------------------------------


def _snapshot():
    return [(owner, attr, getattr(owner, attr) if isinstance(owner, type)
             else vars(owner)[attr], original)
            for _, owner, attr, original in tracing.targets()]


def test_untraced_pass_leaves_every_function_original():
    lines = _prepare([x.spec() for x in W.script(1)[:60]])
    sample = []
    run_pass(lines, sample=sample)
    assert len(sample) == len(lines)
    assert all(raw > 0 and scaled > 0 for raw, scaled in sample)
    for owner, attr, current, original in _snapshot():
        assert current is original, (owner, attr)


def test_wrappers_reach_reimports_and_methods():
    from omegacalc import explog, gaps, ordinals, skands, surreal
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for alias, name in ((explog.mul, "mul"), (gaps.nf_cmp, "nf_cmp")):
            assert alias is getattr(surreal, name)
            assert hasattr(alias, "__wrapped__"), name
        for cls, meth in ((ordinals.Ordinal, "cmp"),
                          (ordinals.Ordinal, "__add__"),
                          (surreal.Number, "__hash__"),
                          (skands.TransfiniteMap, "slice_from")):
            assert hasattr(cls.__dict__[meth], "__wrapped__"), meth
        tracer.begin_line(0, "eval x")
        x = surreal.from_rational(3)
        hash(x)
        explog.exp(surreal.omega_pow(surreal.from_rational(-1)))
        w = ordinals.OMEGA
        w + ordinals.Ordinal.from_int(1)
        skands.TransfiniteMap.from_segments(
            [(w, skands.Constant(skands.Atom("a")))]).slice_from(
                ordinals.Ordinal.from_int(2))
        tracer.end_line()
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["surreal.hash.calls"] >= 1
    assert m["explog.exp.calls"] == 1 and m["surreal.mul.calls"] >= 1
    assert m["ordinals.add.calls"] >= 1
    assert m["skands.slice_from.calls"] == 1
    for owner, attr, current, original in _snapshot():
        assert current is original, (owner, attr)


@pytest.mark.parametrize("name", ["skand", "script"])
def test_traced_counts_repeat_exactly(name):
    def counts():
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", "4", "--trace", "1"], capture_output=True, text=True,
            check=True, timeout=170)
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if v["unit"] == "count"}

    first = counts()
    assert first and first == counts()
