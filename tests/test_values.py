"""The value types and the records are plain classes with __slots__,
immutable by convention as fractions.Fraction is: no instance __dict__,
== and hash in agreement, a map's == pointwise, and no store to a field
after construction anywhere in the library (a static check over its
source).  Importing the CLI loads neither dataclasses nor inspect."""

import ast
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import omegacalc
from omegacalc import (EpsilonAtom, Ordinal, Skand, TransfiniteMap,
                       TruncatedNumber, decompose, from_rational,
                       make_skand, parse_number, parse_ordinal, parse_skand,
                       skand_equal)
from omegacalc.cli import Options
from omegacalc.errors import Record
from omegacalc.explog import Decomposition
from omegacalc.gaps import (AddRamp, DyadicRamp, GapLabel, JumpReport,
                            jump_report)
from omegacalc.skands import normalize_map
from omegacalc.surreal import Number

o = parse_ordinal
VALUES = (Number, EpsilonAtom, TruncatedNumber, Ordinal, TransfiniteMap,
          Skand, Decomposition)


def _instances():
    s = make_skand(o("w"), [(o("w*2"), ("a", "b"))])
    return [parse_number("w + 1"), EpsilonAtom(from_rational(1)),
            TruncatedNumber(parse_number("w"), None), o("w^2+3"), s.mapping,
            s, decompose(parse_number("w + 2 + w^-1"))]


def test_values_have_no_instance_dict():
    got = _instances()
    assert [type(x) for x in got] == list(VALUES)
    for x in got:
        assert not hasattr(x, "__dict__"), type(x).__name__


def test_equality_and_hash_are_unchanged():
    two = Ordinal.from_int(2)
    assert two == 2 and hash(two) == hash(2)
    six_thirds = from_rational(Fraction(6, 3))
    assert six_thirds == 2 and hash(six_thirds) == hash(2)
    # an epsilon atom is a dict key, so a Number with an eps exponent hashes
    table = {EpsilonAtom(from_rational(1)): "eps[1]"}
    assert table[EpsilonAtom(parse_number("1"))] == "eps[1]"
    assert hash(parse_number("w^(eps[1])*2")) == \
        hash(parse_number("w^(eps[1])*2"))
    # a map's stored total takes no part in == and hash
    segs = ((o("w"), ("a",)),)
    assert TransfiniteMap(segs) == TransfiniteMap(segs, o("w+1"))
    assert hash(TransfiniteMap(segs)) == hash(TransfiniteMap(segs, o("w+1")))
    x = make_skand(3, [(o("w"), ("a", "b"))])
    y = make_skand(3, [(o("w"), ("a", "b"))])
    assert x is not y and x == y and hash(x) == hash(y)


def test_post_init_checks_still_run():
    # the check of the former __post_init__ runs in __init__
    with pytest.raises(ValueError, match="length >= 1"):
        Skand(o("0"), TransfiniteMap(()))


# -- == is pointwise -----------------------------------------------------------
#
# A skand is its components, as a founded set is its members: maps compare
# by canonical form, and a Skand by (start, ascending, canonical form).

def test_equal_skands_from_different_descriptions_are_equal():
    x = parse_skand("const(a):1;cycle(b,a) @ [0,w*2)")
    y = parse_skand("cycle(a,b):w;cycle(b,a) @ [0,w*2)")
    assert x.mapping.segments != y.mapping.segments
    assert x == y and hash(x) == hash(y)
    assert x.mapping == y.mapping and hash(x.mapping) == hash(y.mapping)
    assert len({x, y}) == 1


def test_skand_equality_implies_skand_equal():
    from test_skands import GRID_MAPS
    canon = {}
    for m in GRID_MAPS:
        s = Skand(o("w+3"), m)
        t = canon.setdefault(normalize_map(m).segments, s)
        assert s == t and hash(s) == hash(t) and skand_equal(s, t)
        # the same components elsewhere, or nested the other way, are
        # skand_equal but not ==
        assert skand_equal(s, Skand(o("0"), m)) and s != Skand(o("0"), m)
        assert s != Skand(o("w+3"), m, True)
    assert len(canon) < len(GRID_MAPS) / 4


# -- records ----------------------------------------------------------------

def test_records_compare_hash_and_print_as_values():
    assert Options() == Options(8, False, 4, False)
    opts = Options(max_terms=3, json=True)
    assert (opts.max_terms, opts.json, opts.depth, opts.strict) == \
        (3, True, 4, False)
    b = parse_number("w")
    assert hash(AddRamp(b, 1)) == hash(AddRamp(parse_number("w"), 1))
    # a tuple would make these equal: the class takes part in ==
    assert AddRamp(b, 1) != DyadicRamp(b, 1) and \
        DyadicRamp(b, 1) != (b, 1)
    with pytest.raises(ValueError, match="sign must be"):
        GapLabel(2, b)
    assert JumpReport(o("w"), True, True, True).census == ()
    assert repr(DyadicRamp(b, -1)) == \
        "DyadicRamp(base=Number<w*1>, direction=-1)"
    assert repr(Options()) == \
        "Options(max_terms=8, json=False, depth=4, strict=False)"
    assert not hasattr(jump_report(o("w^2")), "__dict__")
    with pytest.raises(ValueError):
        DyadicRamp(b)


def test_importing_the_cli_loads_no_class_generator():
    src = str(pathlib.Path(omegacalc.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, %r); import omegacalc.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
         % src], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# -- the static immutability check -------------------------------------------

TYPES = VALUES + tuple(Record.__subclasses__())
FIELDS = {name for t in TYPES for name in t.__slots__}
NAMES = {t.__name__ for t in TYPES}


def test_the_check_walks_every_record():
    assert {"Options", "GapLabel", "OrdinalRamp", "AddRamp", "DyadicRamp",
            "GeometricRamp", "HarmonicRamp", "ScaledHarmonic", "JumpReport",
            "OrdinalClass", "Reflexive", "Periodic", "Extraordinary"} \
        <= NAMES


def _violations(source, where="<source>"):
    """Every store or delete of a field of a value type or record outside
    that type's own __init__, every use of object.__setattr__, and every
    call of setattr or delattr outside an __init__ of those types (the
    Record base stores its fields so)."""
    tree = ast.parse(source)
    allowed = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if cls.name in NAMES | {"Record"}:
            for fn in cls.body:
                if getattr(fn, "name", None) == "__init__":
                    allowed.update(map(id, ast.walk(fn)))
        else:
            # another class's methods keep state on their own self (the
            # parser's depth and max_terms)
            allowed.update(id(n) for n in ast.walk(cls)
                           if isinstance(n, ast.Attribute)
                           and getattr(n.value, "id", None) == "self")
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed and \
                getattr(node.func, "id", None) in ("setattr", "delattr"):
            out.append("%s:%d %s" % (where, node.lineno, node.func.id))
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr == "__setattr__" and \
                getattr(node.value, "id", None) == "object":
            out.append("%s:%d object.__setattr__" % (where, node.lineno))
        elif isinstance(node.ctx, (ast.Store, ast.Del)) and \
                node.attr in FIELDS and id(node) not in allowed:
            out.append("%s:%d store to .%s" % (where, node.lineno, node.attr))
    return out


def test_no_value_field_is_stored_after_construction():
    src = pathlib.Path(omegacalc.__file__).parent
    files = sorted(src.glob("*.py"))
    assert len(files) >= 9
    assert [v for f in files
            for v in _violations(f.read_text(), f.name)] == []


@pytest.mark.parametrize("source", [
    "def f(x):\n    x.terms = ()\n",
    "def f(s):\n    s.mapping.total += 1\n",
    "def f(x):\n    del x.index\n",
    "def f(x):\n    object.__setattr__(x, 'terms', ())\n",
    "class Ordinal:\n    def cmp(self):\n        self.terms = ()\n",
    "def f(options):\n    options.depth = 0\n",
    "class P:\n    def f(self, options):\n        options.depth = 0\n",
    "def f(x):\n    setattr(x, 'terms', ())\n",
    "class Number:\n    def __init__(self):\n        self.terms = ()\n"
    "    def cmp(self):\n        self.terms = ()\n",
    # `order` is a TruncatedNumber field, so no receiver may store it
    "def f(out):\n    out.order = None\n",
])
def test_the_immutability_check_sees_a_store(source):
    assert len(_violations(source)) == 1
