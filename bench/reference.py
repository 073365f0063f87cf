"""Reference arithmetic for checking omegacalc's answers.

Nothing here imports omegacalc.  Every reference is a small, direct
implementation of the mathematics, written against the textbook definitions
rather than against the library's algorithms:

* ordinals below epsilon_0 in Cantor normal form, as nested tuples
  ``((exponent, coefficient), ...)`` in decreasing exponent order;
* surreal normal forms with rational coefficients and epsilon atoms, as
  nested tuples ``((exponent, Fraction), ...)`` where an exponent is such a
  tuple or an ``Eps`` atom;
* rational-exponent power series, as dicts ``{Fraction: Fraction}``, for the
  N-order partial sums of 1/x, exp and ln;
* founded set terms (``str`` atoms and ``frozenset``s) and skand
  descriptions given as lists of ``(length, kind, values)`` segments.

The renderers reproduce omegacalc's documented output syntax so that text
answers can be compared verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import factorial

# -- ordinals -----------------------------------------------------------------

OZERO = ()


def ord_int(n: int):
    return ((OZERO, n),) if n else OZERO


OONE = ord_int(1)
OMEGA = ((OONE, 1),)


def ocmp(a, b) -> int:
    for (ea, ca), (eb, cb) in zip(a, b):
        c = ocmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return 1 if ca > cb else -1
    return (len(a) > len(b)) - (len(a) < len(b))


def oadd(a, b):
    if not b:
        return a
    lead, lc = b[0]
    kept = []
    for e, c in a:
        r = ocmp(e, lead)
        if r > 0:
            kept.append((e, c))
        elif r == 0:
            return tuple(kept) + ((e, c + lc),) + b[1:]
        else:
            break
    return tuple(kept) + b


def omul(a, b):
    if not a or not b:
        return OZERO
    lead, lc = a[0]
    acc = OZERO
    for f, d in b:
        if f:
            acc = oadd(acc, ((oadd(lead, f), d),))
        else:
            acc = oadd(acc, ((lead, lc * d),) + a[1:])
    return acc


def _ord_from_dict(merged):
    items = [(e, c) for e, c in merged.items() if c]
    items.sort(key=cmp_to_key(lambda p, q: ocmp(p[0], q[0])), reverse=True)
    return tuple(items)


def onat_add(a, b):
    merged = {}
    for e, c in a + b:
        merged[e] = merged.get(e, 0) + c
    return _ord_from_dict(merged)


def onat_mul(a, b):
    merged = {}
    for e, c in a:
        for f, d in b:
            g = onat_add(e, f)
            merged[g] = merged.get(g, 0) + c * d
    return _ord_from_dict(merged)


def osub_left(total, prefix):
    """The r with prefix + r = total (prefix <= total)."""
    i = 0
    while i < len(total) and i < len(prefix):
        (et, ct), (ep, cp) = total[i], prefix[i]
        r = ocmp(ep, et)
        if r < 0:
            return total[i:]
        if r > 0 or cp > ct:
            raise ValueError("prefix exceeds total")
        if cp < ct:
            return ((et, ct - cp),) + total[i + 1:]
        i += 1
    if i < len(prefix):
        raise ValueError("prefix exceeds total")
    return total[i:]


def ofinite(a) -> bool:
    return not a or (len(a) == 1 and not a[0][0])


def olimit(a) -> bool:
    return bool(a) and bool(a[-1][0])


def ofinite_part(a) -> int:
    return a[-1][1] if a and not a[-1][0] else 0


def render_ordinal(o) -> str:
    if not o:
        return "0"
    parts = []
    for e, c in o:
        if not e:
            parts.append(str(c))
            continue
        if e == OONE:
            base = "w"
        elif ofinite(e):
            base = "w^%d" % e[0][1]
        else:
            base = "w^(%s)" % render_ordinal(e)
        parts.append(base if c == 1 else "%s*%d" % (base, c))
    return " + ".join(parts)


def ordinal_json(o):
    return [[ordinal_json(e), c] for e, c in o]


def parse_ordinal(text: str):
    """Inverse of render_ordinal (its output syntax only)."""
    text = text.strip()
    if text == "0":
        return OZERO
    acc = OZERO
    for part in _split_top(text, " + "):
        coeff = 1
        base = part
        if part.startswith("w"):
            head, star, tail = part.rpartition("*")
            if star and ")" not in tail:
                base, coeff = head, int(tail)
            if base == "w":
                e = OONE
            elif base.startswith("w^("):
                e = parse_ordinal(base[3:-1])
            else:
                e = ord_int(int(base[2:]))
            acc = oadd(acc, ((e, coeff),))
        else:
            acc = oadd(acc, ord_int(int(part)))
    return acc


def _split_top(text, sep):
    out, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            out.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    out.append(text[start:])
    return out


# -- surreal normal forms -----------------------------------------------------


@dataclass(frozen=True)
class Eps:
    """The epsilon number with the given normal-form index, as an exponent:
    the one-term normal form w^Eps(i) * 1 is eps_i itself."""
    index: tuple


NZERO = ()


def rat(q) -> tuple:
    q = Fraction(q)
    return ((NZERO, q),) if q else NZERO


NUM_ONE = rat(1)


def _as_num(e):
    return ((e, Fraction(1)),) if isinstance(e, Eps) else e


def _norm_exp(e):
    if len(e) == 1 and isinstance(e[0][0], Eps) and e[0][1] == 1:
        return e[0][0]
    return e


def ecmp(e, f) -> int:
    """Order on exponents; an atom compares as the normal form w^atom."""
    if isinstance(e, Eps) and isinstance(f, Eps):
        return ncmp(e.index, f.index)
    return ncmp(_as_num(e), _as_num(f))


def ncmp(a, b) -> int:
    """Sign of a - b for normal forms: the first differing term decides."""
    for (ea, ca), (eb, cb) in zip(a, b):
        c = ecmp(ea, eb)
        if c > 0:
            return 1 if ca > 0 else -1
        if c < 0:
            return -1 if cb > 0 else 1
        if ca != cb:
            return 1 if ca > cb else -1
    if len(a) > len(b):
        return 1 if a[len(b)][1] > 0 else -1
    if len(b) > len(a):
        return -1 if b[len(a)][1] > 0 else 1
    return 0


def nfrom_terms(pairs) -> tuple:
    merged = {}
    for e, c in pairs:
        e = _norm_exp(e) if not isinstance(e, Eps) else e
        merged[e] = merged.get(e, 0) + Fraction(c)
    items = [(e, c) for e, c in merged.items() if c]
    items.sort(key=cmp_to_key(lambda p, q: ecmp(p[0], q[0])), reverse=True)
    return tuple(items)


def nadd(a, b):
    return nfrom_terms(list(a) + list(b))


def nneg(a):
    return tuple((e, -c) for e, c in a)


def nmul(a, b):
    return nfrom_terms((nadd(_as_num(e), _as_num(f)), c * d)
                       for e, c in a for f, d in b)


def nsign(a) -> int:
    return 0 if not a else (1 if a[0][1] > 0 else -1)


def ord_to_num(o):
    return nfrom_terms((ord_to_num(e), Fraction(c)) for e, c in o)


def render_number(x) -> str:
    if not x:
        return "0"
    parts = []
    for e, c in x:
        if isinstance(e, Eps):
            base = "eps[%s]" % render_number(e.index)
            parts.append(base if c == 1 else "%s*%s" % (base, c))
        elif e == NZERO:
            parts.append(str(c))
        elif e == NUM_ONE:
            parts.append("w*%s" % c)
        elif len(e) == 1 and e[0][0] == NZERO and e[0][1].denominator == 1:
            parts.append("w^%s*%s" % (e[0][1], c))
        else:
            parts.append("w^(%s)*%s" % (render_number(e), c))
    return " + ".join(parts)


def number_json(x):
    return [[{"eps": number_json(e.index)} if isinstance(e, Eps)
             else number_json(e), [c.numerator, c.denominator]] for e, c in x]


def number_from_json(data) -> tuple:
    """Read omegacalc's JSON normal form as stored, without re-sorting."""
    out = []
    for ej, (num, den) in data:
        e = Eps(number_from_json(ej["eps"])) if isinstance(ej, dict) \
            else number_from_json(ej)
        out.append((e, Fraction(num, den)))
    return tuple(out)


def number_text(x) -> str:
    """An input expression for x in omegacalc's number syntax."""
    if not x:
        return "0"
    parts = []
    for e, c in x:
        if isinstance(e, Eps):
            base = "eps[%s]" % number_text(e.index)
        elif e == NZERO:
            parts.append("(%s)" % c)
            continue
        else:
            base = "w^(%s)" % number_text(e)
        parts.append("%s*(%s)" % (base, c))
    return " + ".join(parts)


# -- rational-exponent power series ------------------------------------------


def _smul(a: dict, b: dict) -> dict:
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            out[e + f] = out.get(e + f, 0) + c * d
    return {e: c for e, c in out.items() if c}


def _sadd(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def _partial_sum(d: dict, coeffs) -> dict:
    """sum_n coeffs[n] * d^n."""
    acc, power = {}, {Fraction(0): Fraction(1)}
    for n, k in enumerate(coeffs):
        if n:
            power = _smul(power, d)
        if k:
            acc = _sadd(acc, power, k)
    return acc


def series_partial_sum(kind: str, terms, order: int):
    """The order-N partial sum of 1/x ('inv'), exp or ln at x = sum of
    c * w^e over ``terms`` [(e, c), ...] with rational e, leading first.

    Returned as a normal form whose exponents are normal forms: for exp the
    common factor w^(P/w) of the purely infinite part P is folded into each
    exponent.
    """
    (e1, c1), tail = terms[0], terms[1:]
    if kind == "inv":
        d = {e - e1: c / c1 for e, c in tail}
        s = _partial_sum(d, [(-1) ** n for n in range(order)])
        return _series_num({e - e1: c / c1 for e, c in s.items()}, {})
    if kind == "exp":
        shift = {e - 1: c for e, c in terms if e > 0}
        d = {e: c for e, c in terms if e < 0}
        s = _partial_sum(d, [Fraction(1, factorial(n)) for n in range(order)])
        return _series_num(s, shift)
    if kind == "ln":
        if c1 != 1:
            raise ValueError("ln needs a leading coefficient of 1")
        d = {e - e1: c for e, c in tail}
        s = _partial_sum(d, [0] + [Fraction((-1) ** (n - 1), n)
                                   for n in range(1, order + 1)])
        if e1:
            s[Fraction(1)] = e1
        return _series_num(s, {})
    raise ValueError(kind)


def _series_num(s: dict, shift: dict):
    out = []
    for q in sorted(s, reverse=True):
        expo = dict(shift)
        expo[Fraction(0)] = expo.get(Fraction(0), 0) + q
        e = tuple((rat(k), v)
                  for k, v in sorted(expo.items(), reverse=True) if v)
        out.append((e, s[q]))
    return tuple(out)


def trusted_prefix(low, high) -> int:
    """How many leading terms of the order-N sum ``low`` agree with the
    order-(N+8) sum ``high``: the terms above the true order."""
    n = 0
    for a, b in zip(low, high):
        if a != b:
            break
        n += 1
    return n


# -- founded set terms and skand descriptions ---------------------------------


def term_key(t):
    if isinstance(t, str):
        return (0, t)
    return (1, tuple(sorted(term_key(e) for e in t)))


def render_set(t) -> str:
    if isinstance(t, str):
        return t
    return "{%s}" % ",".join(render_set(e) for e in sorted(t, key=term_key))


def parse_set(text: str):
    text = text.strip()
    if not text.startswith("{"):
        return text
    inner = text[1:-1]
    if not inner:
        return frozenset()
    return frozenset(parse_set(p) for p in _split_top(inner, ","))


def render_segments(segs) -> str:
    """``segs`` = [(length, 'const'|'cycle', values)]; the last length is
    left implicit, as in omegacalc's rendering."""
    parts = []
    for i, (length, kind, values) in enumerate(segs):
        body = "%s(%s)" % (kind, ",".join(render_set(v) for v in values))
        if i + 1 < len(segs):
            body += ":%s" % render_ordinal(length)
        parts.append(body)
    return ";".join(parts)


def parse_skand_text(text: str):
    """Read 'SEGS @ [start, end)' into (start, segments)."""
    body, _, region = text.partition(" @ [")
    start_text, end_text = _split_top(region.rstrip(")"), ", ")
    start, end = parse_ordinal(start_text), parse_ordinal(end_text)
    left = osub_left(end, start)
    segs = []
    pieces = body.split(";")
    for i, piece in enumerate(pieces):
        head, _, length_text = piece.partition("):")
        kind, _, args = head.rstrip(")").partition("(")
        values = tuple(parse_set(a) for a in _split_top(args, ","))
        length = parse_ordinal(length_text) if i + 1 < len(pieces) else left
        left = osub_left(left, length)
        segs.append((length, kind, values))
    return start, segs


def seg_total(segs):
    t = OZERO
    for length, _, _ in segs:
        t = oadd(t, length)
    return t


def value_at(segs, offset):
    """Component at ``offset`` from the region start.  Cycles restart at
    every limit: at offset lambda + m inside a segment the value is
    values[m mod n], measured from the segment's own start."""
    for length, kind, values in segs:
        if ocmp(offset, length) < 0:
            if kind == "const":
                return values[0]
            return values[ofinite_part(offset) % len(values)]
        offset = osub_left(offset, length)
    raise IndexError("offset beyond the region")


def position_grid(total, top: int, finite: int):
    """Offsets a_k*w^k + ... + a_1*w + m below ``total`` with every a_i < 3
    (a_top up to the leading coefficient of total) and m <= finite."""
    lead = total[0][1] + 1 if total else 1
    grid = [OZERO]
    for k in range(top, 0, -1):
        grid = [oadd(g, ((ord_int(k), a),)) if a else g
                for g in grid for a in range(lead if k == top else 3)]
    out = []
    for g in grid:
        for m in range(finite + 1):
            p = oadd(g, ord_int(m))
            if ocmp(p, total) < 0:
                out.append(p)
    return out


def same_components(segs_a, segs_b, top: int, finite: int) -> bool:
    """Pointwise equality on the position grid (a check, not a proof)."""
    total = seg_total(segs_a)
    if total != seg_total(segs_b):
        return False
    return all(value_at(segs_a, p) == value_at(segs_b, p)
               for p in position_grid(total, top, finite))


def primitive(values) -> tuple:
    values = tuple(values)
    n = len(values)
    for p in range(1, n):
        if n % p == 0 and values == values[p:] + values[:p]:
            return values[:p]
    return values
