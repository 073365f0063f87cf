"""Per-layer tracing by wrapping omegacalc's public functions from outside.

``Tracer.install`` replaces each traced function with a wrapper: in every
omegacalc module that holds the function under any name (so re-imports such
as ``explog.mul`` are reached) and, for methods, on the class.
``Tracer.uninstall`` puts every original object back.  Nothing is patched
unless a tracer is installed, so untraced runs execute the library as
shipped.

Every wrapper shares one self-time stack: a span's self time is its
duration minus the durations of the traced calls made inside it.  Coarse
spans are also kept as records (name, start, end, parent span, line id).
The hot leaves (``HOT``) are called up to ~10^6 times per line, so for them
only calls and self time are accumulated, per line and in total.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter as clock

# span name -> (module, attribute names).  "Class.method" patches the class.
SPANS = {
    "surreal.nf_cmp": ("surreal", ["nf_cmp"]),
    "surreal.exp_cmp": ("surreal", ["exp_cmp"]),
    "surreal.from_terms": ("surreal", ["from_terms"]),
    "surreal.add": ("surreal", ["add"]),
    "surreal.mul": ("surreal", ["mul"]),
    "surreal.invert": ("surreal", ["invert"]),
    "surreal.hash": ("surreal", ["Number.__hash__"]),
    "explog.exp": ("explog", ["exp"]),
    "explog.ln": ("explog", ["ln"]),
    "ordinals.cmp": ("ordinals", ["Ordinal.cmp"]),
    "ordinals.add": ("ordinals", ["Ordinal.__add__"]),
    "ordinals.mul": ("ordinals", ["Ordinal.__mul__"]),
    "ordinals.sub_left": ("ordinals", ["Ordinal.sub_left"]),
    "ordinals.nat_add": ("ordinals", ["Ordinal.nat_add"]),
    "ordinals.nat_mul": ("ordinals", ["Ordinal.nat_mul"]),
    "ordinals.divmod_omega_pow": ("ordinals", ["divmod_omega_pow"]),
    "skands.map_equal": ("skands", ["map_equal"]),
    "skands.normalize_map": ("skands", ["normalize_map"]),
    "skands.slice_from": ("skands", ["TransfiniteMap.slice_from"]),
    "skands.is_periodic": ("skands", ["is_periodic"]),
    "skands.is_weakly_periodic": ("skands", ["is_weakly_periodic"]),
    "skands.is_strictly_periodic": ("skands", ["is_strictly_periodic"]),
    "skands.min_finite_period": ("skands", ["min_finite_period"]),
    "skands.encode_skand": ("skands", ["encode_skand"]),
    "gaps.gap_of": ("gaps", ["gap_of"]),
    "gaps.jump_report": ("gaps", ["jump_report"]),
    "gaps.left_right_construct": ("gaps", ["left_right_construct"]),
    "exprs.parse": ("exprs", ["parse_number_expr", "parse_number",
                              "parse_ordinal", "parse_skand"]),
    "exprs.render": ("exprs", ["render_number", "render_ordinal",
                               "render_segments", "render_setterm",
                               "brace_render", "number_to_json",
                               "ordinal_to_json"]),
    "cli.run_line": ("cli", ["run_line"]),
}
HOT = {"surreal.nf_cmp", "surreal.exp_cmp", "ordinals.cmp", "surreal.hash"}
LAYERS = ["surreal", "explog", "ordinals", "skands", "gaps", "exprs", "cli"]
WORK_COUNTS = ["surreal.from_terms.pairs_in", "surreal.from_terms.terms_out",
               "surreal.mul.products", "surreal.result_terms"]


def targets():
    """(span name, owner, attribute, original) for every traced object,
    including each module-level alias of a traced function."""
    out = []
    mods = [m for n, m in sorted(sys.modules.items())
            if n == "omegacalc" or n.startswith("omegacalc.")]
    for name, (modname, attrs) in SPANS.items():
        mod = importlib.import_module("omegacalc." + modname)
        for attr in attrs:
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(mod, cls)
                out.append((name, owner, meth, owner.__dict__[meth]))
                continue
            fn = getattr(mod, attr)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        out.append((name, m, key, fn))
    return out


class Tracer:
    def __init__(self):
        # a frame is [start, child time, span index]; the root frame
        # collects the time of top-level calls
        self.stack = [[0.0, 0.0, -1]]
        self.totals = {name: [0, 0.0] for name in SPANS}
        self.counts = dict.fromkeys(WORK_COUNTS, 0)
        self.spans = []
        self.hot_lines = []
        self.line_id = -1
        self._hot = {}
        self._saved = []
        self._eval_line = False

    # -- per line ----------------------------------------------------------

    def begin_line(self, line_id: int, text: str):
        self.line_id = line_id
        self._hot = {name: [0, 0.0] for name in HOT}
        self._eval_line = text.split(" ", 1)[0].strip() in ("eval", "nf")

    def end_line(self):
        self.hot_lines.append((self.line_id, self._hot))

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn):
        stack, spans = self.stack, self.spans
        total = self.totals[name]
        counter = _COUNTERS.get(name)
        hot = name in HOT
        tracer = self

        def traced(*args, **kwargs):
            if counter is not None:
                args = counter.before(tracer, args)
            frame = [clock(), 0.0, -1 if hot else len(spans)]
            parent = stack[-1][2]
            if not hot:
                spans.append((name,))
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                stack[-1][1] += dur
                own = dur - frame[1]
                total[0] += 1
                total[1] += own
                if hot:
                    acc = tracer._hot[name]
                    acc[0] += 1
                    acc[1] += own
                else:
                    spans[frame[2]] = (name, frame[0], end, parent,
                                       tracer.line_id)
            if counter is not None:
                counter.after(tracer, args, result, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrapped = {}
        for name, owner, attr, original in targets():
            if original not in wrapped:
                wrapped[original] = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[original])

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results --------------------------------------------------------------

    def metrics(self):
        out = {}
        for name, (calls, own) in self.totals.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = own
        out.update(self.counts)
        return out

    def layer_shares(self):
        """Self time per layer over the time spent inside run_line."""
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for name, (_, own) in self.totals.items():
            by_layer[name.split(".")[0]] += own
        whole = sum(by_layer.values()) or 1.0
        return {layer: t / whole for layer, t in by_layer.items()}


class _Counter:
    """Work counts taken from a traced call's arguments and result."""

    @staticmethod
    def before(tracer, args):
        return args

    @staticmethod
    def after(tracer, args, result, parent):
        pass


class _FromTerms(_Counter):
    """Merge yield: pairs offered to from_terms against terms kept."""

    @staticmethod
    def before(tracer, args):
        pairs = list(args[0])
        tracer.counts["surreal.from_terms.pairs_in"] += len(pairs)
        return (pairs,) + args[1:]

    @staticmethod
    def after(tracer, args, result, parent):
        tracer.counts["surreal.from_terms.terms_out"] += len(result.terms)


class _Mul(_Counter):
    @staticmethod
    def before(tracer, args):
        a, b = args[0], args[1]
        tracer.counts["surreal.mul.products"] += len(a.terms) * len(b.terms)
        return args


class _Parse(_Counter):
    """Terms of each eval/nf answer: the outermost parse of such a line."""

    @staticmethod
    def after(tracer, args, result, parent):
        if tracer._eval_line and parent >= 0 and \
                tracer.spans[parent][0] == "cli.run_line" and \
                hasattr(result, "value"):
            tracer.counts["surreal.result_terms"] += len(result.value.terms)


_COUNTERS = {"surreal.from_terms": _FromTerms, "surreal.mul": _Mul,
             "exprs.parse": _Parse}
