"""Runs one workload's lines through omegacalc.cli.run_line.

Started by run.py in a fresh interpreter, with ``src`` on the path.  Reads
a JSON job from stdin and writes one JSON result to stdout.  The load is a
closed loop with one caller: each line is sent when the previous one has
returned.

Untraced jobs repeat whole passes over the lines until ``seconds`` have
elapsed and time every line.  A calibration burst (calibrate.py) runs at
each pass's start and end and every ``CAL_EVERY`` seconds in between; each
line's time is scaled by the median of the ``CAL_SPAN`` bursts on either
side of it in its pass, which a single preempted burst does not move; the
result keeps each line's median raw and scaled time over the passes.
Traced jobs run one untraced pass and then one traced pass, so that their
counts are exact and repeatable and the difference of the two wall times
is the tracing overhead.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from array import array
from time import perf_counter as clock

from calibrate import burst, scaled
from omegacalc import cli
from omegacalc.errors import CalcError, ParseError


def _prepare(specs):
    options = {}
    out = []
    for s in specs:
        key = (s["max_terms"], s["json"])
        if key not in options:
            options[key] = cli.Options(max_terms=s["max_terms"],
                                       json=s["json"])
        out.append((s["text"], options[key]))
    return out


def _outcome(kind, value):
    if kind == "ok":
        return ["ok", value]
    return ["error", kind, type(value).__name__, str(value)[:200]]


CAL_EVERY = 0.05
CAL_SPAN = 3   # bursts on each side of a line that set its scale
KEEP_PASSES = 64


def run_pass(lines, sample=None, outcomes=None, unstable=None, tracer=None):
    """One pass over ``lines``; returns its wall time.  With ``sample``, a
    list, it appends every line's (raw, scaled) latency, in line order."""
    start = clock()
    if sample is not None:
        raw, segment, bursts = [], [], [burst()]
        last = clock()
    for i, (text, opts) in enumerate(lines):
        if sample is not None:
            if clock() - last > CAL_EVERY:
                bursts.append(burst())
                last = clock()
            segment.append(len(bursts) - 1)
        if tracer is not None:
            tracer.begin_line(i, text)
        t0 = clock()
        try:
            # through the module, so that a traced run_line is reached
            value = cli.run_line(text, opts)
            kind = "ok"
        except ParseError as exc:
            value, kind = exc, "ParseError"
        except CalcError as exc:
            value, kind = exc, "CalcError"
        except Exception as exc:  # a leak past the CLI's error contract
            value, kind = exc, "other"
        t1 = clock()
        if tracer is not None:
            tracer.end_line()
        if sample is not None:
            raw.append(t1 - t0)
        if outcomes is not None:
            got = _outcome(kind, value)
            if outcomes[i] is None:
                outcomes[i] = got
            elif outcomes[i][:3] != got[:3]:
                unstable[i] += 1
    if sample is not None:
        bursts.append(burst())
        speed = [statistics.median(bursts[max(0, k - CAL_SPAN + 1):
                                          k + CAL_SPAN + 1])
                 for k in range(len(bursts) - 1)]
        sample.extend((t, scaled(t, speed[k])) for t, k in zip(raw, segment))
    return clock() - start


def timed(lines, seconds):
    """Whole passes until ``seconds`` have elapsed.  The samples of the last
    ``KEEP_PASSES`` passes are kept in buffers allocated up front, so that
    peak memory does not depend on how many passes the machine managed."""
    n = len(lines)
    raw_buf = array("d", [0.0]) * (n * KEEP_PASSES)
    scaled_buf = array("d", [0.0]) * (n * KEEP_PASSES)
    outcomes = [None] * n
    unstable = [0] * n
    walls = []
    while not walls or sum(walls) < seconds:
        sample = []
        walls.append(run_pass(lines, sample, outcomes, unstable))
        row = (len(walls) - 1) % KEEP_PASSES * n
        for i, (t, s) in enumerate(sample):
            raw_buf[row + i] = t
            scaled_buf[row + i] = s
    kept = min(len(walls), KEEP_PASSES)

    def medians(buf):
        return [statistics.median(buf[p * n + i] for p in range(kept))
                for i in range(n)]

    return {"raw": medians(raw_buf), "scaled": medians(scaled_buf),
            "outcomes": outcomes, "unstable": unstable,
            "passes": len(walls), "kept": kept,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def traced(lines, trace_out):
    from tracing import Tracer

    outcomes = [None] * len(lines)
    unstable = [0] * len(lines)
    plain = run_pass(lines, outcomes=outcomes, unstable=unstable)
    tracer = Tracer()
    tracer.install()
    try:
        wall = run_pass(lines, outcomes=outcomes, unstable=unstable,
                        tracer=tracer)
    finally:
        tracer.uninstall()
    if trace_out:
        with open(trace_out, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps({"span": span[0], "start": span[1],
                                     "end": span[2], "parent": span[3],
                                     "line": span[4]}) + "\n")
            for line_id, hot in tracer.hot_lines:
                fh.write(json.dumps({"line": line_id, "hot": hot}) + "\n")
    return {"outcomes": outcomes, "unstable": unstable, "passes": 1,
            "metrics": tracer.metrics(), "shares": tracer.layer_shares(),
            "untraced_wall": plain, "wall": wall}


def main():
    job = json.load(sys.stdin)
    lines = _prepare(job["lines"])
    if job["trace"]:
        result = traced(lines, job.get("trace_out"))
    else:
        result = timed(lines, job["seconds"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
