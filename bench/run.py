"""omegacalc benchmark: one workload per run, judged line by line.

    python3 bench/run.py --workload series --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 2

The seeded generator in workloads.py builds a pass of input lines and their
expected outcomes.  worker.py feeds the lines to omegacalc.cli.run_line in
a fresh interpreter (closed loop, one caller, whole passes until
``--seconds`` have elapsed); this process then judges every answer against
the reference.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer ones from one traced pass.  The last line of
stdout is a JSON object: correct, attempted, failed, metrics.

Setup time is the median of several fresh-interpreter imports of
omegacalc.cli, which every ``omegacalc FILE`` invocation pays.  Every time
declared in BENCHMARK.json is scaled to a reference machine speed by
calibration bursts run next to it (calibrate.py); the raw times are printed
beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from math import ceil, floor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate as C  # noqa: E402
import reference as R  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
IMPORTS = 21
WORKER_TIMEOUT = 160
IMPORT_SNIPPET = (
    "import statistics, sys, time; t = time.perf_counter(); "
    "import omegacalc.cli; t = time.perf_counter() - t; "
    "sys.path.append(%r); from calibrate import burst; "
    "print(t, statistics.median(burst() for _ in range(5)))" % str(HERE))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"   # set iteration order, hence exact counts
    return env


def setup_seconds():
    """Median import time of omegacalc.cli over fresh interpreters (after
    one unmeasured import that may write the bytecode cache), raw and
    scaled by the calibration bursts run in each interpreter after its
    import."""
    raw, scaled = [], []
    for k in range(IMPORTS + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET],
                             env=_env(), cwd=ROOT, capture_output=True,
                             text=True, timeout=60, check=True)
        if k:
            t, b = map(float, out.stdout.split())
            raw.append(t)
            scaled.append(C.scaled(t, b))
    return statistics.median(raw), statistics.median(scaled)


def run_worker(lines, seconds, trace, trace_out=None):
    job = {"lines": [ln.spec() for ln in lines], "seconds": seconds,
           "trace": trace, "trace_out": trace_out}
    out = subprocess.run([sys.executable, str(HERE / "worker.py")],
                         input=json.dumps(job), env=_env(), cwd=ROOT,
                         capture_output=True, text=True,
                         timeout=WORKER_TIMEOUT)
    if out.returncode:
        sys.stderr.write(out.stderr)
        raise RuntimeError("worker exited with %d" % out.returncode)
    return json.loads(out.stdout)


# -- judging -----------------------------------------------------------------


def verdict(expect, out, anchors) -> str:
    """'ok', 'failed' (a listed crasher still crashing) or 'wrong'."""
    if out[0] == "error" and out[1] == "other":
        return "failed" if expect.crasher else "wrong"
    ok = out[0] == "ok"
    kind = expect.kind
    if kind == "text":
        good = ok and out[1] == expect.value
    elif kind in ("json", "either"):
        good = ok and _loads(out[1]) == expect.value
        if kind == "either" and not ok:
            good = out[1] in expect.bases
    elif kind == "series":
        good = ok and _series_ok(_loads(out[1]), *expect.value)
    elif kind == "error":
        good = not ok and out[1] in expect.bases
    elif kind == "anchor":
        good = ok
    elif kind == "differs":
        anchor = anchors[expect.key]
        good = ok and anchor[0] == "ok" and out[1] != anchor[1]
    elif kind == "normalize":
        good = ok and _normalize_ok(out[1], expect.value)
    else:
        raise ValueError(kind)
    return "ok" if good else "wrong"


def _loads(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _series_ok(answer, low, high) -> bool:
    """The full order-N partial sum, or a leading prefix of it that keeps
    every term above the true order (where orders N and N+8 disagree)."""
    if not isinstance(answer, dict) or answer.get("exact") is not False:
        return False
    terms = R.number_from_json(answer["value"])
    n = len(terms)
    return R.trusted_prefix(low, high) <= n <= len(low) and \
        terms == low[:n]


def _normalize_ok(text, segs) -> bool:
    """The canonical description starts at 0 and has the same components
    as the input on the position grid."""
    try:
        start, out = R.parse_skand_text(text)
    except (ValueError, IndexError):
        return False
    return start == R.OZERO and R.same_components(out, segs, 3, 12)


def judge(lines, result):
    anchors = {ln.expect.key: out for ln, out in zip(lines, result["outcomes"])
               if ln.expect.kind == "anchor"}
    verdicts = [verdict(ln.expect, out, anchors)
                for ln, out in zip(lines, result["outcomes"])]
    passes = result["passes"]
    attempted = passes * len(lines)
    failed = sum(passes for v in verdicts if v != "ok")
    failed += sum(n for v, n in zip(verdicts, result["unstable"])
                  if v == "ok")
    wrong = [(ln, out) for ln, out, v in
             zip(lines, result["outcomes"], verdicts) if v == "wrong"]
    return attempted, failed, wrong


# -- metrics ------------------------------------------------------------------


def tail_percentile(count: int) -> float:
    """The highest whole percentile with at least 10 of ``count`` samples
    beyond it."""
    return float(floor(100 * (1 - 10 / count)))


def end_to_end(lines, result, attempted, failed, setup):
    """Latencies are per line of the pass, each line at its median over the
    passes, and throughput is that of a pass at those latencies.  The
    declared times are scaled to the reference machine; the ``raw_`` rows
    are the same figures as measured."""
    n = len(lines)
    pct = tail_percentile(n)
    k = ceil(pct / 100 * n) - 1
    metrics = {"setup_s": (setup[1], "s")}
    for prefix, key in (("", "scaled"), ("raw_", "raw")):
        per_line = sorted(result[key])
        metrics[prefix + "line_p50_ms"] = (statistics.median(per_line) * 1e3,
                                           "ms")
        metrics[prefix + "line_tail_ms"] = (per_line[k] * 1e3, "ms")
        metrics[prefix + "lines_per_s"] = (n / sum(per_line), "1/s")
    metrics["raw_setup_s"] = (setup[0], "s")
    metrics["failed_frac"] = (failed / attempted, "ratio")
    metrics["peak_rss_mb"] = (result["maxrss_kb"] / 1024, "MB")
    return metrics, ("p%g over %d lines (%d beyond it), each the median of "
                     "the last %d of %d passes" % (
                         pct, n, n - k - 1, result["kept"],
                         result["passes"]))


def per_layer(result):
    metrics = {k: (v, "s" if k.endswith("_s") else "count")
               for k, v in result["metrics"].items()}
    for layer, share in result["shares"].items():
        metrics[layer + ".self_share"] = (share, "ratio")
    metrics["trace_overhead_s"] = (result["wall"] - result["untraced_wall"],
                                   "s")
    return metrics


def declared(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(name, seed, seconds, trace):
    lines = WORKLOADS[name](seed)
    if trace:
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        trace_out = out_dir / ("%s-seed%d.jsonl" % (name, seed))
        result = run_worker(lines, seconds, True, str(trace_out))
        metrics, note = per_layer(result), "spans in %s" % trace_out
    else:
        setup = setup_seconds()
        result = run_worker(lines, seconds, False)
    attempted, failed, wrong = judge(lines, result)
    if not trace:
        metrics, note = end_to_end(lines, result, attempted, failed,
                                   setup)
    for ln, out in wrong[:10]:
        print("WRONG %s: %r -> %r" % (ln.cell, ln.text[:120], out),
              file=sys.stderr)
    print("# %s seed=%d lines/pass=%d passes=%d attempted=%d failed=%d "
          "wrong=%d; %s" % (name, seed, len(lines), result["passes"],
                            attempted, failed, len(wrong), note))
    for key, (value, unit) in metrics.items():
        print("%-8s %-44s %14.6g %s" % (name, key, value, unit))
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                        for k in declared(trace)}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "omegacalc" / "cli.py").is_file():
        print("no omegacalc sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        rows = {}
        for name in sorted(WORKLOADS):
            out = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                 str(args.trace)], capture_output=True, text=True,
                timeout=180)
            sys.stdout.write(out.stdout.rsplit("\n", 2)[0] + "\n")
            if out.returncode:
                sys.stderr.write(out.stderr)
                return out.returncode
            rows[name] = json.loads(out.stdout.strip().splitlines()[-1])
        print(json.dumps(rows))
        return 0
    print(json.dumps(run_one(args.workload, args.seed, args.seconds,
                             bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
