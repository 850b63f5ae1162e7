"""One workload process: set up, report READY, then run items.

Started by run.py in a fresh interpreter.  Set-up is everything from
interpreter start to the first timed item: importing meroconn from the
checkout's ``src``, decoding the generated inputs through jsonio, and one
warm-up item.  The worker prints ``READY`` when set-up is done; with
``--mode setup`` it then exits.

``--mode run`` times ``--items`` pool items in order, one at a time
(closed loop, one client), stopping early only at ``--deadline``.
``--mode trace`` runs each item twice, untraced and traced, and adds the
per-layer trace summary.
Every item's output is checked; a failed check or an exception is
recorded and the run goes on.  The result is written as JSON to --out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Outputs of the first pool items go into the digest (computed after the
# loop for any item the loop did not reach).
DIGEST_ITEMS = 20
# Written to stderr when set-up ends in a traced run, so that -X importtime
# lines before it can be told from later ones.
READY_MARK = "perfbench: set-up done"


def _import_meroconn():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    import meroconn
    from meroconn import (betti, cli, connection, correspondence, jsonio, lmatrix,
                          modelmetric, stokes)

    if Path(meroconn.__file__).resolve().parent != ROOT / "src" / "meroconn":
        raise SystemExit(f"meroconn imported from {meroconn.__file__}, not from the checkout")
    return argparse.Namespace(meroconn=meroconn, betti=betti, cli=cli, connection=connection,
                              correspondence=correspondence, jsonio=jsonio, lmatrix=lmatrix,
                              modelmetric=modelmetric, stokes=stokes)


# The host's speed drifts by about 25% on a scale of seconds, for every
# process alike.  Each timed call is therefore bracketed by a short fixed
# pure-Python probe, and its time is scaled to the speed at which the
# probe takes PROBE_REF_S.  Reported times are these calibrated times.
PROBE_REF_S = 0.00075


def probe_s():
    """Time of a fixed ~0.75 ms pure-Python job (Fractions and a dict)."""
    t0 = time.perf_counter()
    acc, seen = Fraction(0), {}
    for k in range(1, 150):
        acc += Fraction(1, k * k + 1)
        seen[k] = acc.numerator % 7
    return time.perf_counter() - t0


def calibrated(fn, *args):
    """(result, raw seconds, calibrated seconds) of fn(*args)."""
    before = probe_s()
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        raw = time.perf_counter() - t0
        after = probe_s()
    return result, raw, raw * PROBE_REF_S * 2 / (before + after)


def _last_line(prefix):
    return prefix + traceback.format_exc(limit=3).strip().splitlines()[-1]


def run_checked(wl, it):
    """((raw, calibrated) seconds, output, failures) for one item; never
    raises.  Only the program call is timed; the check runs after."""
    errors = []

    def call():
        try:
            return wl.run(it)
        except Exception:
            errors.append(_last_line("exception: "))

    out, raw, cal = calibrated(call)
    if errors:
        return (raw, cal), None, errors
    try:
        return (raw, cal), out, wl.check(it, out)
    except Exception:
        return (raw, cal), out, [_last_line("check raised: ")]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--deadline", type=float, default=float("inf"),
                    help="time.monotonic() value after which no item is started")
    ap.add_argument("--items", type=int, required=True)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and the CLI calls it starts, so that the
        # probes measure the speed of the CPU the timed work runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe_s()
    probe_start = probe_s()  # the second call: the first one warms up
    m = _import_meroconn()
    import workloads
    from tracer import Tracer

    workdir = Path(args.workdir)
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(m, ROOT, workdir) if args.workload == "cli" else cls(m)
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    decode_tracer = Tracer() if args.mode == "trace" else None
    if decode_tracer:
        decode_tracer.install()
    warm = wl.decode(inputs["warmup"])
    pool = [wl.decode(item) for item in inputs["items"]]
    if decode_tracer:
        decode_tracer.uninstall()
    _, _, warm_fails = run_checked(wl, warm)
    # the probes let run.py calibrate the set-up time it measures
    print(f"READY {probe_start!r} {probe_s()!r}", flush=True)
    if args.mode == "setup":
        return 0
    if decode_tracer:
        print(READY_MARK, file=sys.stderr, flush=True)

    tracer = Tracer() if decode_tracer else None
    samples, raw_samples, traced, failures, outputs = [], [], [], [], {}
    datums = 0
    attempted = 1
    if warm_fails:
        failures.append(["warmup", warm_fails])
    i = 0
    while i < args.items and time.monotonic() < args.deadline:
        idx = i % len(pool)
        it = pool[idx]
        # In a traced run every other item runs traced first, so that
        # caches warmed by the first run (sympy's) favour neither side.
        if tracer and i % 2:
            traced.append(calibrated(wl.run_traced, tracer, i, it)[2])
        (raw, cal), out, fails = run_checked(wl, it)
        raw_samples.append(raw)
        samples.append(cal)
        attempted += 1
        if fails:
            failures.append([idx, fails])
        elif idx < DIGEST_ITEMS and idx not in outputs:
            outputs[idx] = wl.encode(it, out)
        if tracer and not i % 2:
            traced.append(calibrated(wl.run_traced, tracer, i, it)[2])
        if tracer:
            datums += it["kind"] in wl.datum_kinds
        i += 1

    # digest over the first pool items, whether or not the loop reached them
    for idx in range(min(DIGEST_ITEMS, len(pool))):
        if idx not in outputs:
            _, out, fails = run_checked(wl, pool[idx])
            outputs[idx] = wl.encode(pool[idx], out) if not fails else None
    digest = hashlib.sha256(json.dumps([outputs[k] for k in sorted(outputs)],
                                       sort_keys=True).encode()).hexdigest()

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    import mpmath.libmp

    result = {
        "samples": samples,
        "raw_samples": raw_samples,
        "attempted": attempted,
        "failures": failures,
        "digest": digest,
        "digest_items": len(outputs),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "meta": {"kernel": m.meroconn.active_backend(), "mpmath_backend": mpmath.libmp.BACKEND,
                 "python": sys.version.split()[0]},
    }
    if tracer:
        summary = wl.trace_summary(tracer)
        decode = decode_tracer.summary()["layers"].get("jsonio.decode")
        if decode:
            summary["layers"]["jsonio.decode"] = decode
        summary.update(traced=traced, untraced=samples[:len(traced)], datums=datums)
        result["trace"] = summary
        wl.write_spans(tracer, workdir / "spans.csv")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
