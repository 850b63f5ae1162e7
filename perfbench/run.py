"""meroconn benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen): ``canonical``,
``dictionary``, ``stokes_betti`` and ``cli``.  Inputs come from
``gen.py`` and depend only on the workload and the seed.  The program
is the checkout's ``src/meroconn``; the run fails if it is not there.

Load is a closed loop with one client: one item at a time, in fresh
worker interpreters started from here (``worker.py``).  A run times a
fixed number of items per workload (ITEMS): whole repetitions of the
workload's mix and at least 100, so that ten samples lie beyond the p90
and every run and every commit measures the same work.  ``--seconds``
only bounds it: no item starts later than --seconds + 45 s after the
start (a traced run: --seconds).  On the reference sandbox a run takes
20-40 s.

Times are calibrated for the host's speed drift: see ``worker.calibrated``.
The uncalibrated figures are printed too.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
three fresh set-ups), items per second, p50 and p90 item time, and peak
resident memory.  ``--trace 1`` reports the per-layer metrics: each item
is run untraced and then traced, and the outside-in tracer
(``tracer.py``) gives self time and call counts per layer, per traced
item, plus the tracing overhead; the spans are kept in
``perfbench/_work/spans-<workload>.csv``.  Every item's output is checked in both
modes.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracer import parse_importtime  # noqa: E402
from worker import PROBE_REF_S, READY_MARK  # noqa: E402

SETUPS = 3
# Timed items per run: whole blocks of each workload's mix (gen.py).
ITEMS = {"canonical": 100, "dictionary": 100, "stokes_betti": 144, "cli": 100}
# How far past --seconds an untraced run may go to finish its items.
GRACE_S = 45.0
BARE_RUNS = 5
# A worker that has not finished this long after its last item may start
# is killed.
WORKER_TIMEOUT_S = 60.0

END_TO_END = [
    ("setup_s", "s"), ("items_per_s", "1/s"), ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"), ("peak_rss_mb", "MB"),
]

# Per-layer metrics: (name, unit).  Layer figures are per traced item
# unless the unit says otherwise.
_PER_ITEM_CALLS_SELF = [
    "_kernel.qconv", "_kernel.scalar", "series.mul", "series.inverse", "lmatrix.mat_mul",
    "lmatrix.mat_inv", "lmatrix.CMat.mul", "lmatrix.CMat.inv", "connection.canonical_reduce",
    "residues.charpoly", "residues.gaussian_eigenvalues", "correspondence.rank1_monodromy_oracle",
    "angles.compare", "angles.principal", "stokes.anti_stokes", "betti.check_stability",
    "rootdata.enumerate_parabolics_containing_T",
]
_PER_ITEM_SELF = [
    "connection.gauge_act", "connection.gauge_orbit_equal", "connection.extract_irregular_type",
    "residues.jordan_decompose", "residues.sl2_complete_blockwise", "correspondence.dR_to_Dol",
    "correspondence.dR_to_Betti", "correspondence.monodromy_numeric",
    "modelmetric.pseudo_curvature", "modelmetric.higgs_extraction",
    "modelmetric.sl2_identity_suite", "modelmetric.weight_jump_check", "stokes.half_periods",
    "stokes.stokes_dim_check", "betti.check_relation", "betti.group_act", "betti.irreducible",
]
_PER_ITEM_CALLS = ["angles.cos_sign", "angles.interval", "correspondence.structure",
                   "betti.is_compatible"]
CLI_IMPORTS = ["meroconn", "sympy", "numpy", "scipy", "mpmath"]

PER_LAYER = (
    [(f"{layer}.calls", "calls/item") for layer in _PER_ITEM_CALLS_SELF + _PER_ITEM_CALLS]
    + [(f"{layer}.self_s", "s/item") for layer in _PER_ITEM_CALLS_SELF + _PER_ITEM_SELF]
    + [("_kernel.qconv.coeff_products", "count/item"), ("_kernel.qconv.max_den_bits", "bits"),
       ("residues.gaussian_eigenvalues.errors", "count/item"),
       ("correspondence.structure.per_datum", "calls/datum"),
       ("angles.interval.escalated", "calls/item"), ("angles.precision_errors", "count/item"),
       ("betti.is_compatible.hit_ratio", "ratio"), ("jsonio.decode.self_s", "s"),
       ("cli.interpreter_s", "s")]
    + [(f"cli.import.{pkg}_s", "s") for pkg in CLI_IMPORTS]
    + [("cli.compute_s", "s"), ("trace.overhead_frac", "ratio")]
)


def git_sha():
    """HEAD of the checkout from .git files, without running git (which
    would search parent directories); "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Worker:
    """A worker process; ``ready_s`` is the time from start to READY."""

    def __init__(self, args, stderr=None, xopts=()):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *xopts, str(HERE / "worker.py"), *args],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr, text=True)
        line = self.proc.stdout.readline().split()
        self.raw_ready_s = time.perf_counter() - t0
        if line[:1] == ["READY"]:
            # calibrated by the worker's probes at its start and at READY
            self.ready_s = self.raw_ready_s * PROBE_REF_S * 2 / (float(line[1]) + float(line[2]))
        else:
            self.wait(10.0)
            raise RuntimeError(f"worker failed during set-up (exit {self.proc.returncode})")

    def wait(self, timeout):
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("worker did not finish in time")
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")


def bare_interpreter_s():
    times = []
    for _ in range(BARE_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1] if len(xs) > 1 else xs[0]


def end_to_end_metrics(res, setups):
    s = res["samples"]
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": len(s) / sum(s),
        "item_ms_p50": 1e3 * statistics.median(s),
        "item_ms_p90": 1e3 * percentile(s, 90),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer_metrics(workload, tr, interpreter_s, proc_imports, setup_s):
    layers, counters = tr["layers"], tr["counters"]
    n = max(len(tr["traced"]), 1)
    out = {}

    def layer(name, key):
        rec = layers.get(name)
        return None if rec is None else rec[key]

    for name in _PER_ITEM_CALLS_SELF + _PER_ITEM_CALLS:
        out[f"{name}.calls"] = (layer(name, "calls") or 0) / n
    for name in _PER_ITEM_CALLS_SELF + _PER_ITEM_SELF:
        out[f"{name}.self_s"] = (layer(name, "self_s") or 0.0) / n
    out["_kernel.qconv.coeff_products"] = counters.get("_kernel.qconv.coeff_products", 0) / n
    out["_kernel.qconv.max_den_bits"] = counters.get("_kernel.qconv.max_den_bits", 0)
    out["residues.gaussian_eigenvalues.errors"] = (
        (layer("residues.gaussian_eigenvalues", "errors") or 0) / n)
    structure = layer("correspondence.structure", "calls") or 0
    out["correspondence.structure.per_datum"] = structure / tr["datums"] if tr["datums"] else 0.0
    out["angles.interval.escalated"] = counters.get("angles.interval.escalated", 0) / n
    out["angles.precision_errors"] = counters.get("angles.precision_errors", 0) / n
    compat = layer("betti.is_compatible", "calls") or 0
    out["betti.is_compatible.hit_ratio"] = (
        counters.get("betti.is_compatible.hits", 0) / compat if compat else 0.0)
    out["jsonio.decode.self_s"] = layer("jsonio.decode", "self_s") or 0.0
    out["cli.interpreter_s"] = interpreter_s
    if workload == "cli":
        imports = {pkg: sec / n for pkg, sec in tr["imports"].items()}
        # from the traced calls, whose imports -X importtime measured
        compute = statistics.mean(t - imp for t, imp in zip(tr["wall"], tr["import_total"])
                                  ) - interpreter_s
    else:
        imports, _, before = proc_imports
        compute = setup_s - interpreter_s - before
    for pkg in CLI_IMPORTS:
        out[f"cli.import.{pkg}_s"] = imports.get(pkg, 0.0)
    out["cli.compute_s"] = compute
    out["trace.overhead_frac"] = sum(tr["traced"]) / sum(tr["untraced"]) - 1.0
    # a layer whose trace target no longer exists has no metrics
    return {k: v for k, v in out.items() if not any(k.startswith(m + ".") for m in tr["missing"])}


def run(args, workdir):
    inputs = gen.generate(args.workload, args.seed)
    (workdir / "inputs.json").write_text(json.dumps(inputs))
    if args.workload == "cli":
        for item in [inputs["warmup"]] + inputs["items"]:
            for fname, _, doc in item["files"].values():
                (workdir / fname).write_text(json.dumps(doc))
    deadline = time.monotonic() + args.seconds + (0 if args.trace else GRACE_S)
    common = ["--workload", args.workload, "--inputs", str(workdir / "inputs.json"),
              "--workdir", str(workdir), "--deadline", repr(deadline),
              "--items", str(args.items or ITEMS[args.workload]),
              "--out", str(workdir / "result.json")]
    timeout = args.seconds + GRACE_S + WORKER_TIMEOUT_S
    if not args.trace:
        setups, raw_setups = [], []
        for k in range(SETUPS):
            last = k == SETUPS - 1
            w = Worker(common + ["--mode", "run" if last else "setup"])
            setups.append(w.ready_s)
            raw_setups.append(w.raw_ready_s)
            w.wait(timeout)
        res = json.loads((workdir / "result.json").read_text())
        res["uncalibrated"] = end_to_end_metrics(
            dict(res, samples=res["raw_samples"]), raw_setups)
        return res, end_to_end_metrics(res, setups), setups
    interpreter_s = bare_interpreter_s()
    err_path = workdir / "worker.err"
    with open(err_path, "w", encoding="utf-8") as err:
        w = Worker(common + ["--mode", "trace"], stderr=err, xopts=("-X", "importtime"))
        w.wait(timeout)
    err_text = err_path.read_text()
    for line in err_text.splitlines():
        if not line.startswith("import time:") and line != READY_MARK:
            print(line, file=sys.stderr)
    res = json.loads((workdir / "result.json").read_text())
    # keep the spans of the latest traced run of each workload
    if (workdir / "spans.csv").exists():
        (workdir / "spans.csv").replace(workdir.parent / f"spans-{args.workload}.csv")
    tr = res["trace"]
    proc_imports = parse_importtime(err_text, READY_MARK)
    metrics = per_layer_metrics(args.workload, tr, interpreter_s, proc_imports, w.ready_s)
    return res, metrics, [w.ready_s]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--items", type=int, default=0,
                    help="timed items (default: the workload's fixed count)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "meroconn" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'meroconn'} not found; run from a meroconn checkout",
              file=sys.stderr)
        return 2
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        res, metrics, setups = run(args, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(res["failures"])
    samples = res["samples"]
    units = dict(END_TO_END if not args.trace else PER_LAYER)
    meta = dict(res["meta"], git_sha=git_sha(), nproc=os.cpu_count(), seed=args.seed)
    print(f"# meroconn benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  trace={args.trace}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"# set-up times s: {' '.join(f'{s:.4f}' for s in setups)}")
    if args.trace:
        print(f"# items timed: {len(samples)} untraced + {len(res['trace']['traced'])} traced")
    else:
        beyond = sum(1 for s in samples if s * 1e3 > metrics["item_ms_p90"])
        print(f"# items timed: {len(samples)}  beyond p90: {beyond}")
    print(f"# failed_fraction {failed / res['attempted']:.6g}  ({failed} of {res['attempted']})")
    for idx, fails in res["failures"][:10]:
        print(f"#   item {idx}: {'; '.join(fails)}", file=sys.stderr)
    print(f"# output_sha256 {res['digest']}  (first {res['digest_items']} pool items)")
    if "uncalibrated" in res:
        print("# uncalibrated: " + "  ".join(f"{k} {v:.6g}" for k, v in res["uncalibrated"].items()))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
