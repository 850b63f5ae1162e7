"""Outside-in tracing of meroconn's public functions.

Each target is resolved by name when tracing is installed and replaced by
a wrapper: module-level functions are rebound in every ``meroconn.*``
namespace that holds them (so ``from .x import f`` call sites are seen),
and methods are replaced on their class.  Nothing under ``src/`` changes.
A target that no longer exists gives a warning and no metric.

Wrapped calls become spans (name, start, end, parent, item) kept in
compact arrays.  The scalar kernel ops are too frequent for one span per
call, so they are timed and counted into the span that encloses them.
Self time of a span is its duration minus its child spans and the scalar
ops directly inside it.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

clock = time.perf_counter

# (metric name, module, attribute path or paths).  Paths with a dot name
# a method on a class.
SPAN_TARGETS = [
    ("_kernel.qconv", "meroconn._kernel", ["qconv"]),
    ("series.mul", "meroconn.series", ["LaurentSeries.__mul__"]),
    ("series.inverse", "meroconn.series", ["LaurentSeries.inverse"]),
    ("lmatrix.mat_mul", "meroconn.lmatrix", ["mat_mul"]),
    ("lmatrix.mat_inv", "meroconn.lmatrix", ["mat_inv"]),
    ("lmatrix.CMat.mul", "meroconn.lmatrix", ["CMat.__mul__"]),
    ("lmatrix.CMat.inv", "meroconn.lmatrix", ["CMat.inv"]),
    ("connection.canonical_reduce", "meroconn.connection", ["canonical_reduce"]),
    ("connection.gauge_act", "meroconn.connection", ["gauge_act"]),
    ("connection.gauge_orbit_equal", "meroconn.connection", ["gauge_orbit_equal"]),
    ("connection.extract_irregular_type", "meroconn.connection", ["extract_irregular_type"]),
    ("residues.charpoly", "meroconn.residues", ["charpoly"]),
    ("residues.gaussian_eigenvalues", "meroconn.residues", ["gaussian_eigenvalues"]),
    ("residues.jordan_decompose", "meroconn.residues", ["jordan_decompose"]),
    ("residues.sl2_complete_blockwise", "meroconn.residues", ["sl2_complete_blockwise"]),
    ("correspondence.structure", "meroconn.correspondence", ["DeRhamLocal.structure"]),
    ("correspondence.dR_to_Dol", "meroconn.correspondence", ["dR_to_Dol"]),
    ("correspondence.dR_to_Betti", "meroconn.correspondence", ["dR_to_Betti"]),
    ("correspondence.monodromy_numeric", "meroconn.correspondence",
     ["BettiLocal.monodromy_numeric"]),
    ("correspondence.rank1_monodromy_oracle", "meroconn.correspondence",
     ["rank1_monodromy_oracle"]),
    ("modelmetric.pseudo_curvature", "meroconn.modelmetric", ["pseudo_curvature"]),
    ("modelmetric.higgs_extraction", "meroconn.modelmetric", ["higgs_extraction"]),
    ("modelmetric.sl2_identity_suite", "meroconn.modelmetric", ["sl2_identity_suite"]),
    ("modelmetric.weight_jump_check", "meroconn.modelmetric", ["weight_jump_check"]),
    ("angles.compare", "meroconn.angles", ["AngleExpr.compare"]),
    ("angles.principal", "meroconn.angles", ["AngleExpr.principal"]),
    ("angles.cos_sign", "meroconn.angles", ["cos_sign"]),
    ("angles.interval", "meroconn.angles", ["AngleExpr.interval"]),
    ("stokes.anti_stokes", "meroconn.stokes", ["anti_stokes"]),
    ("stokes.half_periods", "meroconn.stokes", ["half_periods"]),
    ("stokes.stokes_dim_check", "meroconn.stokes", ["stokes_dim_check"]),
    ("betti.check_relation", "meroconn.betti", ["check_relation"]),
    ("betti.group_act", "meroconn.betti", ["group_act"]),
    ("betti.check_stability", "meroconn.betti", ["check_stability"]),
    ("betti.irreducible", "meroconn.betti", ["irreducible"]),
    ("betti.is_compatible", "meroconn.betti", ["is_compatible"]),
    ("rootdata.enumerate_parabolics_containing_T", "meroconn.rootdata",
     ["enumerate_parabolics_containing_T"]),
    ("jsonio.decode", "meroconn.jsonio",
     ["dec_fraction", "dec_gauss", "dec_series", "dec_lmatrix", "dec_cmat", "dec_weight",
      "dec_character", "dec_irregular", "dec_connection", "dec_rep", "dec_filtered_rep",
      "dec_de_rham"]),
]

# Scalar ops reached through the kernel module attribute (GaussRat and
# series code call ``K.qadd`` and friends).
SCALAR_TARGET = ("_kernel.scalar", "meroconn._kernel", ["qadd", "qsub", "qmul", "qdiv", "qinv"])

ITEM = "item"


def _qconv_hook(tracer, args, kwargs, result):
    c = tracer.counters
    c["_kernel.qconv.coeff_products"] += len(args[0]) * len(args[1])
    if result:
        bits = max(t[2].bit_length() for t in result)
        if bits > c["_kernel.qconv.max_den_bits"]:
            c["_kernel.qconv.max_den_bits"] = bits


def _interval_hook(tracer, args, kwargs, result):
    prec = args[1] if len(args) > 1 else kwargs.get("prec", 64)
    if prec > 64:
        tracer.counters["angles.interval.escalated"] += 1


def _compatible_hook(tracer, args, kwargs, result):
    if result:
        tracer.counters["betti.is_compatible.hits"] += 1


HOOKS = {
    "_kernel.qconv": _qconv_hook,
    "angles.interval": _interval_hook,
    "betti.is_compatible": _compatible_hook,
}


def _namespaces():
    """meroconn modules whose globals may hold a target; the kernel's
    backend modules are skipped so that calls between kernel functions
    stay internal to the kernel."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "meroconn" or name.startswith("meroconn."))
            and not name.startswith("meroconn._kernel.")]


class Tracer:
    def __init__(self):
        self.names = [ITEM]
        self.ids = {ITEM: 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item_of = array("i")
        self.scalar_in = array("d")  # scalar-op time directly inside each span
        self.stack = []
        self.item = -1
        self.scalar_calls = 0
        self.scalar_loose = 0.0  # scalar-op time outside any span
        self.errors = defaultdict(int)
        self.counters = defaultdict(int)
        self.precision_errors = 0
        self._last_exc = None
        self._patches = None
        self.missing = []

    # -- spans ----------------------------------------------------------
    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item_of.append(self.item)
        self.scalar_in.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(clock())
        return idx

    def _close(self, idx):
        self.end[idx] = clock()
        self.stack.pop()

    def run_item(self, item_id, fn, *args):
        """Call fn(*args) as item ``item_id`` under a root span."""
        self.item = item_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.item = -1

    def _note_error(self, name, exc):
        self.errors[name] += 1
        if exc is not self._last_exc and type(exc).__name__ == "PrecisionError":
            self.precision_errors += 1
        self._last_exc = exc

    def _span_wrapper(self, name, fn):
        name_id = self._id(name)
        hook = HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._note_error(name, exc)
                raise
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _scalar_wrapper(self, fn):
        tracer = self

        def wrapper(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                d = clock() - t0
                tracer.scalar_calls += 1
                if tracer.stack:
                    tracer.scalar_in[tracer.stack[-1]] += d
                else:
                    tracer.scalar_loose += d

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -----------------------------------------------------
    def install(self):
        """Wrap every target that resolves.  The targets are resolved on
        the first call; later calls re-apply the same wrappers."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, orig, _ in reversed(self._patches or ()):
            setattr(owner, key, orig)

    def _plan(self):
        patches = []
        spaces = _namespaces()
        for name, module, paths in SPAN_TARGETS + [SCALAR_TARGET]:
            for path in paths:
                owner, attr = self._resolve(module, path)
                if owner is None:
                    print(f"warning: trace target {module}.{path} not found; "
                          f"metrics of {name} are omitted", file=sys.stderr)
                    self.missing.append(name)
                    continue
                if "." in path:
                    orig = owner.__dict__[attr]
                    wrapper = self._span_wrapper(name, orig)
                    patches += [(owner, key, orig, wrapper)
                                for key, val in list(owner.__dict__.items()) if val is orig]
                    continue
                orig = getattr(owner, attr)
                if name == SCALAR_TARGET[0]:
                    patches.append((owner, attr, orig, self._scalar_wrapper(orig)))
                    continue
                wrapper = self._span_wrapper(name, orig)
                patches += [(ns, key, orig, wrapper) for ns in spaces
                            for key, val in list(vars(ns).items()) if val is orig]
        return patches

    @staticmethod
    def _resolve(module, path):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None, None
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if "." in path:
            ok = attr in getattr(owner, "__dict__", {})
        else:
            ok = callable(getattr(owner, attr, None))
        return (owner, attr) if ok else (None, None)

    # -- results --------------------------------------------------------
    def self_times(self):
        """Per-span self time: duration minus child spans and scalar ops."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] - self.scalar_in[i] for i in range(n)]

    def summary(self):
        """{name: {"calls", "self_s", "errors"}} plus the derived counters."""
        selfs = self.self_times()
        out = {}
        for i, s in enumerate(selfs):
            name = self.names[self.name[i]]
            rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
            rec["calls"] += 1
            rec["self_s"] += s
        for name, count in self.errors.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})["errors"] = count
        scalar_time = sum(self.scalar_in) + self.scalar_loose
        out[SCALAR_TARGET[0]] = {"calls": self.scalar_calls, "self_s": scalar_time, "errors": 0}
        counters = dict(self.counters)
        counters["angles.precision_errors"] = self.precision_errors
        return {"layers": out, "counters": counters, "missing": sorted(set(self.missing))}

    def per_item(self):
        """{item id: (wall time, sum of traced self times below the root)}."""
        selfs = self.self_times()
        out = {}
        for i in range(len(self.start)):
            item = self.item_of[i]
            wall, inner = out.get(item, (0.0, 0.0))
            if self.name[i] == 0:
                wall += self.end[i] - self.start[i]
            else:
                inner += selfs[i] + self.scalar_in[i]
            out[item] = (wall, inner)
        return out

    def write(self, path):
        """Spans as CSV: name, start, end, parent index, item, scalar time."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,item,scalar_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.item_of[i]},{self.scalar_in[i]!r}\n")


def parse_importtime(text, mark=None):
    """Sum the self times of ``-X importtime`` lines per top-level package.

    Returns ({package: seconds}, total seconds, total seconds before the
    line ``mark``).  Lines that are not import-time lines are ignored."""
    by_pkg = defaultdict(float)
    total = before = 0.0
    seen_mark = False
    for line in text.splitlines():
        if mark is not None and line.strip() == mark:
            seen_mark = True
            continue
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        sec = int(parts[0]) / 1e6
        by_pkg[parts[2].strip().split(".")[0]] += sec
        total += sec
        if not seen_mark:
            before += sec
    return dict(by_pkg), total, before


def merge_summary(into, summary):
    """Add one summary's layers and counters into ``into`` (counts and
    times add; the ``max_`` counters take the maximum)."""
    for name, rec in summary["layers"].items():
        acc = into["layers"].setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        for key in acc:
            acc[key] += rec[key]
    for name, val in summary["counters"].items():
        old = into["counters"].get(name, 0)
        into["counters"][name] = max(old, val) if ".max_" in name else old + val
