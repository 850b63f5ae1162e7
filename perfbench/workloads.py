"""The four workloads: how an item is decoded, run and checked.

``decode`` turns a generated item into program inputs through
``meroconn.jsonio`` (part of set-up).  ``run`` is the timed call into
the program.  ``check`` is untimed and returns a list of failure
messages, comparing against the generator's independent expectations
where one exists.  ``encode`` gives the JSON-able outputs that go into
the workload's output digest; float-valued numeric outputs are left out
of it for the in-process workloads (they are checked by tolerance).

Program functions are looked up on their modules at call time, so the
tracer's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen
from tracer import merge_summary, parse_importtime

HERE = Path(__file__).resolve().parent

# mpmath precision (bits) for the numeric monodromy and the RK4 oracle.
MONODROMY_PREC = 120
ORACLE_STEPS = 1024
ORACLE_PREC = 64


def _frac_list(xs):
    return [Fraction(x) for x in xs]


def _irregular_key(doc):
    """Order-independent comparison key of an encoded irregular type."""
    return (int(doc["n"]), sorted((int(j), [gen.dec_g(c) for c in v])
                                  for j, v in doc["coeffs"].items()))


class InProcess:
    """Tracing for workloads that call the library in this process."""

    def run_traced(self, tracer, item_id, it):
        """Run the item again under the tracer."""
        tracer.install()
        try:
            tracer.run_item(item_id, self.run, it)
        except Exception:
            pass  # the untraced run of the same item records the failure
        finally:
            tracer.uninstall()

    def trace_summary(self, tracer):
        out = tracer.summary()
        out["per_item"] = tracer.per_item()
        return out

    def write_spans(self, tracer, path):
        tracer.write(path)


class Canonical(InProcess):
    datum_kinds = ()

    def __init__(self, m):
        self.m = m

    def decode(self, item):
        jsonio = self.m.jsonio
        out = {"kind": item["kind"], "n": item["n"], "trunc": item["trunc"],
               "theta": jsonio.dec_weight(item["theta"], validate=True),
               "conn": jsonio.dec_connection(item["conn"]),
               "expect": item["expect"]}
        if item["kind"] == "invariance":
            out["gauge"] = jsonio.dec_lmatrix(item["gauge"])
        return out

    def run(self, it):
        conn_mod = self.m.connection
        theta, trunc, conn = it["theta"], it["trunc"], it["conn"]
        if it["kind"] == "invariance":
            gauged = conn_mod.gauge_act(it["gauge"], conn)
            q0 = conn_mod.extract_irregular_type(conn, theta, trunc)
            q1 = conn_mod.extract_irregular_type(gauged, theta, trunc)
            return {"q0": q0, "q1": q1}
        canonical, g = conn_mod.canonical_reduce(conn, theta, trunc)
        form = canonical.as_connection(trunc)
        reproduces = conn_mod.gauge_orbit_equal(conn, form, g)
        re_form, re_gauge = conn_mod.canonical_reduce(form, theta, trunc)
        return {"canonical": canonical, "gauge": g, "reproduces": reproduces,
                "re_form": re_form, "re_gauge": re_gauge}

    def check(self, it, out):
        jsonio = self.m.jsonio
        want = _irregular_key(it["expect"]["irregular_type"])
        fails = []
        if it["kind"] == "invariance":
            if jsonio.enc_irregular(out["q0"]) != jsonio.enc_irregular(out["q1"]):
                fails.append("irregular type changed under the parahoric gauge")
            if _irregular_key(jsonio.enc_irregular(out["q0"])) != want:
                fails.append("irregular type differs from the input's polar part")
            return fails
        if not out["reproduces"]:
            fails.append("gauge does not reproduce the canonical form")
        ident = self.m.lmatrix.LaurentMatrix.identity(it["n"])
        if not out["re_gauge"].agrees(ident):
            fails.append("re-reduction is not idempotent")
        if jsonio.enc_canonical(out["re_form"]) != jsonio.enc_canonical(out["canonical"]):
            fails.append("re-reduction changed the canonical form")
        if _irregular_key(jsonio.enc_irregular(out["canonical"].irregular_type())) != want:
            fails.append("canonical polar part differs from the input's")
        return fails

    def encode(self, it, out):
        jsonio = self.m.jsonio
        if it["kind"] == "invariance":
            return [jsonio.enc_irregular(out["q0"]), jsonio.enc_irregular(out["q1"])]
        return [jsonio.enc_canonical(out["canonical"]), jsonio.enc_lmatrix(out["gauge"])]


class Dictionary(InProcess):
    datum_kinds = ("dictionary",)

    def __init__(self, m):
        self.m = m

    def decode(self, item):
        jsonio = self.m.jsonio
        out = {"kind": "dictionary", "local": jsonio.dec_de_rham(item["local"]),
               "residue_doc": item["local"]["residue"], "beta_doc": item["local"]["beta"],
               "expect": item["expect"], "weight_jump": item["weight_jump"], "oracle": None}
        if item["oracle"]:
            q = item["oracle"]["q"]
            out["oracle"] = (jsonio.dec_fraction(item["oracle"]["b"]),
                             jsonio.dec_irregular(q) if q else None)
        return out

    def run(self, it):
        corr, mm = self.m.correspondence, self.m.modelmetric
        d = it["local"]
        dol = corr.dR_to_Dol(d)
        roundtrip = corr.roundtrip_weight_check(d)
        bet = corr.dR_to_Betti(d, prec=MONODROMY_PREC)
        mono = bet.monodromy_numeric(MONODROMY_PREC)
        data = mm.MetricData.from_de_rham(d)
        out = {"dol": dol, "roundtrip": roundtrip, "betti": bet, "mono": mono,
               "pseudo": mm.pseudo_curvature(data), "curv": mm.curvature_e0(data),
               "identities": mm.sl2_identity_suite(data.triple),
               "higgs": mm.higgs_extraction(data), "H": data.triple.H,
               "oracle": None, "jump": None}
        if it["oracle"]:
            b, q = it["oracle"]
            out["oracle"] = corr.rank1_monodromy_oracle(b, q, steps=ORACLE_STEPS,
                                                        prec=ORACLE_PREC)
        if it["weight_jump"]:
            out["jump"] = mm.weight_jump_check(data)
        return out

    def check(self, it, out):
        import mpmath

        jsonio, mm = self.m.jsonio, self.m.modelmetric
        exp = it["expect"]
        fails = []
        if not out["roundtrip"]:
            fails.append("roundtrip_weight_check: gamma + alpha != beta")
        alpha = out["dol"].alpha.entries
        gamma = out["betti"].gamma.entries
        if list(alpha) != _frac_list(exp["alpha"]):
            fails.append("Dolbeault alpha != Re(s)")
        if list(gamma) != _frac_list(exp["gamma"]):
            fails.append("Betti gamma != beta - Re(s)")
        if _irregular_key(jsonio.enc_irregular(out["dol"].q)) != _irregular_key(exp["half_q"]):
            fails.append("Dolbeault irregular type is not Q/2")
        # independent numeric monodromy: expm(-2 pi i R) of the input residue
        rows = [[gen.dec_g(x) for x in row] for row in it["residue_doc"]]
        n = len(rows)
        with mpmath.workprec(MONODROMY_PREC):
            full = mpmath.matrix([[mpmath.mpc(mpmath.mpf(x[0].numerator) / x[0].denominator,
                                              mpmath.mpf(x[1].numerator) / x[1].denominator)
                                   for x in row] for row in rows])
            want = mpmath.expm(-2j * mpmath.pi * full)
            err = max(abs(complex(want[i, j]) - out["mono"][i][j])
                      for i in range(n) for j in range(n))
        if not err <= 1e-10:
            fails.append(f"monodromy differs from expm by {err:.2e}")
        if not out["pseudo"].is_zero():
            fails.append("pseudo-curvature is nonzero")
        if out["curv"] != mm.TPoly.of((2, out["H"].scale(2))):
            fails.append("orthonormal curvature != 2H t^2")
        if not out["identities"].all_pass:
            fails.append(f"sl2 identities failed: {out['identities'].failed()}")
        if jsonio.enc_cmat(out["higgs"].residue) != jsonio.enc_cmat(out["dol"].residue):
            fails.append("Higgs residue differs from the dictionary residue")
        if it["oracle"]:
            want_m = complex(*exp["multiplier"])
            if not abs(out["oracle"] - want_m) <= 1e-8:
                fails.append(f"rank-1 oracle off by {abs(out['oracle'] - want_m):.2e}")
        if it["weight_jump"]:
            rep = out["jump"]
            beta = _frac_list(it["beta_doc"])
            targets_dr = [2 * float(b) for b in beta]
            targets_dol = [2 * float(a) for a in _frac_list(exp["alpha"])]
            for got, want_t in ((rep.de_rham_exponents, targets_dr),
                                (rep.dolbeault_exponents, targets_dol)):
                if not all(abs(g - w) <= rep.tolerance * max(1.0, abs(w))
                           for g, w in zip(got, want_t)):
                    fails.append(f"weight-jump exponents {got} != {want_t}")
        return fails

    def encode(self, it, out):
        jsonio = self.m.jsonio
        bet = out["betti"]
        return {
            "alpha": jsonio.enc_weight(out["dol"].alpha),
            "dol_residue": jsonio.enc_cmat(out["dol"].residue),
            "gamma": jsonio.enc_weight(bet.gamma),
            "semisimple": [f"{f.p}/{f.q}" if hasattr(f, "p") else None
                           for f in bet.semisimple_factor],
            "nilpotent": {str(k): jsonio.enc_cmat(v)
                          for k, v in bet.nilpotent_factor.coeffs.items()},
            "identities": [list(r) for r in out["identities"].results],
            "higgs_residue": jsonio.enc_cmat(out["higgs"].residue),
        }


def _relation_holds(rep_doc):
    """Evaluate prod [A, B] * prod C^-1 h S_last ... S_1 C with exact
    Fractions, independently of the library's matrices."""
    mat = lambda m: [[gen.dec_g(x) for x in row] for row in m]  # noqa: E731
    n = len(rep_doc["punctures"][0]["C"]) if rep_doc["punctures"] else len(rep_doc["handles"][0][0])
    acc = gen.identity(n)
    for a_doc, b_doc in rep_doc["handles"]:
        a, b = mat(a_doc), mat(b_doc)
        comm = gen.mat_mul(gen.mat_mul(gen.mat_mul(a, b), gen.mat_inv(a)), gen.mat_inv(b))
        acc = gen.mat_mul(acc, comm)
    for p in rep_doc["punctures"]:
        word = mat(p["h"])
        for s in reversed(p["S"]):
            word = gen.mat_mul(word, mat(s))
        c = mat(p["C"])
        acc = gen.mat_mul(acc, gen.mat_mul(gen.mat_mul(gen.mat_inv(c), word), c))
    return acc == gen.identity(n)


class StokesBetti(InProcess):
    datum_kinds = ()

    def __init__(self, m):
        self.m = m

    def decode(self, item):
        jsonio = self.m.jsonio
        kind = item["kind"]
        if kind == "stokes":
            return {"kind": kind, "q": jsonio.dec_irregular(item["q"]), "k": item["pole"],
                    "expect": item["expect"]}
        if kind == "betti":
            return {"kind": kind, "rep": jsonio.dec_rep(item["rep"]),
                    "g": jsonio.dec_cmat(item["g"]),
                    "ks": [jsonio.dec_cmat(k) for k in item["ks"]]}
        n = item["n"]
        zero = [["0"] * n for _ in item["weights"]]
        return {"kind": kind, "rep": jsonio.dec_rep(item["rep"]),
                "zero": jsonio.dec_filtered_rep(item["rep"], zero),
                "weighted": jsonio.dec_filtered_rep(item["rep"], item["weights"]),
                "expect": item["expect"]}

    def run(self, it):
        stokes, betti = self.m.stokes, self.m.betti
        if it["kind"] == "stokes":
            diag = stokes.anti_stokes(it["q"])
            half = stokes.half_periods(diag)
            return {"diag": diag, "half": half, "dim": stokes.stokes_dim_check(diag, half)}
        if it["kind"] == "betti":
            before = betti.check_relation(it["rep"])
            moved = betti.group_act(it["g"], it["ks"], it["rep"])
            return {"before": before, "moved": moved, "after": betti.check_relation(moved)}
        return {"zero": betti.check_stability(it["zero"]),
                "weighted": betti.check_stability(it["weighted"]),
                "irreducible": betti.irreducible(it["rep"])}

    def check(self, it, out):
        fails = []
        if it["kind"] == "stokes":
            lhs, rhs = out["dim"]
            if not lhs == rhs == it["expect"]["dim"]:
                fails.append(f"dimension count {lhs} / {rhs}, expected {it['expect']['dim']}")
            got = sorted(float(d.angle) for d in out["diag"].directions)
            want = it["expect"]["angles"]
            if len(got) != len(want) or any(abs(g - w) > 1e-9 for g, w in zip(got, want)):
                fails.append("anti-Stokes directions differ from the float computation")
            step = math.pi / it["k"]
            if not all(any(gen.angle_close(a + step, b) for b in got) for a in got):
                fails.append("direction set is not invariant under rotation by pi/k")
            return fails
        if it["kind"] == "betti":
            if not (out["before"] and out["after"]):
                fails.append("check_relation rejects a relation-satisfying representation")
            if not _relation_holds(self.m.jsonio.enc_rep(out["moved"])):
                fails.append("relation broken by the group action")
            return fails
        irr = it["expect"]["irreducible"]
        if out["irreducible"] != irr:
            fails.append(f"irreducible() = {out['irreducible']}, constructed {irr}")
        want = "stable" if irr else "semistable"
        if out["zero"].status != want:
            fails.append(f"zero-weight verdict {out['zero'].status}, irreducibility says {want}")
        if irr and out["weighted"].status != "stable":
            fails.append("irreducible representation is not stable for random weights")
        return fails

    def encode(self, it, out):
        jsonio = self.m.jsonio
        if it["kind"] == "stokes":
            dirs = []
            for d in out["diag"].directions:
                ratio = d.angle.pi_ratio()
                dirs.append([jsonio.enc_fraction(ratio) if ratio is not None else None,
                             [[r.i, r.j] for r in d.roots()]])
            half = out["half"]
            return {"directions": dirs, "dim": list(out["dim"]),
                    "u_plus": sorted([r.i, r.j] for r in half.u_plus),
                    "p_plus": jsonio.enc_parabolic(half.p_plus)}
        if it["kind"] == "betti":
            return jsonio.enc_rep(out["moved"])

        def verdict(v):
            return [v.status, [[jsonio.enc_parabolic(p), jsonio.enc_character(c),
                                jsonio.enc_fraction(d)] for p, c, d in v.witnesses]]
        return [verdict(out["zero"]), verdict(out["weighted"]), out["irreducible"]]


class Cli:
    """``python -m meroconn.cli`` as a subprocess, one call at a time.
    The check compares exit code and document with an in-process
    ``meroconn.cli.main`` call on the same arguments."""

    datum_kinds = ("translate-dol", "translate-betti", "verify-metric", "verify-metric-numeric")

    def __init__(self, m, root, workdir):
        self.m = m
        self.root = root
        self.workdir = workdir
        self.env = cli_env(root)
        self._expected = {}
        self._trace = {"layers": {}, "counters": {}, "per_item": {}, "missing": [],
                       "imports": {}, "import_total": [], "wall": []}
        self._spans = workdir / "cli-spans.csv"
        self._span_count = 0

    def decode(self, item):
        """Decode the item's documents through jsonio (validating them as
        the CLI will) and bind its argv to the files written for it."""
        jsonio = self.m.jsonio
        decoders = {
            "connection": jsonio.dec_connection,
            "weight": lambda doc: jsonio.dec_weight(doc, validate=True),
            "irregular": jsonio.dec_irregular,
            "rep": jsonio.dec_rep,
            "weights": lambda doc: [jsonio.dec_weight(w) for w in doc],
            "local": jsonio.dec_de_rham,
        }
        paths = {}
        for key, (fname, kind, doc) in item["files"].items():
            decoders[kind](doc)
            paths[key] = str(self.workdir / fname)
        argv = [a.format(**paths) for a in item["argv"]]
        return {"kind": item["command"], "argv": argv, "exit": item["exit"], "id": item["id"]}

    def run(self, it):
        return subprocess.run([sys.executable, "-m", "meroconn.cli", *it["argv"]],
                              cwd=self.root, env=self.env, capture_output=True, text=True)

    def expected(self, it):
        if it["id"] not in self._expected:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    rc = self.m.cli.main(list(it["argv"]))
                except SystemExit as exc:  # argparse rejected the arguments
                    rc = exc.code
            text = buf.getvalue()
            self._expected[it["id"]] = (rc, json.loads(text) if text else None)
        return self._expected[it["id"]]

    def check(self, it, out):
        fails = []
        if out.returncode != it["exit"]:
            fails.append(f"exit code {out.returncode}, expected {it['exit']}: {out.stderr[-300:]}")
        try:
            doc = json.loads(out.stdout)
        except ValueError:
            return fails + ["stdout is not a JSON document"]
        if doc.get("format") != "meroconn/1":
            fails.append("document lacks format meroconn/1")
        rc, want = self.expected(it)
        if rc != out.returncode or doc != want:
            fails.append("output differs from the in-process call")
        return fails

    def encode(self, it, out):
        return out.stdout

    def run_traced(self, tracer, item_id, it):
        """Run the call once more through the tracing shim under
        ``-X importtime``."""
        stats, spans = self.workdir / "shim-stats.json", self.workdir / "shim-spans.csv"
        stats.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", str(HERE / "cli_shim.py"),
                               str(stats), str(spans), *it["argv"]],
                              cwd=self.root, env=self.env, capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        by_pkg, total, _ = parse_importtime(proc.stderr)
        for pkg, sec in by_pkg.items():
            self._trace["imports"][pkg] = self._trace["imports"].get(pkg, 0.0) + sec
        self._trace["import_total"].append(total)
        self._trace["wall"].append(elapsed)
        if not stats.exists():
            return  # the shim failed; the untraced run of the item records why
        with open(stats, encoding="utf-8") as fh:
            summary = json.load(fh)
        merge_summary(self._trace, summary)
        self._trace["per_item"][item_id] = summary["per_item"]["0"]
        self._trace["missing"] = summary["missing"]
        self._append_spans(spans, item_id)

    def _append_spans(self, path, item_id):
        """Add one call's spans to the run's span list, renumbering the
        parent indices and setting the item id."""
        lines = path.read_text().splitlines()
        with open(self._spans, "a", encoding="utf-8") as out:
            if not self._span_count:
                out.write(lines[0] + "\n")
            for line in lines[1:]:
                name, start, end, parent, _, scalar = line.split(",")
                parent = int(parent) + self._span_count if int(parent) >= 0 else -1
                out.write(f"{name},{start},{end},{parent},{item_id},{scalar}\n")
        self._span_count += len(lines) - 1

    def write_spans(self, tracer, path):
        if self._span_count:
            self._spans.replace(path)

    def trace_summary(self, tracer):
        return self._trace


def cli_env(root):
    return dict(os.environ, PYTHONPATH=str(root / "src"))


WORKLOADS = {"canonical": Canonical, "dictionary": Dictionary,
             "stokes_betti": StokesBetti, "cli": Cli}
