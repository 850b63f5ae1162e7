"""Command-line front door.

One binary, subcommand style, JSON-only I/O with a versioned format
field.  Exit codes: 0 success / property verified, 1 property violation
(witnesses included in the report) or internal error, 2 input error,
usage errors included.

Each subcommand imports the modules it runs when it is called, so a call
loads only its own side of the library: ``jsonio`` brings the field and
the torus data (``field``, ``rootdata``), ``canonical-form`` adds the
Laurent layers and ``connection``, the Stokes and Betti commands add
``angles``, ``stokes`` and ``betti``, and the dictionary commands add
``correspondence``, with ``residues`` for ``translate`` and
``verify-metric`` (``oracle-monodromy`` needs no residue structure).
No command loads a dependency: angles, the monodromy and the oracle's
constants are decided or evaluated on integer enclosures, and every
float printed is the double nearest to its exact value, whatever the
precision (``oracle-monodromy --precision`` sets the oracle's binary
point, not that rule).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__, jsonio
from .errors import InternalError, PrecisionError
from .jsonio import FORMAT

if TYPE_CHECKING:
    from .angles import AngleExpr

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _InputError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise _InputError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        )


class _InputError(Exception):
    pass


def _emit(doc, indent=2) -> None:
    try:
        print(json.dumps(doc, indent=indent, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point fd 1 at devnull so that the
        # flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _parts(z: complex):
    return [repr(z.real), repr(z.imag)]


def _angle_doc(angle: AngleExpr):
    ratio = angle.pi_ratio()
    return {
        "pi_multiple": jsonio.enc_fraction(ratio) if ratio is not None else None,
        "radians": repr(float(angle)),
    }


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_canonical_form(args) -> int:
    from .connection import canonical_reduce

    conn = jsonio.dec_connection(_load(args.input))
    theta = None
    if args.weight:
        theta = jsonio.dec_weight(_load(args.weight), validate=True)
    canonical, gauge = canonical_reduce(conn, theta, args.trunc)
    q = canonical.irregular_type()
    _emit({
        "format": FORMAT,
        "command": "canonical-form",
        "canonical": jsonio.enc_canonical(canonical),
        "gauge": jsonio.enc_lmatrix(gauge),
        "irregular_type": jsonio.enc_irregular(q),
    })
    return EXIT_OK


def cmd_antistokes(args) -> int:
    from .stokes import anti_stokes

    q = jsonio.dec_irregular(_load(args.irregular_type))
    diagram = anti_stokes(q)
    doc = {
        "format": FORMAT,
        "command": "antistokes",
        "num_directions": diagram.num_directions,
        "k": diagram.k,
        "l": diagram.l,
        "directions": [
            {
                "angle": _angle_doc(d.angle),
                "roots": [[r.i, r.j] for r in d.roots()],
            }
            for d in diagram.directions
        ],
    }
    _emit(doc)
    if args.emit_plot_data:
        with open(args.emit_plot_data, "w", encoding="utf-8") as fh:
            fh.write("angle,roots\n")
            for d in diagram.directions:
                roots = ";".join(f"{r.i}-{r.j}" for r in d.roots())
                fh.write(f"{float(d.angle)!r},{roots}\n")
    return EXIT_OK


def cmd_stokes_dim(args) -> int:
    from .stokes import anti_stokes, half_periods, stokes_dim_check

    q = jsonio.dec_irregular(_load(args.irregular_type))
    diagram = anti_stokes(q)
    half = half_periods(diagram)
    lhs, rhs = stokes_dim_check(diagram, half)
    _emit({
        "format": FORMAT,
        "command": "stokes-dim",
        "lhs": lhs,
        "rhs": rhs,
        "equal": lhs == rhs,
        "u_plus": sorted([r.i, r.j] for r in half.u_plus),
        "u_minus": sorted([r.i, r.j] for r in half.u_minus),
        "p_plus_blocks": jsonio.enc_parabolic(half.p_plus),
    })
    return EXIT_OK if lhs == rhs else EXIT_VIOLATION


def cmd_translate(args) -> int:
    from .correspondence import dR_to_Betti, dR_to_Dol
    local = jsonio.dec_de_rham(_load(args.input))
    if args.to == "dol":
        dol = dR_to_Dol(local)
        _emit({
            "format": FORMAT,
            "command": "translate",
            "from": "dR",
            "to": "dol",
            "alpha": jsonio.enc_weight(dol.alpha),
            "residue": jsonio.enc_cmat(dol.residue),
            "irregular_type": jsonio.enc_irregular(dol.q),
        })
    else:
        bet = dR_to_Betti(local)
        num = bet.monodromy_numeric()
        _emit({
            "format": FORMAT,
            "command": "translate",
            "from": "dR",
            "to": "betti",
            "gamma": jsonio.enc_weight(bet.gamma),
            "semisimple_factor": [
                {"root_of_unity": f"{f.p}/{f.q}"} if hasattr(f, "p")
                else {"numeric": _parts(f.numeric())}
                for f in bet.semisimple_factor
            ],
            "nilpotent_factor_pi_coeffs": {
                str(k): jsonio.enc_cmat(m)
                for k, m in bet.nilpotent_factor.coeffs.items()
            },
            "monodromy_numeric": [[_parts(x) for x in row] for row in num],
            "irregular_type": jsonio.enc_irregular(bet.q),
        })
    return EXIT_OK


def cmd_check_relation(args) -> int:
    from .betti import check_relation

    rep = jsonio.dec_rep(_load(args.rep))
    holds = check_relation(rep)
    _emit({
        "format": FORMAT,
        "command": "check-relation",
        "holds": holds,
    })
    return EXIT_OK if holds else EXIT_VIOLATION


def cmd_stability(args) -> int:
    from .betti import check_stability

    rep_doc = _load(args.rep)
    weights_doc = _load(args.weights)
    filtered = jsonio.dec_filtered_rep(rep_doc, weights_doc)
    verdict = check_stability(filtered)
    _emit({
        "format": FORMAT,
        "command": "stability",
        "status": verdict.status,
        "witnesses": [
            {
                "parabolic_blocks": jsonio.enc_parabolic(p),
                "character": jsonio.enc_character(chi),
                "degree": jsonio.enc_fraction(d),
            }
            for p, chi, d in verdict.witnesses
        ],
    })
    return EXIT_OK if verdict.status == "stable" else EXIT_VIOLATION


def cmd_verify_metric(args) -> int:
    from .correspondence import dR_to_Dol
    from .modelmetric import (MetricData, TPoly, curvature_e0, higgs_extraction,
                              pseudo_curvature, sl2_identity_suite,
                              weight_jump_check)

    local = jsonio.dec_de_rham(_load(args.input))
    data = MetricData.from_de_rham(local)
    identities = sl2_identity_suite(data.triple)
    pc = pseudo_curvature(data)
    ce = curvature_e0(data)
    expected = TPoly.of((2, data.triple.H.scale(2)))
    ops = higgs_extraction(data)
    residue_ok = ops.residue == dR_to_Dol(local).residue
    checks = {
        "sl2_identities": identities.all_pass,
        "pseudo_curvature_vanishes": pc.is_zero(),
        "curvature_is_2H_t2": ce == expected,
        "higgs_residue_matches_dictionary": residue_ok,
    }
    doc = {
        "format": FORMAT,
        "command": "verify-metric",
        "checks": checks,
        "failed_identities": identities.failed(),
    }
    if args.numeric:
        report = weight_jump_check(data)
        doc["weight_jump"] = {
            "de_rham_exponents": [jsonio.enc_fraction(x) for x in report.de_rham_exponents],
            "de_rham_pass": report.de_rham_pass,
            "dolbeault_exponents": [jsonio.enc_fraction(x) for x in report.dolbeault_exponents],
            "dolbeault_pass": report.dolbeault_pass,
        }
        checks["weight_jump"] = report.all_pass
    _emit(doc)
    return EXIT_OK if all(checks.values()) else EXIT_VIOLATION


def cmd_oracle_monodromy(args) -> int:
    from .correspondence import expected_multiplier, rank1_monodromy_oracle

    try:
        b = Fraction(args.b)
    except ValueError:
        raise _InputError(f"bad rational exponent {args.b!r}")
    q = None
    if args.irregular_type:
        q = jsonio.dec_irregular(_load(args.irregular_type))
    got = rank1_monodromy_oracle(b, q, steps=args.steps, prec=args.precision)
    want = expected_multiplier(b)
    err = abs(got - want)
    _emit({
        "format": FORMAT,
        "command": "oracle-monodromy",
        "b": jsonio.enc_fraction(b),
        "multiplier": _parts(got),
        "expected": _parts(want),
        "abs_error": repr(err),
        "matches": err < 1e-8,
        "orientation": "+1 (counterclockwise)",
    })
    return EXIT_OK if err < 1e-8 else EXIT_VIOLATION


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    report = run_selftest(seed=args.seed, trunc=args.trunc, quick=args.quick)
    _emit(report)
    return EXIT_OK if report["passed"] else EXIT_VIOLATION


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors reach ``main`` as input errors, so
    they end in a JSON document and exit 2 like every other one.  The
    usage text still goes to stderr."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _InputError(f"{self.prog}: {message}")


def _glue_negative_values(argv):
    """argparse reads a negative value such as -1/2 or -1e3 after an
    option as an option of its own; pass it as --opt=-1/2 instead (no
    meroconn option starts with a digit)."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-\.?\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meroconn",
        description="Exact computations for formal meromorphic connections: "
                    "canonical forms, Stokes data, local correspondences and "
                    "model-metric checks.",
    )
    parser.add_argument("--version", action="version",
                        version=f"meroconn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canonical-form", help="reduce a connection to canonical form")
    p.add_argument("--input", required=True, help="connection JSON file")
    p.add_argument("--weight", help="weight JSON file (list of rationals)")
    p.add_argument("--trunc", type=int, default=12)
    p.set_defaults(fn=cmd_canonical_form)

    p = sub.add_parser("antistokes", help="anti-Stokes directions of an irregular type")
    p.add_argument("--irregular-type", required=True)
    p.add_argument("--emit-plot-data", help="write (angle, roots) CSV here")
    p.set_defaults(fn=cmd_antistokes)

    p = sub.add_parser("stokes-dim", help="Stokes-space dimension bookkeeping")
    p.add_argument("--irregular-type", required=True)
    p.set_defaults(fn=cmd_stokes_dim)

    p = sub.add_parser("translate", help="translate local data between sides")
    p.add_argument("--from", dest="source", default="dR", choices=["dR"])
    p.add_argument("--to", required=True, choices=["dol", "betti"])
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("check-relation", help="evaluate the defining relation")
    p.add_argument("--rep", required=True)
    p.set_defaults(fn=cmd_check_relation)

    p = sub.add_parser("stability", help="R-stability of a filtered representation")
    p.add_argument("--rep", required=True)
    p.add_argument("--weights", required=True)
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("verify-metric", help="model-metric lemma checks")
    p.add_argument("--input", required=True, help="local de Rham data JSON")
    p.add_argument("--numeric", action="store_true", help="include the exact weight-jump report")
    p.set_defaults(fn=cmd_verify_metric)

    p = sub.add_parser("oracle-monodromy", help="rank-1 numeric monodromy oracle")
    p.add_argument("--b", required=True, help="rational residue exponent p/q")
    p.add_argument("--irregular-type", help="scalar irregular type JSON")
    p.add_argument("--steps", type=int, default=8192)
    p.add_argument("--precision", type=int, default=128)
    p.set_defaults(fn=cmd_oracle_monodromy)

    p = sub.add_parser("selftest", help="run the seeded invariant suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trunc", type=int, default=12)
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # Every module's input error (FormatError, ReductionError,
    # StokesError, CorrespondenceError, ...) is a ValueError; argparse's
    # usage errors arrive as _InputError.
    try:
        args = parser.parse_args(_glue_negative_values(argv))
        return args.fn(args)
    except (_InputError, ValueError, ZeroDivisionError, PrecisionError) as exc:
        error, code = str(exc), EXIT_INPUT
    except InternalError as exc:
        error, code = str(exc), EXIT_VIOLATION
    _emit({"format": FORMAT, "error": error}, indent=None)
    return code


if __name__ == "__main__":
    sys.exit(main())
