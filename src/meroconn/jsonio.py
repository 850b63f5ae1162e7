"""Stable JSON encodings for every value the CLI reads or writes.

Rationals are "p/q" strings ("p" when the denominator is 1); Gaussian
rationals are {"re": .., "im": ..}; series carry order_min, a row of
coefficients and a truncation (integer or "inf"); matrices are
row-major.  Every top-level document carries a "format" field.

Gaussian rationals decode straight to kernel triples, which series and
constant matrices hold as they are: ASCII "p" and "p/q" strings are read
with ``int``, and every other spelling that ``Fraction`` accepts (a sign
'+', spaces, decimals, exponents, non-ASCII digits, JSON numbers) goes
through ``Fraction``, errors included.

At import the module loads only ``field`` and ``rootdata``; each codec
imports the rest of the library it needs when it runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Any, Dict, List

from . import _kernel as K
from .field import CMat, GaussRat
from .rootdata import Character, IrregularType, ParabolicSpec, Weight

# For annotations only: the codecs import these modules when they run.
if TYPE_CHECKING:
    from .betti import FilteredStokesRep, StokesRep
    from .connection import CanonicalForm, MeroConnection
    from .correspondence import DeRhamLocal
    from .lmatrix import LaurentMatrix
    from .series import LaurentSeries

FORMAT = "meroconn/1"


class FormatError(ValueError):
    pass


# ----------------------------------------------------------------------
# scalars
# ----------------------------------------------------------------------

def enc_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def dec_fraction(s) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"bad rational {s!r}") from exc
    except ZeroDivisionError as exc:
        raise FormatError(f"bad rational {s!r}: zero denominator") from exc


def enc_gauss(g: GaussRat) -> Dict[str, str]:
    return {"re": enc_fraction(g.re), "im": enc_fraction(g.im)}


def _rational_pair(s):
    """(p, q) with q > 0 for the rational s in lowest terms or not: an
    ASCII "p" or "p/q" string (p with an optional '-') is read with
    ``int``; every other spelling goes through ``dec_fraction``, with its
    errors."""
    if type(s) is str:
        num, slash, den = s.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit() and (
                not slash or den.isascii() and den.isdigit() and den.strip("0")):
            try:
                return int(num), int(den) if slash else 1
            except ValueError:  # past int's digit limit: Fraction's error
                pass
    f = dec_fraction(s)
    return f.numerator, f.denominator


def _gauss_triple(obj):
    """The kernel triple of a Gaussian rational (see ``dec_gauss``)."""
    if isinstance(obj, str):
        p, q = _rational_pair(obj)
        return K.qnormalize(p, 0, q)
    if isinstance(obj, dict):
        p, q = _rational_pair(obj.get("re", 0))
        r, s = _rational_pair(obj.get("im", 0))
        return K.qnormalize(p * s, r * q, q * s)
    raise FormatError(f"bad Gaussian rational {obj!r}")


def dec_gauss(obj) -> GaussRat:
    return GaussRat.from_triple(_gauss_triple(obj))


# ----------------------------------------------------------------------
# series and matrices
# ----------------------------------------------------------------------

def enc_series(s: LaurentSeries) -> Dict[str, Any]:
    from .series import INF

    return {
        "order_min": s.order_min,
        "coeffs": [enc_gauss(GaussRat.from_triple(t)) for t in s.coeffs],
        "trunc": "inf" if s.trunc == INF else int(s.trunc),
    }


def dec_series(obj) -> LaurentSeries:
    from .series import INF, LaurentSeries

    if not isinstance(obj, dict):
        raise FormatError(f"bad series object {obj!r}")
    try:
        trunc = obj.get("trunc", "inf")
        trunc = INF if trunc == "inf" else int(trunc)
        return LaurentSeries._raw(
            int(obj["order_min"]), [_gauss_triple(c) for c in obj["coeffs"]], trunc
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad series object: {exc}") from exc


def enc_lmatrix(m: LaurentMatrix) -> Dict[str, Any]:
    """Every entry cut to ``m.trunc``, the least of the entries'."""
    from .series import INF

    return {
        "n": m.n,
        "trunc": "inf" if m.trunc == INF else int(m.trunc),
        "entries": [[enc_series(x) for x in row] for row in m.truncate(m.trunc).rows],
    }


def dec_lmatrix(obj) -> LaurentMatrix:
    from .lmatrix import LaurentMatrix
    from .series import INF

    if not isinstance(obj, dict):
        raise FormatError("matrix must be an object with 'entries'")
    try:
        trunc = obj.get("trunc", "inf")
        trunc = INF if trunc == "inf" else int(trunc)
        rows = [[dec_series(x) for x in row] for row in obj["entries"]]
        m = LaurentMatrix(rows, trunc)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad matrix object: {exc}") from exc
    _check_declared_n(obj, m.n, "matrix")
    return m


def _check_declared_n(obj, n: int, what: str) -> None:
    """An optional "n" field must state the actual dimension."""
    if "n" in obj and obj["n"] != n:
        raise FormatError(f"{what} declares n = {obj['n']!r} but has dimension {n}")


def enc_cmat(m: CMat) -> List[List[Dict[str, str]]]:
    return [[enc_gauss(x) for x in row] for row in m.rows]


def dec_cmat(obj) -> CMat:
    try:
        rows = [[_gauss_triple(x) for x in row] for row in obj]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad constant matrix: {exc}") from exc
    if any(len(row) != len(rows) for row in rows):
        raise FormatError("bad constant matrix: CMat must be square")
    return CMat._of(rows)


def enc_weight(w: Weight) -> List[str]:
    return [enc_fraction(e) for e in w.entries]


def dec_weight(obj, validate: bool = False) -> Weight:
    if not isinstance(obj, list):
        raise FormatError("weight must be a list of rationals")
    return Weight([dec_fraction(e) for e in obj], validate=validate)


def enc_character(c: Character) -> List[int]:
    return list(c.entries)


def dec_character(obj) -> Character:
    return Character([int(e) for e in obj])


# ----------------------------------------------------------------------
# irregular types, connections, canonical forms
# ----------------------------------------------------------------------

def enc_irregular(q: IrregularType) -> Dict[str, Any]:
    return {
        "n": q.n,
        "coeffs": {str(j): [enc_gauss(e) for e in ent] for j, ent in q.coeffs.items()},
    }


def dec_irregular(obj) -> IrregularType:
    if not isinstance(obj, dict) or not isinstance(obj.get("coeffs", {}), dict):
        raise FormatError("irregular type must be an object with a 'coeffs' object")
    n = obj.get("n")
    # bool is a subclass of int, and int() would truncate 2.5 or read "2"
    if type(n) is not int or n < 1:
        raise FormatError(f"irregular type field 'n' must be a positive integer, not {n!r}")
    coeffs = {}
    for j, ent in obj.get("coeffs", {}).items():
        if not isinstance(ent, list):
            raise FormatError(f"irregular type field 'coeffs'[{j!r}] must be a list, not {ent!r}")
        try:
            coeffs[int(j)] = tuple(dec_gauss(e) for e in ent)
        except ValueError as exc:
            raise FormatError(f"bad irregular type field 'coeffs'[{j!r}]: {exc}") from exc
    try:
        return IrregularType(n, coeffs)
    except ValueError as exc:
        raise FormatError(f"bad irregular type: {exc}") from exc


def enc_connection(c: MeroConnection) -> Dict[str, Any]:
    return {"format": FORMAT, "kind": "connection", "B": enc_lmatrix(c.B)}


def dec_connection(obj) -> MeroConnection:
    from .connection import MeroConnection

    if not isinstance(obj, dict) or "B" not in obj:
        raise FormatError("connection document needs a 'B' matrix")
    conn = MeroConnection(dec_lmatrix(obj["B"]))
    _check_declared_n(obj, conn.n, "connection")
    return conn


def enc_canonical(c: CanonicalForm) -> Dict[str, Any]:
    return {
        "polar": {str(j): enc_cmat(m) for j, m in sorted(c.polar.items())},
        "residue": enc_cmat(c.residue),
    }


def enc_parabolic(p: ParabolicSpec) -> List[List[int]]:
    return [list(b) for b in p.blocks]


# ----------------------------------------------------------------------
# representations
# ----------------------------------------------------------------------

def enc_rep(rep: StokesRep) -> Dict[str, Any]:
    return {
        "format": FORMAT,
        "kind": "stokes_rep",
        "genus": rep.genus,
        "handles": [[enc_cmat(a), enc_cmat(b)] for a, b in rep.handles],
        "punctures": [
            {
                "q": enc_irregular(p.diagram.q),
                "C": enc_cmat(p.C),
                "h": enc_cmat(p.h),
                "S": [enc_cmat(s) for s in p.S],
            }
            for p in rep.punctures
        ],
    }


def dec_rep(obj) -> StokesRep:
    from .betti import PunctureData, StokesRep
    from .stokes import anti_stokes

    if not isinstance(obj, dict):
        raise FormatError("representation document must be a JSON object")
    try:
        handles = tuple(
            (dec_cmat(a), dec_cmat(b)) for a, b in obj.get("handles", [])
        )
        punctures = []
        for p in obj.get("punctures", []):
            q = dec_irregular(p["q"])
            diagram = anti_stokes(q)
            punctures.append(
                PunctureData(
                    diagram=diagram,
                    C=dec_cmat(p["C"]),
                    h=dec_cmat(p["h"]),
                    S=tuple(dec_cmat(s) for s in p["S"]),
                )
            )
        if not handles and not punctures:
            raise FormatError(
                "representation needs a handle or a puncture to fix its rank"
            )
        rep = StokesRep(int(obj.get("genus", 0)), handles, tuple(punctures))
    except KeyError as exc:
        raise FormatError(f"bad representation document: missing {exc}") from exc
    except TypeError as exc:
        raise FormatError(f"bad representation document: {exc}") from exc
    _check_declared_n(obj, rep.n, "representation")
    return rep


def dec_filtered_rep(rep_obj, weights_obj) -> FilteredStokesRep:
    from .betti import FilteredStokesRep

    rep = dec_rep(rep_obj)
    if isinstance(weights_obj, dict):
        weights_obj = weights_obj.get("weights", weights_obj)
    if not isinstance(weights_obj, list):
        raise FormatError("weights must be a list of weight vectors")
    weights = tuple(dec_weight(w) for w in weights_obj)
    return FilteredStokesRep(rep, weights)


# ----------------------------------------------------------------------
# local data
# ----------------------------------------------------------------------

def dec_de_rham(obj) -> DeRhamLocal:
    from .correspondence import DeRhamLocal

    if not isinstance(obj, dict):
        raise FormatError("local-data document must be a JSON object")
    try:
        return DeRhamLocal(
            beta=dec_weight(obj["beta"]),
            residue=dec_cmat(obj["residue"]),
            q=dec_irregular(obj["q"]),
        )
    except KeyError as exc:
        raise FormatError(f"bad local-data document: missing {exc}") from exc
