import ast
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from meroconn import angles, jsonio
from meroconn.angles import nearest_double
from meroconn.cli import main
from meroconn.connection import MeroConnection
from meroconn.correspondence import expected_multiplier
from meroconn.field import CMat, gr
from meroconn.lmatrix import LaurentMatrix as LM
from meroconn.randomgen import rand_connection, rand_relation_rep
from meroconn.rootdata import IrregularType
from meroconn.series import INF, LaurentSeries as LS

DATA = Path(__file__).parent / "data"


def run_cli(*argv, capsys=None):
    """Drive the CLI in-process; returns (exit_code, parsed_json)."""
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------
# encoding round trips
# ---------------------------------------------------------------------

def test_fraction_and_gauss_roundtrip():
    assert jsonio.enc_fraction(F(3, 1)) == "3"
    assert jsonio.enc_fraction(F(-5, 7)) == "-5/7"
    g = gr(F(1, 2), F(-3, 4))
    assert jsonio.dec_gauss(jsonio.enc_gauss(g)) == g
    assert jsonio.dec_gauss("7/3") == gr(F(7, 3))


def test_series_matrix_roundtrip():
    rng = random.Random(91)
    s = LS.from_dict({-2: gr(1, 2), 3: gr(F(1, 7))}, trunc=9)
    assert jsonio.dec_series(jsonio.enc_series(s)) == s
    exact = LS.from_dict({0: 1})
    assert jsonio.dec_series(jsonio.enc_series(exact)).trunc == INF
    conn = rand_connection(rng, 3, 2, 6)
    doc = jsonio.enc_connection(conn)
    back = jsonio.dec_connection(doc)
    assert back.B == conn.B


def test_irregular_and_rep_roundtrip():
    q = IrregularType(2, {2: (gr(1), gr(-1)), 1: (gr(F(1, 2)), gr(0))})
    assert jsonio.dec_irregular(jsonio.enc_irregular(q)) == q
    rep = rand_relation_rep(random.Random(92), 1, 1)
    back = jsonio.dec_rep(jsonio.enc_rep(rep))
    assert back.genus == rep.genus
    assert back.handles == rep.handles
    assert back.punctures[0].h == rep.punctures[0].h
    assert back.punctures[0].S == rep.punctures[0].S


def test_format_errors():
    with pytest.raises(jsonio.FormatError):
        jsonio.dec_gauss(3.5)
    with pytest.raises(jsonio.FormatError):
        jsonio.dec_series({"coeffs": []})
    with pytest.raises(jsonio.FormatError):
        jsonio.dec_irregular({"n": 2, "coeffs": {"0": [{"re": "1", "im": "0"}]}})


# ---------------------------------------------------------------------
# CLI subcommands against committed fixtures
# ---------------------------------------------------------------------

def test_cli_canonical_form(capsys):
    code, doc = run_cli(
        "canonical-form", "--input", str(DATA / "conn_gl2.json"),
        "--trunc", "12", capsys=capsys,
    )
    assert code == 0
    assert doc["canonical"]["residue"] == jsonio.enc_cmat(CMat.zero(2))
    assert doc["canonical"]["polar"]["1"] == jsonio.enc_cmat(CMat.diag([1, -1]))
    assert doc["irregular_type"]["coeffs"]["1"] == [
        {"im": "0", "re": "-1"}, {"im": "0", "re": "1"}]


def test_cli_antistokes_and_plot(tmp_path, capsys):
    csv = tmp_path / "plot.csv"
    code, doc = run_cli(
        "antistokes", "--irregular-type", str(DATA / "q_gl2.json"),
        "--emit-plot-data", str(csv), capsys=capsys,
    )
    assert code == 0
    assert doc["num_directions"] == 4 and doc["k"] == 2 and doc["l"] == 1
    assert [d["angle"]["pi_multiple"] for d in doc["directions"]] == \
        ["0", "1/2", "1", "3/2"]
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "angle,roots"
    assert len(lines) == 5


def test_cli_stokes_dim(capsys):
    code, doc = run_cli("stokes-dim", "--irregular-type",
                        str(DATA / "q_gl3.json"), capsys=capsys)
    assert code == 0
    assert doc["lhs"] == doc["rhs"] == 6


def test_cli_translate_both_sides(capsys):
    code, doc = run_cli("translate", "--to", "dol", "--input",
                        str(DATA / "local_nilpotent.json"), capsys=capsys)
    assert code == 0
    assert doc["residue"] == jsonio.enc_cmat(
        CMat.unit(2, 1, 0) - CMat.diag([1, -1]) + CMat.unit(2, 0, 1))
    code, doc = run_cli("translate", "--to", "betti", "--input",
                        str(DATA / "local_semisimple.json"), capsys=capsys)
    assert code == 0
    assert doc["gamma"] == ["-1/4", "1/4"]
    assert doc["semisimple_factor"][0] == {"root_of_unity": "1/2"}


_HUGE, _TINY = ["-inf", "-inf"], ["-0.0", "-0.0"]


@pytest.mark.parametrize("im, numeric", [
    ("100", ["-3.751809447791302e+272", "-6.498324583891469e+272"]),
    ("-100", ["-6.663451422011198e-274", "-1.1541436416690479e-273"]),
    ("100000", _HUGE), ("-100000", _TINY), ("1000000", _HUGE), ("-1000000", _TINY),
    ("10000000", _HUGE), ("-10000000", _TINY), ("100000000", _HUGE), ("-100000000", _TINY)])
def test_cli_translate_betti_at_large_imaginary_residues(tmp_path, capsys, monkeypatch,
                                                         im, numeric):
    """exp(-2 pi i s) for s = 1/3 + im i is exp(2 pi im) (-1/2 - i sqrt(3)/2):
    past the double range its parts print as infinities and signed zeros,
    from enclosures whose integers stay short, however large |im| is."""
    bits = []

    def recorded(enclose, is_zero, message):
        def logged(prec):
            out = enclose(prec)
            bits.append(max(abs(v).bit_length() for v in out))
            return out
        return nearest_double(logged, is_zero, message)

    monkeypatch.setattr(angles, "nearest_double", recorded)
    local = tmp_path / "local.json"
    local.write_text(json.dumps({
        "format": "meroconn/1", "kind": "de_rham_local", "beta": ["0"],
        "q": {"coeffs": {}, "n": 1}, "residue": [[{"re": "1/3", "im": im}]]}))
    code, doc = run_cli("translate", "--to", "betti", "--input", str(local), capsys=capsys)
    assert code == 0
    assert doc["semisimple_factor"] == [{"numeric": numeric}]
    assert doc["monodromy_numeric"] == [[numeric]]
    # exp(2 pi |im|) alone has about 9 |im| bits; here, under 1500 for |im| <= 10^8
    assert bits and max(bits) <= 2048, max(bits)


def test_cli_check_relation_and_stability(tmp_path, capsys):
    code, doc = run_cli("check-relation", "--rep", str(DATA / "rep_gl2.json"),
                        capsys=capsys)
    assert code == 0 and doc["holds"] is True
    # rank 0: the empty matrices invert, and the relation holds
    rank0 = tmp_path / "rep_rank0.json"
    rank0.write_text(json.dumps({"genus": 1, "handles": [[[], []]], "punctures": []}))
    code, doc = run_cli("check-relation", "--rep", str(rank0), capsys=capsys)
    assert code == 0 and doc["holds"] is True
    code, doc = run_cli("stability", "--rep", str(DATA / "rep_gl2.json"),
                        "--weights", str(DATA / "weights_zero.json"),
                        capsys=capsys)
    assert code == 0 and doc["status"] == "stable"


def test_cli_verify_metric(capsys):
    code, doc = run_cli("verify-metric", "--input",
                        str(DATA / "local_nilpotent.json"), "--numeric",
                        capsys=capsys)
    assert code == 0
    assert all(doc["checks"].values())


def test_cli_oracle(capsys):
    code, doc = run_cli("oracle-monodromy", "--b", "1/2", "--steps", "1024",
                        "--precision", "64", capsys=capsys)
    assert code == 0 and doc["matches"] is True


def test_cli_oracle_expected_value_ignores_precision(capsys):
    # at 4 bits the oracle is coarse, but the table value exp(2 pi i / 3)
    # and the error against it are not
    code, doc = run_cli("oracle-monodromy", "--b", "1/3", "--steps", "64",
                        "--precision", "4", capsys=capsys)
    assert doc["expected"] == ["-0.5", "0.8660254037844386"]
    got = complex(*map(float, doc["multiplier"]))
    assert doc["abs_error"] == repr(abs(got - expected_multiplier(F(1, 3))))
    assert code == 1 and doc["matches"] is False


def test_cli_oracle_overflow_prints_infinities(capsys):
    # 2 pi b / 4 is about 1.6e400 per step: the multiplier overflows a
    # double, and the document reports it instead of a traceback
    code, doc = run_cli("oracle-monodromy", "--b", "1e400", "--steps", "4",
                        capsys=capsys)
    assert code == 1 and doc["matches"] is False
    assert doc["multiplier"] == ["inf", "-inf"] and doc["abs_error"] == "inf"


@pytest.mark.parametrize("flag, value", [("--steps", "0"), ("--steps", "-5"),
                                         ("--precision", "0"), ("--precision", "-3")])
def test_cli_oracle_rejects_bad_steps_and_precision(capsys, flag, value):
    code, doc = run_cli("oracle-monodromy", "--b", "1/2", flag, value, capsys=capsys)
    assert code == 2
    assert set(doc) == {"format", "error"} and doc["error"]


def test_cli_input_errors(tmp_path, capsys):
    code, doc = run_cli("canonical-form", "--input",
                        str(tmp_path / "missing.json"), capsys=capsys)
    assert code == 2 and "not found" in doc["error"]
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, doc = run_cli("canonical-form", "--input", str(bad), capsys=capsys)
    assert code == 2 and "line 1" in doc["error"]


@pytest.mark.parametrize("argv", [
    ["canonical-form"],                          # --input missing
    ["antistokes", "--irregular-type"],          # an option without its value
    ["oracle-monodromy", "--b", "1/2", "--steps", "many"],
    ["oracle-monodromy", "--b", "1/2", "--quick"],
    ["no-such-command"],
    [],
])
def test_cli_usage_errors_print_json(capsys, argv):
    code, doc = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert set(doc) == {"format", "error"} and doc["format"] == "meroconn/1"
    assert doc["error"].startswith("meroconn")


def test_cli_usage_error_on_the_command_line():
    proc = subprocess.run([sys.executable, "-m", "meroconn.cli", "canonical-form"],
                          capture_output=True, text=True, env=dict(os.environ))
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {
        "format": "meroconn/1",
        "error": "meroconn canonical-form: the following arguments are required: --input"}
    assert proc.stderr.startswith("usage: meroconn canonical-form")


def test_cli_oracle_negative_rational_exponent(capsys):
    rest = ("--steps", "256", "--precision", "64")
    code, doc = run_cli("oracle-monodromy", "--b", "-1/2", *rest, capsys=capsys)
    assert code == 0 and doc["b"] == "-1/2" and doc["matches"] is True
    assert run_cli("oracle-monodromy", "--b=-1/2", *rest, capsys=capsys) == (code, doc)
    assert run_cli("oracle-monodromy", "--b", "-0.5", *rest, capsys=capsys) == (code, doc)


SERIES_Z_INV = {"order_min": -1, "coeffs": [{"re": "1", "im": "0"}], "trunc": 4}
SQRT2_LOCAL = {"beta": ["0", "0"], "residue": [["0", "1"], ["2", "0"]],
               "q": {"n": 2, "coeffs": {}}}


@pytest.mark.parametrize("command, flag, doc, match", [
    ("antistokes", "--irregular-type", {"n": 2, "coeffs": [1, 2]}, "irregular type"),
    ("antistokes", "--irregular-type", {"n": 2.5, "coeffs": {"1": ["1", "2"]}},
     "field 'n' must be a positive integer, not 2.5"),
    ("antistokes", "--irregular-type", {"n": True, "coeffs": {"1": ["1"]}},
     "field 'n' must be a positive integer, not True"),
    ("antistokes", "--irregular-type", {"n": 0, "coeffs": {}},
     "field 'n' must be a positive integer, not 0"),
    ("antistokes", "--irregular-type", {"n": -1, "coeffs": {}},
     "field 'n' must be a positive integer, not -1"),
    ("antistokes", "--irregular-type", {"n": 2, "coeffs": {"1": "12"}},
     "field 'coeffs'['1'] must be a list, not '12'"),
    ("antistokes", "--irregular-type", {"n": 2, "coeffs": {"1": ["1/0", "1"]}},
     "field 'coeffs'['1']: bad rational '1/0': zero denominator"),
    ("check-relation", "--rep", [], "representation"),
    ("check-relation", "--rep", {}, "handle or a puncture"),
    ("check-relation", "--rep", {"handles": 5}, "representation"),
    ("stability", "--weights", {"weights": 5}, "weights"),
    ("stability", "--weights", [["1/2"]], "rank-2"),
    ("translate --to dol", "--input", [], "local-data"),
    ("verify-metric", "--input", [], "local-data"),
    ("canonical-form", "--input", {"B": 5}, "matrix"),
    ("canonical-form", "--input", {"B": {"entries": [[5]]}}, "series"),
    ("canonical-form", "--input", {"B": {"n": 2, "entries": [[SERIES_Z_INV]]}},
     "declares n = 2 but has dimension 1"),
    ("canonical-form", "--input", {"n": 2, "B": {"entries": [[SERIES_Z_INV]]}},
     "declares n = 2 but has dimension 1"),
    ("check-relation", "--rep", {"n": 2, "genus": 1, "handles": [[[["1"]], [["1"]]]]},
     "declares n = 2 but has dimension 1"),
    # eigenvalues +-sqrt(2): no diagonal semisimple part exists over Q(i)
    ("translate --to dol", "--input", SQRT2_LOCAL, "not in Levi normal form"),
    ("translate --to betti", "--input", SQRT2_LOCAL, "not in Levi normal form"),
    ("verify-metric", "--input", SQRT2_LOCAL, "not in Levi normal form"),
])
def test_cli_malformed_stokes_betti_inputs(tmp_path, capsys, command, flag, doc, match):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = command.split() + [flag, str(path)]
    if command == "stability":
        argv += ["--rep", str(DATA / "rep_gl2.json")]
    code, out = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert set(out) == {"format", "error"} and match in out["error"]


def test_cli_precision_error_is_an_input_error(monkeypatch, capsys):
    import meroconn.stokes
    from meroconn.angles import PrecisionError

    def give_up(q):
        raise PrecisionError("angle comparison did not resolve")

    # antistokes imports anti_stokes from meroconn.stokes when it runs
    monkeypatch.setattr(meroconn.stokes, "anti_stokes", give_up)
    code, doc = run_cli("antistokes", "--irregular-type",
                        str(DATA / "q_gl2.json"), capsys=capsys)
    assert code == 2
    assert doc == {"format": jsonio.FORMAT, "error": "angle comparison did not resolve"}


def _break_sl2_brackets(monkeypatch):
    from meroconn.residues import Sl2Data
    monkeypatch.setattr(Sl2Data, "check_brackets", lambda self: False)


def _break_jordan_chains(monkeypatch):
    import meroconn.residues
    monkeypatch.setattr(meroconn.residues, "_independent", lambda spanning, v: False)


def _break_centralizer_solve(monkeypatch):
    import meroconn.connection
    monkeypatch.setattr(meroconn.connection, "_solve_level",
                        lambda e, res, slots, rhs: [(0, 0, 1)] * len(slots))


def _break_octant_reduction(monkeypatch):
    import meroconn.angles
    from meroconn.field import GaussRat
    monkeypatch.setattr(meroconn.angles, "_octant_rotations", lambda: [GaussRat(-1)] * 8)


@pytest.mark.parametrize("breakage, argv, message", [
    (_break_sl2_brackets, ["translate", "--to", "betti", "--input", "local_nilpotent.json"],
     "internal error: sl2 bracket relations failed"),
    (_break_jordan_chains, ["translate", "--to", "betti", "--input", "local_nilpotent.json"],
     "internal error: Jordan chains do not span"),
    (_break_octant_reduction, ["antistokes", "--irregular-type", "q_gl2_oblique.json"],
     "internal error: octant reduction failed"),
    (_break_centralizer_solve, ["canonical-form", "--input", "conn_gl2_boundary.json",
                                "--weight", "weight_boundary.json"],
     "internal error: centralizer kill did not terminate"),
])
def test_cli_internal_error_is_a_json_document(tmp_path, monkeypatch, capsys,
                                               breakage, argv, message):
    # a broken invariant exits 1 with an error document, not a traceback
    (tmp_path / "q_gl2_oblique.json").write_text(json.dumps(
        {"n": 2, "coeffs": {"1": [{"re": "1", "im": "2"}, {"re": "0", "im": "0"}]}}))
    # theta = (1, 0), diag(1, 1) z^-1 + E21 z: the z^1 term is a grade-zero
    # centralizer entry, gauged away before the grades are solved
    tail = LM.monomial(CMat.diag([1, 1]), -1) + LM.monomial(CMat.unit(2, 1, 0), 1)
    (tmp_path / "conn_gl2_boundary.json").write_text(json.dumps(
        jsonio.enc_connection(MeroConnection(tail.truncate(8)))))
    (tmp_path / "weight_boundary.json").write_text(json.dumps(["1", "0"]))

    def path(name):
        return str(tmp_path / name if (tmp_path / name).exists() else DATA / name)

    argv = [path(a) if a.endswith(".json") else a for a in argv]
    breakage(monkeypatch)
    code, doc = run_cli(*argv, capsys=capsys)
    assert code == 1
    assert doc == {"format": jsonio.FORMAT, "error": message}


def test_cli_lost_reduction_window_exits_2(tmp_path, capsys):
    # theta = (1, 0), B = diag(1,1) z^-1 + E12/3 z^-1 + [[1,4],[0,7]] + E21 z:
    # the gauge steps use up the window before the residue is known
    b = (LM.monomial(CMat.diag([1, 1]), -1)
         + LM.monomial(CMat.unit(2, 0, 1).scale(F(1, 3)), -1)
         + LM.from_const(CMat([[1, 4], [0, 7]]))
         + LM.monomial(CMat.unit(2, 1, 0), 1))
    conn = tmp_path / "conn.json"
    conn.write_text(json.dumps(jsonio.enc_connection(MeroConnection(b.truncate(8)))))
    weight = tmp_path / "weight.json"
    weight.write_text(json.dumps(["1", "0"]))
    code, doc = run_cli("canonical-form", "--input", str(conn), "--weight", str(weight),
                        "--trunc", "8", capsys=capsys)
    assert code == 2
    assert set(doc) == {"format", "error"}
    assert "truncation window lost" in doc["error"]


def test_cli_violation_exit_code(tmp_path, capsys):
    # a representation violating the relation exits with code 1
    rep = rand_relation_rep(random.Random(93), 0, 1)
    doc = jsonio.enc_rep(rep)
    doc["punctures"][0]["h"] = jsonio.enc_cmat(CMat.diag([1, 1]))
    path = tmp_path / "broken_rep.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli("check-relation", "--rep", str(path), capsys=capsys)
    assert code == 1 and out["holds"] is False


# ---------------------------------------------------------------------
# determinism through the installed console script
# ---------------------------------------------------------------------

def test_console_script_deterministic_output():
    cmd = [sys.executable, "-m", "meroconn.cli", "antistokes",
           "--irregular-type", str(DATA / "q_gl2.json")]
    env = dict(os.environ)
    first = subprocess.run(cmd, capture_output=True, env=env, check=True)
    second = subprocess.run(cmd, capture_output=True, env=env, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_closed_stdout_pipe_exits_without_traceback():
    # the reader is gone before the CLI starts, so every write to stdout fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "meroconn.cli", "canonical-form",
                               "--input", str(DATA / "conn_gl2.json")],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=dict(os.environ), timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode in (0, 1, 2)
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()


def _imported_names(path):
    """(module, name) for every name a source file imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            out |= {(node.module or "", a.name) for a in node.names}
        elif isinstance(node, ast.Import):
            out |= {(a.name, "") for a in node.names}
    return out


def _module_level_imports(path):
    """The modules a source file imports when it is loaded: every import
    outside a function body."""
    out, todo = set(), list(ast.parse(path.read_text()).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ImportFrom):
            out.add(node.module or "")
        elif isinstance(node, ast.Import):
            out |= {a.name for a in node.names}
        todo += ast.iter_child_nodes(node)
    return out


def test_translate_runs_without_sympy():
    """translate and verify-metric --numeric load neither sympy (a test
    oracle) nor numpy/scipy, and no file of the package imports mpmath:
    it has no runtime dependency.  Angles need no mpmath.iv, and stokes
    reads no enclosure endpoint itself."""
    script = (
        "import sys\n"
        "from meroconn.cli import main\n"
        "codes = [main([*cmd, '--input', p]) for p in sys.argv[1:]\n"
        "         for cmd in (['translate', '--to', 'betti'], ['verify-metric', '--numeric'])]\n"
        "assert codes == [0] * len(codes), codes\n"
        "loaded = {'sympy', 'numpy', 'scipy', 'mpmath'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    inputs = [str(DATA / "local_nilpotent.json"), str(DATA / "local_semisimple.json"),
              str(DATA / "local_complex.json")]
    subprocess.run([sys.executable, "-c", script, *inputs], capture_output=True,
                   env=dict(os.environ), check=True)
    root = Path(__file__).parent.parent
    imports = re.compile(r"^\s*(import|from)\s+(sympy|numpy|scipy|mpmath)\b", re.M)
    src = root / "src" / "meroconn"
    assert not [p.name for p in src.rglob("*.py") if imports.search(p.read_text())]
    # the model-metric side is exact: not even through correspondence
    assert not re.search(r"^\s*from\s+\.correspondence\b", (src / "modelmetric.py").read_text(),
                         re.M)
    imported = {p.name: _imported_names(p) for p in src.rglob("*.py")}
    assert not [(f, m) for f, names in imported.items() for m, _ in names
                if m.split(".")[0] == "mpmath"]
    assert not {n for _, n in imported["stokes.py"]} & {"mpf_gt", "mpf_lt", "fzero"}
    # what the check reads: module-level imports and the functions' own
    assert "field" in _module_level_imports(src / "correspondence.py")
    assert ("mpmath", "") not in imported["correspondence.py"]
    tomllib = pytest.importorskip("tomllib")
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
    # the tests and perfbench keep mpmath as an oracle
    assert "mpmath" in [re.match(r"[A-Za-z0-9_.-]+", d).group()
                        for d in project["optional-dependencies"]["test"]]
