"""The import graph stays lazy: a CLI call loads only the modules its
subcommand runs, and ``import meroconn`` loads none.

Each check runs in a fresh interpreter so that ``sys.modules`` holds
only what the code under test imported.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"


def _run(script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=dict(os.environ), check=True)
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = ("print(json.dumps(sorted(m for m in sys.modules"
           " if m.startswith('meroconn.'))))\n")


# meroconn.* modules each call loads, by side.  The kernel and the
# torus data (field, rootdata) load on every call through jsonio.
_CODECS = {"jsonio", "field", "rootdata", "_kernel", "_kernel._pykernel"}
_CLI = _CODECS | {"cli", "errors"}
_STOKES = _CLI | {"angles", "stokes"}
_DICTIONARY = _CLI | {"correspondence", "residues"}
_LAURENT = {"lmatrix", "series"}

CLOSURES = [
    # (CLI arguments or None for a bare ``import meroconn.jsonio``,
    #  modules loaded, whether mpmath is loaded: by no call, as the
    #  numbers come from angles' integer enclosures)
    (None, _CODECS, False),
    ("canonical-form --input conn_gl2.json", _CLI | _LAURENT | {"connection"}, False),
    ("antistokes --irregular-type q_gl2.json", _STOKES, False),
    ("stokes-dim --irregular-type q_gl3.json", _STOKES, False),
    ("check-relation --rep rep_gl2.json", _STOKES | {"betti"}, False),
    ("stability --rep rep_gl2.json --weights weights_zero.json", _STOKES | {"betti"}, False),
    ("translate --to dol --input local_nilpotent.json", _DICTIONARY, False),
    ("translate --to betti --input local_semisimple.json", _DICTIONARY | {"angles"}, False),
    ("oracle-monodromy --b 1/3 --irregular-type q_gl1.json --steps 512 --precision 64",
     _CLI | {"correspondence", "angles"}, False),
    ("verify-metric --input local_nilpotent.json", _DICTIONARY | _LAURENT | {"modelmetric"},
     False),
]


@pytest.mark.parametrize("command, modules, mpmath", CLOSURES,
                         ids=[re.split(r" --(?:input|irregular-type|rep) ", c)[0] if c
                              else "import jsonio" for c, _, _ in CLOSURES])
def test_each_call_loads_only_its_own_side(command, modules, mpmath):
    if command is None:
        script = "import meroconn.jsonio\n"
        argv = []
    else:
        script = ("import contextlib, io\n"
                  "from meroconn.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    assert main(sys.argv[1:]) == 0\n")
        argv = [str(DATA / a) if a.endswith(".json") else a for a in command.split()]
    loaded, has_mpmath = _run(
        "import json, sys\n" + script
        + "print(json.dumps([sorted(m[len('meroconn.'):] for m in sys.modules"
          " if m.startswith('meroconn.')), 'mpmath' in sys.modules]))\n",
        *argv)
    assert set(loaded) == modules
    assert has_mpmath is mpmath


def test_import_meroconn_loads_no_submodule():
    assert _run("import json, sys\nimport meroconn\n" + _LOADED) == []


def test_public_names_resolve_lazily():
    script = (
        "import importlib, json\n"
        "import meroconn\n"
        "for name in meroconn.__all__:\n"
        "    value = getattr(meroconn, name)\n"
        "    if name != '__version__':\n"
        "        home = importlib.import_module('meroconn.' + meroconn._SOURCE[name])\n"
        "        assert value is getattr(home, name), name\n"
        "space = {}\n"
        "exec('from meroconn import *', space)\n"
        "assert all(space[name] is getattr(meroconn, name) for name in meroconn.__all__)\n"
        "assert set(meroconn.__all__) <= set(dir(meroconn))\n"
        "from meroconn import betti, jsonio\n"
        "assert betti.__name__ == 'meroconn.betti' and jsonio.__name__ == 'meroconn.jsonio'\n"
        "try:\n"
        "    meroconn.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown name resolved')\n"
        "from meroconn import angles, errors\n"
        "assert angles.PrecisionError is errors.PrecisionError\n"
        "print(json.dumps(len(meroconn.__all__)))\n"
    )
    assert _run(script) > 50


def test_every_input_error_is_a_value_error():
    # main() maps ValueError (and PrecisionError) to exit 2 and
    # InternalError to exit 1; a new error class must fit that split
    import importlib
    import pkgutil

    import meroconn
    from meroconn.errors import InternalError, PrecisionError

    classes = set()
    for info in pkgutil.iter_modules(meroconn.__path__):
        module = importlib.import_module(f"meroconn.{info.name}")
        classes |= {v for v in vars(module).values()
                    if isinstance(v, type) and issubclass(v, Exception)
                    and v.__module__ == module.__name__}
    others = {c.__name__ for c in classes if not issubclass(c, ValueError)}
    assert others == {"InternalError", "PrecisionError", "_InputError"}
    assert {"FormatError", "ReductionError", "StokesError",
            "CorrespondenceError"} <= {c.__name__ for c in classes}
    assert not issubclass(InternalError, ValueError)
    assert not issubclass(PrecisionError, (ValueError, InternalError))
