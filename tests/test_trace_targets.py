"""Every function the perfbench tracer wraps by name exists in meroconn.

``perfbench/tracer.py`` names its targets as (metric, module, paths)
and omits the metrics of a target it cannot find, so a rename in
``src/`` would zero a per-layer metric without failing anything.  The
target lists are read from that file's source, not imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    """(metric, module, path) for each path of SPAN_TARGETS and SCALAR_TARGET."""
    found = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPAN_TARGETS", "SCALAR_TARGET"):
                found[name] = ast.literal_eval(node.value)
    assert set(found) == {"SPAN_TARGETS", "SCALAR_TARGET"}
    return [(metric, module, path)
            for metric, module, paths in found["SPAN_TARGETS"] + [found["SCALAR_TARGET"]]
            for path in paths]


def _resolves(module, path):
    """The tracer's rule: a dotted path names an attribute defined on the
    class itself, a plain one a callable of the module."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    if outer:
        return attr in vars(owner)
    return callable(getattr(owner, attr, None))


def test_every_trace_target_resolves_in_meroconn():
    targets = _targets()
    assert len(targets) > 40
    missing = [f"{metric}: {module}.{path}" for metric, module, path in targets
               if module.split(".")[0] != "meroconn" or not _resolves(module, path)]
    assert missing == []
