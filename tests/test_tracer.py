"""The benchmark's layer tracer patches the library's modules and classes
while it is entered; leaving it must put every entry back as it was."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from operlab import (crux, finisher, graded_consensus, harness, oper,
                     reducing_broadcast, runtime, sync_ba,
                     validation_broadcast)

_SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _SCRIPT)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

MODULES = (harness, oper, crux, runtime, graded_consensus, sync_ba,
           validation_broadcast, reducing_broadcast, finisher)


def namespaces():
    """Each module and each class it defines."""
    out = list(MODULES)
    for mod in MODULES:
        out += [v for v in vars(mod).values()
                if isinstance(v, type) and v.__module__ == mod.__name__]
    return out


def test_leaving_the_tracer_restores_every_module_and_class_entry():
    before = [(ns, dict(vars(ns))) for ns in namespaces()]
    ol = SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in MODULES})
    with tracer.LayerTracer(ol):
        assert harness.run is not before[0][1]["run"]   # it patched
    for ns, entries in before:
        now = vars(ns)
        assert now.keys() == entries.keys(), ns
        assert all(now[k] is v for k, v in entries.items()), ns
