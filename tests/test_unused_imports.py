import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "unused_imports.py"
_spec = importlib.util.spec_from_file_location("unused_imports", _SCRIPT)
unused_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unused_imports)


def test_reports_each_import_no_code_reads():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from .runtime import CancelTimer, Request, Send\n"
        "__all__ = ['Send']\n"
        "def f():\n"
        "    return os.path.join('a'), Request('x')\n")
    assert unused_imports.unused_imports(source) == [(3, "j"),
                                                     (4, "CancelTimer")]
