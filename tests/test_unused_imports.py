import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SCRIPT = _ROOT / "tools" / "unused_imports.py"
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


def test_the_repo_has_no_unused_imports():
    # an imported name no code reads (a leftover of a deletion) fails here
    files = [f for d in ("src/operlab", "tests", "tools", "perfbench")
             for f in sorted((_ROOT / d).glob("*.py"))]
    assert files
    found = [f"{f.relative_to(_ROOT)}:{line}: {name}" for f in files
             for line, name in unused_imports.unused_imports(f.read_text())]
    assert found == []
