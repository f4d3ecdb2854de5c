"""Fail on imported names a module never uses.

Usage: python3 tools/unused_imports.py FILE...

A name bound by `import` or `from ... import` counts as used when the module
reads it anywhere (`name` or `name.attr`) or lists it in `__all__`.
`from __future__` imports are exempt. Prints one `file:line: name` per unused
import and exits 1 if there is any.
"""

import ast
import sys


def unused_imports(source: str) -> list:
    """(line, name) of every import binding in `source` that is never used."""
    tree = ast.parse(source)
    bound = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend((node.lineno, alias.asname or alias.name)
                         for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str))
    return [(line, name) for line, name in bound if name not in used]


def main(paths) -> int:
    status = 0
    for path in paths:
        with open(path) as f:
            for line, name in unused_imports(f.read()):
                print(f"{path}:{line}: {name} imported but never used")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
