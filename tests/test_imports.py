"""Every module uses every name it imports.  The package __init__ is left out:
its imports are its re-exports."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "hurwitzkit").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, with the line of each import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_every_imported_name_is_used():
    assert _unused_imports("import os\nfrom math import pi, tau as t\nimport a.b\nprint(pi)\n") == [
        "a (line 3)", "os (line 1)", "t (line 2)"]
    assert _unused_imports("from __future__ import annotations\nimport numpy as np\nnp.eye(2)\n") == []
    unused = {f"{path.parent.name}/{path.name}": names for path in MODULES
              if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))}
    assert unused == {}
