"""Every module uses every name it imports (the package __init__ is left out:
its imports are its re-exports), every private module-level name of the
package is read somewhere in the package, not only by the tests, and no
package module but partitions.py unwraps a Partition through `.parts`."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "hurwitzkit").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


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


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level functions, classes and constants of these
    modules that no module reads, by name or as a module attribute."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name} ({where})" for name, where in sorted(defined.items()) if name not in read]


def test_every_private_name_is_read_by_the_package():
    assert _unread_private_names({"a": "_x = 1\n_y: int = 2\ndef _f():\n    return _x\n"
                                       "class _C:\n    pass\n__all__ = []\n",
                                  "b": "import a\nprint(a._C)\n"}) == ["_f (a:3)", "_y (a:2)"]
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert _unread_private_names(sources) == []


def _reads_attribute(source: str, attr: str) -> bool:
    """Whether the module reads `.attr` off any object."""
    return any(isinstance(node, ast.Attribute) and node.attr == attr
               for node in ast.walk(ast.parse(source)))


def test_no_module_but_partitions_reads_parts():
    """A Partition is the tuple of its parts, so the package uses it as one."""
    assert _reads_attribute("n = len(lam.parts)\n", "parts")
    assert not _reads_attribute("parts = lam\nprint(parts)\n", "parts")
    readers = [path.name for path in PACKAGE
               if path.name != "partitions.py" and _reads_attribute(path.read_text(), "parts")]
    assert readers == []
