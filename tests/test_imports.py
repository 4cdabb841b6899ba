"""Every module uses every name it imports (the package __init__ is left out:
its imports are its re-exports), every private module-level name of the
package is read somewhere in the package, not only by the tests, every
re-export and every public module-level function and class is read by the
package or perfbench unless it is listed with its reason, and no package
module but partitions.py unwraps a Partition through `.parts`."""
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


def _names_read(source: str) -> set[str]:
    """The names a module reads, by name or as an attribute of any object."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


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
        read |= _names_read(source)
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


def _unread_public_names(package: dict[str, str], readers: list[str]) -> list[str]:
    """The public names of the package that no reader module reads, by name or as
    an attribute: the names its __init__ re-exports from its modules, and the
    public module-level functions and classes of each module but __init__, whose
    own two functions, cache_stats and clear_caches, are the cache interface."""
    public = set()
    for module, source in package.items():
        for node in ast.parse(source).body:
            if module == "__init__.py":
                if isinstance(node, ast.ImportFrom) and node.level and node.module:
                    public.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                public.add(node.name)
    return sorted(public.difference(*map(_names_read, readers)))


# Public names that no engine, command or benchmark reads, kept on purpose.
UNREAD_ON_PURPOSE = {
    "character_class_sum": "the square-root counts sum_lam chi_lam(delta), checked by "
                           "criterion 5 against a tally over S_d; its one package reader, "
                           "the lower-Euler identity, is now a test oracle",
    "fold_alphabet": "alphabet folding, kept for the exact tau-function check of "
                     "claim (a) (ROADMAP item 5)",
    "hurwitz_weighted_sum": "the weighted Hurwitz sum, a public engine that no command "
                            "exposes yet",
}


def test_every_public_name_is_read_by_the_package_or_the_benchmark():
    """A public name stays only while another package module or perfbench reaches
    it; the tests, the acceptance criteria among them, do not count.  The labelled
    oracles that only the tests read live in tests/oracles.py."""
    toy = {"__init__.py": "from .a import x, y as z\nfrom . import a\nfrom os import sep\n",
           "a.py": "def x():\n    return w()\ndef w():\n    pass\nclass V:\n    pass\n"
                   "def _u():\n    pass\n"}
    assert _unread_public_names(toy, [toy["a.py"], "print(x)\n", "import m\nm.q = 1\n"]) == [
        "V", "z"]
    package = {path.name: path.read_text() for path in PACKAGE}
    readers = [source for name, source in package.items() if name != "__init__.py"]
    readers += [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert _unread_public_names(package, readers) == sorted(UNREAD_ON_PURPOSE)
