"""Layering: no module imports another ``repro`` module's private names,
and every name a package exports has a caller outside the tests.

A ``_``-prefixed name is its module's own business.  Importing one across
modules couples the importer to details the owner is free to change, so
a helper two modules need belongs in a public API.  Dunders such as
``__version__`` are public by convention and exempt.

An exported name that only tests call is surface nobody uses: it is
deleted, or the tests switch to the spelling the program uses.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Besides ``src``, the code whose references make an exported name used.
CALLER_DIRS = ("examples", "benchmarks", "perfbench", "tools")


def _private_imports(path: Path, root: Path):
    """``file:line: name from module`` for each private ``repro`` import."""
    parts = path.relative_to(root).with_suffix("").parts
    is_package = parts[-1] == "__init__"
    importer = list(parts[:-1] if is_package else parts)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            # A package's ``.`` is the package itself; a module's is its parent.
            base = importer[: len(importer) - node.level + is_package]
            source = ".".join(base + ([node.module] if node.module else []))
        else:
            source = node.module or ""
        if source != "repro" and not source.startswith("repro."):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield f"{path.relative_to(root)}:{node.lineno}: {name} from {source}"


def _offenders(root: Path):
    return [
        line
        for path in sorted((root / "repro").rglob("*.py"))
        for line in _private_imports(path, root)
    ]


def test_no_module_imports_a_private_name_of_another():
    assert _offenders(SRC) == []


def test_the_check_resolves_absolute_and_relative_imports(tmp_path):
    """The walker must see every import form, or it would pass vacuously."""
    package = tmp_path / "repro"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("from .sub import __version__\n")
    (package / "a.py").write_text(
        "from os import _exit\n"
        "from repro.b import _x, public, __doc__\n"
        "from .b import _y\n"
    )
    (package / "sub" / "__init__.py").write_text("from . import _z\nfrom .. import _w\n")
    assert _offenders(tmp_path) == [
        "repro/a.py:2: _x from repro.b",
        "repro/a.py:3: _y from repro.b",
        "repro/sub/__init__.py:1: _z from repro.sub",
        "repro/sub/__init__.py:2: _w from repro",
    ]


def _exports(root: Path):
    """``(package, name)`` for each name in a ``repro`` package's ``__all__``."""
    for init in sorted((root / "src" / "repro").rglob("__init__.py")):
        package = ".".join(init.relative_to(root / "src").parent.parts)
        for node in ast.parse(init.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                for element in node.value.elts:
                    yield package, ast.literal_eval(element)


def _code_names(path: Path):
    """Every name ``path`` uses as code: names, attributes and imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1]


def _unreferenced_exports(root: Path):
    """Exported names no code outside tests and ``__init__`` files uses and
    neither ``docs/`` nor README.md names."""
    files = [p for p in (root / "src" / "repro").rglob("*.py") if p.name != "__init__.py"]
    for directory in CALLER_DIRS:
        files += (root / directory).rglob("*.py")
    used = {name for path in files for name in _code_names(path)}
    docs = [root / "README.md", *(root / "docs").rglob("*.md")]
    text = "\n".join(path.read_text(encoding="utf-8") for path in docs if path.is_file())
    used |= set(re.findall(r"\w+", text))
    return [f"{package}.{name}" for package, name in _exports(root) if name not in used]


def test_every_exported_name_has_a_caller_outside_tests():
    assert _unreferenced_exports(ROOT) == []


def test_the_surface_audit_counts_only_callers_outside_tests(tmp_path):
    """Tests, docstrings and ``__init__`` re-exports must not count as callers."""
    package = tmp_path / "src" / "repro" / "sub"
    package.mkdir(parents=True)
    (package.parent / "__init__.py").write_text('__all__ = ["__version__"]\n')
    (package / "__init__.py").write_text(
        "from .impl import called, documented, tested, quoted\n"
        '__all__ = ["called", "documented", "tested", "quoted"]\n'
    )
    (package / "impl.py").write_text(
        '"""quoted is only named in this docstring."""\n'
        "from repro._version import __version__\n"
        "def called(): ...\ndef documented(): ...\ndef tested(): ...\ndef quoted(): ...\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "use.py").write_text("from repro.sub import called\ncalled()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_sub.py").write_text("from repro.sub import tested\ntested()\n")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "sub.md").write_text("Call `documented()` first.\n")
    assert _unreferenced_exports(tmp_path) == ["repro.sub.tested", "repro.sub.quoted"]
