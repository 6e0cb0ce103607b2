"""Layering: no module imports another ``repro`` module's private names.

A ``_``-prefixed name is its module's own business.  Importing one across
modules couples the importer to details the owner is free to change, so
a helper two modules need belongs in a public API.  Dunders such as
``__version__`` are public by convention and exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


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
