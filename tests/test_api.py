"""The public API list: ``entweave.__all__`` is what the package imports."""

import ast
from pathlib import Path

import entweave


def test_all_lists_every_imported_public_name():
    tree = ast.parse(Path(entweave.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    names = entweave.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert set(names) == public
    for name in names:
        assert hasattr(entweave, name), name
