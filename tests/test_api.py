"""The package's public surface: what steercert exports and what each module imports."""

import ast
from pathlib import Path

import pytest

import steercert as sc

SRC = Path(sc.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module):
    """(name, line) for every name an import statement binds, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_all_matches_the_names_bound_in_init():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    bound = {name for name, _ in _imported_names(tree)}
    bound |= {t.id for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    public = {name for name in bound if not name.startswith("_")}
    assert len(set(sc.__all__)) == len(sc.__all__), "duplicate names in __all__"
    assert [n for n in sc.__all__ if not hasattr(sc, n)] == []
    assert sorted(public - set(sc.__all__)) == []
