"""Checks on the program's source files themselves."""

import ast
import pathlib

import singindex

SRC = pathlib.Path(singindex.__file__).parent


def _tree(name):
    return ast.parse((SRC / name).read_text())


def test_no_unused_from_imports():
    # __init__.py imports names to re-export them through __all__
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path.name)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _imported_modules(name):
    out = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom):
            out.add(node.module)
        elif isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
    return out


def test_oracles_and_the_dual_route_share_no_code():
    assert "dual" not in _imported_modules("oracles.py")
    assert "oracles" not in _imported_modules("dual.py")
