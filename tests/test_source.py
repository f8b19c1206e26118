"""Checks on the program's source files themselves."""

import ast
import os
import pathlib
import subprocess
import sys

import singindex

SRC = pathlib.Path(singindex.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


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


def test_the_signature_oracle_shares_no_code_with_linalg():
    assert "linalg" not in _imported_modules("oracles.py")
    assert "oracles" not in _imported_modules("linalg.py")


def test_oracles_take_from_burnside_only_what_they_check_with():
    # the lattice and marks oracles must stay off the multiplication
    # table and the bitmask code of the paths they check
    imports = [
        node
        for node in ast.walk(_tree("oracles.py"))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    names = {
        alias.name
        for node in imports
        if isinstance(node, ast.ImportFrom) and node.module == "burnside"
        for alias in node.names
    }
    assert names == {"BurnsideElement", "subgroup_as_group"}
    # nor the module itself, through `import` or `from . import`
    assert not any(alias.name.endswith("burnside") for node in imports for alias in node.names)


def test_oracles_import_no_private_name_from_singindex():
    # a private helper shared with a checked path would be checked by itself
    private = [
        f"{node.lineno} {node.module}.{alias.name}"
        for node in ast.walk(_tree("oracles.py"))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "singindex")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


_TRACED_RUN = """
import singindex
import spans
from singindex.grobner import Ideal

tracer = spans.Tracer()
tracer.install(singindex)
unwrapped = []
for name in spans.SPAN_METRIC:
    target = singindex
    for part in name.split("."):
        target = getattr(target, part)
    if not hasattr(target, "__wrapped__"):
        unwrapped.append(name)
assert unwrapped == [], unwrapped
singindex.grobner.standard_basis(Ideal.from_strings(["x^2 + y^3", "x*y"], ("x", "y")))
assert tracer.counts["grobner.basis_size_sum"] == 3, tracer.counts
"""


def test_the_traced_benchmark_finds_every_name_it_wraps():
    # perfbench/spans.py looks its names up with getattr; a deleted one
    # would crash the traced benchmark run.  A subprocess keeps the
    # rebinding out of this test session.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PERFBENCH), str(SRC.parent)]))
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_unreferenced_private_functions():
    # a private module-level function or private method must be named
    # somewhere in the package outside its own body
    trees = {path.name: _tree(path.name) for path in sorted(SRC.glob("*.py"))}
    references = [
        (node.id if isinstance(node, ast.Name) else node.attr, id(node))
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unused = []
    for fname, tree in trees.items():
        for top in tree.body:
            for node in top.body if isinstance(top, ast.ClassDef) else [top]:
                if not isinstance(node, ast.FunctionDef) or not _private(node.name):
                    continue
                own = {id(n) for n in ast.walk(node)}
                if not any(name == node.name and key not in own for name, key in references):
                    unused.append(f"{fname} {node.name}")
    assert unused == []


def test_jobs_reads_other_modules_through_their_public_names_only():
    # the job layer runs what a library user can call; a private helper
    # it reached into would be a second way to the same value
    tree = _tree("jobs.py")
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0 and not node.module
        for alias in node.names
    }
    private = [
        f"{node.lineno} {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and _private(node.attr)
    ] + [
        f"{node.lineno} {node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if _private(alias.name)
    ]
    assert modules >= {"br", "ic", "oracles", "sm", "st"}
    assert private == []


def test_every_refusal_raised_in_jobs_names_its_json_path():
    # run_job reports a refusal with `field` as a diagnostic at that path
    bare = [
        node.lineno
        for node in ast.walk(_tree("jobs.py"))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "RejectedInputError"
        and not any(k.arg == "field" for k in node.exc.keywords)
    ]
    assert bare == []
