"""Import layering: no package imports from a layer above its own.

Every module under ``src/repro`` is parsed (not imported), and every
``import`` / ``from … import`` statement — including ones inside
functions, which is where upward imports used to hide — is resolved to
the top-level package it targets.  A package may import from its own
rank or any rank below, never above.  There is no allow-list: moving a
module or inverting a dependency is the fix for a failure here.

A package façade that binds its public names lazily lists them in an
``_EXPORTS`` table (name → submodule, imported on first access as
``from .submodule import name``); each entry is read as that import
statement, so a re-export cannot hide an upward import.
"""

from __future__ import annotations

import ast
from itertools import chain
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Rank of each top-level package / module under ``repro``.
LAYERS = (
    ("errors", "types", "digest"),
    ("obs",),
    ("resilience",),
    ("config", "runtime"),
    ("peeringdb", "whois", "apnic", "asrank", "web", "llm", "universe"),
    ("core",),
    ("metrics", "baselines", "longitudinal", "analysis", "experiments", "serve"),
    ("watch",),
    ("cli",),
)
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}

#: The package façade (``repro/__init__.py``) and ``python -m repro``
#: re-export the public API from every layer; they sit above all ranks.
FACADE = {"__init__", "__main__"}


def _targets(node: ast.AST, package):
    """Dotted names an import statement reaches, relative ones resolved
    against *package* (the dotted package the statement lives in)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        return [node.module]
    anchor = package[: len(package) - (node.level - 1)]
    base = ".".join(anchor + ([node.module] if node.module else []))
    if node.module is None:
        # ``from . import x`` reaches the submodule (or attribute) ``x``.
        return [f"{base}.{alias.name}" for alias in node.names]
    return [base]


def _lazy_exports(tree: ast.Module):
    """``from .module import name`` for each ``name: module`` entry of a
    module-level ``_EXPORTS`` table."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_EXPORTS"
            for target in node.targets
        ):
            for key, value in zip(node.value.keys, node.value.values):
                yield ast.ImportFrom(
                    module=ast.literal_eval(value),
                    names=[ast.alias(name=ast.literal_eval(key))],
                    level=1,
                    lineno=value.lineno,
                )


def _top_level_module(name: str) -> bool:
    return (SRC / name).is_dir() or (SRC / f"{name}.py").is_file()


def _edges():
    """``(path, line, source layer, target layer)`` for every import of
    a ``repro`` submodule.  An import of a name defined on the root
    package itself (``from . import __version__``) adds no edge: Python
    runs ``repro/__init__.py`` before any submodule in any case."""
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        package = ["repro", *parts[:-1]]
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in chain(ast.walk(tree), _lazy_exports(tree)):
            for target in _targets(node, package):
                names = target.split(".")
                if (
                    names[0] == "repro"
                    and len(names) > 1
                    and _top_level_module(names[1])
                ):
                    yield path.relative_to(SRC), node.lineno, parts[0], names[1]


def test_every_package_has_a_rank():
    layers = {
        path.stem
        for path in SRC.iterdir()
        if path.suffix == ".py" or (path / "__init__.py").is_file()
    }
    unranked = layers - set(RANK) - FACADE
    assert not unranked, f"give these packages a rank in LAYERS: {sorted(unranked)}"


def test_no_upward_imports():
    upward = [
        f"{path}:{line}: {layer} (rank {RANK.get(layer, 'facade')}) imports "
        f"{target} (rank {RANK.get(target, 'facade')})"
        for path, line, layer, target in _edges()
        if layer not in FACADE
        and (target in FACADE or RANK[target] > RANK[layer])
    ]
    assert not upward, "upward imports:\n" + "\n".join(upward)


@pytest.mark.parametrize(
    "source, target",
    [
        ("from ..serve.shm.pool import run_supervised", "repro.serve.shm.pool"),
        ("import repro.watch.journal", "repro.watch.journal"),
        ("from .. import web", "repro.web"),
    ],
)
def test_function_local_imports_are_resolved(source, target):
    """Lazy imports inside functions are found and resolved like
    module-level ones (here as if written in ``repro/core/m.py``)."""
    tree = ast.parse(f"def f():\n    {source}\n")
    (node,) = [
        n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
    ]
    assert _targets(node, ["repro", "core"]) == [target]


def test_lazy_export_tables_are_import_edges():
    """An ``_EXPORTS`` entry resolves like ``from .module import name``
    (here as if written in ``repro/serve/__init__.py``)."""
    tree = ast.parse('_EXPORTS = {"WorkerPool": "shm.pool", "Thing": "top"}')
    targets = [
        t for node in _lazy_exports(tree) for t in _targets(node, ["repro", "serve"])
    ]
    assert targets == ["repro.serve.shm.pool", "repro.serve.top"]


@pytest.mark.parametrize("facade", ["__init__.py", "core/__init__.py", "serve/__init__.py"])
def test_every_lazy_export_is_an_edge(facade):
    """Each façade's table yields one edge per public name it re-exports."""
    path = SRC / facade
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exported = [node.names[0].name for node in _lazy_exports(tree)]
    edges = [edge for edge in _edges() if edge[0] == path.relative_to(SRC)]
    assert exported and len(edges) == len(exported)
