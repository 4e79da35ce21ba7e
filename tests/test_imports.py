"""The package's modules import one another without a cycle.

The graph holds every relative import of every module under
``src/subanneal``, the imports inside functions included: a function-level
import hides a cycle from Python's import machinery, not from the design.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "subanneal"


def _module_name(path: Path, root: Path) -> str:
    """``path``'s dotted name below ``root``; a package is its
    ``__init__``'s directory."""
    parts = path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def import_graph(root: Path) -> dict:
    """Module -> the set of package modules it imports relatively, for
    every ``.py`` file under ``root`` (the package's directory). Names are
    dotted below ``root``, the package itself being ``""``."""
    modules = {_module_name(path, root): path
               for path in sorted(root.rglob("*.py"))}
    graph = {}
    for name, path in modules.items():
        parts = name.split(".") if name else []
        package = parts if path.name == "__init__.py" else parts[:-1]
        edges = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            base = package[:len(package) - (node.level - 1)]
            base = ".".join(base + (node.module.split(".")
                                    if node.module else []))
            for alias in node.names:
                sub = f"{base}.{alias.name}" if base else alias.name
                edges.add(sub if sub in modules else base)
        graph[name] = edges - {name}
    return graph


def cycles(graph: dict) -> list:
    """The strongly connected components of ``graph`` with more than one
    module (Tarjan's algorithm), each as a sorted list."""
    index, low, stack, on_stack, found = {}, {}, [], set(), []

    def visit(node):
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        for succ in sorted(graph.get(node, ())):
            if succ not in index:
                visit(succ)
                low[node] = min(low[node], low[succ])
            elif succ in on_stack:
                low[node] = min(low[node], index[succ])
        if low[node] == index[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                found.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            visit(node)
    return found


def test_the_package_has_no_import_cycle():
    graph = import_graph(PACKAGE)
    assert "runner" in graph and "nn.layers" in graph["training"]
    assert cycles(graph) == []


def test_a_function_level_import_closes_a_cycle(tmp_path):
    (tmp_path / "__init__.py").write_text("from . import a\n")
    (tmp_path / "a.py").write_text("from .b import f\n")
    (tmp_path / "b.py").write_text(
        "def f():\n    from . import a\n    return a\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "__init__.py").write_text("")
    (tmp_path / "sub" / "c.py").write_text("from .. import b\n")
    graph = import_graph(tmp_path)
    assert graph == {"": {"a"}, "a": {"b"}, "b": {"a"}, "sub": set(),
                     "sub.c": {"b"}}
    assert cycles(graph) == [["a", "b"]]
