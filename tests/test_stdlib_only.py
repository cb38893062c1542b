"""
The runtime is pure stdlib (pyproject: dependencies = []): importing the
package, the CLI and the regression suite in a fresh interpreter loads no
top-level module outside the standard library, apart from affwgraph itself,
and neither dataclasses nor inspect.
Every name a module or the package exports resolves, every name a module
imports is read there or exported, every private helper and every public
function or class its module does not export is read outside its own body,
only the public graph constructor sorts a graph's edges, only
graph_from_json reads a key of a vertex or an edge of the graph JSON,
only wgraph reads the shape and row codes a graph holds, and every module
parses with the grammar of the oldest supported Python.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import affwgraph

SRC = Path(affwgraph.__file__).resolve().parent.parent

PROBE = """
import sys
before = set(sys.modules)
import affwgraph, affwgraph.cli, affwgraph.regress
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_imports_only_the_standard_library():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    loaded = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    # the probe did import the package, so the check below is not vacuous
    assert "affwgraph.regress" in loaded
    top_level = {name.partition(".")[0] for name in loaded}
    assert top_level - sys.stdlib_module_names == {"affwgraph"}
    # dataclasses loads inspect, ast, dis and tokenize, on every cold start
    # of the CLI; the value classes are plain frozen classes instead
    assert not {"dataclasses", "inspect"} & set(loaded), sorted(loaded)


def test_every_export_resolves():
    # a name left in an __all__ or in the package's imports after its
    # definition was deleted or moved would only fail on first use
    modules = sorted(p.stem for p in (SRC / "affwgraph").glob("*.py") if p.stem != "__init__")
    for name in modules:
        module = importlib.import_module(f"affwgraph.{name}")
        assert module.__all__, name
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, (name, missing)
    # each name the package re-exports is public in the module it comes from
    tree = ast.parse((SRC / "affwgraph" / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"affwgraph.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(affwgraph, alias.asname or alias.name) is getattr(module, alias.name)


def test_every_import_is_read():
    # a helper deleted from a module can leave its imports behind; the
    # package's own imports are its re-exports, checked above
    for path in sorted((SRC / "affwgraph").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        module = importlib.import_module(f"affwgraph.{path.stem}")
        unused = imported - read - set(module.__all__)
        assert imported and not unused, (path.stem, sorted(unused))


def _scope(parents, node) -> str:
    """The dotted names of the classes and functions around the node."""
    names = []
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.append(node.name)
    return ".".join(reversed(names))


def test_no_reader_sorts_the_edges():
    # every graph holds its out-edge rows sorted by target from where it is
    # made (the public constructor sorts the rows it files a caller's edges
    # into), so a sorted(...) over .weights or .adjacency re-sorts what is
    # already sorted
    sorts = set()
    for path in sorted((SRC / "affwgraph").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        sorts |= {
            (path.stem, _scope(parents, node), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sorted"
            and any(
                isinstance(read, ast.Attribute) and read.attr in {"weights", "adjacency"} for read in ast.walk(node)
            )
        }
    assert sorts == set()


# the keys of a vertex and of an edge in the graph JSON
FORMAT_KEYS = {"rows", "src", "dst", "w"}


def _reads_format_key(node) -> bool:
    """Whether node is a ["rows"], ["src"], ["dst"] or ["w"] subscript, or a .get of one of them."""
    if isinstance(node, ast.Subscript):
        key = node.slice
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
        key = node.args[0] if node.args else None
    else:
        return False
    return isinstance(key, ast.Constant) and key.value in FORMAT_KEYS


def test_only_wgraph_reads_the_vertex_json():
    # the JSON of a graph is written by graph_to_json and read by
    # graph_from_json, so a read of a vertex's or an edge's key elsewhere
    # is a second reader (the regress fixture's ["cells"] is another format)
    reads = set()
    for path in sorted((SRC / "affwgraph").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        reads |= {(path.stem, _scope(parents, node), node.lineno) for node in ast.walk(tree) if _reads_format_key(node)}
    assert {(module, scope) for module, scope, _ in reads} == {("wgraph", "graph_from_json")}, reads


def test_only_wgraph_reads_the_held_row_codes():
    # a graph holds its shape's parts and its vertices' row codes in _parts
    # and _codes: the builders hand them to LabeledWGraph._trusted, and the
    # other modules read row_codes() or the vertices, so that the vertex
    # representation is known to one module only
    reads = set()
    for path in sorted((SRC / "affwgraph").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads |= {
            (path.stem, node.attr, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in {"_parts", "_codes"}
        }
    assert {module for module, _, _ in reads} == {"wgraph"}, reads


def _definitions_and_reads():
    """
    The module-level functions and classes of each package module, with
    the methods of each class, and for each name read anywhere in the
    package the sets of functions and classes around each of its reads.
    """
    definitions, reads = [], {}
    defs = (ast.FunctionDef, ast.ClassDef)
    for path in sorted((SRC / "affwgraph").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in tree.body:
            if isinstance(node, defs):
                definitions.append((path.stem, node, False))
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (path.stem, method, True) for method in node.body if isinstance(method, ast.FunctionDef)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            # the functions and classes the read is inside
            around = set()
            while node in parents:
                node = parents[node]
                if isinstance(node, defs):
                    around.add(node)
            reads.setdefault(name, []).append(around)
    return definitions, reads


def _unread(definitions, reads) -> list[tuple[str, str]]:
    """The definitions that nothing in the package reads outside their own body."""
    return [
        (module, node.name) for module, node in definitions
        if all(node in around for around in reads.get(node.name, []))
    ]


def test_every_private_helper_is_read():
    # a private helper that nothing in the package reads any more is dead:
    # each _-prefixed module-level function or class, and each _-prefixed
    # method other than a dunder, is read somewhere outside its own body
    definitions, reads = _definitions_and_reads()
    helpers = [
        (module, node) for module, node, _ in definitions
        if node.name.startswith("_") and not node.name.endswith("__")
    ]
    assert len(helpers) > 50
    unread = _unread(helpers, reads)
    assert not unread, unread


def test_every_unexported_public_name_is_read():
    # a public module-level function or class that its module does not
    # export is there for the package's own use: something in the package
    # reads it outside its own body, or only the tests do and it belongs
    # in tests/
    definitions, reads = _definitions_and_reads()
    unexported = [
        (module, node) for module, node, method in definitions
        if not method and not node.name.startswith("_")
        and node.name not in importlib.import_module(f"affwgraph.{module}").__all__
    ]
    assert len(unexported) > 5
    unread = _unread(unexported, reads)
    assert not unread, unread


def test_every_module_parses_as_python_3_10():
    # pyproject: requires-python = ">=3.10", so no module may use syntax
    # that a later version added (this checks the grammar, not the library)
    paths = sorted((SRC / "affwgraph").glob("*.py"))
    assert len(paths) > 5
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
