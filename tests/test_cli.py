import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affwgraph
from affwgraph import cli, regress
from affwgraph.cli import main
from affwgraph.fixtures import load_fixture_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBuild:
    def test_json_matches_fixture(self, capsys):
        code, out = run(capsys, "build", "3", "2", "--format", "json")
        assert code == 0
        built = json.loads(out)
        golden = load_fixture_json("gamma_3_2")
        assert built == golden

    def test_dot_structure(self, capsys):
        code, out = run(capsys, "build", "3", "2", "--format", "dot")
        assert code == 0
        assert out.startswith('digraph "gamma_3_2"')
        assert out.count("dir=none") == 10
        assert sum(1 for line in out.splitlines() if "->" in line) == 20

    def test_variant(self, capsys):
        code, out = run(capsys, "build", "3", "3", "--variant", "p=0")
        assert code == 0
        assert json.loads(out) == load_fixture_json("gamma_prime_3_3")

    def test_deterministic(self, capsys):
        _, first = run(capsys, "build", "4", "2")
        _, second = run(capsys, "build", "4", "2")
        assert first == second

    def test_bad_shape(self, capsys):
        code, _ = run(capsys, "build", "2", "3")
        assert code == 2

    def test_out_of_memory_exits_two_with_one_line(self, capsys, monkeypatch):
        # a shape that passes the size check but whose tableaux cannot be held
        def build(shape):
            raise MemoryError

        monkeypatch.setattr(cli, "build_affine_graph", build)
        code = main(["build", "1000000000000", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: out of memory\n"


class TestVerify:
    def test_pass(self, capsys):
        code, out = run(capsys, "verify", "3", "3", "--variant", "p=0", "--hecke", "--rules")
        assert code == 0
        report = json.loads(out)
        assert report["passed"]
        assert {r["rule"] for r in report["reports"]} == {
            "compatibility", "simplicity", "bonding", "polygon", "hecke",
        }

    def test_rules_only(self, capsys):
        code, out = run(capsys, "verify", "3", "2", "--rules")
        assert code == 0
        assert {r["rule"] for r in json.loads(out)["reports"]} == {
            "compatibility", "simplicity", "bonding", "polygon",
        }

    def test_failing_input_exits_one(self, capsys, tmp_path):
        graph = load_fixture_json("gamma_3_2")
        graph["edges"] = graph["edges"][:-1]  # drop one directed edge
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(graph), encoding="utf-8")
        code, out = run(capsys, "verify", "--input", str(path))
        assert code == 1
        report = json.loads(out)
        assert not report["passed"]
        assert any(r["witnesses"] for r in report["reports"])

    def test_valid_input_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "good.json"
        path.write_text(json.dumps(load_fixture_json("gamma_3_2")), encoding="utf-8")
        code, _ = run(capsys, "verify", "--input", str(path))
        assert code == 0

    def test_missing_shape(self, capsys):
        code, _ = run(capsys, "verify")
        assert code == 2

    def test_builder_looked_up_on_each_call(self, monkeypatch, tmp_path):
        # a wrapper patched onto the module, as a tracer installs one, runs
        calls = []
        build = cli.build_affine_graph
        monkeypatch.setattr(cli, "build_affine_graph", lambda shape: calls.append(shape) or build(shape))
        assert main(["verify", "3", "2", "--output", str(tmp_path / "report.json")]) == 0
        assert len(calls) == 1


# damage to the (3,2) fixture, and the whole error line it exits 2 with
MALFORMED = {
    "missing tau": (lambda graph: graph.pop("tau"), "error: {path}: missing key 'tau'"),
    "short tau": (lambda graph: graph.update(tau=graph["tau"][:-1]), "error: 9 tau labels for 10 vertices"),
    "endpoint out of range": (
        lambda graph: graph["edges"][0].update(dst=len(graph["vertices"])),
        "error: edge (0, 10) has an endpoint outside 0..9",
    ),
    "duplicate edge": (
        lambda graph: graph["edges"].append(dict(graph["edges"][0])), "error: duplicate edge (0, 6)",
    ),
    "zero weight": (lambda graph: graph["edges"][0].update(w=0), "error: stored weight must be nonzero: (0, 6)"),
    "repeated vertex": (
        lambda graph: graph["vertices"].__setitem__(-1, graph["vertices"][0]),
        "error: vertex 9 (345/12) is repeated",
    ),
    "vertex size not n": (lambda graph: graph.update(n=6), "error: vertex 0 (345/12) has 5 entries, not 6"),
    "index set outside 1..n": (
        lambda graph: graph["index_set"].append(6),
        "error: index set {{1, 2, 3, 4, 5, 6}} is not a subset of 1..5",
    ),
    "vertex 0 of shape (4,1)": (
        lambda graph: graph["vertices"][0].update(rows=[[1, 2, 3, 4], [5]]),
        "error: vertex 1 (245/13) has shape (3, 2), not (4, 1) as vertex 0",
    ),
    "vertex 0 of shape (5)": (
        lambda graph: graph["vertices"][0].update(rows=[[1, 2, 3, 4, 5]]),
        "error: vertex 1 (245/13) has shape (3, 2), not (5,) as vertex 0",
    ),
    # the first vertex or label at fault is named, whatever its fault
    "repeated before resized": (
        lambda graph: (
            graph["vertices"].__setitem__(2, graph["vertices"][0]),
            graph["vertices"][5].update(rows=[[1, 2, 3], [4, 5, 6]]),
        ),
        "error: vertex 2 (345/12) is repeated",
    ),
    "resized before repeated": (
        lambda graph: (
            graph["vertices"][5].update(rows=[[1, 2, 3], [4, 5, 6]]),
            graph["vertices"].__setitem__(7, graph["vertices"][0]),
        ),
        "error: vertex 5 (123/456) has 6 entries, not 5",
    ),
    "tau labels outside 1..n": (
        lambda graph: (graph["tau"][3].append(9), graph["tau"][6].append(0)),
        "error: tau value {{9, 4}} outside index set",
    ),
    # each vertex repeats n, and must agree with the graph
    "vertex n not the graph's": (
        lambda graph: (
            [vertex.update(n=7) for vertex in graph["vertices"]], graph["vertices"][1].pop("n"),
        ),
        "error: vertex 0 (345/12) has n = 7, not 5",
    ),
    "vertex n missing": (lambda graph: graph["vertices"][3].pop("n"), "error: {path}: missing key 'n'"),
    # a label list with a repeat, which its set would hide
    "repeated tau label": (
        lambda graph: graph["tau"].__setitem__(5, [1, 3, 3]),
        "error: tau of vertex 5 (135/24) repeats a label: [1, 3, 3]",
    ),
    "repeated index": (
        lambda graph: graph["index_set"].insert(2, 2),
        "error: index set [1, 2, 2, 3, 4, 5] repeats an entry",
    ),
    "repeated tau label after vertex n": (
        lambda graph: (graph["tau"].__setitem__(0, [5, 5]), graph["vertices"][9].update(n=4)),
        "error: vertex 9 (123/45) has n = 4, not 5",
    ),
    # a JSON object or string where a list belongs, which would be read as
    # its keys or characters (an edgeless graph, an empty label set), is
    # named before anything in it is read
    "edges an object": (lambda graph: graph.update(edges={}), "error: edges must be a JSON list, not an object"),
    "edges a string": (lambda graph: graph.update(edges=""), "error: edges must be a JSON list, not a string"),
    "tau entry an object": (
        lambda graph: graph["tau"].__setitem__(3, {}),
        "error: tau of vertex 3 (234/15) must be a JSON list, not an object",
    ),
    "tau entry a string": (
        lambda graph: graph["tau"].__setitem__(7, ""),
        "error: tau of vertex 7 (125/34) must be a JSON list, not a string",
    ),
    "index set an object, every tau empty": (
        lambda graph: graph.update(index_set={}, tau=[[] for _ in graph["tau"]]),
        "error: index_set must be a JSON list, not an object",
    ),
    "vertices an object, no vertices": (
        lambda graph: graph.update(vertices={}, tau=[], edges=[]),
        "error: vertices must be a JSON list, not an object",
    ),
    "tau a string, no vertices": (
        lambda graph: graph.update(vertices=[], tau="", edges=[]),
        "error: tau must be a JSON list, not a string",
    ),
    # vertices that are not a list, read as keys, characters or nothing iterable
    "vertices null": (lambda graph: graph.update(vertices=None), "error: vertices must be a JSON list, not null"),
    "vertices a number": (lambda graph: graph.update(vertices=5), "error: vertices must be a JSON list, not a number"),
    "vertices a string": (lambda graph: graph.update(vertices="ab"), "error: vertices must be a JSON list, not a string"),
    "vertices an object": (
        lambda graph: graph.update(vertices={"rows": [[1, 2, 3], [4, 5]]}),
        "error: vertices must be a JSON list, not an object",
    ),
    # a container is checked before its contents, so it is named before a
    # fault inside it or in a later part of the graph
    "index set an object": (
        lambda graph: graph.update(index_set={}), "error: index_set must be a JSON list, not an object",
    ),
    "tau entry an object after a repeated label": (
        lambda graph: (graph["tau"].__setitem__(2, {}), graph["tau"].__setitem__(5, [1, 3, 3])),
        "error: tau of vertex 2 (235/14) must be a JSON list, not an object",
    ),
    "vertices an empty object": (
        lambda graph: graph.update(vertices={}), "error: vertices must be a JSON list, not an object",
    ),
    "tau an object": (lambda graph: graph.update(tau={}), "error: tau must be a JSON list, not an object"),
    "tau entry two characters": (
        lambda graph: graph["tau"].__setitem__(3, "ab"),
        "error: tau of vertex 3 (234/15) must be a JSON list, not a string",
    ),
    "edges two characters": (
        lambda graph: graph.update(edges="ab"), "error: edges must be a JSON list, not a string",
    ),
    "graph a list": ([load_fixture_json("gamma_3_2")], "error: graph must be a JSON object, not a list"),
    "edge a list": (
        lambda graph: graph["edges"].__setitem__(0, [0, 6, 1]), "error: edge 0 must be a JSON object, not a list",
    ),
    # a label list past the last vertex is counted, not named by a vertex
    "tau with a trailing object": (
        lambda graph: graph["tau"].append({}), "error: 11 tau labels for 10 vertices",
    ),
    "tau with a trailing null": (
        lambda graph: graph["tau"].append(None), "error: 11 tau labels for 10 vertices",
    ),
    # a JSON list or object where a set member or key belongs, which cannot
    # be hashed, is named with its place; a hashable one keeps the
    # constructor's message ("endpoint a string" below)
    "src a list": (
        lambda graph: graph["edges"][0].update(src=[0]), "error: src of edge 0 must be a JSON number, not a list",
    ),
    "dst an object": (
        lambda graph: graph["edges"][2].update(dst={}), "error: dst of edge 2 must be a JSON number, not an object",
    ),
    "index set entry a list": (
        lambda graph: graph["index_set"].__setitem__(1, [1]),
        "error: entry 1 of index_set must be a JSON number, not a list",
    ),
    "tau label an object": (
        lambda graph: graph["tau"][3].__setitem__(0, {}),
        "error: label 0 of tau of vertex 3 (234/15) must be a JSON number, not an object",
    ),
    "tau label a list after a label": (
        lambda graph: graph["tau"][3].append([1]),
        "error: label 1 of tau of vertex 3 (234/15) must be a JSON number, not a list",
    ),
    "endpoint a string": (
        lambda graph: graph["edges"][0].update(src="a"), "error: edge ('a', 6) has an endpoint outside 0..9",
    ),
}


# each JSON kind at each level of vertex 3 of the (3,2) graph, and the line it
# exits 2 with: a container at fault is named with the vertex and the kind,
# and a container of the right kind keeps the message of its contents
VERTEX_VALUES = {
    "null": None, "true": True, "1.0": 1.0, "a string": "12", "empty string": "",
    "empty list": [], "object": {}, "nested list": [[1]],
}
VERTEX_PATHS = {
    "vertex": (
        (),
        [
            "vertex 3 must be a JSON object, not null",
            "vertex 3 must be a JSON object, not a boolean",
            "vertex 3 must be a JSON object, not a number",
            "vertex 3 must be a JSON object, not a string",
            "vertex 3 must be a JSON object, not a string",
            "vertex 3 must be a JSON object, not a list",
            "{path}: missing key 'rows'",
            "vertex 3 must be a JSON object, not a list",
        ],
    ),
    "rows": (
        ("rows",),
        [
            "rows of vertex 3 must be a JSON list, not null",
            "rows of vertex 3 must be a JSON list, not a boolean",
            "rows of vertex 3 must be a JSON list, not a number",
            "rows of vertex 3 must be a JSON list, not a string",
            "rows of vertex 3 must be a JSON list, not a string",
            "vertex 3: parts must be positive integers: ()",
            "rows of vertex 3 must be a JSON list, not an object",
            "vertex 3: partition size must be at least 3: (1,)",
        ],
    ),
    "row": (
        ("rows", 0),
        [
            "row 0 of vertex 3 must be a JSON list, not null",
            "row 0 of vertex 3 must be a JSON list, not a boolean",
            "row 0 of vertex 3 must be a JSON list, not a number",
            "row 0 of vertex 3 must be a JSON list, not a string",
            "row 0 of vertex 3 must be a JSON list, not a string",
            "vertex 3: parts must be positive integers: (0, 2)",
            "row 0 of vertex 3 must be a JSON list, not an object",
            "vertex 3: tableau entries must be integers: (([1],), (1, 5))",
        ],
    ),
    "entry": (
        ("rows", 0, 0),
        [
            "vertex 3: tableau entries must be integers: ((None, 3, 4), (1, 5))",
            "vertex 3: tableau entries must be integers: ((True, 3, 4), (1, 5))",
            "vertex 3: tableau entries must be integers: ((1.0, 3, 4), (1, 5))",
            "vertex 3: tableau entries must be integers: (('12', 3, 4), (1, 5))",
            "vertex 3: tableau entries must be integers: (('', 3, 4), (1, 5))",
            "vertex 3: tableau entries must be integers: (([], 3, 4), (1, 5))",
            "vertex 3: tableau entries must be integers: (({{}}, 3, 4), (1, 5))",
            "vertex 3: tableau entries must be integers: (([[1]], 3, 4), (1, 5))",
        ],
    ),
    "n": (
        ("n",),
        [
            "vertex 3 (234/15) has n = None, not 5",
            "vertex 3 (234/15) has n = True, not 5",
            "vertex 3 (234/15) has n = 1.0, not 5",
            "vertex 3 (234/15) has n = '12', not 5",
            "vertex 3 (234/15) has n = '', not 5",
            "vertex 3 (234/15) has n = [], not 5",
            "vertex 3 (234/15) has n = {{}}, not 5",
            "vertex 3 (234/15) has n = [[1]], not 5",
        ],
    ),
}


def _set_at(keys, value):
    """The damage that puts value at the path keys of the graph."""
    def damage(graph):
        *steps, last = keys
        parent = graph
        for step in steps:
            parent = parent[step]
        parent[last] = value
    return damage


MALFORMED.update(
    (f"vertex 3 {where}: {kind}", (_set_at(("vertices", 3, *keys), value), "error: " + message))
    for where, (keys, messages) in VERTEX_PATHS.items()
    for (kind, value), message in zip(VERTEX_VALUES.items(), messages, strict=True)
)


@pytest.mark.parametrize("damage, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_two_with_one_line(capsys, tmp_path, damage, message):
    graph = load_fixture_json("gamma_3_2")
    if callable(damage):
        damage(graph)
    else:  # the whole input, in place of the graph
        graph = damage
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(graph), encoding="utf-8")
    code = main(["verify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message.format(path=path) + "\n"


# each JSON kind at each path of the graph outside its vertices: every case
# exits 2 with one error line, but for the two well-formed graphs, an empty
# label list and no edges, which fail the checks
GRAPH_PATHS = {
    "n": ("n",), "index_set": ("index_set",), "index": ("index_set", 0), "vertices": ("vertices",),
    "tau": ("tau",), "tau list": ("tau", 3), "tau label": ("tau", 3, 0), "edges": ("edges",),
    "edge": ("edges", 0), "src": ("edges", 0, "src"), "dst": ("edges", 0, "dst"), "w": ("edges", 0, "w"),
}
WELL_FORMED = {"tau list: empty list", "edges: empty list"}
KIND_AT_PATH = {
    f"{where}: {kind}": (keys, value) for where, keys in GRAPH_PATHS.items() for kind, value in VERTEX_VALUES.items()
}


@pytest.mark.parametrize("case", KIND_AT_PATH)
def test_each_kind_at_each_path_keeps_exit_contract(capsys, tmp_path, case):
    graph = load_fixture_json("gamma_3_2")
    _set_at(*KIND_AT_PATH[case])(graph)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(graph), encoding="utf-8")
    code = main(["verify", "--input", str(path)])
    captured = capsys.readouterr()
    if case in WELL_FORMED:
        assert code == 1 and captured.err == ""
        assert not json.loads(captured.out)["passed"]
    else:
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("content", [None, "{not json"], ids=["missing file", "invalid json"])
def test_unreadable_input_exits_two_with_one_line(capsys, tmp_path, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    code = main(["verify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


LOOK_ALIKES = {
    "nested too deeply": ("[" * 100000 + "]" * 100000, "error: {path}: JSON nested too deeply"),
    "weight true": (
        lambda graph: graph["edges"][0].update(w=True),
        "error: weight of edge (0, 6) is not an integer: True",
    ),
    "endpoint true": (
        lambda graph: graph["edges"][0].update(src=True),
        "error: edge (True, 6) has an endpoint outside 0..9",
    ),
    "n = 10**18": (
        lambda graph: graph.update(n=10**18), f"error: vertex 0 (345/12) has 5 entries, not {10**18}",
    ),
    "n a string": (lambda graph: graph.update(n="5"), "error: n must be a positive integer, not '5'"),
    "entry 1.0": (
        lambda graph: graph["vertices"][0]["rows"][0].__setitem__(0, 1.0),
        "error: vertex 0: tableau entries must be integers: ((1.0, 4, 5), (1, 2))",
    ),
    "tau label true": (
        lambda graph: graph["tau"][0].append(True), "error: tau value {{True, 5}} outside index set",
    ),
    "vertex n 5.0": (
        lambda graph: graph["vertices"][2].update(n=5.0), "error: vertex 2 (235/14) has n = 5.0, not 5",
    ),
    "vertex n true": (
        lambda graph: graph["vertices"][9].update(n=True), "error: vertex 9 (123/45) has n = True, not 5",
    ),
    "tau label true after 1": (
        lambda graph: graph["tau"][4].append(True), "error: tau of vertex 4 (145/23) repeats a label: [1, True]",
    ),
    "tau label 1.0 after 1": (
        lambda graph: graph["tau"][4].append(1.0), "error: tau of vertex 4 (145/23) repeats a label: [1, 1.0]",
    ),
    "index true": (
        lambda graph: graph["index_set"].append(True),
        "error: index set [1, 2, 3, 4, 5, True] repeats an entry",
    ),
    "index 5.0": (
        lambda graph: graph["index_set"].append(5.0),
        "error: index set [1, 2, 3, 4, 5, 5.0] repeats an entry",
    ),
}


@pytest.mark.parametrize("damage, message", LOOK_ALIKES.values(), ids=LOOK_ALIKES.keys())
def test_input_boundary_exits_two_with_one_line(capsys, tmp_path, damage, message):
    path = tmp_path / "input.json"
    if isinstance(damage, str):
        path.write_text(damage, encoding="utf-8")
    else:
        graph = load_fixture_json("gamma_3_2")
        damage(graph)
        path.write_text(json.dumps(graph), encoding="utf-8")
    code = main(["verify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message.format(path=path) + "\n"


def test_huge_n_input_exits_zero_with_a_report(tmp_path):
    # every check has to decide the index set by its size: a set of 1..n
    # would not fit, so the child's address space is capped
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps({"n": 10**18, "index_set": [], "vertices": [], "tau": [], "edges": []}),
        encoding="utf-8",
    )
    limit = 2 << 30
    child = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from affwgraph.cli import main\n"
        f"sys.exit(main(['verify', '--input', {str(path)!r}]))\n"
    )
    package_root = str(Path(affwgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=120, env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["passed"] and len(report["reports"]) == 5


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.integers()
    | st.floats() | st.text(max_size=3) | st.sampled_from(("rows", "src", "dst", "w", "n")),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(("rows", "src", "dst", "w", "n", "x")), children, max_size=4),
    max_leaves=12,
)


def _paths(node, prefix=()):
    """Every path of keys / indices into a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_graph_json(draw):
    """The (3,2) graph JSON with up to four nodes replaced or deleted, or any JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    data = load_fixture_json("gamma_3_2")
    for _ in range(draw(st.integers(1, 4))):
        path = draw(st.sampled_from(list(_paths(data))))
        if not path:
            return draw(JSON_VALUES)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.integers(0, 3)) == 0:
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.integers(-3, 12) | JSON_VALUES)
    return data


@settings(max_examples=150, deadline=None)
@given(mutated_graph_json())
def test_mutated_input_keeps_exit_contract(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--input", str(path)])
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert code in (0, 1)
        assert json.loads(out.getvalue())["passed"] == (code == 0)


class TestRestrictAndCells:
    def test_restrict_matches_fixture(self, capsys):
        code, out = run(capsys, "restrict", "3", "2", "--to", "1..4")
        assert code == 0
        built = json.loads(out)
        golden = load_fixture_json("restriction_3_2")
        golden.pop("cells")
        assert built == golden

    def test_cells_keyed_by_insertion_shape(self, capsys):
        code, out = run(capsys, "cells", "3", "2", "--restrict", "1..4")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 3
        assert [(c["key"], c["size"]) for c in data["cells"]] == [
            ([3, 2], 5), ([4, 1], 4), ([5], 1),
        ]

    def test_cells_output_bytes(self, capsys):
        code, out = run(capsys, "cells", "4", "2", "--restrict", "1..5")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "28c24f9df40cbb197a68fcdee09972aaa13727232aa3ae06d650c98dcbd5d1be"
        )

    def test_cells_unrestricted(self, capsys):
        code, out = run(capsys, "cells", "3", "3")
        assert code == 0
        assert json.loads(out)["count"] == 1

    def test_bad_interval(self, capsys):
        code, _ = run(capsys, "restrict", "3", "2", "--to", "nope")
        assert code == 2


# a part too large to index: the shape fails at once, before anything is allocated
HUGE_PART = "99999999999999999999"
TOO_LARGE = f"error: shape ({HUGE_PART},1) is too large: 100000000000000000000 entries"
# C(80, 40) tableaux, more than a sequence can index: the shape fails once
# their count is known, before the enumeration allocates anything
TOO_MANY = "error: shape (40,40) is too large: more than 9223372036854775807 row-standard tableaux"

# values the CLI rejects as it parses them (the first three), or passes on
# unchecked, and the line they exit 2 with (--jobs below 1 is TestRegress's)
LIBRARY_CHECKED = {
    "variant not p=K": (["build", "3", "3", "--variant", "q=1"], "error: --variant expects p=K, got 'q=1'"),
    "variant weight not an integer": (
        ["build", "3", "3", "--variant", "p=x"], "error: --variant expects an integer weight, got 'p=x'",
    ),
    "interval bound not an integer": (["restrict", "3", "2", "--to", "a..4"], "error: interval bounds must be integers: 'a..4'"),
    "negative variant weight": (["build", "3", "3", "--variant", "p=-1"], "error: variant weight must be nonnegative: -1"),
    "interval from 0": (["restrict", "3", "2", "--to", "0..3"], "error: residues out of range: a=0, b=3, n=5"),
    "interval to n + 4": (["restrict", "3", "2", "--to", "1..9"], "error: residues out of range: a=1, b=9, n=5"),
    "build a huge part": (["build", HUGE_PART, "1"], TOO_LARGE),
    "verify a huge part": (["verify", HUGE_PART, "1"], TOO_LARGE),
    "restrict a huge part": (["restrict", HUGE_PART, "1", "--to", "1..2"], TOO_LARGE),
    "cells of a huge part": (["cells", HUGE_PART, "1"], TOO_LARGE),
    "export a huge part": (["export", HUGE_PART, "1"], TOO_LARGE),
    "build too many vertices": (["build", "40", "40"], TOO_MANY),
    "verify too many vertices": (["verify", "40", "40"], TOO_MANY),
    "restrict too many vertices": (["restrict", "40", "40", "--to", "1..2"], TOO_MANY),
    "cells of too many vertices": (["cells", "40", "40"], TOO_MANY),
    "export too many vertices": (["export", "40", "40"], TOO_MANY),
    "build a finite graph of too many tableaux": (["build", "40", "40", "--kind", "finite"], TOO_MANY),
}


@pytest.mark.parametrize("argv, message", LIBRARY_CHECKED.values(), ids=LIBRARY_CHECKED.keys())
def test_library_checks_exit_two_with_one_line(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message + "\n"


class TestExport:
    def test_writes_both_formats(self, capsys, tmp_path):
        code, _ = run(capsys, "export", "3", "2", "--output", str(tmp_path))
        assert code == 0
        assert json.loads((tmp_path / "gamma_3_2.json").read_text()) == load_fixture_json(
            "gamma_3_2"
        )
        assert (tmp_path / "gamma_3_2.dot").read_text().startswith("digraph")


UNWRITABLE = {
    "export into a file": ["export", "3", "2", "--output", "{file}"],
    "build into a missing directory": ["build", "3", "2", "--output", "{missing}"],
    "verify into a missing directory": ["verify", "3", "2", "--output", "{missing}"],
    "cells into a missing directory": ["cells", "3", "2", "--output", "{missing}"],
    "restrict into a missing directory": ["restrict", "3", "2", "--to", "1..4", "--output", "{missing}"],
}


@pytest.mark.parametrize("argv", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_unwritable_output_exits_two_with_one_line(capsys, tmp_path, argv):
    existing = tmp_path / "existing.txt"
    existing.write_text("kept\n", encoding="utf-8")
    paths = {"file": str(existing), "missing": str(tmp_path / "no" / "such" / "out.json")}
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert existing.read_text(encoding="utf-8") == "kept\n"


# options the command would ignore are usage errors: the variant is an
# affine graph, so a non-affine kind with it, and --input names the graph, so
# a shape or a variant with it
IGNORED_OPTIONS = {
    "build finite": ["build", "3", "3", "--kind", "finite", "--variant", "p=0"],
    "build dual-equiv": ["build", "3", "3", "--kind", "dual-equiv", "--variant", "p=0"],
    "export finite": ["export", "3", "3", "--kind", "finite", "--variant", "p=0", "--output", "{dir}"],
    "verify input with a shape": ["verify", "4", "4", "--input", "{fixture}"],
    "verify input with a variant": ["verify", "--variant", "p=0", "--input", "{fixture}"],
}


@pytest.mark.parametrize("argv", IGNORED_OPTIONS.values(), ids=IGNORED_OPTIONS.keys())
def test_ignored_options_exit_two_with_one_line(capsys, tmp_path, argv):
    fixture = Path(affwgraph.__file__).parent / "fixtures" / "gamma_3_2.json"
    code = main([arg.format(dir=tmp_path, fixture=fixture) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not any(tmp_path.iterdir())


class TestRegress:
    def test_small_sweep(self, capsys):
        code, out = run(capsys, "regress", "--max-n", "4")
        assert code == 0
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 10
        assert all("PASS" in line for line in lines)

    def test_report_bytes(self, capsys):
        code, out = run(capsys, "regress", "--max-n", "8")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e1c40d6ab18468b034d8bf1315f8665941796bf974d061293479365991cefe82"
        )

    def test_report_bytes_at_ten(self, capsys):
        code, out = run(capsys, "regress", "--max-n", "10")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "adc5bd1b2018faebe6dcf71e972e0036768e8a450801b4eda93f410f49923d3b"
        )

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code = main(["regress", "--max-n", "4", "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: jobs must be at least 1, not {jobs}\n"

    @pytest.mark.parametrize("max_n", ["2", "0", "-3"])
    def test_max_n_below_three_rejected(self, capsys, max_n):
        # no two-row shape has n < 3, so such a sweep would pass vacuously
        code = main(["regress", "--max-n", max_n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_fixtures_ignore_environment(tmp_path, monkeypatch):
    # the golden graphs are always the packaged ones, whatever the environment
    packaged = Path(affwgraph.__file__).parent / "fixtures" / "gamma_3_2.json"
    monkeypatch.setenv("AFFWGRAPH_FIXTURES", str(tmp_path))
    assert load_fixture_json("gamma_3_2") == json.loads(packaged.read_text(encoding="utf-8"))
    assert regress.check_fixtures().passed
