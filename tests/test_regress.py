"""
The regression driver: one pass over the shapes, each affine graph built
once, and the same names, verdicts and details as the checks report alone.
"""

import concurrent.futures
import importlib
import multiprocessing
from collections import Counter

import pytest

import affwgraph.regress as regress
import affwgraph.tworow as tworow
import affwgraph.verify as verify
from affwgraph import LabeledWGraph, Partition, RowStandardTableau, enumerate_rsyt, finite_descents, is_standard, mo
from affwgraph.cli import main
from affwgraph.rsk import RskPair
from affwgraph.wgraph import simple_component_ids

from conftest import check_verification_sweep, exactly

# the package exports the function rsk under the module's name
rsk_module = importlib.import_module("affwgraph.rsk")


def _without_first_internal_edge(build, damaged_parts):
    """A builder whose graph for one shape lacks its first within-component edge."""

    def damaged(shape):
        g = build(shape)
        if shape.parts != damaged_parts:
            return g
        comp = simple_component_ids(g)
        edge = next(e for e in sorted(g.weights) if comp[e[0]] == comp[e[1]])
        weights = {e: w for e, w in g.weights.items() if e != edge}
        return LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, weights)

    return damaged


def _with_added_edge(build, damaged_parts, edge):
    """A builder whose graph for one shape has the weight-1 edge added."""

    def damaged(shape):
        g = build(shape)
        if shape.parts != damaged_parts:
            return g
        return LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, {**g.weights, edge: 1})

    return damaged


def _swap(t, u):
    """
    The entries (x, y) that leave row 1 and row 2 of t when u is t with one
    entry of row 1 interchanged with one of row 2, or None.
    """
    leaving = set(t.rows[0]) - set(u.rows[0]), set(t.rows[1]) - set(u.rows[1])
    return (min(leaving[0]), min(leaving[1])) if len(leaving[0]) == 1 else None


# workers see the patched builder only when they are forked from this process
FORKED = pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="needs fork")


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=FORKED)])
def test_failing_shape_is_reported_by_every_check_that_sees_it(monkeypatch, jobs):
    damaged = _without_first_internal_edge(regress.build_affine_graph, (4, 3))
    monkeypatch.setattr(regress, "build_affine_graph", damaged)
    results = [(r.name, r.passed, r.detail) for r in regress.run_regression(max_n=7, jobs=jobs)]
    assert results == [
        ("fixtures", True, "4 graphs"),
        ("verification_sweep", False, "(4,3):simplicity, (4,3):bonding, (4,3):polygon, (4,3):hecke"),
        ("equal_variants", True, "p in {0,2}"),
        ("mutation_sensitivity", True, "176 single-edge deletions all detected"),
        ("underlying_and_omega", False, "(4,3):underlying, (4,3):shift"),
        ("rsk_vector", True, "P, Q, insertion shape (5,3,1)"),
        ("restriction_cells", True, "n <= 7"),
        ("finite_move_labels", True, "376 moves, all with j >= i-1"),
        ("shift_suite", False, "(4,3):shift"),
        ("coset_suite", True, "n <= 7"),
    ]


@pytest.fixture
def build_calls(monkeypatch):
    """Counts, per shape, the affine graphs the regression builds."""
    calls = Counter()
    build = regress.build_affine_graph

    def counted(shape):
        calls[shape] += 1
        return build(shape)

    monkeypatch.setattr(regress, "build_affine_graph", counted)
    return calls


def test_each_shape_is_built_once(build_calls):
    regress.run_regression(max_n=6)
    # check_fixtures builds its three reference shapes itself
    fixtures = Counter(Partition(parts) for parts in ((3, 2), (4, 2), (3, 3)))
    assert build_calls == Counter(regress.two_row_shapes(3, 7)) + fixtures


def test_verification_sweep_builds_only_its_shapes(build_calls):
    result = check_verification_sweep(max_n=5)
    assert result == regress.RegressResult(
        "verification_sweep", True, "5 shapes, rules + module relations"
    )
    assert build_calls == Counter(regress.two_row_shapes(3, 5))


def test_each_finite_graph_is_built_once_per_run(monkeypatch):
    calls = Counter()
    build = regress.build_finite_graph

    def counted(shape):
        calls[shape] += 1
        return build(shape)

    monkeypatch.setattr(regress, "build_finite_graph", counted)
    regress.run_regression(max_n=6)
    # the insertion shapes of the cells: every (n - c, c) with n <= 6
    keys = Counter(Partition((n - c, c) if c else (n,)) for n in range(3, 7) for c in range(n // 2 + 1))
    assert calls == keys
    regress.run_regression(max_n=6)
    assert calls == keys + keys  # nothing is kept from one run to the next


def test_jobs_are_capped_at_the_swept_shapes(monkeypatch):
    pools = []

    class SerialPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    serial = regress.run_regression(max_n=5)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    for jobs in (2, 5000):
        assert regress.run_regression(max_n=5, jobs=jobs) == serial
    # finite_move_labels sweeps one size beyond max_n
    assert pools == [2, len(regress.two_row_shapes(3, 6))]


@pytest.mark.parametrize("max_n", [2, 0, -3])
def test_max_n_below_three_rejected(max_n):
    with pytest.raises(ValueError, match="at least 3"):
        regress.run_regression(max_n=max_n)
    with pytest.raises(ValueError, match="at least 3"):
        check_verification_sweep(max_n=max_n)


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(jobs):
    # a sweep in no process would not run serially in its place
    with pytest.raises(ValueError, match=exactly(f"jobs must be at least 1, not {jobs}")):
        regress.run_regression(max_n=4, jobs=jobs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_n": 8.0}, "max_n must be an integer, not 8.0"),
        ({"max_n": 5, "jobs": 2.0}, "jobs must be an integer, not 2.0"),
        # True == 1 would run as one process
        ({"max_n": 5, "jobs": True}, "jobs must be an integer, not True"),
    ],
)
def test_max_n_and_jobs_that_are_not_ints_rejected(kwargs, message):
    with pytest.raises(ValueError, match=exactly(message)):
        regress.run_regression(**kwargs)


def test_serial_and_parallel_runs_agree():
    assert regress.run_regression(max_n=8, jobs=2) == regress.run_regression(max_n=8)


def test_rsk_runs_once_per_swept_vertex(monkeypatch):
    # rsk is reached through regress, verify (classify_restriction_cells) and finsh
    calls = Counter()
    original = rsk_module.rsk

    def counted(t):
        calls[t] += 1
        return original(t)

    for module in (regress, verify, rsk_module):
        monkeypatch.setattr(module, "rsk", counted)
    regress.run_regression(max_n=7)
    swept = Counter(t for shape in regress.two_row_shapes(3, 7) for t in enumerate_rsyt(shape))
    # check_rsk_vector runs rsk and finsh on its worked example
    example = RowStandardTableau(((2, 4, 5, 7), (3, 6, 9), (1, 8)))
    assert calls == swept + Counter({example: 2})


def test_coset_suite_sees_a_missing_representative(monkeypatch):
    reps = regress.min_coset_reps
    monkeypatch.setattr(regress, "min_coset_reps", lambda shape: reps(shape)[1:])
    result = regress._sweep(5, {"coset_suite"})["coset_suite"]
    assert not result.passed
    # the suite reports its first four findings
    assert result.detail == ", ".join(f"{parts}:not-bijective" for parts in ("(2,1)", "(3,1)", "(2,2)", "(4,1)"))


# a damage to every descent set the coset suite reads, and its first four
# findings, which name the shape and the representative
COSET_FINDINGS = {
    # 1 added: the representatives without the left descent 1
    "finite-descents": (
        lambda descents, n: descents | {1},
        "(2,1):[1,2,3]:finite-descents, (2,1):[3,1,2]:finite-descents, "
        "(3,1):[1,2,3,4]:finite-descents, (3,1):[3,1,2,4]:finite-descents",
    ),
    # n toggled: every representative
    "affine-descent": (
        lambda descents, n: descents ^ {n},
        "(2,1):[1,2,3]:affine-descent, (2,1):[2,1,3]:affine-descent, "
        "(2,1):[3,1,2]:affine-descent, (3,1):[1,2,3,4]:affine-descent",
    ),
}


@pytest.mark.parametrize("damage, detail", COSET_FINDINGS.values(), ids=COSET_FINDINGS.keys())
def test_coset_suite_names_the_representative_of_a_wrong_descent(monkeypatch, damage, detail):
    original = regress.affine_descents
    monkeypatch.setattr(regress, "affine_descents", lambda t: damage(original(t), t.n))
    result = regress._sweep(4, {"coset_suite"})["coset_suite"]
    assert (result.passed, result.detail) == (False, detail)


@pytest.mark.parametrize(
    "part, detail",
    [
        ("p", "(4,3):(6,1):not-bijective"),
        ("q", "(4,3):RSK fibers differ from strongly connected components for (4,3)"),
    ],
)
def test_restriction_cells_sees_a_wrong_insertion(monkeypatch, part, detail):
    # one vertex of (4,3) gets the insertion tableau P of another vertex of
    # its cell, or the recording tableau Q of a vertex outside it
    vertices = enumerate_rsyt(Partition((4, 3)))
    original = regress.rsk
    pairs = {t: original(t) for t in vertices}
    victim, other = next(
        (t, u) for t in vertices for u in vertices
        if t != u and (pairs[t].q == pairs[u].q) == (part == "p")
    )

    def damaged(t):
        if t != victim:
            return original(t)
        if part == "p":
            return RskPair(pairs[other].p, pairs[t].q)
        return RskPair(pairs[t].p, pairs[other].q)

    monkeypatch.setattr(regress, "rsk", damaged)
    result = regress._sweep(7, {"restriction_cells"})["restriction_cells"]
    assert (result.passed, result.detail) == (False, detail)


@pytest.mark.parametrize("field", ["tau", "weights"])
def test_restriction_cells_sees_a_wrong_finite_graph(monkeypatch, field):
    # the finite graph of (4,3) gets a wrong label on vertex 0 or a wrong
    # weight on its first edge, which its cell in the restriction of (4,3)
    # no longer matches
    original = regress.build_finite_graph

    def damaged(key):
        g = original(key)
        if key != Partition((4, 3)):
            return g
        tau, weights = list(g.tau), dict(g.weights)
        if field == "tau":
            tau[0] ^= {1}
        else:
            weights[next(iter(weights))] = 2
        return LabeledWGraph(g.n, g.index_set, g.vertices, tuple(tau), weights)

    monkeypatch.setattr(regress, "build_finite_graph", damaged)
    result = regress._sweep(7, {"restriction_cells"})["restriction_cells"]
    assert (result.passed, result.detail) == (False, f"(4,3):(4,3):{field}")


def test_underlying_and_omega_sees_moves_that_do_not_turn_with_the_shift(monkeypatch):
    # a move kernel that drops the second-kind moves of the tableaux with 1
    # in row 1: the builder runs it only at the least vertex of each orbit,
    # which has 1 in row 2, so the graph is the right one, and only the
    # kernel run one step round the orbits sees the fault
    original = tworow._moves

    def damaged(m, n):
        return (move for move in original(m, n) if move[0] == "first" or m & 1)

    monkeypatch.setattr(tworow, "_moves", damaged)
    monkeypatch.setattr(regress, "_moves", damaged)
    result = regress._sweep(5, {"underlying_and_omega"})["underlying_and_omega"]
    assert (result.passed, result.detail) == (
        False, "(2,1):13/2:moves, (3,1):134/2:moves, (2,2):13/24:moves, (4,1):1345/2:moves, (3,2):135/24:moves"
    )


@pytest.fixture
def mismatched_3_2(monkeypatch):
    """The cells of (3,2) alone no longer match the strongly connected components."""
    original = regress._restriction_fibers

    def mismatched(restricted, recording):
        shape = restricted.vertices[0].shape
        if shape == Partition((3, 2)):
            raise verify.CellMismatchError(f"RSK fibers differ from strongly connected components for {shape}")
        return original(restricted, recording)

    monkeypatch.setattr(regress, "_restriction_fibers", mismatched)


MISMATCH_3_2 = "(3,2):RSK fibers differ from strongly connected components for (3,2)"


@pytest.mark.parametrize("max_n", [4, 5])
def test_restriction_cells_reports_a_cell_mismatch_of_the_reference_shape(mismatched_3_2, max_n):
    # (3,2) is swept for its reference items below n = 5 as well, and its
    # cells are read once, inside the check's handler
    results = regress.run_regression(max_n=max_n)
    assert [r for r in results if not r.passed] == [regress.RegressResult("restriction_cells", False, MISMATCH_3_2)]


def test_regress_command_reports_a_cell_mismatch_without_a_traceback(mismatched_3_2, capsys):
    code = main(["regress", "--max-n", "5"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert [line for line in captured.out.splitlines() if "FAIL" in line] == [
        f"restriction_cells     FAIL  {MISMATCH_3_2}"
    ]


@pytest.mark.parametrize(
    "damage, detail",
    [
        ("edge", "(3,2):restriction-fixture"),
        ("cell", "(3,2):cell-partition"),
        ("edge and cell", "(3,2):restriction-fixture, (3,2):cell-partition"),
    ],
)
def test_restriction_cells_compares_the_reference_of_3_2(monkeypatch, damage, detail):
    # the transcribed restriction of (3,2) gets a re-weighted edge, or its
    # vertex 5 moves from the cell (3,2) to the cell (4,1)
    original = regress.load_fixture_json

    def damaged(name):
        data = original(name)
        if name == "restriction_3_2":
            if "edge" in damage:
                data["edges"][0]["w"] = 2
            if "cell" in damage:
                data["cells"]["3,2"].remove(5)
                data["cells"]["4,1"].append(5)
        return data

    monkeypatch.setattr(regress, "load_fixture_json", damaged)
    result = regress._sweep(5, {"restriction_cells"})["restriction_cells"]
    assert (result.passed, result.detail) == (False, detail)


def test_restriction_cells_lets_a_fault_of_the_check_propagate(monkeypatch):
    # only a CellMismatchError is a finding; any other error, here raised
    # for (2,2) alone, is a bug in the check and propagates
    original = regress._restriction_fibers

    def broken(restricted, recording):
        if restricted.vertices[0].shape == Partition((2, 2)):
            raise RuntimeError("broken fibers")
        return original(restricted, recording)

    monkeypatch.setattr(regress, "_restriction_fibers", broken)
    with pytest.raises(RuntimeError, match="broken fibers"):
        regress._sweep(4, {"restriction_cells"})


def test_finite_move_labels_sees_a_move_with_j_below_i_minus_one(monkeypatch):
    # the first swap between standard tableaux of (3,2) that moves j out of
    # row 1 and i out of row 2 with j < i - 1, and that the restriction to
    # [1, 4] keeps, is added to the affine graph as an edge
    g = regress.build_affine_graph(Partition((3, 2)))
    vertices = g.vertices
    u, v = next(
        (u, v) for u, t in enumerate(vertices) for v, w in enumerate(vertices)
        if is_standard(t) and is_standard(w) and (u, v) not in g.weights
        and (swap := _swap(t, w)) and swap[0] < swap[1] - 1
        and not finite_descents(t) <= finite_descents(w)
    )
    assert (str(vertices[u]), str(vertices[v])) == ("123/45", "134/25")
    damaged = _with_added_edge(regress.build_affine_graph, (3, 2), (u, v))
    monkeypatch.setattr(regress, "build_affine_graph", damaged)
    result = regress._sweep(4, {"finite_move_labels"})["finite_move_labels"]
    assert (result.passed, result.detail) == (False, "(3,2):(9, 6):j=2,i=4")


def test_shift_suite_sees_a_cross_component_edge_of_the_second_kind(monkeypatch):
    # the first swap in (3,3) between the two simple components that is not
    # of the first kind (the entry leaving row 2 is not mo(x+1)) is added as
    # a one-way edge, so the components stay the same and the shift is no
    # longer an automorphism
    g = regress.build_affine_graph(Partition((3, 3)))
    comp = simple_component_ids(g)
    vertices = g.vertices
    u, v = next(
        (u, v) for u, t in enumerate(vertices) for v, w in enumerate(vertices)
        if comp[u] != comp[v] and (u, v) not in g.weights and (v, u) not in g.weights
        and (swap := _swap(t, w)) and swap[1] != mo(swap[0] + 1, 6)
    )
    assert (str(vertices[u]), str(vertices[v])) == ("456/123", "346/125")
    damaged = _with_added_edge(regress.build_affine_graph, (3, 3), (u, v))
    monkeypatch.setattr(regress, "build_affine_graph", damaged)
    result = regress._sweep(6, {"shift_suite"})["shift_suite"]
    assert (result.passed, result.detail) == (False, "(3,3):shift, (3,3):(0, 2):not-first-kind")


def test_shift_suite_sees_a_wrong_insertion_shape(monkeypatch):
    # the first vertex of (3,2) gets the insertion tableau P of the first
    # vertex whose insertion shape differs, so the case table fails at it
    # and at the vertex the shift takes to it
    vertices = enumerate_rsyt(Partition((3, 2)))
    original = regress.rsk
    pairs = {t: original(t) for t in vertices}
    victim = vertices[0]
    other = next(t for t in vertices if pairs[t].p.shape != pairs[victim].p.shape)

    def damaged(t):
        return RskPair(pairs[other].p, pairs[t].q) if t == victim else original(t)

    monkeypatch.setattr(regress, "rsk", damaged)
    result = regress._sweep(5, {"shift_suite"})["shift_suite"]
    assert (result.passed, result.detail) == (False, ", ".join([
        "(3,2):345/12:case-table", "(3,2):345/12:equal-implies-standard",
        "(3,2):234/15:case-table", "(3,2):234/15:equal-implies-standard",
    ]))


def test_equal_variants_names_each_case_that_fails(monkeypatch):
    monkeypatch.setattr(regress, "rules_hold", lambda g: False)
    result = regress.check_equal_variants()
    assert (result.passed, result.detail) == (
        False, "(a=2, p=0), (a=3, p=0), (a=4, p=0), (a=2, p=2), (a=3, p=2)"
    )


def test_mutation_sensitivity_names_each_silent_deletion(monkeypatch):
    # checks that pass every graph let every within-component deletion through
    monkeypatch.setattr(regress, "rules_hold", lambda g: True)
    monkeypatch.setattr(regress, "hecke_holds", lambda g: True)
    result = regress._sweep(3, {"mutation_sensitivity"})["mutation_sensitivity"]
    edges = [(u, v) for u in range(3) for v in range(3) if u != v]  # (2,1) is a triangle, one component
    assert (result.passed, result.detail) == (False, ", ".join(f"(2,1):{e}" for e in edges))


def _with_insertion_of_123_45(monkeypatch, rows):
    """rsk as regress reads it, giving the vertex 123/45 of (3,2) the insertion tableau P with these rows."""
    victim = RowStandardTableau(((1, 2, 3), (4, 5)))
    original = regress.rsk

    def damaged(t):
        pair = original(t)
        return RskPair(RowStandardTableau(rows), pair.q) if t == victim else pair

    monkeypatch.setattr(regress, "rsk", damaged)


def test_restriction_cells_sees_an_insertion_tableau_outside_the_finite_graph(monkeypatch):
    # 345/12 has the cell's shape (3,2) but is not standard, so no vertex of
    # the finite graph of (3,2) is its image; the shift suite reads only its shape
    _with_insertion_of_123_45(monkeypatch, ((3, 4, 5), (1, 2)))
    results = regress._sweep(4, {"restriction_cells", "shift_suite"})
    assert [(r.passed, r.detail) for r in results.values()] == [
        (False, "(3,2):(3,2):insertion-image"), (True, "n <= 4"),
    ]


def test_shift_suite_sees_a_full_row_insertion_with_n_in_row_two(monkeypatch):
    # 123/45 has n in row 2, where the case table has no one-row insertion
    # shape; the vertex the shift takes to it fails the case table
    _with_insertion_of_123_45(monkeypatch, ((1, 2, 3, 4, 5),))
    result = regress._sweep(5, {"shift_suite"})["shift_suite"]
    assert (result.passed, result.detail) == (False, "(3,2):125/34:case-table, (3,2):123/45:full-row-top")


@pytest.mark.parametrize(
    "name, ids, detail",
    [
        ("_component_ids", lambda count: [0] * count, "(2,2):component-count"),
        ("simple_component_ids", lambda count: [0] * count, "(2,2):knuth-component-count"),
        # two components, but the shift keeps all but vertex 0 (34/12) and
        # its image in the second
        (
            "_component_ids", lambda count: [0] + [1] * (count - 1),
            ", ".join(f"(2,2):{t}:shift-preserves-component" for t in ("24/13", "14/23", "13/24", "12/34")),
        ),
    ],
    ids=["one simple component", "one Knuth component", "shift-preserved component"],
)
def test_shift_suite_sees_wrong_components_of_an_equal_row_shape(monkeypatch, name, ids, detail):
    monkeypatch.setattr(regress, name, lambda g: ids(len(g.tau)))
    result = regress._sweep(4, {"shift_suite"})["shift_suite"]
    assert (result.passed, result.detail) == (False, detail)


@pytest.mark.parametrize(
    "parts, item", [((2, 2), "no-standard"), ((3, 2), "no-consecutive-standard")]
)
def test_shift_suite_sees_a_shift_cycle_without_standard_tableaux(monkeypatch, parts, item):
    # with no vertex standard, every vertex is on such a cycle; the suite is
    # run directly, as the result shows only its first four findings
    monkeypatch.setattr(regress, "is_standard", lambda t: False)
    shape = Partition(parts)
    bad, _ = regress._shift_suite(regress._Shape(shape, regress.build_finite_graph))
    assert [f for f in bad if f.endswith(f":{item}")] == [f"{shape}:{t}:{item}" for t in enumerate_rsyt(shape)]
