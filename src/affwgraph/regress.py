"""
The full property regression: every verifiable claim about the two-row
graphs, runnable from the command line and mirrored by the test suite.

Each check returns a RegressResult; names are stable so CI can key on them.
run_regression runs them all.  Seven checks sweep the shapes in one pass,
each as one per-shape part: each shape's affine graph is built once, and
what the checks derive from it (the rsk pair of each vertex, which
vertices are standard, the restriction to [1, n-1] and its cells, the
simple underlying graph and its components, and the Knuth graph) is
derived at most once, by the first check using it.  Which entries an edge
swaps is read from the row-2 masks of its ends, the graph's row codes, not
from the rows of its tableaux.  The shift's vertex permutation is the
graph's shift automorphism, which the graph derives once for every check.
Each finite graph a restriction cell is compared with is built once per
run (once per process with `--jobs K`, which splits the shapes into K
batches, at most one per shape, of about equal vertex counts, largest
shapes first) by a cache that lives while the shapes of its size are swept.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache, cached_property
from itertools import groupby, repeat
from math import comb
from operator import attrgetter

from .affperm import canonical_tableau, inverse, min_coset_reps, tableau_action
from .fixtures import load_fixture, load_fixture_json
from .rsk import RskPair, finsh, rsk
from .tableaux import Partition, RowStandardTableau, _Frozen, affine_descents, is_standard
from .tworow import (
    _moves,
    _rotate,
    build_affine_graph,
    build_dual_equiv,
    build_equal_variant,
    build_finite_graph,
)
from .verify import (
    CellMismatchError,
    _restriction_fibers,
    check_all_rules,
    check_hecke_relations,
    hecke_holds,
    rules_hold,
)
from .wgraph import (
    Edges,
    LabeledWGraph,
    _component_ids,
    graph_from_json,
    restrict_parabolic,
    simple_component_ids,
    simple_underlying,
)

__all__ = ["RegressResult", "run_regression", "two_row_shapes", "ALL_CHECKS"]


class RegressResult(_Frozen):
    name: str
    passed: bool
    detail: str

    def __init__(self, name, passed, detail=""):
        for field, value in (("name", name), ("detail", detail)):
            if type(value) is not str:
                raise ValueError(f"{field} must be a string, not {value!r}")
        vars(self).update(name=name, passed=passed, detail=detail)


def two_row_shapes(min_n: int = 3, max_n: int = 8) -> list[Partition]:
    return [Partition((n - b, b)) for n in range(min_n, max_n + 1) for b in range(1, n // 2 + 1)]


def check_fixtures() -> RegressResult:
    """The builders reproduce the hand-transcribed reference graphs exactly."""
    targets = [
        ("gamma_3_2", build_affine_graph(Partition((3, 2)))),
        ("gamma_4_2", build_affine_graph(Partition((4, 2)))),
        ("gamma_3_3", build_affine_graph(Partition((3, 3)))),
        ("gamma_prime_3_3", build_equal_variant(Partition((3, 3)), 0)),
    ]
    bad = [name for name, built in targets if built != load_fixture(name)]
    return RegressResult("fixtures", not bad, "mismatch: " + ", ".join(bad) if bad else "4 graphs")


def check_equal_variants() -> RegressResult:
    """Cross-component weight 0 for a in 2..4 and weight 2 for a in 2..3 verify."""
    cases = [(a, 0) for a in (2, 3, 4)] + [(a, 2) for a in (2, 3)]
    bad = []
    for a, p in cases:
        g = build_equal_variant(Partition((a, a)), p)
        if not (rules_hold(g) and hecke_holds(g)):
            bad.append(f"(a={a}, p={p})")
    return RegressResult("equal_variants", not bad, ", ".join(bad) if bad else "p in {0,2}")


def check_rsk_vector() -> RegressResult:
    """The worked insertion example for shape (4,3,2)."""
    t = RowStandardTableau(((2, 4, 5, 7), (3, 6, 9), (1, 8)))
    pair = rsk(t)
    ok = (
        pair.p.rows == ((1, 2, 4, 5, 7), (3, 6, 9), (8,))
        and pair.q == ((1, 1, 2, 2, 3), (2, 3, 3), (3,))
        and finsh(t) == Partition((5, 3, 1))
    )
    return RegressResult("rsk_vector", ok, "P, Q, insertion shape (5,3,1)")


class _Shape:
    """
    One shape of the sweep: its affine graph and what the checks derive
    from it.  finite_graph builds the finite graph of an insertion shape of
    this size once: the shapes of one size share it.
    """

    def __init__(self, shape: Partition, finite_graph: Callable[[Partition], LabeledWGraph]):
        self.shape = shape
        self.g = build_affine_graph(shape)
        self.finite_graph = finite_graph

    @property
    def masks(self) -> tuple[int, ...]:
        """
        The row-2 mask of each vertex, by index (entry e is bit e - 1): the
        graph's row codes, from which the checks read which entries an edge
        swaps.
        """
        return self.g.row_codes()[1]

    @cached_property
    def restricted(self) -> LabeledWGraph:
        return restrict_parabolic(self.g, range(1, self.shape.n))

    @cached_property
    def insertion(self) -> tuple[RskPair, ...]:
        """rsk of each vertex, by index: the restriction has the same vertices."""
        return tuple(map(rsk, self.g.vertices))

    @cached_property
    def cells(self) -> dict[Partition, list[int]]:
        """The cells of the restriction as sorted vertex indices, by insertion shape."""
        return _restriction_fibers(self.restricted, [pair.q for pair in self.insertion])

    @cached_property
    def simple(self) -> tuple[tuple[Edges, ...], list[int]]:
        """
        The out-edge rows of the simple underlying graph and the component
        number of each vertex in it.  The graph itself is not kept.
        """
        simple = simple_underlying(self.g)
        return simple.adjacency, _component_ids(simple)

    @cached_property
    def standard(self) -> list[bool]:
        """Whether each vertex is a standard tableau, by index."""
        return [is_standard(t) for t in self.g.vertices]

    @cached_property
    def knuth(self) -> LabeledWGraph:
        return build_dual_equiv(self.shape)


def _verification(s: _Shape) -> tuple[list[str], int]:
    """Both verification paths pass on the affine graph of every shape."""
    reports = check_all_rules(s.g) + [check_hecke_relations(s.g)]
    return [f"{s.shape}:{r.rule}" for r in reports if not r.passed], 1


def _mutation_sensitivity(s: _Shape) -> tuple[list[str], int]:
    """Deleting any single within-component directed edge breaks verification."""
    g = s.g
    _, comp = s.simple
    silent = []
    total = 0
    adj = g.adjacency
    for u, row in enumerate(adj):
        for k, (v, _) in enumerate(row):
            if comp[u] != comp[v]:
                continue
            total += 1
            # the rows of a valid graph with edge k of row u deleted: one
            # row replaced, the others shared
            mutated = g._derived(g.index_set, g.tau, adj[:u] + (row[:k] + row[k + 1:],) + adj[u + 1:])
            if rules_hold(mutated) and hecke_holds(mutated):
                silent.append(f"{s.shape}:{(u, v)}")
    return silent, total


def _underlying_and_omega(s: _Shape) -> tuple[list[str], int]:
    """
    Simple underlying graph is the Knuth graph; the shift is an automorphism;
    and the move kernel, run at the shift of each orbit's least vertex, gives
    that vertex's out-edges.  The builder runs the kernel only at the least
    vertices and carries their moves round the orbits, so the shift is an
    automorphism by construction: the kernel run one step round each orbit
    checks that the moves turn with the shift.
    """
    bad = []
    simple_rows, _ = s.simple
    if simple_rows != s.knuth.adjacency:
        bad.append(f"{s.shape}:underlying")
    g = s.g
    sigma = g.shift_automorphism
    if sigma is None:
        return bad + [f"{s.shape}:shift"], 0
    n, masks, adjacency = g.n, s.masks, g.adjacency
    for u in (sigma[k] for k in g.shift_orbit_representatives):
        moved = sorted((move[3], 1) for move in _moves(masks[u], n))
        if moved != sorted((masks[v], w) for v, w in adjacency[u]):
            bad.append(f"{s.shape}:{g.vertices[u]}:moves")
    return bad, 0


_FIXTURE_SHAPE = Partition((3, 2))


def _restriction_cells(s: _Shape) -> tuple[list[str], int]:
    """
    Cells of the restriction to [1, n-1] are the recording-tableau fibers
    and each is isomorphic, via insertion, to the finite graph of its key.
    For (3,2) the restriction and its cells match the transcribed reference.
    """
    fixture = load_fixture_json("restriction_3_2") if s.shape == _FIXTURE_SHAPE else None
    reference = []
    # the restriction is compared before its cells are read, which may fail
    if fixture is not None and s.restricted != graph_from_json(fixture):
        reference.append("(3,2):restriction-fixture")
    try:
        cells = s.cells
    except CellMismatchError as exc:  # the detail names the shape
        return [f"{s.shape}:{exc}", *reference], 0
    bad = []
    insertion = s.insertion
    tau, adjacency = s.restricted.tau, s.restricted.adjacency
    for key, ids in cells.items():
        target = s.finite_graph(key)
        to_target = target.vertex_index()
        try:
            remap = [to_target[insertion[k].p] for k in ids]
        except KeyError:
            bad.append(f"{s.shape}:{key}:insertion-image")
            continue
        if sorted(remap) != list(range(len(target.vertices))):
            bad.append(f"{s.shape}:{key}:not-bijective")
            continue
        renumber = dict(zip(ids, remap))
        if any(tau[k] != target.tau[renumber[k]] for k in ids):
            bad.append(f"{s.shape}:{key}:tau")
        # the out-edges of each cell vertex, carried onto the target's vertices
        mapped = [()] * len(ids)
        for u in ids:
            mapped[renumber[u]] = tuple(sorted([(renumber[v], w) for v, w in adjacency[u] if v in renumber]))
        if tuple(mapped) != target.adjacency:
            bad.append(f"{s.shape}:{key}:weights")
    if fixture is not None and {",".join(map(str, key.parts)): ids for key, ids in cells.items()} != fixture["cells"]:
        reference.append("(3,2):cell-partition")
    return bad + reference, 0


def _finite_move_labels(s: _Shape) -> tuple[list[str], int]:
    """
    Every move between standard tableaux surviving the restriction swaps
    j out of row 1 and i out of row 2 with j >= i - 1.
    """
    masks, standard = s.masks, s.standard
    bad = []
    checked = 0
    for u, row in enumerate(s.restricted.adjacency):
        for v, _ in row:
            if not (standard[u] and standard[v]):
                continue
            # j leaves row 1 (enters row 2) and i leaves row 2
            j = (masks[v] & ~masks[u]).bit_length()
            i = (masks[u] & ~masks[v]).bit_length()
            checked += 1
            if j < i - 1:
                bad.append(f"{s.shape}:{(u, v)}:j={j},i={i}")
    return bad, checked


def _shift_suite(s: _Shape) -> tuple[list[str], int]:
    """
    The insertion-shape case table under the shift, the standardization
    properties for unequal and equal rows, first-kind cross-component edges,
    and the two components of the equal-row Knuth graph swapped by the shift.
    The items about the shift's vertex permutation sigma are skipped when
    the shift is not an automorphism of the graph.
    """
    shape, vertices, sigma = s.shape, s.g.vertices, s.g.shift_automorphism
    bad = [f"{shape}:shift"] if sigma is None else _sigma_findings(s, sigma)
    if not shape.is_equal_row:
        return bad, 0
    _, comp = s.simple
    if len(set(comp)) != 2:
        return bad + [f"{shape}:component-count"], 0
    if len(set(simple_component_ids(s.knuth))) != 2:
        return bad + [f"{shape}:knuth-component-count"], 0
    if sigma is not None:
        for k, t in enumerate(vertices):
            if comp[sigma[k]] == comp[k]:
                bad.append(f"{shape}:{t}:shift-preserves-component")
    n, masks = shape.n, s.masks
    for u, row in enumerate(s.g.adjacency):
        for v, _ in row:
            if comp[u] == comp[v]:
                continue
            # first kind: one entry x leaves row 1 and mo(x+1) leaves row 2,
            # the bit of x rotated one step up
            x = masks[v] & ~masks[u]
            if x & (x - 1) or masks[u] & ~masks[v] != _rotate(x, n - 1, n):
                bad.append(f"{shape}:{(u, v)}:not-first-kind")
    return bad, 0


def _sigma_findings(s: _Shape, sigma: tuple[int, ...]) -> list[str]:
    """The case table and the standardization properties of _shift_suite."""
    shape, vertices, standard, masks = s.shape, s.g.vertices, s.standard, s.masks
    n = shape.n
    # the first two parts of each insertion shape, 0 for a missing second row
    pairs = [(tuple(map(len, pair.p.rows)) + (0,))[:2] for pair in s.insertion]
    bad = []
    for k, t in enumerate(vertices):
        (a, b), (sa, sb) = pairs[k], pairs[sigma[k]]
        top = not masks[k] >> (n - 1) & 1  # n in row 1
        if (a, b) == shape.parts:
            expected = shape.parts if top else (a + 1, b - 1)
        elif b == 0:
            if not top:
                bad.append(f"{shape}:{t}:full-row-top")
                continue
            expected = (n - 1, 1)
        else:
            expected = (a - 1, b + 1) if top else (a + 1, b - 1)
        if (sa, sb) != expected:
            bad.append(f"{shape}:{t}:case-table")
        if (sa, sb) == (a, b) and not (standard[k] and standard[sigma[k]]):
            bad.append(f"{shape}:{t}:equal-implies-standard")
    # some u on the cycle of sigma through k is standard (unequal rows: u and
    # sigma u are), which is decided once per cycle, at its first vertex
    if shape.is_equal_row:
        item, good = "no-standard", standard
    else:
        item, good = "no-consecutive-standard", [standard[u] and standard[v] for u, v in enumerate(sigma)]
    holds: dict[int, bool] = {}
    for k, t in enumerate(vertices):
        if k not in holds:
            cycle = [k]
            while sigma[cycle[-1]] != k:
                cycle.append(sigma[cycle[-1]])
            holds.update(dict.fromkeys(cycle, any(good[u] for u in cycle)))
        if not holds[k]:
            bad.append(f"{shape}:{t}:{item}")
    return bad


def _coset_suite(s: _Shape) -> tuple[list[str], int]:
    """
    The map w -> w applied to the canonical tableau is a bijection from the
    minimal coset representatives onto the row-standard tableaux, in order,
    matching finite descents to left descents and the affine descent n to
    the two-condition window characterization.
    """
    shape = s.shape
    n = shape.n
    reps = min_coset_reps(shape)
    canonical = canonical_tableau(shape)
    images = [tableau_action(w, canonical) for w in reps]
    if images != list(s.g.vertices):
        return [f"{shape}:not-bijective"], 0
    bad = []
    for w, image in zip(reps, images):
        descents = affine_descents(image)
        fin = descents - {n}  # the finite descents
        # the left descents i < n of w are the right descents of its inverse
        winv = inverse(w).window
        if fin != frozenset(i for i in range(1, n) if winv[i - 1] > winv[i]):
            bad.append(f"{shape}:{w}:finite-descents")
        split_rows = image.row_of(1) != image.row_of(n)
        affine_marked = n in descents
        if affine_marked != (split_rows and winv[0] < winv[n - 1]):
            bad.append(f"{shape}:{w}:affine-descent")
    return bad, 0


ALL_CHECKS = (
    "fixtures",
    "verification_sweep",
    "equal_variants",
    "mutation_sensitivity",
    "underlying_and_omega",
    "rsk_vector",
    "restriction_cells",
    "finite_move_labels",
    "shift_suite",
    "coset_suite",
)


# The swept checks in report order, one per-shape part each, with the shapes
# each runs on for a given max_n.  A part returns its findings on the shape
# and the number of items it checked.  Mutation sensitivity stops at n = 6,
# the finite move labels run one size higher, and the restriction cells also
# run on (3,2), the shape of the transcribed reference.
_PARTS = (
    ("verification_sweep", _verification, lambda shape, max_n: shape.n <= max_n),
    ("mutation_sensitivity", _mutation_sensitivity, lambda shape, max_n: shape.n <= min(max_n, 6)),
    ("underlying_and_omega", _underlying_and_omega, lambda shape, max_n: shape.n <= max_n),
    ("restriction_cells", _restriction_cells, lambda shape, max_n: shape.n <= max_n or shape == _FIXTURE_SHAPE),
    ("finite_move_labels", _finite_move_labels, lambda shape, max_n: shape.n <= max_n + 1),
    ("shift_suite", _shift_suite, lambda shape, max_n: shape.n <= max_n),
    ("coset_suite", _coset_suite, lambda shape, max_n: shape.n <= max_n),
)


def _run_shapes(shapes: list[Partition], max_n: int, names) -> list[list[tuple[list[str], int]]]:
    """
    Per shape, the parts of the named checks in _PARTS order.  The shapes
    of one size share the finite graphs they build (a cell's insertion
    shape has the same size), so each finite graph is built once.
    """
    outcomes = {}
    size = attrgetter("n")
    for _, same_size in groupby(sorted(shapes, key=size), key=size):
        finite_graph = cache(build_finite_graph)
        for shape in same_size:
            s = _Shape(shape, finite_graph)
            outcomes[shape] = [
                part(s) if runs(shape, max_n) else ([], 0)
                for name, part, runs in _PARTS if name in names
            ]
    return [outcomes[shape] for shape in shapes]


def _sweep(max_n: int, names, jobs: int = 1) -> dict[str, RegressResult]:
    """The named swept checks, with the shapes spread over `jobs` processes, largest first."""
    # 8.0 could not bound a range, and True == 1 would run as one process
    for name, value in (("max_n", max_n), ("jobs", jobs)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, not {value!r}")
    if max_n < 3:
        raise ValueError(f"max_n must be at least 3, the size of the smallest shape, not {max_n}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    parts = [(name, runs) for name, _, runs in _PARTS if name in names]
    shapes = [
        shape for shape in two_row_shapes(3, max(max_n + 1, _FIXTURE_SHAPE.n))
        if any(runs(shape, max_n) for _, runs in parts)
    ]
    # a process per shape at most: the pool forks all its workers up front
    jobs = min(jobs, len(shapes))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # largest first, each to the process with the fewest vertices so far
        batches: list[list[Partition]] = [[] for _ in range(jobs)]
        sizes = [0] * jobs
        for shape in sorted(shapes, key=lambda shape: comb(shape.n, shape.parts[1]), reverse=True):
            k = sizes.index(min(sizes))
            batches[k].append(shape)
            sizes[k] += comb(shape.n, shape.parts[1])
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = {
                shape: outcome
                for batch, batch_outcomes in zip(batches, pool.map(_run_shapes, batches, repeat(max_n), repeat(names)))
                for shape, outcome in zip(batch, batch_outcomes)
            }
        outcomes = [done[shape] for shape in shapes]
    else:
        outcomes = _run_shapes(shapes, max_n, names)
    return {
        name: _result(name, [item for items, _ in per_shape for item in items], sum(c for _, c in per_shape), max_n)
        for (name, _), per_shape in zip(parts, zip(*outcomes))
    }


def _result(name: str, bad: list[str], checked: int, max_n: int) -> RegressResult:
    if bad:
        # the two suites report only their first four findings
        shown = bad[:4] if name in ("shift_suite", "coset_suite") else bad
        return RegressResult(name, False, ", ".join(shown))
    detail = {
        "verification_sweep": f"{checked} shapes, rules + module relations",
        "mutation_sensitivity": f"{checked} single-edge deletions all detected",
        "finite_move_labels": f"{checked} moves, all with j >= i-1",
    }
    return RegressResult(name, True, detail.get(name, f"n <= {max_n}"))


def run_regression(max_n: int = 8, jobs: int = 1) -> list[RegressResult]:
    """
    Run every check.  max_n bounds the shape sweeps; the finite move-label
    check runs one size higher, and mutation sensitivity is capped at n = 6.
    """
    results = _sweep(max_n, ALL_CHECKS, jobs)
    for result in (check_fixtures(), check_equal_variants(), check_rsk_vector()):
        results[result.name] = result
    return [results[name] for name in ALL_CHECKS]
