"""
I-labeled graphs: tableau vertices, descent labels tau, and a sparse
nonnegative integer weight map, together with the structural operations
(parabolic restriction, simple underlying graph, cells, simple component
numbers, reducedness, nb-admissibility) and JSON/DOT export.

The index set is {1..n} for affine graphs and {1..n-1} for finite ones;
all orderings are canonical so exports are byte-for-byte reproducible:
every graph holds its edges in (src, dst) order, set where the graph is
made, so its readers (the adjacency, JSON and DOT) never sort them.
The values derived from a graph (its adjacency, the shift automorphism
and its orbit representatives) are computed once per graph object, on
first use, and kept on it as tuples; a graph keeps nothing else, and what
a check builds for itself is freed when the check returns.  A graph made
by a two-row builder holds its vertices as their row-2 masks and makes
its tableaux in one pass when they are first read; the graphs derived
from it hold the same store, so the tableaux are made once between them.
Readers that need only the vertex count take it from the labels.  The
shift's vertex permutation is derived from the row codes of the vertices
(tableaux.row_codes), which for such a graph are its masks, so no tableau
is made for it; the shift automorphism is then tested on the adjacency
rows: the image {sigma v: w} of the row of u must be the row of sigma u,
so no weight is looked up by its vertex pair, and each distinct tau set
is shifted once.  The public
constructor copies and checks its fields, the vertices in one pass that
names the first one at fault.  The JSON format of a graph, its vertices
included, is written and read here only: graph_from_json reads it top
down in one pass, naming each container of the wrong JSON kind before
anything in it is read: the graph an object, the index set, the
vertices, tau and the edges lists, each edge an object (no edge
repeated), each vertex an object whose rows and each row are lists, then
built by the tableau constructor (naming the vertex whose rows it
rejects), and each vertex's label list a list.  It then checks the graph
with the public constructor, and last each vertex's copy of n and that
neither the index set nor a label list repeats an entry.  The two-row
builders, and restrictions, subgraphs and simple underlying graphs of a
valid graph, are built without either; they keep the order because they
filter their parent's edges.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType

from .tableaux import (
    Partition, RowStandardTableau, _Frozen, enumerate_rsyt, row_codes, shift_permutation, tableau_text,
)

# (w, coefficient) pairs, such as the out-edges (w, m(u > w)) of a vertex
Edges = tuple[tuple[int, int], ...]

__all__ = [
    "LabeledWGraph", "full_subgraph",
    "restrict_parabolic", "simple_underlying", "cells", "simple_component_ids",
    "is_reduced", "is_nb_admissible", "dynkin_adjacent",
    "graph_to_json", "graph_from_json", "graph_to_dot",
]


class _TwoRowVertices:
    """
    The vertices of a graph on all the row-standard tableaux of a two-row
    shape, held as their row-2 masks (entry e is bit e - 1) in the
    enumerate_rsyt order.  The tableaux are made in one pass, by
    enumerate_rsyt, when a graph first reads them, and kept here, so that
    every graph that holds this store reads the same tableaux.
    """

    __slots__ = ("shape", "masks", "tableaux")

    def __init__(self, shape: Partition, masks: tuple[int, ...]):
        self.shape, self.masks, self.tableaux = shape, masks, None

    def read(self) -> tuple[RowStandardTableau, ...]:
        if self.tableaux is None:
            self.tableaux = tuple(enumerate_rsyt(self.shape))
        return self.tableaux


class LabeledWGraph(_Frozen):
    n: int
    index_set: frozenset[int]
    vertices: tuple[RowStandardTableau, ...]
    tau: tuple[frozenset[int], ...]
    weights: Mapping[tuple[int, int], int]  # (src, dst) -> nonzero weight, read-only

    def __init__(self, n, index_set, vertices, tau, weights):
        # own copies, so that the caller's containers cannot change the graph
        # (a frozenset or tuple of an exact frozenset or tuple is itself)
        vars(self).update(
            n=n, index_set=frozenset(index_set), vertices=tuple(vertices), tau=tuple(map(frozenset, tau)),
            weights=weights,
        )
        count = len(self.vertices)
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"n must be a positive integer, not {self.n!r}")
        if not all(type(i) is int and 1 <= i <= self.n for i in self.index_set):
            raise ValueError(f"index set {set(self.index_set)} is not a subset of 1..{self.n}")
        if len(self.tau) != count:
            raise ValueError(f"{len(self.tau)} tau labels for {count} vertices")
        # vertex 0's size, then each vertex's shape against vertex 0's (a
        # vertex of that shape has its size), then whether it is repeated
        first = tuple(map(len, self.vertices[0].rows)) if count else None
        seen = set()
        for k, t in enumerate(self.vertices):
            rows = t.rows
            shape = tuple(map(len, rows))
            if shape != first or not k and sum(shape) != self.n:
                if sum(shape) != self.n:
                    raise ValueError(f"vertex {k} ({tableau_text(t)}) has {sum(shape)} entries, not {self.n}")
                raise ValueError(
                    f"vertex {k} ({tableau_text(t)}) has shape {shape}, not {first} as vertex 0"
                )
            if rows in seen:
                raise ValueError(f"vertex {k} ({tableau_text(t)}) is repeated")
            seen.add(rows)
        for (u, v), w in self.weights.items():
            if not (type(u) is int and type(v) is int and 0 <= u < count and 0 <= v < count):
                raise ValueError(f"edge {(u, v)} has an endpoint outside 0..{count - 1}")
            if type(w) is not int:
                raise ValueError(f"weight of edge {(u, v)} is not an integer: {w!r}")
            if w == 0:
                raise ValueError(f"stored weight must be nonzero: {(u, v)}")
        # True == 1 and 1.0 == 1 pass the subset test, so check types too
        # (and every set: {True} == {1}, so the distinct sets would not do)
        for s in self.tau:
            if not (s <= self.index_set and set(map(type, s)) <= {int}):
                raise ValueError(f"tau value {set(s)} outside index set")
        # the endpoints are ints now, so the (src, dst) keys sort; edges
        # given in that order are copied as they are
        keys = list(self.weights)
        weights = dict(self.weights) if keys == sorted(keys) else dict(sorted(self.weights.items()))
        object.__setattr__(self, "weights", MappingProxyType(weights))

    @classmethod
    def _trusted(cls, n, index_set, vertices, tau, weights) -> "LabeledWGraph":
        """
        The graph with these fields, not copied or checked again: only for a
        graph derived from a valid one (a subgraph, a restriction) or made
        by a two-row builder, with n a positive int, index_set a frozenset
        of ints in 1..n, vertices a tuple of distinct tableaux of one shape
        of size n, or the _TwoRowVertices of a two-row shape of size n, tau
        a tuple of frozensets of the index set, and weights a fresh dict of
        nonzero int weights on vertex pairs, in (src, dst) order, that
        nothing else holds, wrapped read-only as the public constructor
        wraps its copy.
        """
        g = object.__new__(cls)
        # a store of row-2 masks stands in for the vertices until they are read
        held = "_store" if type(vertices) is _TwoRowVertices else "vertices"
        vars(g).update({held: vertices}, n=n, index_set=index_set, tau=tau, weights=MappingProxyType(weights))
        return g

    def _derived(self, index_set, tau, weights) -> "LabeledWGraph":
        """
        The graph on this graph's vertices with these fields, as _trusted
        takes them.  It holds this graph's store of row-2 masks, if it has
        one, so that the tableaux are made once between them, whichever
        graph reads them first.
        """
        store = vars(self).get("_store")
        return LabeledWGraph._trusted(self.n, index_set, self.vertices if store is None else store, tau, weights)

    @cached_property
    def vertices(self) -> tuple[RowStandardTableau, ...]:
        """Made from the store of row-2 masks on first read; any other graph sets them when it is made."""
        return self._store.read()

    def __reduce__(self):
        # rebuilt from the fields: the weight proxy cannot be pickled, and
        # the cached derived values are recomputed on demand
        return (LabeledWGraph, (self.n, self.index_set, self.vertices, self.tau, dict(self.weights)))

    @property
    def is_affine(self) -> bool:
        return self.n in self.index_set

    @cached_property
    def adjacency(self) -> tuple[Edges, ...]:
        """The out-edges of each vertex as (target, weight) pairs, by target."""
        # one tau label per vertex: the count, without reading the vertices
        adj: list[list[tuple[int, int]]] = [[] for _ in self.tau]
        for (u, v), w in self.weights.items():
            adj[u].append((v, w))
        return tuple(map(tuple, adj))

    @cached_property
    def shift_automorphism(self) -> tuple[int, ...] | None:
        """
        The vertex permutation sigma of the shift when it is an
        automorphism, else None: the index set is 1..n, every shifted vertex
        is a vertex, m(sigma u > sigma v) = m(u > v) for every edge (tested
        first, one adjacency row at a time up to the first mismatch) and
        tau(sigma u) = tau(u) + 1 mod n (each distinct tau set shifted once).
        """
        n = self.n
        # the members lie in 1..n, so the size decides (n may be too large for a range)
        if len(self.index_set) != n:
            return None
        sigma = shift_permutation(n, *self.row_codes())
        if sigma is None:
            return None
        # the image {sigma v: w} of each row lies in the row of sigma u; as
        # sigma is a bijection, that maps the edge set onto itself
        adj = self.adjacency
        for row, image in zip(adj, map(adj.__getitem__, sigma)):
            get = dict(image).get
            for v, w in row:
                if get(sigma[v]) != w:
                    return None
        tau = self.tau
        shifted = {t: frozenset(i % n + 1 for i in t) for t in set(tau)}
        if list(map(shifted.__getitem__, tau)) != [tau[k] for k in sigma]:
            return None
        return sigma

    @cached_property
    def shift_orbit_representatives(self) -> tuple[int, ...] | None:
        """
        The least vertex of each orbit of shift_automorphism, in increasing
        order, or None when the shift is not an automorphism.
        """
        sigma = self.shift_automorphism
        if sigma is None:
            return None
        seen = [False] * len(sigma)
        representatives = []
        for u in range(len(sigma)):
            if not seen[u]:
                representatives.append(u)
                v = u
                while not seen[v]:
                    seen[v] = True
                    v = sigma[v]
        return tuple(representatives)

    def row_codes(self) -> tuple[int, tuple[int, ...]]:
        """
        The width and the row code of each vertex, as tableaux.row_codes
        gives them: a graph held as row-2 masks gives its masks (width 1)
        and makes no tableau, any other computes them from its tableaux.
        """
        store = vars(self).get("_store")
        return row_codes(self.vertices) if store is None else (1, store.masks)

    def vertex_index(self) -> dict[RowStandardTableau, int]:
        return {t: k for k, t in enumerate(self.vertices)}


def dynkin_adjacent(g: LabeledWGraph, i: int, j: int) -> bool:
    """
    Type-A adjacency of two generators: cyclic distance 1 for the affine
    index set {1..n}, |i-j| = 1 for the finite one.
    """
    if g.is_affine:
        return (i - j) % g.n in (1, g.n - 1)
    return abs(i - j) == 1


def full_subgraph(g: LabeledWGraph, vertex_ids: list[int]) -> LabeledWGraph:
    """Subgraph on the given vertices keeping all internal weights."""
    ids = sorted(vertex_ids)
    if len(set(ids)) != len(ids) or not all(0 <= k < len(g.vertices) for k in ids):
        raise ValueError(f"vertex ids must be distinct and in 0..{len(g.vertices) - 1}")
    renumber = {old: new for new, old in enumerate(ids)}
    # the out-edges of the kept vertices only, by source and target
    adj = g.adjacency
    weights = {
        (renumber[u], renumber[v]): w
        for u in ids
        for v, w in adj[u]
        if v in renumber
    }
    return LabeledWGraph._trusted(
        g.n, g.index_set, tuple(g.vertices[k] for k in ids), tuple(g.tau[k] for k in ids), weights
    )


def restrict_parabolic(g: LabeledWGraph, j_set) -> LabeledWGraph:
    """
    Intersect every tau with J and delete each edge u->v whose restricted
    label tau'(u) became a subset of tau'(v).
    """
    j_set = frozenset(j_set)
    # True == 1 and 1.0 == 1 pass the subset test, so check types too
    if not (j_set <= g.index_set and all(type(i) is int for i in j_set)):
        raise ValueError(f"J = {set(j_set)} is not a subset of the index set")
    tau = tuple(s & j_set for s in g.tau)
    weights = {
        (u, v): w for (u, v), w in g.weights.items() if not tau[u] <= tau[v]
    }
    return g._derived(j_set, tau, weights)


def simple_underlying(g: LabeledWGraph) -> LabeledWGraph:
    """Keep exactly the pairs joined by weight 1 in both directions."""
    weights = {
        (u, v): 1
        for (u, v), w in g.weights.items()
        if u != v and w == 1 and g.weights.get((v, u)) == 1
    }
    return g._derived(g.index_set, g.tau, weights)


def _scc_partition(g: LabeledWGraph) -> list[list[int]]:
    """Strongly connected components (iterative Tarjan), sorted canonically."""
    count = len(g.tau)
    adj = g.adjacency
    index = [-1] * count
    lowlink = [0] * count
    on_stack = [False] * count
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(count):
        if index[root] != -1:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        # a frame is a vertex and the iterator over its out-edges, resumed after a descent
        work = [(root, iter(adj[root]))]
        while work:
            v, edges = work[-1]
            for w, _ in edges:
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(sorted(comp))
                if work:
                    parent = work[-1][0]
                    if lowlink[v] < lowlink[parent]:
                        lowlink[parent] = lowlink[v]
    comps.sort(key=lambda c: c[0])
    return comps


def cells(g: LabeledWGraph) -> list[LabeledWGraph]:
    """Strongly connected components as full subgraphs, by least vertex."""
    return [full_subgraph(g, comp) for comp in _scc_partition(g)]


# simple_underlying keeps (u, v) exactly when (v, u) is kept too, so its
# edge relation is symmetric and its strongly connected components are its
# connected components: _scc_partition serves both, sorted by least vertex.


def simple_component_ids(g: LabeledWGraph) -> list[int]:
    """Per-vertex component number in the simple underlying graph."""
    return _component_ids(simple_underlying(g))


def _component_ids(simple: LabeledWGraph) -> list[int]:
    """Per-vertex component number in a graph returned by simple_underlying."""
    ids = [0] * len(simple.tau)
    for k, comp in enumerate(_scc_partition(simple)):
        for v in comp:
            ids[v] = k
    return ids


def is_reduced(g: LabeledWGraph) -> bool:
    """No nonzero weight u->v with tau(u) a subset of tau(v)."""
    return all(not g.tau[u] <= g.tau[v] for (u, v) in g.weights)


def is_nb_admissible(g: LabeledWGraph) -> bool:
    """
    Nonnegative integer weights, and symmetric weights on every pair whose
    tau-labels are incomparable (bipartiteness is not required).
    """
    if any(w < 0 for w in g.weights.values()):
        return False
    for (u, v), w in g.weights.items():
        tu, tv = g.tau[u], g.tau[v]
        if not (tu <= tv or tv <= tu) and g.weights.get((v, u), 0) != w:
            return False
    return True


def graph_to_json(g: LabeledWGraph) -> dict:
    n = g.n
    return {
        "n": n,
        "index_set": sorted(g.index_set),
        # the JSON of a vertex, which graph_from_json reads back
        "vertices": [{"rows": list(map(list, t.rows)), "n": n} for t in g.vertices],
        "tau": [sorted(s) for s in g.tau],
        "edges": [
            {"src": u, "dst": v, "w": w}
            for (u, v), w in g.weights.items()
        ],
    }


def graph_from_json(data: dict) -> LabeledWGraph:
    # top down, each container checked before anything in it is read: a JSON
    # object or string where a list belongs would be read as its keys or characters
    if type(data) is not dict:
        raise ValueError(f"graph {_must_be('object', data)}")
    index_set, vertices, tau, edges = data["index_set"], data["vertices"], data["tau"], data["edges"]
    for name, value in (("index_set", index_set), ("vertices", vertices), ("tau", tau), ("edges", edges)):
        if type(value) is not list:
            raise ValueError(f"{name} {_must_be('list', value)}")
    weights: dict[tuple[int, int], int] = {}
    for k, e in enumerate(edges):
        if type(e) is not dict:
            raise ValueError(f"edge {k} {_must_be('object', e)}")
        edge = (e["src"], e["dst"])
        if edge in weights:
            raise ValueError(f"duplicate edge {edge}")
        weights[edge] = e["w"]
    tableaux = []
    for k, v in enumerate(vertices):
        if type(v) is not dict:
            raise ValueError(f"vertex {k} {_must_be('object', v)}")
        rows = v["rows"]
        if type(rows) is not list:
            raise ValueError(f"rows of vertex {k} {_must_be('list', rows)}")
        for a, row in enumerate(rows):
            if type(row) is not list:
                raise ValueError(f"row {a} of vertex {k} {_must_be('list', row)}")
        try:  # the tableau constructor checks the rows and copies them into tuples
            tableaux.append(RowStandardTableau(rows))
        except ValueError as err:
            raise ValueError(f"vertex {k}: {err}") from err
    # the label list of each vertex; one past the last vertex is left for the constructor to count
    for k, (t, listed) in enumerate(zip(tableaux, tau)):
        if type(listed) is not list:
            raise ValueError(f"tau of vertex {k} ({tableau_text(t)}) {_must_be('list', listed)}")
    g = LabeledWGraph(n=data["n"], index_set=index_set, vertices=tableaux, tau=tau, weights=weights)
    # each vertex repeats n; read once the graph is accepted, so that the
    # constructor names a vertex of another size first
    for k, (t, v) in enumerate(zip(g.vertices, vertices)):
        m = v["n"]
        if type(m) is not int or m != g.n:
            raise ValueError(f"vertex {k} ({tableau_text(t)}) has n = {m!r}, not {g.n}")
    # a label equal to an earlier one of its list (true or 1.0 after 1, or
    # 1 again) collapses into it in the set the constructor checked
    if len(g.index_set) != len(index_set):
        raise ValueError(f"index set {index_set} repeats an entry")
    for k, (t, labels, listed) in enumerate(zip(g.vertices, g.tau, tau)):
        if len(labels) != len(listed):
            raise ValueError(f"tau of vertex {k} ({tableau_text(t)}) repeats a label: {listed}")
    return g


_JSON_KINDS = {
    dict: "an object", list: "a list", str: "a string", bool: "a boolean",
    int: "a number", float: "a number", type(None): "null",
}


def _must_be(kind: str, value) -> str:
    """The end of the message for a value of graph_from_json where a JSON `kind` belongs."""
    return f"must be a JSON {kind}, not {_JSON_KINDS.get(type(value), type(value).__name__)}"


def graph_to_dot(g: LabeledWGraph, name: str = "wgraph") -> str:
    """
    DOT rendering: mutual weight-1 pairs appear once with dir=none, every
    other edge, self-loops included, as an arrow; vertex labels = compact
    tableau text plus tau.
    """
    lines = [f'digraph "{name}" {{', '  node [shape=box fontname="monospace"];']
    for k, t in enumerate(g.vertices):
        tau = "{" + ",".join(str(i) for i in sorted(g.tau[k])) + "}"
        lines.append(f'  v{k} [label="{tableau_text(t)}\\n{tau}"];')
    mutual = simple_underlying(g).weights
    for u, v in mutual:
        if u < v:
            lines.append(f"  v{u} -> v{v} [dir=none];")
    for (u, v), w in g.weights.items():
        if (u, v) not in mutual:
            attr = "" if w == 1 else f' [label="{w}"]'
            lines.append(f"  v{u} -> v{v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
