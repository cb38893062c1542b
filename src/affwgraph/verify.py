"""
Two independent ways to certify that a labeled graph is a W-graph, plus the
restriction-cell classifier.

The four local rules (compatibility, simplicity, bonding, polygon)
characterize the nb-admissible reduced graphs carrying a Hecke module; the
matrix check instead builds the generator action

    T_i(u) = q*u                                    if i not in tau(u)
    T_i(u) = -u + v * sum m(u > w) * w over w with i not in tau(w)
                                                    if i in tau(u)

and verifies the quadratic, commutation and braid relations on every basis
vector.  Rule checkers report every witness they find.

The relations are checked in exact Python integers with v evaluated at
X = 2**B.  Every matrix entry (q, -1 or v*m) has no negative power of v, so
each relation residual is a polynomial P(v) in v.  Write |x| for the sum of
the absolute values of all coefficients of a vector x of polynomials; then
|T_i x| <= M |x|, where M is the largest column norm: 1 for a q column and
1 + sum |m(u > w)| otherwise.  From a basis vector the quadratic residual
T^2 e + (1 - q) T e - q e has norm at most M^2 + 2M + 1 = (M + 1)^2, the
commutation residual at most 2M^2 and the braid residual at most 2M^3, so
every coefficient of every residual is at most C = max((M + 1)^2, 2M^3).
If P != 0 has degree d, |P(X)| >= X^d - C (X^d - 1)/(X - 1) > 0 once
X > C, and X > 2C (asserted) even makes the coefficients the balanced
base-X digits of P(X).  So P(X) = 0 exactly when P = 0, for any integer
weights, and the witnesses are those of the polynomial check.  Only the
public hecke_matrices evaluates the same columns as LaurentPoly entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .laurent import ZERO, LaurentPoly, lp_monomial
from .rsk import rsk
from .tableaux import Partition
from .tworow import build_affine_graph
from .wgraph import (
    LabeledWGraph,
    cells,
    dynkin_adjacent,
    out_neighbors,
    restrict_parabolic,
)

__all__ = [
    "RuleReport", "check_compatibility", "check_simplicity", "check_bonding",
    "check_polygon", "check_all_rules", "rules_hold",
    "hecke_matrices", "check_hecke_relations", "hecke_holds",
    "classify_restriction_cells", "CellMismatchError",
]


@dataclass(frozen=True)
class RuleReport:
    rule: str
    passed: bool
    witnesses: tuple = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "passed": self.passed,
            "witnesses": [list(w) for w in self.witnesses],
        }


def _report(rule: str, witnesses: list) -> RuleReport:
    return RuleReport(rule, not witnesses, tuple(sorted(witnesses)))


def check_compatibility(g: LabeledWGraph) -> RuleReport:
    """Every edge only separates Dynkin-adjacent pairs of tau labels."""
    witnesses = []
    for (u, v) in g.weights:
        for i in g.tau[u] - g.tau[v]:
            for j in g.tau[v] - g.tau[u]:
                if not dynkin_adjacent(g, i, j):
                    witnesses.append((u, v, i, j))
    return _report("compatibility", witnesses)


def check_simplicity(g: LabeledWGraph) -> RuleReport:
    """One-way edges go strictly down in tau; incomparable edges are mutual of weight 1."""
    witnesses = []
    for (u, v), w in g.weights.items():
        tu, tv = g.tau[u], g.tau[v]
        if tu > tv:
            if g.weights.get((v, u), 0) != 0:
                witnesses.append((u, v))
        elif not (tu <= tv or tv <= tu):
            if w != 1 or g.weights.get((v, u), 0) != 1:
                witnesses.append((u, v))
        else:
            witnesses.append((u, v))  # tau(u) <= tau(v): not even reduced
    return _report("simplicity", witnesses)


def check_bonding(g: LabeledWGraph) -> RuleReport:
    """Adjacent i,j: each u in V_{i/j} has exactly one mutual partner in V_{j/i}."""
    witnesses = []
    pairs = [
        (i, j)
        for i in sorted(g.index_set)
        for j in sorted(g.index_set)
        if i < j and dynkin_adjacent(g, i, j)
    ]
    mutual: list[list[int]] = [[] for _ in g.vertices]
    for (u, v) in g.weights:
        if (v, u) in g.weights:  # stored weights are nonzero
            mutual[u].append(v)
    for i, j in pairs:
        for u in range(len(g.vertices)):
            for a, b in ((i, j), (j, i)):
                if a not in g.tau[u] or b in g.tau[u]:
                    continue
                partners = sum(
                    1 for v in mutual[u] if b in g.tau[v] and a not in g.tau[v]
                )
                if partners != 1:
                    witnesses.append((u, a, b, partners))
    return _report("bonding", witnesses)


def check_polygon(g: LabeledWGraph) -> RuleReport:
    """
    N^2_{ij}(u,v) = N^2_{ji}(u,v) for all i != j, and N^3 agreement when i,j
    are adjacent, over all u with i,j in tau(u) and v with i,j outside tau(v).
    """
    witnesses = []
    count = len(g.vertices)
    adj = out_neighbors(g)
    generators = sorted(g.index_set)

    def paths2(i: int, j: int, u: int) -> dict[int, int]:
        """v -> sum over w in V_{i/j} of m(u>w) m(w>v)."""
        totals: dict[int, int] = {}
        for w, wt1 in adj[u]:
            if i in g.tau[w] and j not in g.tau[w]:
                for v, wt2 in adj[w]:
                    totals[v] = totals.get(v, 0) + wt1 * wt2
        return totals

    def paths3(i: int, j: int, u: int) -> dict[int, int]:
        """v -> sum over w1 in V_{i/j}, w2 in V_{j/i} of the 3-step products."""
        totals: dict[int, int] = {}
        for w1, wt1 in adj[u]:
            if i not in g.tau[w1] or j in g.tau[w1]:
                continue
            for w2, wt2 in adj[w1]:
                if j not in g.tau[w2] or i in g.tau[w2]:
                    continue
                for v, wt3 in adj[w2]:
                    totals[v] = totals.get(v, 0) + wt1 * wt2 * wt3
        return totals

    for ai, i in enumerate(generators):
        for j in generators[ai + 1:]:
            sources = [u for u in range(count) if i in g.tau[u] and j in g.tau[u]]
            sinks = [v for v in range(count) if i not in g.tau[v] and j not in g.tau[v]]
            if not sources or not sinks:
                continue
            adjacent = dynkin_adjacent(g, i, j)
            for u in sources:
                n2_ij = paths2(i, j, u)
                n2_ji = paths2(j, i, u)
                n3_ij = paths3(i, j, u) if adjacent else {}
                n3_ji = paths3(j, i, u) if adjacent else {}
                for v in sinks:
                    if n2_ij.get(v, 0) != n2_ji.get(v, 0):
                        witnesses.append((u, v, i, j, 2, n2_ij.get(v, 0), n2_ji.get(v, 0)))
                    if adjacent and n3_ij.get(v, 0) != n3_ji.get(v, 0):
                        witnesses.append((u, v, i, j, 3, n3_ij.get(v, 0), n3_ji.get(v, 0)))
    return _report("polygon", witnesses)


def check_all_rules(g: LabeledWGraph) -> list[RuleReport]:
    return [
        check_compatibility(g),
        check_simplicity(g),
        check_bonding(g),
        check_polygon(g),
    ]


def rules_hold(g: LabeledWGraph) -> bool:
    return all(r.passed for r in check_all_rules(g))


def _hecke_columns(g: LabeledWGraph) -> dict[int, list[dict[int, tuple[int, int]]]]:
    """
    Sparse columns of each T_i: columns[i][u] maps a row index w to the
    monomial (c, e) standing for the entry c * v**e, which is q = (1, 2),
    -1 = (-1, 0) or v*m(u > w) = (m, 1).
    """
    adj = out_neighbors(g)
    columns: dict[int, list[dict[int, tuple[int, int]]]] = {}
    for i in sorted(g.index_set):
        cols = []
        for u in range(len(g.vertices)):
            if i not in g.tau[u]:
                cols.append({u: (1, 2)})
                continue
            col = {u: (-1, 0)}
            # each w occurs once in adj[u] and is not u, as i is in tau(u)
            for w, wt in adj[u]:
                if i not in g.tau[w]:
                    col[w] = (wt, 1)
            cols.append(col)
        columns[i] = cols
    return columns


def hecke_matrices(g: LabeledWGraph) -> dict[int, list[list[LaurentPoly]]]:
    """Dense matrix of each generator: matrix[row][col] in the vertex basis."""
    count = len(g.vertices)
    matrices = {}
    for i, cols in _hecke_columns(g).items():
        matrix = [[ZERO] * count for _ in range(count)]
        for u, col in enumerate(cols):
            for w, (c, e) in col.items():
                matrix[w][u] = lp_monomial(c, e)
        matrices[i] = matrix
    return matrices


def _evaluation_point(columns: dict[int, list[dict[int, tuple[int, int]]]]) -> int:
    """
    X = 2**B with X > 2*C, where C = max((M+1)**2, 2*M**3) bounds every
    coefficient of every relation residual and M is the largest column norm
    (see the module docstring).
    """
    norm = max(
        (sum(abs(c) for c, _ in col.values()) for cols in columns.values() for col in cols),
        default=1,
    )
    bound = max((norm + 1) ** 2, 2 * norm ** 3)
    x = 1 << (2 * bound).bit_length()
    assert x > 2 * bound, (x, bound)
    return x


def _apply(cols: list[list[tuple[int, int]]], vec: dict[int, int]) -> dict[int, int]:
    """T * vec for integer columns, without zero entries."""
    out: dict[int, int] = {}
    get = out.get
    for u, a in vec.items():
        for w, c in cols[u]:
            out[w] = get(w, 0) + a * c
    return {w: c for w, c in out.items() if c}


def _hecke_witnesses(g: LabeledWGraph, stop_on_first: bool):
    columns = _hecke_columns(g)
    x = _evaluation_point(columns)
    q = x * x
    evaluated = {
        i: [[(w, c * x ** e) for w, (c, e) in col.items()] for col in cols]
        for i, cols in columns.items()
    }
    generators = sorted(g.index_set)
    count = len(g.vertices)

    for i in generators:
        cols = evaluated[i]
        for u in range(count):
            first = dict(cols[u])
            residual = _apply(cols, first)
            for w, c in first.items():
                residual[w] = residual.get(w, 0) + (1 - q) * c
            residual[u] = residual.get(u, 0) - q
            if any(residual.values()):
                yield ("quadratic", i, i, u)
                if stop_on_first:
                    return

    for ai, i in enumerate(generators):
        for j in generators[ai + 1:]:
            ci, cj = evaluated[i], evaluated[j]
            adjacent = dynkin_adjacent(g, i, j)
            relation = "braid" if adjacent else "commutation"
            for u in range(count):
                if adjacent:
                    left = _apply(ci, _apply(cj, dict(ci[u])))
                    right = _apply(cj, _apply(ci, dict(cj[u])))
                else:
                    left = _apply(ci, dict(cj[u]))
                    right = _apply(cj, dict(ci[u]))
                if left != right:
                    yield (relation, i, j, u)
                    if stop_on_first:
                        return


def check_hecke_relations(g: LabeledWGraph) -> RuleReport:
    """
    Verify (T_i - q)(T_i + 1) = 0 for every generator, commutation for
    non-adjacent pairs and the length-3 braid relation for adjacent ones,
    on every basis vector.  Witnesses are (relation, i, j, basis vertex).
    """
    return _report("hecke", list(_hecke_witnesses(g, stop_on_first=False)))


def hecke_holds(g: LabeledWGraph) -> bool:
    """Same as check_hecke_relations but stops at the first failure."""
    return next(_hecke_witnesses(g, stop_on_first=True), None) is None


class CellMismatchError(RuntimeError):
    """The SCC partition of the restriction disagrees with the RSK fibers."""


def classify_restriction_cells(shape: Partition) -> dict[Partition, LabeledWGraph]:
    """
    Restrict the affine graph of the shape to [1, n-1], check that its cells
    are exactly the fibers of the RSK recording tableau, and return them
    keyed by the insertion shape (which determines the recording tableau
    for two-row content).
    """
    g = build_affine_graph(shape)
    restricted = restrict_parabolic(g, range(1, shape.n))
    fibers: dict[tuple, set[int]] = {}
    keys: dict[tuple, Partition] = {}
    for k, t in enumerate(restricted.vertices):
        pair = rsk(t)
        label = (pair.q.shape, pair.q.rows)
        fibers.setdefault(label, set()).add(k)
        keys[label] = pair.q.shape
    cell_sets = {frozenset(ids) for ids in fibers.values()}
    scc_list = cells(restricted)
    index = restricted.vertex_index()
    scc_sets = {frozenset(index[t] for t in c.vertices) for c in scc_list}
    if cell_sets != scc_sets:
        raise CellMismatchError(
            f"RSK fibers differ from strongly connected components for {shape}"
        )
    by_vertices = {
        frozenset(index[t] for t in c.vertices): c for c in scc_list
    }
    result = {keys[label]: by_vertices[frozenset(ids)] for label, ids in fibers.items()}
    if len(result) != len(fibers):
        raise CellMismatchError(f"insertion shapes do not separate the fibers for {shape}")
    return result
