"""
The three benchmark workloads.  Each runs in one process and one thread.

* sweep10    run_regression(max_n=10, jobs=1), the function behind
             `affwgraph regress --max-n 10`.  Mostly graph building
             (build_dual_equiv alone is about half) and the tableau, RSK and
             coset suites; the Hecke check only sees n <= 10.
* verify_big `affwgraph verify 6 6` and `affwgraph verify 7 6` through
             cli.main: build, the four rules and the full Hecke check at
             n = 12, 13, the layers that are quadratic or worse in V.
* mutants    corrupted graphs of n = 8, 9 pushed through the `verify --input`
             boundary (graph_to_json, JSON text, graph_from_json), then
             check_all_rules, check_hecke_relations and hecke_holds.  Failing
             inputs: many witnesses, and hecke_holds stops early.

sweep10 and verify_big are deterministic; only mutants uses the seed.  A
workload is prepared once (set-up, not timed) and then run in passes; each
pass returns one Op per attempted operation.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import affwgraph.cli as cli
import affwgraph.regress as regress
import affwgraph.tworow as tworow
import affwgraph.verify as verify
import affwgraph.wgraph as wgraph
from affwgraph.tableaux import Partition

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

WORKLOADS = ("sweep10", "verify_big", "mutants")
SCALES = ("full", "tiny")

SWEEP_MAX_N = {"full": 10, "tiny": 6}
VERIFY_SHAPES = {"full": ((6, 6), (7, 6)), "tiny": ((3, 2), (4, 4))}
# Vertex and edge counts of the affine graphs the verify workload checks.
VERTICES_EDGES = {(3, 2): (10, 30), (4, 4): (70, 320), (6, 6): (924, 6552), (7, 6): (1716, 13572)}
VERIFY_RULES = ("compatibility", "simplicity", "bonding", "polygon", "hecke")

# Mutants are drawn per base shape from a fixed pool, so that every seed
# gets the same mix of sizes (the per-shape cost differs by a factor of 5)
# and every pool member has a stored digest to check against.  Drawing 20 of
# 30 keeps the seed-to-seed spread of a pass's total work near 2 %.
MUTANT_SHAPES = ((6, 2), (5, 3), (4, 4), (7, 2), (6, 3), (5, 4))
POOL_PER_SHAPE = 30
MUTANTS_PER_SHAPE = {"full": 20, "tiny": 2}


@dataclass
class Op:
    """One attempted operation: a regression check, a verify report or a mutant."""

    name: str
    ok: bool
    detail: str = ""
    seconds: float | None = None


@dataclass
class Workload:
    name: str
    seed: int
    scale: str
    out_dir: Path
    inputs: list = field(default_factory=list)
    expected: dict = field(default_factory=dict)
    setup_problems: list = field(default_factory=list)


def mutant_spec(shape: tuple[int, int], k: int, g: wgraph.LabeledWGraph):
    """
    Pool member k of the shape: delete 1-3 edges and set one weight of a
    mutual pair with incomparable tau labels to 2, 3 or -1, which breaks
    simplicity, so every mutant must fail the rules.
    """
    rng = random.Random(f"affwgraph-mutant-{shape[0]}-{shape[1]}-{k}")
    edges = sorted(g.weights)
    mutual = [
        (u, v) for (u, v) in edges
        if (v, u) in g.weights and not (g.tau[u] <= g.tau[v] or g.tau[v] <= g.tau[u])
    ]
    reweighted = rng.choice(mutual)
    deleted = rng.sample([e for e in edges if e != reweighted], rng.randint(1, 3))
    weights = dict(g.weights)
    for e in deleted:
        del weights[e]
    weights[reweighted] = rng.choice((2, 3, -1))
    return wgraph.LabeledWGraph(g.n, g.index_set, g.vertices, g.tau, weights)


def report_digest(reports) -> str:
    """Digest of each report's (rule, verdict, witness tuples)."""
    text = repr([(r.rule, r.passed, tuple(r.witnesses)) for r in reports])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def prepare(name: str, seed: int, scale: str, out_dir: Path) -> Workload:
    """Build the inputs of one run.  Nothing here is timed as part of a pass."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    w = Workload(name, seed, scale, out_dir)
    if name == "verify_big":
        for shape in VERIFY_SHAPES[scale]:
            g = tworow.build_affine_graph(Partition(shape))
            got = (len(g.vertices), len(g.weights))
            if got != VERTICES_EDGES[shape]:
                w.setup_problems.append(f"{shape}: V/E {got} != {VERTICES_EDGES[shape]}")
            w.inputs.append(shape)
    elif name == "mutants":
        w.expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))["mutant_digests"]
        rng = random.Random(seed)
        for shape in MUTANT_SHAPES:
            base = tworow.build_affine_graph(Partition(shape))
            for k in sorted(rng.sample(range(POOL_PER_SHAPE), MUTANTS_PER_SHAPE[scale])):
                w.inputs.append((shape, k, mutant_spec(shape, k, base)))
        rng.shuffle(w.inputs)
    return w


def _sweep_pass(w: Workload) -> list[Op]:
    try:
        results = regress.run_regression(max_n=SWEEP_MAX_N[w.scale], jobs=1)
    except Exception as exc:  # a crash fails every check of the pass
        return [Op(name, False, repr(exc)) for name in regress.ALL_CHECKS]
    names = [r.name for r in results]
    if names != list(regress.ALL_CHECKS):
        return [Op(name, False, f"checks returned: {names}") for name in regress.ALL_CHECKS]
    return [Op(r.name, r.passed, r.detail) for r in results]


def _verify_shape(w: Workload, a: int, b: int) -> list[Op]:
    out = w.out_dir / f"verify_{a}_{b}.json"
    start = time.perf_counter()
    try:
        code = cli.main(["verify", str(a), str(b), "--output", str(out)])
        seconds = time.perf_counter() - start
        with open(out, encoding="utf-8") as fh:
            reports = {r["rule"]: r for r in json.load(fh)["reports"]}
    except Exception as exc:
        return [Op(f"({a},{b}):{rule}", False, repr(exc)) for rule in VERIFY_RULES]
    expected_code = 0 if all(r["passed"] for r in reports.values()) else 1
    ops = []
    for rule in VERIFY_RULES:
        problems = list(w.setup_problems)
        if code != expected_code:
            problems.append(f"exit code {code} does not match the reports")
        report = reports.get(rule)
        if report is None:
            problems.append("report missing")
        elif not report["passed"] or report["witnesses"]:
            problems.append(f"passed={report['passed']} with {len(report['witnesses'])} witnesses")
        ops.append(Op(f"({a},{b}):{rule}", not problems, "; ".join(problems), seconds))
    return ops


def _verify_pass(w: Workload) -> list[Op]:
    return [op for a, b in w.inputs for op in _verify_shape(w, a, b)]


def _mutant_op(w: Workload, shape: tuple[int, int], k: int, mutant) -> Op:
    name = f"{shape}#{k}"
    start = time.perf_counter()
    try:
        text = json.dumps(wgraph.graph_to_json(mutant))
        g = wgraph.graph_from_json(json.loads(text))
        reports = verify.check_all_rules(g) + [verify.check_hecke_relations(g)]
        holds = verify.hecke_holds(g)
    except Exception as exc:
        return Op(name, False, repr(exc))
    seconds = time.perf_counter() - start

    problems = []
    if (g.vertices, g.tau, g.weights) != (mutant.vertices, mutant.tau, mutant.weights):
        problems.append("JSON round trip changed the graph")
    if all(r.passed for r in reports):
        problems.append("corrupted graph passed both paths")
    if holds != reports[-1].passed:
        problems.append(f"hecke_holds={holds} but check_hecke_relations.passed={reports[-1].passed}")
    digest = report_digest(reports)
    stored = w.expected.get(f"{shape[0]},{shape[1]}", [])
    if k >= len(stored) or digest != stored[k]:
        problems.append(f"digest {digest} does not match the stored one")
    return Op(name, not problems, "; ".join(problems), seconds)


def _mutant_pass(w: Workload) -> list[Op]:
    return [_mutant_op(w, shape, k, mutant) for shape, k, mutant in w.inputs]


PASSES = {"sweep10": _sweep_pass, "verify_big": _verify_pass, "mutants": _mutant_pass}


def run_pass(w: Workload) -> tuple[float, list[Op]]:
    """One timed pass of the workload: (wall seconds, operations)."""
    start = time.perf_counter()
    ops = PASSES[w.name](w)
    return time.perf_counter() - start, ops
