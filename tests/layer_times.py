"""
Per-layer times of the `verify --input` path and of the `verify A B` path,
one process:

    PYTHONPATH=src python tests/layer_times.py [--rounds R] [--big]
    PYTHONPATH=src python tests/layer_times.py --startup [--rounds R]

On the `verify --input` path each graph goes through the stages of one
benchmark mutant, in order: graph_to_json, graph_from_json (the JSON text
in between is not timed), sigma (shift_automorphism), the four rules,
check_hecke_relations and hecke_holds.
Every stage after graph_from_json runs on the graph it returned, so each
derived value is computed where the first stage reads it, as in the
benchmark.  On the `verify A B` path each shape goes through build
(build_affine_graph), sigma and the same checks, with no JSON round trip;
beside them, dual_equiv times build_dual_equiv and finite
build_finite_graph on the same shape, so one run gives every builder, and
restrict times restrict_parabolic of the built graph to 1..n-1.
Both graph_from_json and the build make a graph's out-edge rows, so no
stage derives them.  The sets:

* damaged   the pinned bench-size damaged graphs of tests/conftest.py
            (none shift-invariant: every check scans in full);
* verify    the built graphs of (6,6) and (7,6), through JSON;
* big       the built graph of (9,9), through JSON, with --big;
* built66, built76 and built99 (with --big)
            the shape, built in each round.

The two sets of (9,9) run at most 3 rounds.  Prints, per set and stage,
the median over R rounds of the stage's total seconds over the set's
graphs, rescaled to reference CPU speed as the benchmark does
(bench/speed.py): the speed of a shared vCPU drifts by tens of percent
between runs, so each round is scaled by a reference slice of pure-Python
work timed just before it.  Then, from one more round under tracemalloc,
which is not timed, each stage's traced peak in MB above what was held
when the stage started, the largest over the set's graphs, and the
RowStandardTableau values each stage made, summed over them.

With --startup it times the cold start instead, as the benchmark's setup_s
does (bench/run.py): after one warm-up pair, R fresh interpreters that run
the benchmark's set-up code (import affwgraph from src/ and load the five
fixtures), each followed by an empty interpreter start.  It prints the raw
medians of both, the median and quartiles of their ratio times the
benchmark's REF_START_S (the setup_s method), the largest cumulative
entries of `-X importtime` for one more set-up start, and whether
PYTHONDONTWRITEBYTECODE is set: when it is, no bytecode cache is written,
so every start also compiles the package.  R is at least 1, and at least
2 with --startup, for the quartiles.
Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "bench")]

from affwgraph import (  # noqa: E402
    Partition, RowStandardTableau, build_affine_graph, build_dual_equiv, build_finite_graph, restrict_parabolic,
)
from affwgraph import verify  # noqa: E402
from affwgraph.wgraph import graph_from_json, graph_to_json  # noqa: E402
from conftest import bench_size_damaged_graphs  # noqa: E402
from run import REF_START_S, SETUP_CODE  # noqa: E402
from speed import REF_SLICE_S, reference_slice  # noqa: E402

STAGES = (
    "graph_to_json", "graph_from_json", "build", "dual_equiv", "finite", "restrict", "sigma",
    "compatibility", "simplicity", "bonding", "polygon", "hecke", "hecke_holds",
)
CHECKS = {
    "compatibility": verify.check_compatibility,
    "simplicity": verify.check_simplicity,
    "bonding": verify.check_bonding,
    "polygon": verify.check_polygon,
    "hecke": verify.check_hecke_relations,
    "hecke_holds": verify.hecke_holds,
}


def _through_json(graph, measure) -> None:
    """Run the `verify --input` stages of one graph, each as measure(stage, fn, *args), which returns fn(*args)."""
    data = measure("graph_to_json", graph_to_json, graph)
    data = json.loads(json.dumps(data))
    g = measure("graph_from_json", graph_from_json, data)
    measure("sigma", lambda: g.shift_automorphism)
    for name, check in CHECKS.items():
        measure(name, check, g)


def _built(parts, measure) -> None:
    """
    Run the `verify A B` stages of one shape, as _through_json does, build
    its dual equivalence and finite graphs, and restrict the built graph.
    """
    measure("dual_equiv", build_dual_equiv, Partition(parts))
    measure("finite", build_finite_graph, Partition(parts))
    g = measure("build", build_affine_graph, Partition(parts))
    measure("restrict", restrict_parabolic, g, range(1, g.n))
    measure("sigma", lambda: g.shift_automorphism)
    for name, check in CHECKS.items():
        measure(name, check, g)


def layer_times(run, items, rounds: int) -> dict[str, float]:
    """The median over the rounds of each stage's total over the items, each run as run(item, measure)."""
    totals = {name: [] for name in STAGES}
    clock = time.perf_counter
    for _ in range(rounds):
        factor = REF_SLICE_S / reference_slice()
        seconds = dict.fromkeys(STAGES, 0.0)

        def timed(stage, fn, *args):
            start = clock()
            result = fn(*args)
            seconds[stage] += clock() - start
            return result

        for item in items:
            run(item, timed)
        for name in STAGES:
            totals[name].append(seconds[name] * factor)
    return {name: statistics.median(values) for name, values in totals.items()}


def layer_peaks(run, items) -> tuple[dict[str, int], dict[str, int]]:
    """
    From one round under tracemalloc: each stage's traced peak in bytes,
    above what was held when it started, the largest over the items, and
    the tableaux it made (through the checking constructor or _trusted),
    summed over them.
    """
    peaks = dict.fromkeys(STAGES, 0)
    tableaux = dict.fromkeys(STAGES, 0)
    made = 0
    init, trusted = vars(RowStandardTableau)["__init__"], vars(RowStandardTableau)["_trusted"]

    def counted_init(self, rows):
        nonlocal made
        made += 1
        init(self, rows)

    def counted_trusted(cls, rows):
        nonlocal made
        made += 1
        return trusted.__func__(cls, rows)

    def traced(stage, fn, *args):
        gc.collect()  # so that no stage frees an earlier one's garbage
        tracemalloc.reset_peak()
        start, before = tracemalloc.get_traced_memory()[0], made
        result = fn(*args)
        peaks[stage] = max(peaks[stage], tracemalloc.get_traced_memory()[1] - start)
        tableaux[stage] += made - before
        return result

    RowStandardTableau.__init__, RowStandardTableau._trusted = counted_init, classmethod(counted_trusted)
    tracemalloc.start()
    try:
        for item in items:
            run(item, traced)
    finally:
        tracemalloc.stop()
        RowStandardTableau.__init__, RowStandardTableau._trusted = init, trusted
    return peaks, tableaux


def _table(title: str, sets, values, cell) -> None:
    """One row per stage, one column per set, "-" where the set has no such stage."""
    print(title.ljust(16) + "".join(name.rjust(10) for name in sets))
    for stage in STAGES:
        ran = [name for name, (run, _) in sets.items() if stage not in _ONLY or _ONLY[stage] is run]
        print(stage.ljust(16) + "".join(cell(values[name][stage]) if name in ran else "-".rjust(10) for name in sets))


# the stages of one path only: every other stage is on both
_ONLY = {
    "graph_to_json": _through_json, "graph_from_json": _through_json,
    "build": _built, "dual_equiv": _built, "finite": _built, "restrict": _built,
}


def startup(rounds: int) -> None:
    """Print the cold-start times of --startup (module docstring)."""
    src = str(HERE.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(HERE.parent / "bench")]), PYTHONHASHSEED="0")

    def start(code: str, *options: str) -> tuple[float, str]:
        begin = time.perf_counter()
        proc = subprocess.run([sys.executable, *options, "-c", code, src],
                              env=env, capture_output=True, text=True, check=True)
        return time.perf_counter() - begin, proc.stderr

    # the warm-up pair, as in the benchmark
    start(SETUP_CODE)
    start("pass")
    cold, empty = [], []
    for _ in range(rounds):
        cold.append(start(SETUP_CODE)[0])
        empty.append(start("pass")[0])
    ratios = [c / e * REF_START_S for c, e in zip(cold, empty)]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    print(f"{rounds} pairs: cold start median {statistics.median(cold):.4f} s, "
          f"empty start median {statistics.median(empty):.4f} s")
    print(f"setup_s (ratio x {REF_START_S}): median {statistics.median(ratios):.4f} s, "
          f"quartiles {q1:.4f} - {q3:.4f} s")
    # lines "import time: <self us> | <cumulative us> | <module>"
    entries = []
    for line in start(SETUP_CODE, "-X", "importtime")[1].splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            entries.append((int(fields[1]), int(fields[0]), fields[2].strip()))
    print(f"\nlargest cumulative imports of one start (ms):\n{'cumulative':>10}{'self':>8}  module")
    for cumulative, own, name in sorted(entries, reverse=True)[:12]:
        print(f"{cumulative / 1000:10.1f}{own / 1000:8.1f}  {name}")
    print(f"\nPYTHONDONTWRITEBYTECODE is {'set' if os.environ.get('PYTHONDONTWRITEBYTECODE') else 'not set'}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--big", action="store_true", help="also time (9,9), a few seconds a round")
    parser.add_argument("--startup", action="store_true", help="time cold starts instead of the stages")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.startup and args.rounds < 2:
        parser.error("--rounds must be at least 2 with --startup, for the quartiles")
    if args.startup:
        startup(args.rounds)
        return
    verify_shapes = ((6, 6), (7, 6))
    # name -> (how an item runs, the items)
    sets = {
        "damaged": (_through_json, bench_size_damaged_graphs()),
        "verify": (_through_json, [build_affine_graph(Partition(parts)) for parts in verify_shapes]),
    }
    if args.big:
        sets["big"] = (_through_json, [build_affine_graph(Partition((9, 9)))])
    for parts in verify_shapes + (((9, 9),) if args.big else ()):
        sets["built" + "".join(map(str, parts))] = (_built, [parts])
    rounds = {name: min(args.rounds, 3) if name.endswith(("big", "99")) else args.rounds for name in sets}
    times = {name: layer_times(*sets[name], rounds[name]) for name in sets}
    _table("stage", sets, times, "{:10.4f}".format)
    print("total".ljust(16) + "".join(f"{sum(times[name].values()):10.4f}" for name in sets))
    # an untimed round, as tracemalloc slows every allocation
    traced = {name: layer_peaks(*sets[name]) for name in sets}
    print()
    _table("peak MB", sets, {name: peaks for name, (peaks, _) in traced.items()}, lambda b: f"{b / 1e6:10.3f}")
    print()
    _table("tableaux made", sets, {name: made for name, (_, made) in traced.items()}, "{:10d}".format)


if __name__ == "__main__":
    main()
