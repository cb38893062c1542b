"""
Time serial regression runs per check:

    PYTHONPATH=src python tests/regress_parts.py --max-n 14
    PYTHONPATH=src python tests/regress_parts.py --max-n 10 --rounds 12

Wraps regress.check_<name> for each name in regress.ALL_CHECKS (a swept
check is called once per shape, and its time is summed over the shapes)
and regress.build_affine_graph, times the generation-2 collections
(gc.callbacks) and reads the peak RSS (getrusage).  It runs the regression
--rounds times in this process, one after another, and prints, for each
check, the builds, the whole run and the collections' count and seconds,
the median, minimum and maximum over the rounds; then the peak RSS.  No
cache of the package outlives a run.  Exits 0 only if every check passes in
every round, and 2 on a --max-n below 3 or --rounds below 1.
"""

import argparse
import gc
import resource
import sys
from collections import defaultdict
from statistics import median
from time import perf_counter

import affwgraph.regress as regress


def main() -> int:
    parser = argparse.ArgumentParser(description="Time serial regression runs per check.")
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=1, help="serial runs in this process (default 1)")
    args = parser.parse_args()
    if args.max_n < 3:
        parser.error("--max-n must be at least 3, the size of the smallest shape")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    seconds: dict[str, float] = defaultdict(float)  # of the current round

    def timed(name, fn):
        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            seconds[name] += perf_counter() - start
            return result
        return wrapper

    for name in regress.ALL_CHECKS:
        setattr(regress, f"check_{name}", timed(name, getattr(regress, f"check_{name}")))
    regress.build_affine_graph = timed("affine builds", regress.build_affine_graph)
    collections, started = [], [0.0]

    def on_collection(phase, info):
        if info["generation"] == 2:
            if phase == "start":
                started[0] = perf_counter()
            else:
                collections.append(perf_counter() - started[0])

    gc.callbacks.append(on_collection)
    names = [*regress.ALL_CHECKS, "affine builds", "whole run"]
    rounds: dict[str, list[float]] = defaultdict(list)
    failed = set()
    for _ in range(args.rounds):
        seconds.clear()
        collections.clear()
        start = perf_counter()
        results = regress.run_regression(max_n=args.max_n)
        seconds["whole run"] = perf_counter() - start
        for name in names:
            rounds[name].append(seconds[name])
        rounds["gc count"].append(len(collections))
        rounds["gc seconds"].append(sum(collections))
        failed.update(r.name for r in results if not r.passed)
    print(f"{'seconds, ' + str(args.rounds) + ' rounds':<22} {'median':>9} {'min':>9} {'max':>9}")
    for name in names:
        values = rounds[name]
        print(f"{name:<22} {median(values):9.4f} {min(values):9.4f} {max(values):9.4f}")
    for name in ("gc count", "gc seconds"):
        values = rounds[name]
        print(f"{'generation-2 ' + name:<22} {median(values):9.4g} {min(values):9.4g} {max(values):9.4g}")
    print(f"{'peak RSS':<22} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:9.0f} MB")
    print("FAIL: " + ", ".join(sorted(failed)) if failed else "every check passes")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
