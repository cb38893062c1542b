"""
Time one serial regression run per swept part:

    PYTHONPATH=src python tests/regress_parts.py --max-n 14

Wraps each regress._PARTS function and regress.build_affine_graph, times the
generation-2 collections (gc.callbacks), reads the peak RSS (getrusage),
prints each part's seconds, the builds', the whole run's, the collections'
count and seconds and the peak, and exits 0 only if every check passes.
"""

import argparse
import gc
import resource
import sys
from collections import defaultdict
from time import perf_counter

import affwgraph.regress as regress


def main() -> int:
    parser = argparse.ArgumentParser(description="Time one serial regression run per swept part.")
    parser.add_argument("--max-n", type=int, default=8)
    seconds: dict[str, float] = defaultdict(float)

    def timed(name, fn):
        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            seconds[name] += perf_counter() - start
            return result
        return wrapper

    regress._PARTS = tuple((name, timed(name, part), runs) for name, part, runs in regress._PARTS)
    regress.build_affine_graph = timed("affine builds", regress.build_affine_graph)
    collections, started = [], [0.0]

    def on_collection(phase, info):
        if info["generation"] == 2:
            if phase == "start":
                started[0] = perf_counter()
            else:
                collections.append(perf_counter() - started[0])

    gc.callbacks.append(on_collection)
    start = perf_counter()
    results = regress.run_regression(max_n=parser.parse_args().max_n)
    seconds["whole run"] = perf_counter() - start
    for name in [name for name, _, _ in regress._PARTS] + ["affine builds", "whole run"]:
        print(f"{name:<22} {seconds[name]:8.2f} s")
    print(f"{'generation-2 gc':<22} {len(collections):8d} in {sum(collections):.2f} s")
    print(f"{'peak RSS':<22} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:8.0f} MB")
    failed = [r.name for r in results if not r.passed]
    print("FAIL: " + ", ".join(failed) if failed else "every check passes")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
