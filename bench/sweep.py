"""
Run the benchmark over several seeds and summarise each metric as median,
quartiles and spread (interquartile distance as a share of the median,
statistics.quantiles(values, n=4)), checking every end-to-end spread
against a third of its bound.  One traced run per workload adds the
per-layer metrics.

    python3 bench/sweep.py --runs 10 --output bench/BENCH_baseline.json
    python3 bench/sweep.py --workloads mutants --runs 5     # quick spread check

Run it from the repository root.  Later perf changes run the same command on
the parent and the change and compare the two files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=200, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--output", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"stamp": None, "source_digest": run.source_digest(),
               "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        results = []
        for seed in seeds:
            result, head = _run(workload, seed, spec["run_seconds"], 0)
            stamp = json.loads(head[0].split(" ", 1)[1])
            summary["stamp"] = {k: stamp[k] for k in ("python", "nproc", "commit")}
            results.append(result)
        entry = {"seeds": seeds,
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            ok = stats["spread"] < bound / 3
            steady = steady and ok
            print(f"{workload:<11} {name:<12} median {stats['median']:.4f} spread {stats['spread']:.4f}"
                  f" (bound/3 {bound / 3:.4f}){'' if ok else '  NOT STEADY'}")
        traced, _ = _run(workload, seeds[0], spec["run_seconds"], 1)
        entry["traced"] = {"seed": seeds[0], "correct": traced["correct"],
                           "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        print(f"{workload:<11} trace overhead {entry['traced']['per_layer']['trace.overhead_s']:.3f}s")
        summary["workloads"][workload] = entry
        print(f"{workload:<11} attempted {entry['attempted']} failed {entry['failed']}")
    if args.output:
        args.output.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
