"""
The affwgraph benchmark: one command, three workloads (see workloads.py).

    python3 bench/run.py --workload sweep10|verify_big|mutants \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports affwgraph from ./src and
writes only under bench/out/.  It measures, in this order:

* setup_s      median of 31 cold starts of a fresh interpreter that imports
               affwgraph and loads the five fixtures (one warm-up start first),
               each rescaled by an empty interpreter start made right after it;
* the passes   in one child process (one thread, jobs=1): untraced passes,
               repeated while another fits in --seconds, give wall_s (median)
               and peak_rss_mb; with --trace 1, one traced pass between two
               untraced ones gives the per-layer metrics and the tracing
               overhead (traced minus the mean of the untraced passes).

Every pass time is reported at reference CPU speed (speed.py): the
machine's speed drifts by up to 40 % between runs, so raw seconds are
rescaled by reference slices timed in the same process.  The raw seconds
are printed and kept in the record.

Every operation is checked (see workloads.py) and counted in attempted /
failed.  The last stdout line is one JSON object: correct, attempted, failed
and metrics, the end-to-end metrics of BENCHMARK.json with --trace 0 and its
per-layer metrics with --trace 1.  The lines before it stamp the run (Python
version, nproc, git commit, seed) and list failures; the full record,
including every layer's s / self_s / calls, goes to bench/out/.

A traced run also checks that its exact counts equal those of the traced
run in bench/BENCH_baseline.json, when that was made from the same sources
and inputs, and those of any earlier traced run of them in this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BASELINE = BENCH_DIR / "BENCH_baseline.json"

SETUP_STARTS = {"full": 31, "tiny": 3}
SETUP_CODE = (
    "import sys, affwgraph\n"
    "from affwgraph.fixtures import FIXTURE_NAMES, load_fixture\n"
    "for name in FIXTURE_NAMES:\n"
    "    load_fixture(name)\n"
    "if not affwgraph.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit(3)\n"
)
REF_START_S = 0.1  # sets the scale only: an empty interpreter start took 0.09-0.11 s on a 2-vCPU Xeon VM, Python 3.11
# The whole run must end within 180 s; the child gets what set-up leaves.
RUN_DEADLINE_S = 170.0
SEEDED = {"mutants"}  # the other workloads are deterministic and only record the seed
COUNT_KEYS = (
    "tworow.edges", "tworow.build_dual_equiv.pairs", "verify.hecke.relations",
    "verify.bonding.pairs_scanned", "verify.witnesses",
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown'; git looks no higher than the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """Digest of the program and benchmark sources, to key the stored counts."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def _start(code: str, env: dict) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    return time.perf_counter() - start, proc


def measure_setup(starts: int, env: dict) -> tuple[list[float], list[float], list[str]]:
    """
    Cold-start seconds at reference speed, the raw seconds, and any problems.
    Each cold start is followed by an empty interpreter start and reported as
    their ratio times REF_START_S.  The time to start a process drifts
    between runs (raw medians of 0.13-0.20 s in one set of ten) and does not
    follow the CPU-speed slices, but the two starts of a pair share it.
    """
    normalised, raw, problems = [], [], []
    for k in range(starts + 1):
        elapsed, proc = _start(SETUP_CODE, env)
        empty, _ = _start("pass", env)
        if proc.returncode != 0:
            problems.append(f"cold start exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        elif k > 0:  # the first start compiles the bytecode cache
            raw.append(elapsed)
            normalised.append(elapsed / empty * REF_START_S)
    return normalised, raw, problems


def _is_count(name: str) -> bool:
    return name in COUNT_KEYS or name.endswith(".calls")


def _baseline_counts(args, digest: str) -> dict | None:
    """The committed baseline's traced counts, if it was made from these sources and inputs."""
    if args.scale != "full" or not BASELINE.is_file():
        return None
    baseline = json.loads(BASELINE.read_text())
    traced = baseline["workloads"].get(args.workload, {}).get("traced")
    if baseline.get("source_digest") != digest or traced is None:
        return None
    if args.workload in SEEDED and traced["seed"] != args.seed:
        return None
    return {k: v for k, v in traced["per_layer"].items() if _is_count(k)}


def _differences(counts: dict, stored: dict, label: str, keys) -> list[str]:
    return [f"{k}: {counts.get(k, 0)} != {label} {stored.get(k, 0)}"
            for k in sorted(keys) if stored.get(k, 0) != counts.get(k, 0)]


def check_counts(result: dict, args) -> list[str]:
    """
    Exact counts must repeat: against the committed baseline's traced run when
    it was made from the same sources and inputs, and against any earlier
    traced run of the same sources and inputs in this checkout.
    """
    counts = {k: v for k, v in result["layers"].items() if _is_count(k)}
    counts.update({k: result["layers"].get(k, 0) for k in COUNT_KEYS})
    digest = source_digest()
    problems = []
    baseline = _baseline_counts(args, digest)
    if baseline is not None:  # it holds only the counts that BENCHMARK.json names
        problems += _differences(counts, baseline, "baseline", baseline)
    seed = f"-seed{args.seed}" if args.workload in SEEDED else ""
    path = OUT_DIR / f"counts-{args.workload}-{args.scale}{seed}-{digest}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        problems += _differences(counts, stored, "earlier run", set(stored) | set(counts))
    else:
        path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    return problems


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small sizes for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "affwgraph" / "__init__.py").is_file():
        sys.stderr.write(f"error: no affwgraph sources under {SRC}; run from the repository root\n")
        return 2
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    started = time.perf_counter()
    OUT_DIR.mkdir(exist_ok=True)
    env = _child_env()

    problems: list[str] = []
    setup_times: list[float] = []
    raw_setup: list[float] = []
    if not args.trace:
        setup_times, raw_setup, problems = measure_setup(SETUP_STARTS[args.scale], env)

    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: the workload did not finish before the run deadline\n")
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(f"error: the workload process exited {proc.returncode}\n")
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    failures = [f"{op['name']}: {op['detail']}" for op in result["ops"] if not op["ok"]]
    failures += [f"setup: {p}" for p in problems]
    attempted = len(result["ops"]) + len(problems)
    if args.trace:
        count_problems = check_counts(result, args)
        attempted += 1
        if count_problems:
            failures.append("counts do not repeat: " + "; ".join(count_problems[:5]))
    failed = len(failures)

    values = {
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "wall_s": statistics.median(result["passes"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_ratio": (attempted - failed) / attempted,
    }
    latency = result.get("mutant_latency")
    if args.trace:
        values.update(result["layers"])
        untraced = statistics.fmean(result["passes"])
        values["trace.overhead_s"] = result["traced_wall_s"] - untraced
        values["trace.untraced_wall_s"] = untraced
        values["trace.raw_traced_wall_s"] = result["raw_traced_wall_s"]
        values["trace.traced_wall_s"] = result["traced_wall_s"]
        for key in ("p50_s", "p90_s", "samples"):
            values[f"mutants.{key}"] = latency[key] if latency else 0
    emitted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in emitted}

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
    }
    record = {"stamp": stamp, "attempted": attempted, "failed": failed, "failures": failures,
              "passes": result["passes"], "raw_passes": result["raw_passes"],
              "speed_factors": result["speed_factors"], "setup_times": setup_times,
              "raw_setup_times": raw_setup, "mutant_latency": latency,
              "values": values, "span_file": result.get("span_file")}
    name = f"result-{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"passes {len(result['passes'])}: raw " + " ".join(f"{w:.3f}s" for w in result["raw_passes"])
          + ", at reference speed " + " ".join(f"{w:.3f}s" for w in result["passes"]))
    if raw_setup:
        print(f"cold starts: raw median {statistics.median(raw_setup):.4f}s over {len(raw_setup)}")
    print(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} operations)")
    if latency:
        print(f"mutant latency p50 {latency['p50_s']:.4f}s p90 {latency['p90_s']:.4f}s "
              f"over {latency['samples']} mutants")
    for failure in failures[:20]:
        print("FAIL " + failure)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
