"""
One benchmark process: prepare a workload, run its untraced passes, then, if
asked, one traced pass between two untraced ones.  Started by bench/run.py
with the checkout's src/ on PYTHONPATH; prints one JSON object on its last
stdout line.

The tracing overhead is the traced pass minus the mean of the two untraced
passes around it.  Every pass runs under the speed probe and is reported at reference speed
(see speed.py); in the traced pass each probe slice is a span of its own,
so layer times exclude it.  Peak resident memory is read after the
untraced passes, before tracing allocates its spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

import affwgraph.fixtures as fixtures
import speed
import workloads
from tracer import Tracer

# A pass slower than this counts every operation in it as failed.
PASS_CAP_S = 90.0


def _capped(wall: float, ops: list) -> list:
    if wall <= PASS_CAP_S:
        return ops
    cap = f"pass took {wall:.1f}s, over the {PASS_CAP_S:.0f}s cap"
    return [workloads.Op(op.name, False, "; ".join(filter(None, [op.detail, cap])), op.seconds) for op in ops]


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def _layer_metrics(tracer: Tracer, factor: float) -> dict:
    metrics = {}
    for name, row in tracer.layer_times().items():
        metrics[f"{name}.s"] = row["s"] * factor
        metrics[f"{name}.self_s"] = row["self_s"] * factor
        metrics[f"{name}.calls"] = row["calls"]
    metrics.update(tracer.counts)
    pairs = tracer.counts["tworow.build_dual_equiv.pairs"]
    metrics["tworow.build_dual_equiv.hit_ratio"] = (
        tracer.counts["tworow.build_dual_equiv.edges"] / 2 / pairs if pairs else 0.0
    )
    builds = metrics.get("tworow.build_affine_graph.calls", 0)
    metrics["tworow.build_affine_graph.repeat_ratio"] = len(tracer.shapes_built) / builds if builds else 0.0
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    w = workloads.prepare(args.workload, args.seed, args.scale, args.out_dir)
    passes, raw, factors, ops, latencies = [], [], [], [], []

    def untraced_pass() -> float:
        with speed.SpeedProbe() as probe:
            wall, pass_ops = workloads.run_pass(w)
        passes.append(probe.normalise(wall))
        raw.append(wall)
        factors.append(probe.factor)
        ops.extend(_capped(wall, pass_ops))
        # Op latencies include the slices that fired inside them; remove their average share.
        scale = probe.factor * (1 - probe.in_block_s / wall)
        latencies.extend(op.seconds * scale for op in pass_ops if op.seconds is not None)
        return wall

    budget_start = time.perf_counter()
    while True:
        wall = untraced_pass()
        elapsed = time.perf_counter() - budget_start
        if args.trace or elapsed + wall > args.seconds:
            break
    result = {
        "passes": passes,
        "raw_passes": raw,
        "speed_factors": factors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    if args.trace:
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-traced")
        with tracer:
            for name in fixtures.FIXTURE_NAMES:
                fixtures.load_fixture(name)
            with speed.SpeedProbe(on_slice=tracer.add_span) as probe:
                traced_wall, traced_ops = workloads.run_pass(w)
        span_file = args.out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(span_file)
        ops.extend(_capped(traced_wall, traced_ops))
        result["traced_wall_s"] = probe.normalise(traced_wall)
        result["raw_traced_wall_s"] = traced_wall
        result["span_file"] = str(span_file)
        result["layers"] = _layer_metrics(tracer, probe.factor)
        del tracer
        # The untraced passes around the traced one cancel a steady drift in speed.
        untraced_pass()
    result["ops"] = [asdict(op) for op in ops]

    if args.workload == "mutants":
        result["mutant_latency"] = {
            "p50_s": _quantile(latencies, 50),
            "p90_s": _quantile(latencies, 90),
            "samples": len(latencies),
        }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
