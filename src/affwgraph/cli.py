"""
Command-line surface.

    affwgraph build 3 2 --format dot
    affwgraph build 3 3 --variant p=0
    affwgraph verify 3 3 --variant p=0 --hecke --rules
    affwgraph verify --input candidate.json
    affwgraph restrict 3 2 --to 1..4 --format json
    affwgraph cells 3 2 --restrict 1..4
    affwgraph export 4 2 --output outdir
    affwgraph regress --max-n 8 --jobs 4

Exit status: 0 on success or a passing verification, 1 on verification
failure (a JSON report is printed), 2 on usage errors and on running out
of memory (a shape whose tableaux can be indexed but not held).  The CLI checks
only what it parses itself (the form of p=K and a..b, and options that do
not combine); argparse checks the choices, and the library checks values
where they enter it (the graph JSON, the size of the shape, the variant
weight, the interval's residues, --jobs and --max-n).  There is one error
type: the CLI raises ValueError as the library does, and main prints it as
the error line.  Every JSON document it writes (a graph, the verify report,
the cells listing) has one text form: sorted keys, indent 1, a newline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .tableaux import Partition, pint
from .tworow import (
    build_affine_graph,
    build_dual_equiv,
    build_equal_variant,
    build_finite_graph,
)
from .verify import check_all_rules, check_hecke_relations, classify_restriction_cells
from .wgraph import (
    LabeledWGraph,
    cells,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    restrict_parabolic,
)

__all__ = ["main"]


def _variant_weight(text: str) -> int:
    if not text.startswith("p="):
        raise ValueError(f"--variant expects p=K, got {text!r}")
    try:
        return int(text[2:])
    except ValueError:
        raise ValueError(f"--variant expects an integer weight, got {text!r}") from None


# the --kind choices of build and export
_KINDS = ("affine", "dual-equiv", "finite")


def _build(args) -> LabeledWGraph:
    shape = Partition(tuple(args.shape))
    kind = getattr(args, "kind", "affine")
    if args.variant is not None:
        if kind != "affine":
            raise ValueError(f"--variant is an affine graph and cannot be combined with --kind {kind}")
        return build_equal_variant(shape, _variant_weight(args.variant))
    # the builder is looked up by name on each call, so a patched module
    # attribute (a tracer's wrapper, say) is the one that runs
    return {"affine": build_affine_graph, "dual-equiv": build_dual_equiv, "finite": build_finite_graph}[kind](shape)


def _json_text(document) -> str:
    """The one JSON text form the CLI writes: sorted keys, indent 1, a trailing newline."""
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def _render(g: LabeledWGraph, fmt: str, name: str) -> str:
    return graph_to_dot(g, name) if fmt == "dot" else _json_text(graph_to_json(g))


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"{output}: cannot write: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _parse_interval(text: str, n: int) -> list[int]:
    """Parse "a..b" as the cyclic residue interval from a to b."""
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"interval must look like a..b, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"interval bounds must be integers: {text!r}") from None
    return sorted(pint(a, b, n))


def _graph_name(args, suffix: str = "") -> str:
    return "gamma_" + "_".join(str(p) for p in args.shape) + suffix


def cmd_build(args) -> int:
    _emit(_render(_build(args), args.format, _graph_name(args)), args.output)
    return 0


def cmd_verify(args) -> int:
    if args.input:
        if args.shape or args.variant is not None:
            raise ValueError("--input names the graph to verify: give no shape or --variant with it")
        try:
            with open(args.input, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"{args.input}: cannot read: {exc.strerror}") from None
        except RecursionError:
            raise ValueError(f"{args.input}: JSON nested too deeply") from None
        try:
            g = graph_from_json(data)
        except KeyError as exc:
            raise ValueError(f"{args.input}: missing key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"{args.input}: malformed graph: {exc}") from None
        name = args.input
    else:
        if not args.shape:
            raise ValueError("verify needs a shape or --input FILE")
        g = _build(args)
        name = _graph_name(args)
    run_rules = args.rules or not args.hecke
    run_hecke = args.hecke or not args.rules
    reports = []
    if run_rules:
        reports.extend(check_all_rules(g))
    if run_hecke:
        reports.append(check_hecke_relations(g))
    passed = all(r.passed for r in reports)
    _emit(_json_text({"graph": name, "passed": passed, "reports": [r.to_json() for r in reports]}), args.output)
    return 0 if passed else 1


def cmd_restrict(args) -> int:
    g = _build(args)
    j_set = _parse_interval(args.to, g.n)
    _emit(
        _render(restrict_parabolic(g, j_set), args.format, _graph_name(args, "_restricted")),
        args.output,
    )
    return 0


def cmd_cells(args) -> int:
    g = _build(args)
    if args.restrict:
        g = restrict_parabolic(g, _parse_interval(args.restrict, g.n))
    # restricted to 1..n-1, the cells are keyed by insertion shape
    if g.index_set == frozenset(range(1, g.n)) and args.variant is None:
        keyed = sorted(classify_restriction_cells(g).items(), key=lambda kv: kv[0].parts)
    else:
        keyed = [(None, cell) for cell in cells(g)]
    listing = []
    for key, cell in keyed:
        entry = {
            "size": len(cell.vertices),
            "vertices": [[list(row) for row in t.rows] for t in cell.vertices],
        }
        if key is not None:
            entry["key"] = list(key.parts)
        listing.append(entry)
    _emit(_json_text({"count": len(listing), "cells": listing}), args.output)
    return 0


def cmd_export(args) -> int:
    g = _build(args)
    outdir = Path(args.output or ".")
    name = _graph_name(args)
    files = [(outdir / f"{name}.{fmt}", _render(g, fmt, name)) for fmt in ("json", "dot")]
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for path, text in files:
            path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{exc.filename}: cannot write: {exc.strerror}") from None
    sys.stdout.write(f"wrote {name}.json and {name}.dot to {outdir}\n")
    return 0


def cmd_regress(args) -> int:
    from .regress import run_regression

    results = run_regression(max_n=args.max_n, jobs=args.jobs)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"{r.name:<{width}}  {status}  {r.detail}\n")
        ok = ok and r.passed
    return 0 if ok else 1


def _add_shape(parser, required=True):
    nargs = 2 if required else "*"
    parser.add_argument("shape", type=int, nargs=nargs, metavar="PART",
                        help="two-row shape as two integers, e.g. 3 2")
    parser.add_argument("--variant", metavar="p=K",
                        help="equal-row variant with cross-component weight K")


def _add_io(parser):
    parser.add_argument("--format", choices=("json", "dot"), default="json")
    parser.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affwgraph",
        description="Build and verify the two-row affine W-graphs.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="construct a graph and print it")
    _add_shape(p)
    p.add_argument("--kind", choices=_KINDS, default="affine")
    _add_io(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="run the rule and module checks")
    _add_shape(p, required=False)
    p.add_argument("--rules", action="store_true", help="only the four local rules")
    p.add_argument("--hecke", action="store_true", help="only the module relations")
    p.add_argument("--input", metavar="FILE", help="verify a graph from a JSON file")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("restrict", help="parabolic restriction to a residue interval")
    _add_shape(p)
    p.add_argument("--to", metavar="a..b", required=True,
                   help="generator subset as a cyclic interval")
    _add_io(p)
    p.set_defaults(fn=cmd_restrict)

    p = sub.add_parser("cells", help="strongly connected components")
    _add_shape(p)
    p.add_argument("--restrict", metavar="a..b",
                   help="restrict first; 1..n-1 keys cells by insertion shape")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(fn=cmd_cells)

    p = sub.add_parser("export", help="write JSON and DOT files")
    _add_shape(p)
    p.add_argument("--kind", choices=_KINDS, default="affine")
    p.add_argument("--output", metavar="DIR")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("regress", help="run the full property regression")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_regress)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
