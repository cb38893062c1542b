"""
The two verification paths stay independent, and the finite builder is not
derived from the affine one: checked on the source with the stdlib ast.

A function reaches every name its body reads (names and attributes), and,
through those, the bodies of the module's functions and of the
LabeledWGraph methods and properties of the same name.
"""

import ast
import inspect
from pathlib import Path

import affwgraph.verify as verify

SRC = Path(verify.__file__).resolve().parent
RULES = ("check_compatibility", "check_simplicity", "check_bonding", "check_polygon", "rules_hold")
HECKE = ("check_hecke_relations", "hecke_holds")
HECKE_HELPERS = {"_generator_columns", "_hecke_witnesses", "_hecke_pair", "_act"}
RULE_HELPERS = {
    "_polygon_pair", "_bonding_pair", "_step", "_generator_class", "_rule_classes",
    "_edge_witnesses", "_compatibility_edges", "_simplicity_edges", "shift_orbit_representatives",
}


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _functions(*modules):
    """Name -> definition, for the top-level functions and LabeledWGraph members."""
    defs = {}
    for module in modules:
        for node in _tree(module).body:
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = node
            elif isinstance(node, ast.ClassDef) and node.name == "LabeledWGraph":
                defs.update((f.name, f) for f in node.body if isinstance(f, ast.FunctionDef))
    return defs


def _reached(defs, roots):
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        if name in defs:
            for stmt in defs[name].body:  # the signature's annotations are not read
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name):
                        todo.append(node.id)
                    elif isinstance(node, ast.Attribute):
                        todo.append(node.attr)
    return seen


def test_rules_and_hecke_check_share_only_the_pair_loop():
    defs = _functions("verify", "wgraph")
    rules, hecke = _reached(defs, RULES), _reached(defs, HECKE)
    # the reachability is not vacuous
    assert RULE_HELPERS <= rules and {"_orbit_first", "_pair_witnesses", "shift_automorphism"} <= rules
    assert HECKE_HELPERS <= hecke
    assert not rules & HECKE_HELPERS
    assert not hecke & RULE_HELPERS
    assert not {name for name in hecke if name.startswith("check_")} - {"check_hecke_relations"}
    helpers = {
        name for name, value in vars(verify).items()
        if inspect.isfunction(value) and value.__module__.startswith("affwgraph.")
    }
    assert rules & hecke & helpers == {"_orbit_first", "_pair_witnesses", "_report", "dynkin_adjacent"}


def test_hecke_check_reads_only_what_the_rules_read_of_the_graph():
    # the graph value holds what both paths read; the Hecke module lives in verify
    graph = _functions("wgraph")
    defs = _functions("verify", "wgraph")
    hecke = _reached(defs, HECKE) & graph.keys()
    assert {"adjacency", "shift_automorphism", "dynkin_adjacent"} <= hecke
    assert hecke <= _reached(defs, RULES)


def test_finite_builder_not_derived_from_the_affine_one():
    defs = _functions("tworow")
    reached = _reached(defs, ["build_finite_graph"])
    assert "_finite_second_kind_valid" in reached
    # the affine builders' row-2 mask kernel: the mask enumeration, rotation,
    # descents, condition (b) masks, the (a), (c)-(e) gate, the move
    # generator, the Knuth moves and the orbit kernel that carries rows by rho
    mask_kernel = {
        "_two_row_masks", "_entries", "_rotate", "_descent_mask",
        "_second_kind_ends", "_second_kind_gate", "_moves", "_orbit_weights", "_knuth_moves",
    }
    assert mask_kernel - {"_knuth_moves"} <= _reached(defs, ["build_affine_graph"])
    assert {"_two_row_masks", "_orbit_weights", "_knuth_moves"} <= _reached(defs, ["build_dual_equiv"])
    assert not reached & (mask_kernel | {"build_affine_graph", "build_dual_equiv"})


def test_verification_does_not_import_the_builders():
    for module in ("verify", "wgraph"):
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.ImportFrom):
                assert "tworow" not in (node.module or "").split(".")
                assert all(alias.name != "tworow" for alias in node.names)
            elif isinstance(node, ast.Import):
                assert all("tworow" not in alias.name.split(".") for alias in node.names)
