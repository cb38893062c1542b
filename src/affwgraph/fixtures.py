"""
Frozen reference graphs used as golden data: the affine graphs of
shapes (3,2), (4,2) and (3,3), the equal-row variant of (3,3) with the
cross-component edges removed, and the restriction of the (3,2) graph to
the generators 1..4 together with its cell decomposition.
"""

from __future__ import annotations

import json
from pathlib import Path

from .wgraph import LabeledWGraph, graph_from_json

__all__ = ["load_fixture", "load_fixture_json", "FIXTURE_NAMES"]

FIXTURE_NAMES = (
    "gamma_3_2",
    "gamma_4_2",
    "gamma_3_3",
    "gamma_prime_3_3",
    "restriction_3_2",
)


def load_fixture_json(name: str) -> dict:
    path = Path(__file__).parent / "fixtures" / f"{name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_fixture(name: str) -> LabeledWGraph:
    return graph_from_json(load_fixture_json(name))
