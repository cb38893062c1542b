"""
Regenerate bench/expected.json: the report digest of every member of the
mutant pool.  Run it only on a commit whose verification output is trusted,
because the mutants workload fails every mutant whose digest differs.

    python3 bench/make_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from affwgraph import verify  # noqa: E402
from affwgraph.tableaux import Partition  # noqa: E402
from affwgraph.tworow import build_affine_graph  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    digests = {}
    for shape in workloads.MUTANT_SHAPES:
        base = build_affine_graph(Partition(shape))
        row = []
        for k in range(workloads.POOL_PER_SHAPE):
            m = workloads.mutant_spec(shape, k, base)
            row.append(workloads.report_digest(verify.check_all_rules(m) + [verify.check_hecke_relations(m)]))
        digests[f"{shape[0]},{shape[1]}"] = row
        print(shape, "done", file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"mutant_digests": digests}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
