"""
The runtime is pure stdlib (pyproject: dependencies = []): importing the
package, the CLI and the regression suite in a fresh interpreter loads no
top-level module outside the standard library, apart from affwgraph itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import affwgraph

SRC = Path(affwgraph.__file__).resolve().parent.parent

PROBE = """
import sys
before = set(sys.modules)
import affwgraph, affwgraph.cli, affwgraph.regress
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_imports_only_the_standard_library():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    loaded = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    # the probe did import the package, so the check below is not vacuous
    assert "affwgraph.regress" in loaded
    top_level = {name.partition(".")[0] for name in loaded}
    assert top_level - sys.stdlib_module_names == {"affwgraph"}
