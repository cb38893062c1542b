"""
Print, per module, the lines of src/affwgraph (co_lines() of each code
object) that the tier-1 suite never executes: pytest runs in this process
under sys.settrace and threading.settrace; worker processes are not traced.
The tracer slows the suite about fivefold, so a wall-clock gate may fail.
Exits with pytest's exit code; the arguments go to pytest:

    PYTHONPATH=src python tests/unexecuted_lines.py [pytest arguments]
"""

import sys
import threading
from itertools import groupby
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "affwgraph"


def executable(path: Path) -> set[int]:
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None, or 0 before a module's first line
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    ran: dict[str, set[int] | None] = {}  # co_filename -> the lines run, None outside the package

    def trace(frame, event, arg):
        # each event is at a line that ran: a def line or a generator's resume, a line, a return
        name = frame.f_code.co_filename
        if name not in ran:
            ran[name] = set() if Path(name).resolve().parent == PACKAGE else None
        if ran[name] is not None:
            ran[name].add(frame.f_lineno)
            return trace

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        seen = set().union(*(lines for name, lines in ran.items() if lines and Path(name).resolve() == path))
        missing = sorted(executable(path) - seen)
        runs = [[k for _, k in run] for _, run in groupby(enumerate(missing), lambda pair: pair[1] - pair[0])]
        spans = ", ".join(f"{run[0]}-{run[-1]}" if len(run) > 1 else str(run[0]) for run in runs)
        print(f"{path.name}: {len(missing)} lines never run" + (f": {spans}" if missing else ""))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
