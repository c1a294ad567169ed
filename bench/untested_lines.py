"""The lines of ``src/lamsep`` that no test runs.

    python3 bench/untested_lines.py [pytest arguments ...]

Runs ``pytest tests`` (or pytest with the arguments given) in this
interpreter under ``sys.settrace``, tracing only frames of ``src/lamsep``, and
prints every executable line, one ``path:line: source`` each, that no test ran.
A line is executable when a code object of its module, the module's own or a
nested one, maps an instruction to it (``co_lines``).  It needs pytest and the
standard library only, no coverage package.  Lines run only in a subprocess (the CLI tests' child
interpreters) count as not run.  The exit status is pytest's.  Keep this out
of the test suite: it runs the suite.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lamsep"


def _executable_lines(path: Path) -> set[int]:
    """Every line that a code object compiled from ``path`` maps an instruction to."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def start(frame, event, arg):  # trace only the package's frames
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(start)
    try:
        status = pytest.main(argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(_executable_lines(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of src/lamsep ran in no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
