"""Session set-up shared by `tests/` and `perfbench/tests/`.

Byte-compile `src/dqw` and the perfbench modules once before any test runs,
as `perfbench/run.py`'s `warm_up` means to do before timed repetitions.
Under `PYTHONDONTWRITEBYTECODE=1` an import writes no bytecode, so without
this every spawned perfbench worker compiles the whole package inside the
`total_s` it reports.  `compileall` writes bytecode whatever that variable
says, and imports still read it only while it matches its source.
"""

from __future__ import annotations

import compileall
from pathlib import Path

ROOT = Path(__file__).resolve().parent


def pytest_sessionstart(session):
    for directory in (ROOT / "src" / "dqw", ROOT / "perfbench"):
        compileall.compile_dir(directory, maxlevels=0, quiet=2)
