"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the
repository root.  Puts the package source and this directory on the
import path, as ``run.py`` and ``child.py`` do for themselves."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
