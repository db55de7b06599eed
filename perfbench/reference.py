"""Regenerate ``perfbench/reference.json``: the object-core
``summary()`` digest of every cell of every workload at the default
seed.

Run from the repository root after a change that is meant to alter
simulated results, or after changing a workload's settings::

    python3 perfbench/reference.py

Takes about a minute on one CPU; every cell is simulated serially on
the object core.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import suite  # noqa: E402


def main() -> int:
    seed = suite.DEFAULT_SEED
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=work))
    try:
        workloads = {}
        for workload in suite.WORKLOAD_NAMES:
            trace_path = (
                suite.write_replay_trace(seed, scratch)
                if workload == "trace_replay_cold" else ""
            )
            specs = suite.cell_specs(workload, seed, trace_path)
            workloads[workload] = {
                "settings": suite.settings(workload),
                "digests": suite.reference_digests(specs),
            }
            print("%s: %d cells" % (workload, len(specs)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(
            {"seed": seed, "core": "object", "workloads": workloads},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
