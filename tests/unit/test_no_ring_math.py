"""Lint: ring-successor arithmetic lives only in ``repro.ring``.

The topology refactor's contract is that ``(i + 1) % N`` - the
hardwired single-ring successor step - is written down exactly once,
in :func:`repro.ring.topology.ring_successors`, and every other layer
(walker, fused soa core, auditor, harness) consumes successor/latency
tables or the :class:`~repro.ring.topology.SnoopTopology` interface.
This test greps the source tree so a future edit cannot quietly leak
the arithmetic back into a consumer.

Home-node interleaving (``address % num_cmps`` in the memory model
and the fused soa core) is *memory-map* math, not ring math - the home
of a line does not depend on the snoop topology - so address-based
modulo is explicitly allowed.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The one module allowed to spell ring-successor arithmetic.
ALLOWED = SRC / "ring" / "topology.py"

#: A neighbour step: "+ 1) %" or "- 1) %" against a node-count-ish
#: modulus, e.g. ``(node + 1) % num_cmps`` or ``(i - 1) % n``.
NEIGHBOR_STEP = re.compile(
    r"[+-]\s*1\s*\)\s*%\s*(self\.)?(num_cmps|num_nodes|num_cores|n)\b"
)

#: Node-variable modulo against the machine size, e.g.
#: ``node % num_cmps``.  Address-named operands (the home-interleaving
#: sites) do not match.
NODE_MODULO = re.compile(
    r"\b(node|node_id|cmp|cmp_id|from_node|to_node|upstream|"
    r"downstream|requester|requester_cmp)\s*%\s*(self\.)?"
    r"(num_cmps|num_nodes)\b"
)


def _python_sources():
    for path in sorted(SRC.rglob("*.py")):
        if path == ALLOWED:
            continue
        yield path


def test_no_ring_successor_arithmetic_outside_topology():
    offenders = []
    for path in _python_sources():
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if NEIGHBOR_STEP.search(line) or NODE_MODULO.search(line):
                offenders.append(
                    "%s:%d: %s"
                    % (path.relative_to(SRC.parent), lineno, line.strip())
                )
    assert not offenders, (
        "ring-successor arithmetic leaked outside repro/ring/topology.py "
        "(route through the SnoopTopology interface or its exported "
        "tables instead):\n" + "\n".join(offenders)
    )


def test_the_allowed_module_still_owns_the_arithmetic():
    # Guards the lint itself: if the canonical spelling moves, the
    # ALLOWED path above must follow it.
    text = ALLOWED.read_text(encoding="utf-8")
    assert "(node + 1) % num_nodes" in text
