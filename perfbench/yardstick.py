"""Fixed work that measures how fast the host is running right now.

``run.py`` runs this file as a fresh process before every timed
repetition and once after the last, and divides the run's times by how
much slower than ``run.YARDSTICK_REF_S`` it took (see README, "Noise
and bounds").  It imports nothing from the package under test, so a
change to the program cannot change it; its work must stay fixed, or
runs before and after the edit stop being comparable.

The work is a small set-associative LRU cache simulated in plain
Python, the same kind of interpreter work (small lists, dict updates,
integer arithmetic) as the simulator, preceded by interpreter start-up
like every repetition.
"""

SETS = 512
WAYS = 8
ACCESSES = 400_000


def simulate() -> int:
    """Replay a fixed pseudo-random address stream; returns the hits."""
    lines = [[-1] * WAYS for _ in range(SETS)]
    misses_by_tag: dict = {}
    hits = 0
    state = 1
    for _ in range(ACCESSES):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        address = (state >> 4) % 65536
        ways = lines[address % SETS]
        tag = address // SETS
        if tag in ways:
            hits += 1
            ways.remove(tag)
        else:
            ways.pop()
            misses_by_tag[tag & 255] = misses_by_tag.get(tag & 255, 0) + 1
        ways.insert(0, tag)
    return hits


if __name__ == "__main__":
    simulate()
