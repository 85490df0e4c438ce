"""A fixed pure-Python task that times the machine, not the library.

The benchmark's time metrics divide each operation's wall time by the time
of this task, measured in the same process a moment before.  The host's
speed can drift by a factor of two within a minute, and both times drift
together, so the quotient keeps only what the library's code costs.  The
task does the kind of work the library does: it parses a line-oriented
edge list, builds a dict of labeled pairs and adjacency sets, intersects
neighbourhoods and sorts.  It never imports the library, so no change to
the library moves it.
"""

from __future__ import annotations

import random

_N = 450
_DENSITY = 0.15


def _document() -> str:
    rng = random.Random(20240216)
    lines = [f"ccg {_N} incomplete"]
    for u in range(_N):
        for v in range(u + 1, _N):
            x = rng.random()
            if x < _DENSITY:
                lines.append(f"e {u} {v} {'b' if x < _DENSITY / 2 else 'r'}")
    return "\n".join(lines) + "\n"


_DOC = _document()


def reference_task() -> int:
    """Parse, index and scan the fixed document; return a checksum."""
    lines = _DOC.splitlines()
    labels: dict[tuple[int, int], str] = {}
    blue: list[set[int]] = [set() for _ in range(_N)]
    for line in lines[1:]:
        _, a, b, color = line.split()
        u, v = int(a), int(b)
        labels[(u, v)] = color
        if color == "b":
            blue[u].add(v)
            blue[v].add(u)
    total = 0
    for (u, v), color in labels.items():
        if color == "r":
            total += len(blue[u] & blue[v])
    degrees = sorted((len(s), i) for i, s in enumerate(blue))
    return total * _N + degrees[-1][1]


CHECKSUM = reference_task()
