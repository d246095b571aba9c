"""Pipelined fetch schedule for k-bit words in the bucket-brigade tree.

Protocol ops per word (data bit) i, in fixed order: D (bus <-> root transfer),
Routings down layer pairs (0,1)..(n-2,n-1), M (memory copy at the leaves),
Routings back up, D again.  The canonical cadence starts word i at step 2i.
An up-Routing of word j and the down-Routing of word j+g land on the same
layer pair (n-1-g, n-g) at the same canonical step whenever g <= n-1; each
such coincidence is merged into one bidirectional Routing.

Canonical placement can still collide on wires (for word gaps of exactly n,
both D ops want the root data register in one step), so ops are placed
greedily at the earliest step >= canonical that respects per-word op order
and is conflict-free.  Conflicts are judged on layer-state footprints: D
touches its bus wire plus the root data layer, a Routing touches the data
registers of its two layers plus the controlling address layer, M touches
the leaf layer.  Merges are structural (the gap rule), never an artifact of
step coincidence, so the merged-op count is min-independent of repair.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


@dataclass
class _Op:
    kind: str  # D | Rdown | Rbidir | Rup | M | Ddag
    words: tuple[int, ...]  # (word,) or (down_word, up_word) for Rbidir
    layers: tuple[int, ...]  # (a, a+1) for Routing kinds, () otherwise
    canon: int
    step: int = -1

    def footprint(self, n: int) -> frozenset:
        if self.kind in ("D", "Ddag"):
            return frozenset([("bus", self.words[0]), ("dlayer", 0)])
        if self.kind == "M":
            return frozenset([("alayer", n - 1), ("dlayer", n - 1)])
        a = self.layers[0]
        return frozenset([("alayer", a), ("dlayer", a), ("dlayer", a + 1)])


@dataclass(frozen=True)
class ScheduleOp:
    kind: str
    words: tuple[int, ...]
    layers: tuple[int, ...]
    step: int

    def __str__(self) -> str:
        parts = [self.kind, "words=" + ",".join(map(str, self.words))]
        if self.layers:
            parts.append(f"layers=({self.layers[0]},{self.layers[1]})")
        return " ".join(parts)


@dataclass(frozen=True)
class Schedule:
    n: int
    k: int
    steps: tuple[tuple[ScheduleOp, ...], ...]
    merged_routings: int

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def ops(self) -> list[ScheduleOp]:
        return [op for step in self.steps for op in step]

    def text(self) -> str:
        lines = [
            f"pipeline schedule n={self.n} k={self.k}: "
            f"{self.n_steps} steps, {self.merged_routings} merged routings"
        ]
        for t, step in enumerate(self.steps):
            lines.append(f"step {t:3d}: " + "; ".join(str(op) for op in step))
        return "\n".join(lines)


def _word_chain(n: int) -> list[tuple[str, tuple[int, ...]]]:
    chain: list[tuple[str, tuple[int, ...]]] = [("D", ())]
    chain += [("Rdown", (a, a + 1)) for a in range(n - 1)]
    chain += [("M", ())]
    chain += [("Rup", (a, a + 1)) for a in range(n - 2, -1, -1)]
    chain += [("Ddag", ())]
    return chain


def pipeline_schedule(n: int, k: int) -> Schedule:
    """Schedule the k word-chains over n tree layers."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    chain = _word_chain(n)

    # Structural merges: down word j+g meets up word j at layer pair (n-1-g, n-g).
    down_merge: dict[tuple[int, int], int] = {}
    for g in range(1, min(n - 1, k - 1) + 1):
        for j in range(k - g):
            down_merge[(j + g, n - 1 - g)] = j

    op_of: dict[tuple[int, int], _Op] = {}
    for (i, a), j in down_merge.items():
        op = _Op("Rbidir", (i, j), (a, a + 1), 2 * i + 1 + a)
        op_of[(i, 1 + a)] = op
        op_of[(j, n + (n - 1 - a))] = op
    for i in range(k):
        for p, (kind, layers) in enumerate(chain):
            if (i, p) not in op_of:
                op_of[(i, p)] = _Op(kind, (i,), layers, 2 * i + p)

    unique: list[_Op] = []
    seen = set()
    for op in op_of.values():
        if id(op) not in seen:
            seen.add(id(op))
            unique.append(op)
    unique.sort(key=lambda op: (op.canon, min(op.words), op.kind))

    last_step = {i: -1 for i in range(k)}
    occupied: dict[int, set] = defaultdict(set)
    for op in unique:
        t = max([op.canon] + [last_step[w] + 1 for w in op.words])
        fp = op.footprint(n)
        while occupied[t] & fp:
            t += 1
        occupied[t] |= fp
        op.step = t
        for w in op.words:
            last_step[w] = t

    n_steps = max(op.step for op in unique) + 1
    by_step: list[list[ScheduleOp]] = [[] for _ in range(n_steps)]
    for op in unique:
        by_step[op.step].append(ScheduleOp(op.kind, op.words, op.layers, op.step))
    for step in by_step:
        step.sort(key=lambda op: (min(op.words), op.kind))
    return Schedule(n, k, tuple(tuple(s) for s in by_step), len(down_merge))
