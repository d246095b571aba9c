"""Pipelined fetch schedule for k-bit words in the bucket-brigade tree.

Protocol ops per word (data bit) i, in fixed order: D (bus <-> root transfer),
Routings down layer pairs (0,1)..(n-2,n-1), M (memory copy at the leaves),
Routings back up, Ddag (root -> bus).  The schedule is in closed form:

- word i starts at s_i = 2i + max(0, i - (n-1)); D, the down-Routings and M
  run at steps s_i .. s_i + n;
- the up-Routing on pair (a, a+1) is, when word i+g (g = n-1-a) exists, the
  bidirectional Routing (Rbidir) that word i+g runs there at s_{i+g} + 1 + a;
  otherwise it runs one step after the word's previous op;
- Ddag runs one step after the word's last up-Routing (after M when n = 1).

The cadence rises from 2 to 3 at word n because at 2, word i's D would take
the root data register in step s_{i-1} + 2, where word i-n's Ddag takes it.
No step uses one register (bus wire, address layer, data layer) twice; that
conflict rule lives only in tests/test_qram_schedule.py, which checks it and
replays the step-by-step greedy placement this formula reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuit import integral


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

    def text(self) -> str:
        lines = [
            f"pipeline schedule n={self.n} k={self.k}: "
            f"{self.n_steps} steps, {self.merged_routings} merged routings"
        ]
        for t, step in enumerate(self.steps):
            lines.append(f"step {t:3d}: " + "; ".join(str(op) for op in step))
        return "\n".join(lines)


def word_chain(n: int) -> list[tuple[str, tuple[int, ...]]]:
    """One word's fetch ops in protocol order, as (kind, layers) pairs."""
    chain: list[tuple[str, tuple[int, ...]]] = [("D", ())]
    chain += [("Rdown", (a, a + 1)) for a in range(n - 1)]
    chain += [("M", ())]
    chain += [("Rup", (a, a + 1)) for a in range(n - 2, -1, -1)]
    chain += [("Ddag", ())]
    return chain


def pipeline_schedule(n: int, k: int) -> Schedule:
    """Schedule the k word-chains over n tree layers."""
    n, k = integral(n, "n"), integral(k, "k")
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    start = [2 * i + max(0, i - (n - 1)) for i in range(k)]
    ops: list[ScheduleOp] = []
    for i, s in enumerate(start):
        ops.append(ScheduleOp("D", (i,), (), s))
        for a in range(n - 1):
            up = i - (n - 1 - a)  # the earlier word this Routing meets, if any
            kind, words = ("Rbidir", (i, up)) if up >= 0 else ("Rdown", (i,))
            ops.append(ScheduleOp(kind, words, (a, a + 1), s + 1 + a))
        t = s + n
        ops.append(ScheduleOp("M", (i,), (), t))
        for a in range(n - 2, -1, -1):
            down = i + n - 1 - a
            if down < k:  # merged into the Rbidir that word `down` emits
                t = start[down] + 1 + a
            else:
                t += 1
                ops.append(ScheduleOp("Rup", (i,), (a, a + 1), t))
        ops.append(ScheduleOp("Ddag", (i,), (), t + 1))
    by_step: list[list[ScheduleOp]] = [[] for _ in range(max(op.step for op in ops) + 1)]
    for op in sorted(ops, key=lambda op: (min(op.words), op.kind)):
        by_step[op.step].append(op)
    merged = sum(op.kind == "Rbidir" for op in ops)
    return Schedule(n, k, tuple(tuple(s) for s in by_step), merged)
