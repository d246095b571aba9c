"""Pipelined fetch schedule: step counts, structural merges, conflict freedom.

The soundness oracle replays every word's op sequence and tracks where the
word's data bit physically sits (bus, or tree data layer a), checking that
each op picks the bit up exactly where the previous op left it.
"""

import time
from collections import defaultdict
from dataclasses import dataclass

import pytest

from swapnet.qram.counts import merged_pair_count
from swapnet.qram.schedule import ScheduleOp, pipeline_schedule, word_chain

GRID = [(n, k) for n in range(1, 7) for k in range(1, 7)]


def op_footprint(op, n):
    """Resources an op occupies during its step, mirroring the builder's
    wire usage: bus wire, address layers, data layers."""
    if op.kind in ("D", "Ddag"):
        return {("bus", op.words[0]), ("dlayer", 0)}
    if op.kind == "M":
        return {("alayer", n - 1), ("dlayer", n - 1)}
    a = op.layers[0]
    return {("alayer", a), ("dlayer", a), ("dlayer", a + 1)}


@pytest.mark.parametrize("n", range(1, 7))
def test_single_word_takes_2n_plus_1_steps(n):
    assert pipeline_schedule(n, 1).n_steps == 2 * n + 1


@pytest.mark.parametrize("n", range(2, 7))
def test_two_adjacent_words_take_2n_plus_3_steps(n):
    assert pipeline_schedule(n, 2).n_steps == 2 * n + 3


def test_n_equals_one_degenerates_to_sequential():
    for k in range(1, 5):
        s = pipeline_schedule(1, k)
        assert s.n_steps == 3 * k
        assert s.merged_routings == 0
        assert all(len(step) == 1 for step in s.steps)


@pytest.mark.parametrize("n,k", GRID)
def test_merged_routings_match_closed_form(n, k):
    assert pipeline_schedule(n, k).merged_routings == merged_pair_count(n, k)


@pytest.mark.parametrize("n,k", GRID)
def test_no_step_has_conflicting_footprints(n, k):
    s = pipeline_schedule(n, k)
    for step in s.steps:
        seen = set()
        for op in step:
            fp = op_footprint(op, n)
            assert not seen.intersection(fp), (n, k, op)
            seen.update(fp)


@pytest.mark.parametrize("n,k", GRID)
def test_every_word_runs_its_full_chain_in_order(n, k):
    s = pipeline_schedule(n, k)
    chains = {i: [] for i in range(k)}
    for t, step in enumerate(s.steps):
        for op in step:
            if op.kind == "Rbidir":
                down, up = op.words
                chains[down].append((t, "Rdown", op.layers))
                chains[up].append((t, "Rup", op.layers))
            else:
                chains[op.words[0]].append((t, op.kind, op.layers))
    expect = (
        [("D", ())]
        + [("Rdown", (a, a + 1)) for a in range(n - 1)]
        + [("M", ())]
        + [("Rup", (a, a + 1)) for a in range(n - 2, -1, -1)]
        + [("Ddag", ())]
    )
    for i, chain in chains.items():
        chain.sort(key=lambda e: e[0])
        assert [(kind, lay) for _, kind, lay in chain] == expect
        steps_taken = [t for t, _, _ in chain]
        assert steps_taken == sorted(set(steps_taken))  # strictly increasing


@pytest.mark.parametrize("n,k", GRID)
def test_data_bit_position_is_continuous(n, k):
    # replay each word's chain; D moves bus -> layer 0, Rdown (a, a+1) moves
    # layer a -> a+1, M acts at layer n-1, Rup moves a+1 -> a, Ddag returns
    s = pipeline_schedule(n, k)
    pos = {i: "bus" for i in range(k)}
    for step in s.steps:
        moves = {}
        for op in step:
            if op.kind == "Rbidir":
                down, up = op.words
                a = op.layers[0]
                assert pos[down] == a and pos[up] == a + 1
                moves[down], moves[up] = a + 1, a
            elif op.kind == "D":
                assert pos[op.words[0]] == "bus"
                moves[op.words[0]] = 0
            elif op.kind == "Rdown":
                a = op.layers[0]
                assert pos[op.words[0]] == a
                moves[op.words[0]] = a + 1
            elif op.kind == "M":
                assert pos[op.words[0]] == n - 1
            elif op.kind == "Rup":
                a = op.layers[0]
                assert pos[op.words[0]] == a + 1
                moves[op.words[0]] = a
            elif op.kind == "Ddag":
                assert pos[op.words[0]] == 0
                moves[op.words[0]] = "bus"
        pos.update(moves)
    assert all(p == "bus" for p in pos.values())


def test_schedule_rejects_bad_sizes():
    with pytest.raises(ValueError):
        pipeline_schedule(0, 1)


def test_schedule_text_lists_every_step():
    s = pipeline_schedule(2, 2)
    text = s.text()
    lines = text.splitlines()
    assert "n=2 k=2" in lines[0]
    assert len(lines) == 1 + s.n_steps
    assert any("Rbidir" in line for line in lines)


def test_known_step_counts_table():
    # k down the rows, n across the columns; verified against the greedy
    # scheduler with conflict repair
    expect = {
        1: [3, 5, 7, 9, 11, 13],
        2: [6, 7, 9, 11, 13, 15],
        3: [9, 10, 11, 13, 15, 17],
        4: [12, 13, 14, 15, 17, 19],
        5: [15, 16, 17, 18, 19, 21],
        6: [18, 19, 20, 21, 22, 23],
    }
    for k, row in expect.items():
        for n, steps in zip(range(1, 7), row):
            assert pipeline_schedule(n, k).n_steps == steps, (n, k)


@dataclass
class ScanOp:
    kind: str  # D | Rdown | Rbidir | Rup | M | Ddag
    words: tuple  # (word,) or (down_word, up_word) for Rbidir
    layers: tuple  # (a, a+1) for Routing kinds, () otherwise
    canon: int  # step on the cadence-2 grid, before conflict repair
    step: int = -1


def scan_schedule(n, k):
    """Oracle: the scheduler as first written, placing each op by scanning
    forward one step at a time until none of its footprint keys is taken."""
    chain = word_chain(n)
    down_merge = {}
    for g in range(1, min(n - 1, k - 1) + 1):
        for j in range(k - g):
            down_merge[(j + g, n - 1 - g)] = j
    op_of = {}
    for (i, a), j in down_merge.items():
        op = ScanOp("Rbidir", (i, j), (a, a + 1), 2 * i + 1 + a)
        op_of[(i, 1 + a)] = op
        op_of[(j, n + (n - 1 - a))] = op
    for i in range(k):
        for p, (kind, layers) in enumerate(chain):
            if (i, p) not in op_of:
                op_of[(i, p)] = ScanOp(kind, (i,), layers, 2 * i + p)
    unique, seen = [], set()
    for op in op_of.values():
        if id(op) not in seen:
            seen.add(id(op))
            unique.append(op)
    unique.sort(key=lambda op: (op.canon, min(op.words), op.kind))
    last_step = {i: -1 for i in range(k)}
    occupied = defaultdict(set)
    for op in unique:
        t = max([op.canon] + [last_step[w] + 1 for w in op.words])
        fp = op_footprint(op, n)
        while occupied[t] & fp:
            t += 1
        occupied[t] |= fp
        op.step = t
        for w in op.words:
            last_step[w] = t
    by_step = [[] for _ in range(max(op.step for op in unique) + 1)]
    for op in unique:
        by_step[op.step].append(ScheduleOp(op.kind, op.words, op.layers, op.step))
    for step in by_step:
        step.sort(key=lambda op: (min(op.words), op.kind))
    return tuple(tuple(s) for s in by_step), len(down_merge)


def test_placement_matches_the_step_by_step_scan_on_a_grid():
    for n in range(1, 8):
        for k in range(1, 40):
            s = pipeline_schedule(n, k)
            assert (s.steps, s.merged_routings) == scan_schedule(n, k), (n, k)


@pytest.mark.parametrize("n", range(8, 16))
def test_placement_matches_the_step_by_step_scan_for_deep_trees(n):
    for k in sorted({1, 2, n - 1, n, n + 1, 2 * n + 1, 40}):
        s = pipeline_schedule(n, k)
        assert (s.steps, s.merged_routings) == scan_schedule(n, k), (n, k)


@pytest.mark.parametrize("n,k", [(1, 300), (5, 300), (3, 1000)])
def test_placement_matches_the_step_by_step_scan_for_long_runs(n, k):
    s = pipeline_schedule(n, k)
    assert (s.steps, s.merged_routings) == scan_schedule(n, k)


def test_placement_is_not_quadratic_in_k():
    # the step-by-step scan takes about 25 s here on a 2-core Xeon VM
    start = time.perf_counter()
    s = pipeline_schedule(1, 20000)
    assert time.perf_counter() - start < 6.0
    assert s.n_steps == 3 * 20000
