"""Closed-form gate counts for the pipelined bucket-brigade QRAM.

All formulas count (SWAP, C-SWAP) pairs or scheduler-level events for a QRAM
over n address bits and k-bit words, with the pipeline on and both compiler
extensions available.  They are cross-checked against instrumented builder
tallies in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any


def merged_pair_count(n: int, k: int) -> int:
    """Routing merges in the pipelined fetch: word pairs at gap g share one
    bidirectional op when g <= n - 1."""
    if n >= k:
        return k * (k - 1) // 2
    return n * (n - 1) // 2 + (k - n) * (n - 1)


def internal_swap_pairs(n: int) -> int:
    """Non-root Internal-SWAP pairs over setting plus uncomputing."""
    return 2**n - 2


def setting_routing_pairs(n: int) -> int:
    """Unidirectional Routing pairs used to set and uncompute the address."""
    return 2 * (2**n - n - 1)


def fetch_routing_ops(n: int, k: int) -> int:
    """Scheduled Routing layer-ops during data loading (merges collapse two)."""
    return 2 * (n - 1) * k - merged_pair_count(n, k)


def fetch_unidirectional_pairs(n: int, k: int) -> int:
    return sum(2 ** (n - i) * min(i, k) for i in range(1, n))

def fetch_bidirectional_pairs(n: int, k: int) -> int:
    return sum(2 ** (n - i - 1) * (k - min(i, k)) for i in range(1, n))


def ext1_saved_pairs(n: int, k: int) -> int:
    """Pairs whose CZ drops because one operand is a known |0>: all
    Internal-SWAPs, all setting Routings, all unidirectional fetch Routings."""
    return 3 * 2**n - 2 * n - 4 + fetch_unidirectional_pairs(n, k)


def cz_on_qpu(n: int, k: int) -> int:
    """Deferred CZs placed on the bus wires, one per Routing merge."""
    return sum(min(i, n - 1) for i in range(k))


@dataclass(frozen=True)
class GateCountReport:
    n: int
    k: int
    internal_swap_pairs: int
    root_swaps: int
    setting_routing_pairs: int
    fetch_routing_ops: int
    fetch_unidirectional_pairs: int
    fetch_bidirectional_pairs: int
    ext1_saved_pairs: int
    ext2_saved_pairs: int
    cz_on_qpu: int
    parity_correction_events: int
    extra_memory_cells: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    def table(self) -> str:
        rows = [
            ("Internal-SWAP pairs (set + uncompute)", self.internal_swap_pairs),
            ("Root SWAPs (set + uncompute)", self.root_swaps),
            ("Routing pairs, address set + uncompute", self.setting_routing_pairs),
            ("Routing layer-ops, data loading", self.fetch_routing_ops),
            ("  unidirectional pairs", self.fetch_unidirectional_pairs),
            ("  bidirectional pairs", self.fetch_bidirectional_pairs),
            ("Pairs compiled CZ-free (known |0>)", self.ext1_saved_pairs),
            ("Pairs with CZ deferred to the bus", self.ext2_saved_pairs),
            ("Deferred CZs on bus wires", self.cz_on_qpu),
            ("Parity correction events", self.parity_correction_events),
            ("Extra memory cells per address", self.extra_memory_cells),
        ]
        width = max(len(name) for name, _ in rows)
        head = f"QRAM gate counts, n={self.n} address bits, k={self.k} data bits"
        lines = [head, "-" * len(head)]
        lines += [f"{name:<{width}}  {value:>6}" for name, value in rows]
        return "\n".join(lines)


def count_gates(n: int, k: int) -> GateCountReport:
    """Evaluate every closed form for (n, k)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return GateCountReport(
        n=n,
        k=k,
        internal_swap_pairs=internal_swap_pairs(n),
        root_swaps=2,
        setting_routing_pairs=setting_routing_pairs(n),
        fetch_routing_ops=fetch_routing_ops(n, k),
        fetch_unidirectional_pairs=fetch_unidirectional_pairs(n, k),
        fetch_bidirectional_pairs=fetch_bidirectional_pairs(n, k),
        ext1_saved_pairs=ext1_saved_pairs(n, k),
        ext2_saved_pairs=fetch_bidirectional_pairs(n, k),
        cz_on_qpu=cz_on_qpu(n, k),
        parity_correction_events=k - 1,
        extra_memory_cells=k - 1,
    )
