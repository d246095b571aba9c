"""Wire layout for the bucket-brigade router tree.

A QRAM over n address bits and k-bit words uses:

- n address bus wires, bit 0 first; bit 0 is the most significant address bit
  and is consumed by the tree root;
- k data bus wires; data wire i carries bit i of the word, bit 0 most
  significant (so the bus content read in wire order is the word value);
- one (address, data) register pair per tree node (l, m), l = 0 is the root,
  laid out level by level with the address register before the data register;
- max(0, n - 2) scratch wires for multi-controlled-X decompositions.

Memory cell v (an n-bit index) is owned by leaf v >> 1 and selected there by
the leaf's address register: register value 0 picks cell 2q, value 1 picks
cell 2q + 1.  The ancestor of cell v at layer l is node (l, v >> (n - l)).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuit import MAX_WIRES, integral


def wire_count(n: int, k: int) -> int:
    """Wires of the layout for (n, k): bus, tree registers and scratch."""
    return n + k + 2 * (2**n - 1) + max(0, n - 2)


@dataclass(frozen=True)
class TreeLayout:
    """Wires of one (n, k) tree; the one owner of the MAX_WIRES limit on QRAM layouts."""

    n: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "n", integral(self.n, "n"))
        object.__setattr__(self, "k", integral(self.k, "k"))
        # n and k first, so that 2**n is never formed for a huge n
        if not (1 <= self.n <= MAX_WIRES and 1 <= self.k <= MAX_WIRES):
            raise ValueError(f"need 1 <= n, k <= {MAX_WIRES}, got n={self.n} k={self.k}")
        if wire_count(self.n, self.k) > MAX_WIRES:
            raise ValueError(f"n={self.n} k={self.k}: the QRAM layout exceeds {MAX_WIRES} wires")

    @property
    def n_tree_wires(self) -> int:
        return 2 * (2**self.n - 1)

    @property
    def n_scratch(self) -> int:
        return max(0, self.n - 2)

    @property
    def n_wires(self) -> int:
        return wire_count(self.n, self.k)

    def address(self, bit: int) -> int:
        if not 0 <= bit < self.n:
            raise ValueError(f"address bit {bit} outside 0..{self.n - 1}")
        return bit

    def data(self, bit: int) -> int:
        if not 0 <= bit < self.k:
            raise ValueError(f"data bit {bit} outside 0..{self.k - 1}")
        return self.n + bit

    def node_addr(self, l: int, m: int) -> int:
        """Address register of node (l, m): level order, two wires a node."""
        if not (0 <= l < self.n and 0 <= m < 2**l):
            raise ValueError(f"tree node ({l}, {m}) outside levels 0..{self.n - 1}")
        return self.n + self.k + 2 * (2**l - 1 + m)

    def node_data(self, l: int, m: int) -> int:
        return self.node_addr(l, m) + 1

    def scratch(self, i: int) -> int:
        if not 0 <= i < self.n_scratch:
            raise ValueError(f"scratch wire {i} outside 0..{self.n_scratch - 1}")
        return self.n + self.k + self.n_tree_wires + i

    def ancilla_wires(self) -> frozenset[int]:
        """Tree and scratch wires; promised |0> before and after the circuit."""
        return frozenset(range(self.n + self.k, self.n_wires))

    def cell_path_controls(self, cell: int) -> list[tuple[int, int]]:
        """(wire, required value) pairs selecting memory cell `cell`: the
        address register of each ancestor, at the polarity of cell's bit."""
        if not 0 <= cell < 2**self.n:
            raise ValueError(f"cell {cell} outside 0..{2**self.n - 1}")
        out = []
        for l in range(self.n):
            m = cell >> (self.n - l)
            bit = (cell >> (self.n - 1 - l)) & 1
            out.append((self.node_addr(l, m), bit))
        return out
