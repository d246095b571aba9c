"""Gate vocabulary: each kind declared once, by its basis map.

Wire-order convention, fixed package-wide: the first operand of a gate is the
most significant bit of its matrix index, so a two-qubit matrix acts on
|q_first q_second> with basis order 00, 01, 10, 11.  Controlled gates take the
control as the first operand.

The truth of a kind is its map in BASIS_MAPS, from the operand bits to the
output bits and the power k of the phase i**k it multiplies in (the
phase-polynomial form of arXiv:1303.2042).  `gate_matrix` and the exact
engine's programs (`sim._program`) both derive from it through
`basis_table`, and the sign conventions are these maps:

- iswap: (a, b) -> ((b, a), a ^ b), so +i off-diagonal entries;
- iscz: (a, b) -> ((b, a), (a ^ b) + 2ab), the fused iswap @ cz == cz @ iswap;
- y: a -> ((1 - a,), 1 + 2a), so Y|0> = i|1> and Y|1> = -i|0>.

fsim(theta, phi), the one parametric kind, has no map and no program: its
matrix has -i*sin(theta) middle entries and exp(-i*phi) in the |11> corner,
so fsim(pi/2, pi) is the elementwise *conjugate* of iscz, not iscz itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
from numbers import Real


@dataclass(frozen=True)
class GateKind:
    """A gate name plus its fixed angle parameters (if any): a tuple or list of
    numbers, stored as a tuple of floats; a bool or a non-number is refused."""

    name: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.name not in ARITY:
            raise ValueError(f"unknown gate name: {self.name!r}")
        if not isinstance(self.params, (tuple, list)):
            raise ValueError(f"gate {self.name!r} params must be a tuple or list, got {self.params!r:.40}")
        want = N_PARAMS[self.name]
        if len(self.params) != want:
            raise ValueError(f"gate {self.name!r} takes {want} params, got {len(self.params)}")
        for p in self.params:
            try:
                finite = not isinstance(p, bool) and isinstance(p, Real) and math.isfinite(p)
            except OverflowError:  # an integer past the float range
                finite = False
            if not finite:
                raise ValueError(f"gate {self.name!r} needs finite numbers as params, got {p!r:.40}")
        object.__setattr__(self, "params", tuple(map(float, self.params)))

    @property
    def arity(self) -> int:
        return ARITY[self.name]

    def __str__(self) -> str:
        if self.params:
            return f"{self.name}({', '.join(f'{p:g}' for p in self.params)})"
        return self.name


ARITY: dict[str, int] = {
    "i": 1, "x": 1, "y": 1, "z": 1, "s": 1, "sdag": 1,
    "cz": 2, "cnot": 2, "swap": 2, "iswap": 2, "iscz": 2, "fsim": 2,
    "cswap": 3, "ciswap": 3, "ciscz": 3, "ccz": 3, "ccx": 3,
}

N_PARAMS: dict[str, int] = {name: 0 for name in ARITY}
N_PARAMS["fsim"] = 2

# Fixed-kind singletons.  The parametric fsim is built by its factory below.
I = GateKind("i")
X = GateKind("x")
Y = GateKind("y")
Z = GateKind("z")
S = GateKind("s")
SDAG = GateKind("sdag")
CZ = GateKind("cz")
CNOT = GateKind("cnot")
SWAP = GateKind("swap")
ISWAP = GateKind("iswap")
ISCZ = GateKind("iscz")
CSWAP = GateKind("cswap")
CISWAP = GateKind("ciswap")
CISCZ = GateKind("ciscz")
CCZ = GateKind("ccz")
CCX = GateKind("ccx")  # Toffoli; the target is the last operand


def fsim(theta: float, phi: float) -> GateKind:
    return GateKind("fsim", (theta, phi))


# Residual phase powers: after an iscz network, wire counters mod 4 map to
# corrections (sdag)^count.  0 -> nothing, 1 -> sdag, 2 -> z, 3 -> s.
PHASE_BY_COUNT: dict[int, GateKind | None] = {0: None, 1: SDAG, 2: Z, 3: S}

PHASES = (1, 1j, -1, -1j)  # i**power for power 0..3


def _controlled(f):
    """The map of f behind a control bit, the new first operand."""
    return lambda c, *bits: ((c, *f(*bits)[0]), f(*bits)[1]) if c else ((c, *bits), 0)


# operand bits -> (output bits, power of i)
BASIS_MAPS = {
    "i": lambda a: ((a,), 0),
    "x": lambda a: ((1 - a,), 0),
    "y": lambda a: ((1 - a,), 1 + 2 * a),
    "z": lambda a: ((a,), 2 * a),
    "s": lambda a: ((a,), a),
    "sdag": lambda a: ((a,), 3 * a),
    "cz": lambda a, b: ((a, b), 2 * a * b),
    "cnot": lambda a, b: ((a, a ^ b), 0),
    "swap": lambda a, b: ((b, a), 0),
    "iswap": lambda a, b: ((b, a), a ^ b),
    "iscz": lambda a, b: ((b, a), (a ^ b) + 2 * a * b),
}
_CONTROLLED = {"cswap": "swap", "ciswap": "iswap", "ciscz": "iscz", "ccz": "cz", "ccx": "cnot"}
BASIS_MAPS |= {name: _controlled(BASIS_MAPS[target]) for name, target in _CONTROLLED.items()}


@cache
def basis_table(name: str) -> tuple[tuple[int, int], ...]:
    """Each basis input j's (destination index, power of i mod 4) under a
    declared kind's basis map, the first operand the most significant bit."""
    a = ARITY[name]
    table = []
    for j in range(2**a):
        bits, power = BASIS_MAPS[name](*((j >> (a - 1 - p)) & 1 for p in range(a)))
        table.append((sum(b << (a - 1 - p) for p, b in enumerate(bits)), power % 4))
    return tuple(table)


def gate_matrix(kind: GateKind):
    """Exact unitary for a gate kind, a new complex ndarray: U[dest, j] =
    i**power for each basis input j of a declared kind, fsim's closed form."""
    import numpy as np  # the vocabulary itself needs none

    if kind.name == "fsim":
        theta, phi = kind.params
        c, s = math.cos(theta), -1j * math.sin(theta)
        rows = [[1, 0, 0, 0], [0, c, s, 0], [0, s, c, 0], [0, 0, 0, cmath.exp(-1j * phi)]]
        return np.array(rows, dtype=complex)
    table = basis_table(kind.name)
    u = np.zeros((len(table), len(table)), dtype=complex)
    for j, (dest, power) in enumerate(table):
        u[dest, j] = PHASES[power]
    return u
