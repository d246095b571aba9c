"""Gate vocabulary: exact unitaries of the fixed kinds and of fsim.

Wire-order convention, fixed package-wide: the first operand of a gate is the
most significant bit of its matrix index, so a two-qubit matrix acts on
|q_first q_second> with basis order 00, 01, 10, 11.  Controlled gates take the
control as the first operand.

Sign conventions are pinned here and nowhere else:

- iswap maps |b1 b2> to (+i)^(b1 xor b2) |b2 b1>  (+i off-diagonal entries);
- fsim(theta, phi) has -i*sin(theta) middle entries and exp(-i*phi) in the
  |11> corner, so fsim(pi/2, pi) is the elementwise *conjugate* of iscz, not
  iscz itself;
- iscz is the fused gate iswap @ cz == cz @ iswap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np


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
    "i": 1, "x": 1, "y": 1, "z": 1, "s": 1, "sdag": 1, "h": 1,
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
H = GateKind("h")
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


def _fixed_matrices() -> dict[str, np.ndarray]:
    j = 1j
    m: dict[str, np.ndarray] = {}
    m["i"] = np.eye(2, dtype=complex)
    m["x"] = np.array([[0, 1], [1, 0]], dtype=complex)
    m["y"] = np.array([[0, -j], [j, 0]], dtype=complex)
    m["z"] = np.diag([1, -1]).astype(complex)
    m["s"] = np.diag([1, j]).astype(complex)
    m["sdag"] = np.diag([1, -j]).astype(complex)
    m["h"] = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    m["cz"] = np.diag([1, 1, 1, -1]).astype(complex)
    m["cnot"] = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    m["swap"] = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    m["iswap"] = np.array(
        [[1, 0, 0, 0], [0, 0, j, 0], [0, j, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    m["iscz"] = np.array(
        [[1, 0, 0, 0], [0, 0, j, 0], [0, j, 0, 0], [0, 0, 0, -1]], dtype=complex
    )
    for name in ("swap", "iswap", "iscz"):
        m["c" + name] = controlled(m[name])
    m["ccz"] = np.diag([1.0] * 7 + [-1.0]).astype(complex)
    m["ccx"] = controlled(controlled(m["x"]))
    return m


def controlled(u: np.ndarray) -> np.ndarray:
    """Controlled version of u with the control as the new most significant bit."""
    d = u.shape[0]
    out = np.eye(2 * d, dtype=complex)
    out[d:, d:] = u
    return out


_FIXED = _fixed_matrices()


def gate_matrix(kind: GateKind) -> np.ndarray:
    """Exact unitary for a gate kind (copy; callers may mutate)."""
    if kind.name in _FIXED:
        return _FIXED[kind.name].copy()
    if kind.name == "fsim":
        theta, phi = kind.params
        c, s = math.cos(theta), math.sin(theta)
        return np.array(
            [
                [1, 0, 0, 0],
                [0, c, -1j * s, 0],
                [0, -1j * s, c, 0],
                [0, 0, 0, np.exp(-1j * phi)],
            ],
            dtype=complex,
        )
    raise ValueError(f"no matrix for kind {kind!r}")
