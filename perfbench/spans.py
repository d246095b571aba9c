"""Per-layer spans around swapnet's public callables.

The tracer wraps each callable by attribute substitution: every attribute of
every loaded ``swapnet`` module that *is* the original function is replaced by
the wrapper, so names imported with ``from .sim import ...`` are caught in the
importing module too.  Methods are replaced on their class.  Nothing under
``src/`` is edited; ``uninstall`` puts every original back.

A span records calls, inclusive seconds (``s``, not double-counted when a
layer re-enters itself), self seconds (``self_s``: the span minus the time its
direct child spans cover) and ``errors`` (calls that raised).  Count hooks run
after the span closes and add work counters such as swaps compiled.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

Hook = Callable[..., None]


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


class Tracer:
    """Spans and counters kept in memory; recording only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.stats: dict[str, LayerStats] = {}
        self.counts: dict[str, int] = {}
        self.top_s = 0.0  # wall time covered by spans with no parent span
        self._stack: list[list[Any]] = []  # [layer name, child seconds]
        self._undo: list[tuple[Any, str, Any]] = []

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def span(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        stats = self.stats.setdefault(name, LayerStats())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            reentered = any(frame[0] == name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stats.calls += 1
                if not reentered:
                    stats.s += dt
                stats.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_s += dt
            if hook is not None:
                hook(self, result, *args, **kwargs)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Call count only, for callables too small and frequent to time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def patch_function(self, fn: Callable, wrapper: Callable) -> None:
        for module in list(sys.modules.values()):
            modname = getattr(module, "__name__", "")
            if modname != "swapnet" and not modname.startswith("swapnet."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- count hooks: signature (tracer, result, *call args) ---------------------


def _compiled(t: Tracer, result, path, *_, **__) -> None:
    t.count("compiler.swaps", len(path.pairs))
    ledger = getattr(result, "ledger", None)
    if ledger is not None:
        t.count("compiler.phase_gates", ledger.n_corrections())


def _ext1(t: Tracer, result, path, *_, **__) -> None:
    _compiled(t, result, path)
    # a SWAP between two zero wires emits nothing and is not counted
    bare = sum(1 for g in result.circuit.gates if g.kind.name == "iswap")
    t.count("compiler.ext1_cz_dropped", bare)


def _ext2(t: Tracer, result, path, *_, **__) -> None:
    _compiled(t, result, path)
    moved = sum(1 for p in result.pending if p.slot not in (p.swap_index, p.swap_index + 1))
    t.count("compiler.ext2_cz_deferred", moved)


def _qram_built(t: Tracer, build, *_, **__) -> None:
    t.count("qram.gates_out", len(build.circuit.gates))
    t.count("qram.cz_on_qpu", build.record.cz_on_qpu)


def _scheduled(t: Tracer, schedule, *_, **__) -> None:
    t.count("qram.schedule_steps", schedule.n_steps)


def _qram_verified(t: Tracer, _result, spec, build=None, inputs=None) -> None:
    n_inputs = 2 ** (spec.n + spec.k) if inputs is None else len(inputs)
    t.count("qram.verify.inputs", n_inputs)


def _measured(t: Tracer, _result, circuit, *_, **__) -> None:
    t.count("circuit.ir_gates", len(circuit.gates))


def install(tracer: Tracer) -> None:
    """Wrap the layer callables of an imported swapnet package."""
    from swapnet import circuit, compiler, gates, netbench, qram, sim

    tracer.patch_method(
        sim.MixedState, "apply_gate", tracer.span("sim.dm_apply_gate", sim.MixedState.apply_gate)
    )
    tracer.patch_method(
        sim.PureState, "apply_gate", tracer.span("sim.pure_apply_gate", sim.PureState.apply_gate)
    )
    functions: list[tuple[str, Callable, Hook | None]] = [
        ("sim.depolarize_pair", sim.depolarize_pair, None),
        ("sim.apply_circuit", sim.apply_circuit, None),
        ("sim.circuit_unitary", sim.circuit_unitary, None),
        ("sim.fidelity", sim.fidelity, None),
        ("compiler.compile_iscz", compiler.compile_iscz, _compiled),
        ("compiler.compile_ext1", compiler.compile_ext1, _ext1),
        ("compiler.compile_ext2", compiler.compile_ext2, _ext2),
        ("compiler.compile_cnot_baseline", compiler.compile_cnot_baseline, _compiled),
        ("compiler.unfuse_iscz", compiler.unfuse_iscz, None),
        ("compiler.reference_permutation_unitary", compiler.reference_permutation_unitary, None),
        ("compiler.verify_equivalence", compiler.verify_equivalence, None),
        ("netbench.run_benchmark", netbench.run_benchmark, None),
        ("qram.build", qram.build_qram_circuit, _qram_built),
        ("qram.count_gates", qram.count_gates, None),
        ("qram.pipeline_schedule", qram.pipeline_schedule, _scheduled),
        ("qram.verify", qram.verify_qram, _qram_verified),
        ("circuit.metrics", circuit.metrics, _measured),
    ]
    for name, fn, hook in functions:
        tracer.patch_function(fn, tracer.span(name, fn, hook))
    tracer.patch_function(gates.gate_matrix, tracer.counter("gates.gate_matrix.calls", gates.gate_matrix))


# reported even when a workload never bumps them
COUNTS = (
    "gates.gate_matrix.calls",
    "compiler.swaps",
    "compiler.phase_gates",
    "compiler.ext1_cz_dropped",
    "compiler.ext2_cz_deferred",
    "qram.gates_out",
    "qram.cz_on_qpu",
    "qram.schedule_steps",
    "qram.verify.inputs",
    "circuit.ir_gates",
)
