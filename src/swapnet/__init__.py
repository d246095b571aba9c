"""swapnet: SWAP networks on the native {CZ, iSWAP} gate set, benchmarks
against a CNOT baseline, and bucket-brigade QRAM circuits built from the same
primitives."""

from . import gates
from .circuit import (
    Circuit,
    CircuitFormatError,
    CouplingMap,
    Gate,
    Metrics,
    layers,
    metrics,
    validate,
)
from .compiler import (
    CompileResult,
    Ext2Result,
    PendingCZ,
    PhaseLedger,
    SwapPath,
    UnschedulableCZError,
    apply_reference_permutation,
    compile_cnot_baseline,
    compile_ext1,
    compile_ext2,
    compile_iscz,
    ledger_by_conjugation,
    legal_cz_slots,
    reference_permutation_unitary,
    unfuse_iscz,
    verify_equivalence,
)
from .netbench import (
    BenchConfig,
    TrialRecord,
    random_permutation,
    route_linear,
    run_benchmark,
    summarize,
)
from .qram import (
    GateCountReport,
    QramBuild,
    QramSpec,
    Schedule,
    TreeLayout,
    build_qram_circuit,
    count_gates,
    ideal_qram_unitary,
    pipeline_schedule,
    verify_qram,
)
from .sim import (
    MixedState,
    NoiseModel,
    PureState,
    apply_circuit,
    circuit_unitary,
    depolarize_pair,
    fidelity,
    random_product_state,
)

__version__ = "0.1.0"
