"""swapnet: SWAP networks on the native {CZ, iSWAP} gate set, benchmarks
against a CNOT baseline, and bucket-brigade QRAM circuits built from the same
primitives.  Import names from their modules, e.g. `swapnet.compiler`."""

__version__ = "0.1.0"
