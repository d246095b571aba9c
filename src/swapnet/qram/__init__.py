"""Bucket-brigade QRAM circuits on the {CZ, iSWAP} gate set, with counts and
pipelined scheduling."""

from .build import QramSpec, build_qram_circuit
from .counts import count_gates
from .schedule import pipeline_schedule
from .verify import verify_qram

__all__ = ["QramSpec", "build_qram_circuit", "count_gates", "pipeline_schedule", "verify_qram"]
