"""Bucket-brigade QRAM circuits on the {CZ, iSWAP} gate set, with counts and
pipelined scheduling."""

from .build import QramBuild, QramBuildRecord, QramSpec, build_qram_circuit
from .counts import GateCountReport, count_gates, merged_pair_count
from .layout import TreeLayout
from .schedule import Schedule, ScheduleOp, pipeline_schedule
from .verify import ideal_qram_unitary, verify_qram

__all__ = [
    "GateCountReport",
    "QramBuild",
    "QramBuildRecord",
    "QramSpec",
    "Schedule",
    "ScheduleOp",
    "TreeLayout",
    "build_qram_circuit",
    "count_gates",
    "ideal_qram_unitary",
    "merged_pair_count",
    "pipeline_schedule",
    "verify_qram",
]
