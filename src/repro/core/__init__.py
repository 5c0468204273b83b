"""Core models: layers, networks, datatypes, CLPs, designs, and costs."""

from .clp import CLPConfig
from .cost_model import (
    BufferSpec,
    bram_breakdown,
    bram_count,
    buffer_spec,
    dsp_count,
    layer_cycles,
    max_units_for_budget,
)
from .datatypes import FIXED16, FLOAT32, INT8, DataType
from .design import DesignMetrics, MultiCLPDesign
from .layer import ConvLayer, input_extent
from .network import Network
from .schedule import EpochSchedule, ScheduleEntry, build_schedule
from .utilization import (
    UtilizationReport,
    clp_utilization,
    layer_utilization,
    utilization_report,
)

__all__ = [
    "ConvLayer",
    "Network",
    "DataType",
    "FLOAT32",
    "FIXED16",
    "INT8",
    "CLPConfig",
    "MultiCLPDesign",
    "DesignMetrics",
    "BufferSpec",
    "layer_cycles",
    "dsp_count",
    "max_units_for_budget",
    "buffer_spec",
    "bram_count",
    "bram_breakdown",
    "input_extent",
    "EpochSchedule",
    "ScheduleEntry",
    "build_schedule",
    "UtilizationReport",
    "layer_utilization",
    "clp_utilization",
    "utilization_report",
]
