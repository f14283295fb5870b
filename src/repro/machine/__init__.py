"""Analytic machine models (Sunway OceanLight, ORISE) and the performance
model that regenerates the paper's scaling tables and figures."""

from .calibration import (
    CalibrationError,
    CalibrationTable,
    DriftReport,
    KernelCalibration,
    ReferenceRates,
    calibrate,
    drift,
    drift_report,
    measure_probes,
)
from .federation import FederatedESM, WanLink
from .orise import GPU_PROCESSOR, HOST_PROCESSOR, ORISE_NODES, orise
from .perfmodel import (
    ComponentWorkload,
    CoupledPerfModel,
    CouplingSpec,
    PerfBreakdown,
    PerfModel,
    Phase,
)
from .spec import MachineSpec, NetworkSpec, NodeSpec, ProcessorSpec
from .sunway import (
    CORES_PER_NODE,
    CORES_PER_PROCESS,
    CPE_PROCESSOR,
    MPE_PROCESSOR,
    OCEANLIGHT_NODES,
    sunway_oceanlight,
)
from .workloads import (
    atm_workload,
    ice_workload,
    lnd_workload,
    ocn_workload,
)

__all__ = [
    "ProcessorSpec",
    "FederatedESM",
    "WanLink",
    "NodeSpec",
    "NetworkSpec",
    "MachineSpec",
    "Phase",
    "ComponentWorkload",
    "PerfBreakdown",
    "PerfModel",
    "CoupledPerfModel",
    "CouplingSpec",
    "sunway_oceanlight",
    "orise",
    "MPE_PROCESSOR",
    "CPE_PROCESSOR",
    "GPU_PROCESSOR",
    "HOST_PROCESSOR",
    "OCEANLIGHT_NODES",
    "ORISE_NODES",
    "CORES_PER_NODE",
    "CORES_PER_PROCESS",
    "atm_workload",
    "ocn_workload",
    "ice_workload",
    "lnd_workload",
    "CalibrationError",
    "CalibrationTable",
    "KernelCalibration",
    "ReferenceRates",
    "DriftReport",
    "calibrate",
    "drift",
    "drift_report",
    "measure_probes",
]
