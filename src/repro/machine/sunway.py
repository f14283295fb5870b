"""The Sunway OceanLight machine model.

Published facts (paper §6.3 and [25]):

* >107520 nodes, one SW26010P 390-core CPU per node → 41,932,800 cores.
* 390 cores/node = 6 core groups (CG), each 1 MPE + 64 CPEs; the paper
  assigns **one MPI process per CG**, with the MPE offloading to its CPEs.
* Each 256-node group on a leaf switch forms a **super node**; super nodes
  connect through a 16:3 (256:48) oversubscribed multi-layer fat tree.

Sustained-rate defaults below are calibration parameters (see
:mod:`repro.machine.spec`); the published MPE-vs-CPE speedups of 84–184×
(§7.2) pin the *ratio* between the two processor specs.
"""

from __future__ import annotations

from .spec import MachineSpec, NetworkSpec, NodeSpec, ProcessorSpec

__all__ = [
    "MPE_PROCESSOR",
    "CPE_PROCESSOR",
    "sunway_oceanlight",
    "OCEANLIGHT_NODES",
    "CORES_PER_NODE",
    "CORES_PER_PROCESS",
]

OCEANLIGHT_NODES = 107520
CORES_PER_NODE = 390
PROCESSES_PER_NODE = 6       # one per core group
CORES_PER_PROCESS = 65       # 1 MPE + 64 CPEs

#: MPE-only execution: one management core doing all the work (the paper's
#: "MPE" baseline curves).  A SW26010P MPE is a modest in-order-ish core;
#: stencil codes sustain O(1) GFLOP/s on it.
MPE_PROCESSOR = ProcessorSpec(
    name="SW26010P-MPE",
    flops=1.2e9,
    mem_bw=4.0e9,
    cache_bytes=512 * 1024,
    cache_speedup=2.0,
)

#: CPE-accelerated execution: the whole CG (64 CPEs) working, with LDM
#: tiling ("CPE+OPT").  The ~130x flops ratio to the MPE reproduces the
#: paper's measured 84-184x end-to-end speedups once communication terms
#: (which do not accelerate) are added.
CPE_PROCESSOR = ProcessorSpec(
    name="SW26010P-CG",
    flops=1.56e11,
    mem_bw=4.8e10,
    cache_bytes=64 * 256 * 1024,
    cache_speedup=1.6,
)


def sunway_oceanlight(n_nodes: int = OCEANLIGHT_NODES) -> MachineSpec:
    """The OceanLight system (optionally a partition of ``n_nodes``)."""
    if not 0 < n_nodes <= OCEANLIGHT_NODES:
        raise ValueError(f"OceanLight has {OCEANLIGHT_NODES} nodes")
    node = NodeSpec(
        name="SW26010P",
        processes_per_node=PROCESSES_PER_NODE,
        cores_per_process=CORES_PER_PROCESS,
        processor=CPE_PROCESSOR,
        host_processor=MPE_PROCESSOR,
        staging_bw=None,  # CPEs share the node memory: no PCIe staging
    )
    network = NetworkSpec(
        latency_s=2.5e-6,
        bandwidth=2.0e10,
        nodes_per_supernode=256,
        oversubscription=256.0 / 48.0,  # the 16:3 fat-tree taper
    )
    return MachineSpec("Sunway OceanLight", n_nodes, node, network)
