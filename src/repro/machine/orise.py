"""The ORISE heterogeneous machine model.

Published facts (paper §6.3): each node has one 4-way 8-core x86 CPU at
2.0 GHz with 128 GB memory and **four MI60-class HIP GPUs**; CPU and GPUs
share 32-bit PCIe with DMA at 16 GB/s; nodes connect through a 25 GB/s
high-speed network.  The ocean model runs one MPI process per GPU
(Table 2: 1000 nodes → 4000 GPUs).
"""

from __future__ import annotations

from .spec import MachineSpec, NetworkSpec, NodeSpec, ProcessorSpec

__all__ = ["GPU_PROCESSOR", "HOST_PROCESSOR", "orise", "ORISE_NODES"]

# Table 2 scales the ocean to 16085 GPUs; round the machine up to 4200
# nodes (16800 GPUs) — the paper does not publish the full node count.
ORISE_NODES = 4200
GPUS_PER_NODE = 4

#: MI60-class accelerator: 6.6 TF FP64 peak; bandwidth-bound stencils
#: sustain a fraction of HBM2's 1 TB/s.
GPU_PROCESSOR = ProcessorSpec(
    name="ORISE-GPU",
    flops=1.3e12,
    mem_bw=6.0e11,
    cache_bytes=4 * 1024 * 1024,
    cache_speedup=1.0,
)

#: Host CPU share backing one GPU process (8 of 32 cores at 2 GHz).
HOST_PROCESSOR = ProcessorSpec(
    name="ORISE-CPU",
    flops=2.0e10,
    mem_bw=2.0e10,
    cache_bytes=8 * 1024 * 1024,
    cache_speedup=1.5,
)


def orise(n_nodes: int = ORISE_NODES) -> MachineSpec:
    """The ORISE system (optionally a partition of ``n_nodes``)."""
    if not 0 < n_nodes <= ORISE_NODES:
        raise ValueError(f"ORISE model has {ORISE_NODES} nodes")
    node = NodeSpec(
        name="ORISE-node",
        processes_per_node=GPUS_PER_NODE,
        cores_per_process=1,
        processor=GPU_PROCESSOR,
        host_processor=HOST_PROCESSOR,
        staging_bw=1.6e10,  # 16 GB/s PCIe DMA
    )
    network = NetworkSpec(
        latency_s=1.5e-6,
        bandwidth=2.5e10,   # 25 GB/s
        nodes_per_supernode=ORISE_NODES,  # flat network: no supernode taper
        oversubscription=1.0,
    )
    return MachineSpec("ORISE", n_nodes, node, network)
