"""Hardware specifications for the simulated machines.

The specs record what the paper's §6.3 publishes about the two systems:
Sunway OceanLight (SW26010P: 390 cores/node = 6 core groups of 1 MPE + 64
CPEs; >107520 nodes; 256-node super-nodes on one leaf switch; 16:3
oversubscribed multi-layer fat tree) and ORISE (4 MI60-class HIP GPUs per
node, 32-core x86 host, 16 GB/s PCIe DMA, 25 GB/s interconnect).

Quantities the paper does not publish (sustained per-core rates, achieved
memory bandwidths) are *calibration parameters*: the performance model
anchors them against one published Table 2 point per curve and predicts the
rest.  They are given physically plausible defaults here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

__all__ = ["ProcessorSpec", "NodeSpec", "NetworkSpec", "MachineSpec"]


@dataclass(frozen=True)
class ProcessorSpec:
    """One schedulable processing element class (MPE core, CG, or GPU).

    ``flops`` / ``mem_bw`` are *sustained* rates for stencil-dominated
    climate kernels, not peaks.  This is the one device descriptor: the
    execution spaces of :mod:`repro.pp` only cut and run loops, and every
    modeled kernel time comes from :meth:`roofline_s`.
    """

    name: str
    flops: float            # sustained FLOP/s
    mem_bw: float           # sustained bytes/s to its main memory
    cache_bytes: float = 0  # fast-memory capacity (LDM / L2 / HBM cache)
    cache_speedup: float = 1.0  # mem_bw multiplier when working set fits

    def roofline_s(self, flops: float, bytes_: float, mem_bw: Optional[float] = None) -> float:
        """Seconds for ``flops`` of arithmetic over ``bytes_`` of traffic:
        ``max(flops / self.flops, bytes_ / mem_bw)``.  ``mem_bw`` defaults
        to the main-memory rate; callers that know better (working set in
        cache, a fitted bandwidth scale) pass the effective rate.
        """
        if flops < 0 or bytes_ < 0:
            raise ValueError("flops and bytes_ must be >= 0")
        return max(flops / self.flops, bytes_ / (self.mem_bw if mem_bw is None else mem_bw))


@dataclass(frozen=True)
class NodeSpec:
    """A node: how many processes it hosts and what each one drives."""

    name: str
    processes_per_node: int
    cores_per_process: int
    processor: ProcessorSpec          # per-process compute element
    host_processor: Optional[ProcessorSpec] = None  # e.g. MPE-only mode
    staging_bw: Optional[float] = None  # host<->device bytes/s (PCIe), if any

    @property
    def cores_per_node(self) -> int:
        return self.processes_per_node * self.cores_per_process


@dataclass(frozen=True)
class NetworkSpec:
    """Interconnect parameters for the LogGP-style cost model."""

    latency_s: float                  # end-to-end small-message latency
    bandwidth: float                  # per-NIC injection bandwidth, bytes/s
    nodes_per_supernode: int = 256
    oversubscription: float = 1.0     # >1 slows inter-supernode traffic

    def effective_bandwidth(self, inter_supernode: bool) -> float:
        if inter_supernode and self.oversubscription > 1.0:
            return self.bandwidth / self.oversubscription
        return self.bandwidth


@dataclass(frozen=True)
class MachineSpec:
    """A full machine: nodes + network + a name for reports."""

    name: str
    n_nodes: int
    node: NodeSpec
    network: NetworkSpec

    @property
    def total_processes(self) -> int:
        return self.n_nodes * self.node.processes_per_node

    @property
    def total_cores(self) -> int:
        return self.n_nodes * self.node.cores_per_node

    def processes_for_nodes(self, n_nodes: int) -> int:
        if not 0 < n_nodes <= self.n_nodes:
            raise ValueError(
                f"{self.name} has {self.n_nodes} nodes; requested {n_nodes}"
            )
        return n_nodes * self.node.processes_per_node

    def with_processor(self, processor: ProcessorSpec) -> "MachineSpec":
        """A copy whose processes drive a different compute element (used to
        switch a curve between MPE-only and CPE-accelerated modes)."""
        return replace(self, node=replace(self.node, processor=processor))
