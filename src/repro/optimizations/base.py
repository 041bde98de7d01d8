"""Base classes for optimization what-if models."""

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.errors import ConfigError
from repro.core.graph import DependencyGraph
from repro.core.simulate import SchedulePolicy
from repro.hw.device import (
    CPU_EPYC_7601,
    GPU_2080TI,
    CPUSpec,
    GPUSpec,
    get_cpu,
    get_gpu,
)
from repro.hw.topology import ClusterSpec
from repro.tracing.trace import Trace


def device_specs_from_trace(trace: Trace):
    """The (GPU, CPU) specs a trace's metadata records, ``None`` when absent.

    Used by :meth:`WhatIfContext.from_trace` and by
    :meth:`~repro.analysis.session.WhatIfSession.from_trace` so a saved
    trace replays against the hardware it was actually collected on.
    """
    metadata = dict(trace.metadata)
    gpu = _spec_from_metadata(metadata, "gpu_spec", "gpu", GPUSpec, get_gpu)
    cpu = _spec_from_metadata(metadata, "cpu_spec", "cpu", CPUSpec, get_cpu)
    return gpu, cpu


def _spec_from_metadata(metadata: Dict[str, object], spec_key: str,
                        name_key: str, spec_cls, preset_lookup):
    """Recover a device spec recorded in trace metadata, if any.

    Prefers the full ``*_spec`` field dict (exact, survives calibration
    overrides like Section 6.4's Caffe efficiency); falls back to a preset
    lookup of the recorded device name; returns ``None`` when the trace
    predates the instrumentation or names an unknown device.
    """
    fields = metadata.get(spec_key)
    if isinstance(fields, dict):
        try:
            return spec_cls(**fields)
        except TypeError:
            pass  # metadata written by a different spec version
    name = metadata.get(name_key)
    if isinstance(name, str):
        try:
            return preset_lookup(name)
        except ConfigError:
            pass
    return None


@dataclass
class WhatIfContext:
    """Everything an optimization model may consult besides the graph.

    Attributes:
        trace_metadata: the instrumentation metadata of the baseline trace
            (bucket map, gradient sizes, layer kinds, ...).
        gpu: the profiled GPU (for estimating inserted-kernel durations).
        cpu: host cost parameters (for inserted launch APIs).
        cluster: target deployment for communication what-ifs.
    """

    trace_metadata: Dict[str, object] = field(default_factory=dict)
    gpu: GPUSpec = field(default_factory=lambda: GPU_2080TI)
    cpu: CPUSpec = field(default_factory=lambda: CPU_EPYC_7601)
    cluster: Optional[ClusterSpec] = None

    @classmethod
    def from_trace(cls, trace: Trace, gpu: Optional[GPUSpec] = None,
                   cpu: Optional[CPUSpec] = None,
                   cluster: Optional[ClusterSpec] = None) -> "WhatIfContext":
        """Build a context from a baseline trace's metadata.

        Explicit ``gpu``/``cpu`` arguments win; otherwise the specs the
        profiling engine recorded in the trace metadata (``gpu_spec`` /
        ``cpu_spec`` dicts, or preset names under ``gpu`` / ``cpu``) are
        used, so a trace collected on a Quadro P4000 is not silently
        analyzed as an RTX 2080Ti.  The paper's defaults remain the last
        resort for pre-instrumentation traces.
        """
        metadata = dict(trace.metadata)
        if gpu is None:
            gpu = _spec_from_metadata(metadata, "gpu_spec", "gpu",
                                      GPUSpec, get_gpu)
        if cpu is None:
            cpu = _spec_from_metadata(metadata, "cpu_spec", "cpu",
                                      CPUSpec, get_cpu)
        return cls(
            trace_metadata=metadata,
            gpu=gpu or GPU_2080TI,
            cpu=cpu or CPU_EPYC_7601,
            cluster=cluster,
        )


@dataclass
class WhatIfOutcome:
    """Result of applying an optimization model to a graph.

    Attributes:
        graph: the transformed graph (same object the model mutated).
        scheduler: a custom scheduling policy, when the optimization
            reschedules tasks (paper's Schedule primitive); ``None`` keeps
            the default earliest-start policy.
    """

    graph: DependencyGraph
    scheduler: Optional[SchedulePolicy] = None


class OptimizationModel(abc.ABC):
    """A what-if model: a named graph transformation.

    Subclasses implement :meth:`apply`, mutating the given graph with the
    primitives from :mod:`repro.core.transform` and optionally supplying a
    custom scheduler.  ``apply`` must not require the optimization to be
    implemented — only its *effect* on the dependency graph is described.
    """

    #: human-readable optimization name
    name: str = "optimization"

    @abc.abstractmethod
    def apply(self, graph: DependencyGraph, context: WhatIfContext) -> WhatIfOutcome:
        """Transform ``graph`` in place and return the outcome."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
