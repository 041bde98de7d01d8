"""Trace event records, mirroring what CUPTI exposes.

CUPTI's activity API reports, per record: the activity kind (runtime API,
kernel, memcpy), name, start/end timestamps, the CPU thread or CUDA stream
it ran on, and a **correlation ID** linking each ``cudaLaunchKernel`` call to
the GPU kernel it launched.  Our :class:`TraceEvent` carries exactly those
fields, plus the framework-instrumentation extras Daydream adds (layer
markers with phase tags, communication metadata).
"""

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional

_INF = float("inf")


class EventCategory(enum.Enum):
    """CUPTI activity kinds plus Daydream's instrumentation records."""

    RUNTIME = "runtime"      # CUDA runtime API call on a CPU thread
    KERNEL = "kernel"        # GPU kernel execution on a CUDA stream
    MEMCPY = "memcpy"        # CUDA memory copy on a CUDA stream
    COMM = "comm"            # communication primitive on a network channel
    MARKER = "marker"        # framework layer-phase window (instrumentation)
    DATALOAD = "dataload"    # mini-batch load on a CPU thread


@dataclass(frozen=True, order=True)
class ExecutionThread:
    """Where a task executes: a CPU thread, a CUDA stream, or a comm channel.

    Ordering/frozen so it can key dictionaries and sort deterministically.
    """

    kind: str   # 'cpu' | 'gpu_stream' | 'comm'
    index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("cpu", "gpu_stream", "comm"):
            raise ValueError(f"unknown thread kind {self.kind!r}")
        # Threads key every hot dict in simulation and tracing; cache the
        # hash (and the display label, used as a sort key) once instead of
        # recomputing per lookup.
        object.__setattr__(self, "_hash", hash((self.kind, self.index)))
        object.__setattr__(self, "_label", f"{self.kind}:{self.index}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is ExecutionThread:
            return self.kind == other.kind and self.index == other.index
        return NotImplemented

    @property
    def is_cpu(self) -> bool:
        return self.kind == "cpu"

    @property
    def is_gpu(self) -> bool:
        return self.kind == "gpu_stream"

    @property
    def is_comm(self) -> bool:
        return self.kind == "comm"

    def __str__(self) -> str:
        return self._label


@lru_cache(maxsize=None)
def cpu_thread(index: int = 0) -> ExecutionThread:
    """Convenience constructor for a CPU thread (interned)."""
    return ExecutionThread("cpu", index)


@lru_cache(maxsize=None)
def gpu_stream(index: int = 0) -> ExecutionThread:
    """Convenience constructor for a CUDA stream (interned)."""
    return ExecutionThread("gpu_stream", index)


@lru_cache(maxsize=None)
def comm_channel(index: int = 0) -> ExecutionThread:
    """Convenience constructor for a communication channel (interned)."""
    return ExecutionThread("comm", index)


@dataclass(slots=True)
class TraceEvent:
    """One trace record.

    ``slots=True``: engines emit hundreds of thousands of events per sweep;
    slot storage trims per-event memory and attribute access.

    Attributes:
        category: activity kind.
        name: API/kernel/primitive name (CUPTI-style strings).
        start_us: start timestamp (microseconds since trace origin).
        duration_us: duration in microseconds.
        thread: executing CPU thread / CUDA stream / comm channel.
        correlation_id: links a launch API to its GPU kernel (CUPTI semantics);
            ``None`` for records with no correlation.
        layer: DNN layer name (markers always have it; kernels get it only
            after Daydream's task-to-layer mapping).
        phase: ``forward`` / ``backward`` / ``weight_update`` for markers.
        size_bytes: payload size for memcpy/comm events.
        metadata: free-form extras (bucket id, gradient size, ...).
    """

    category: EventCategory
    name: str
    start_us: float
    duration_us: float
    thread: ExecutionThread
    correlation_id: Optional[int] = None
    layer: Optional[str] = None
    phase: Optional[str] = None
    size_bytes: float = 0.0
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # chained compares are False for NaN, so this also rejects NaN
        if not 0.0 <= self.start_us < _INF:
            raise ValueError(f"event {self.name!r} has start_us "
                             f"{self.start_us!r}; must be finite and >= 0")
        if not 0.0 <= self.duration_us < _INF:
            raise ValueError(f"event {self.name!r} has duration_us "
                             f"{self.duration_us!r}; must be finite and >= 0")

    @property
    def end_us(self) -> float:
        """End timestamp."""
        return self.start_us + self.duration_us

    @property
    def is_gpu_side(self) -> bool:
        """True for events that occupy a CUDA stream."""
        return self.category in (EventCategory.KERNEL, EventCategory.MEMCPY)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation."""
        return {
            "category": self.category.value,
            "name": self.name,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "thread": {"kind": self.thread.kind, "index": self.thread.index},
            "correlation_id": self.correlation_id,
            "layer": self.layer,
            "phase": self.phase,
            "size_bytes": self.size_bytes,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TraceEvent":
        """Inverse of :meth:`to_dict`."""
        thread = data["thread"]
        return cls(
            category=EventCategory(data["category"]),
            name=data["name"],
            start_us=float(data["start_us"]),
            duration_us=float(data["duration_us"]),
            thread=ExecutionThread(thread["kind"], int(thread["index"])),
            correlation_id=data.get("correlation_id"),
            layer=data.get("layer"),
            phase=data.get("phase"),
            size_bytes=float(data.get("size_bytes", 0.0)),
            metadata=dict(data.get("metadata", {})),
        )
