"""The Task: one node of Daydream's kernel-level dependency graph.

A task corresponds to one GPU kernel, CUDA memory copy, CUDA runtime API
call, data-loading step, or communication primitive (paper Section 4.2.1).
Tasks carry the fields Algorithm 1 needs — execution thread, duration, gap —
plus the layer/phase mapping that graph transformations rely on.

Tasks use *identity* semantics (``eq=False``): two tasks with identical
fields are still distinct graph nodes, and tasks are hashable so they can
key adjacency sets.

Field writes to a ``Task`` are plain attribute stores, so building a
graph and mapping it to layers stay cheap.  Only a *lowered* task pays
for a write barrier: lowering turns it into the stamped subclass
``repro.core.graph._StampedTask`` (see ``_WriteStamp`` there).
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.errors import ConfigError
from repro.tracing.records import ExecutionThread

_INF = float("inf")


class TaskKind(enum.Enum):
    """What kind of work a task represents."""

    CPU = "cpu"            # CUDA runtime API or other CPU work
    GPU_KERNEL = "gpu_kernel"
    MEMCPY = "memcpy"
    COMM = "comm"
    DATALOAD = "dataload"

    @property
    def is_gpu(self) -> bool:
        return self in GPU_KINDS


#: the GPU-side kinds; ``task.kind in GPU_KINDS`` is the call-free form of
#: ``task.is_gpu`` for loops over every task
GPU_KINDS = (TaskKind.GPU_KERNEL, TaskKind.MEMCPY)


@dataclass(eq=False)
class Task:
    """One node in the dependency graph.

    Attributes:
        name: task name (CUDA API / kernel / primitive name).
        kind: task classification.
        thread: execution thread (CPU process, CUDA stream, comm channel).
        duration: execution time in microseconds.
        gap: idle time *after* this task on its thread before the next task
            can start (non-CUDA CPU runtime the profiler can't see; paper
            Section 4.2.1 'Gap').  Simulated as part of thread progress.
        layer: DNN layer this task belongs to (filled by the task-to-layer
            mapping; ``None`` if unmapped).
        phase: ``forward`` / ``backward`` / ``weight_update`` when known.
        correlation_id: CUPTI correlation (links launch APIs and kernels).
        size_bytes: payload for memcpy/comm tasks.
        priority: scheduling priority used by custom schedulers (P3).
        trace_start_us: the task's start time in the *measured* trace
            (informational; simulation recomputes start times).
        metadata: free-form annotations.

    Durations and gaps must be finite and ``>= 0``.  Do not subclass
    ``Task``: lowering stamps only plain tasks, so a subclass's writes
    would never invalidate a cached lowering.
    """

    name: str
    kind: TaskKind
    thread: ExecutionThread
    duration: float
    gap: float = 0.0
    layer: Optional[str] = None
    phase: Optional[str] = None
    correlation_id: Optional[int] = None
    size_bytes: float = 0.0
    priority: int = 0
    trace_start_us: float = 0.0
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # chained compares are False for NaN, so this also rejects NaN
        if not 0.0 <= self.duration < _INF:
            raise ConfigError(f"task {self.name!r} has duration "
                              f"{self.duration!r}; must be finite and >= 0")
        if not 0.0 <= self.gap < _INF:
            raise ConfigError(f"task {self.name!r} has gap {self.gap!r}; "
                              "must be finite and >= 0")

    def clone(self) -> "Task":
        """A fast field-for-field clone (fresh identity, own metadata dict).

        Bypasses dataclass ``__init__`` — the source task already satisfies
        the constructor invariants — and is always a plain, unstamped
        ``Task``.  Task-valued metadata still references the *original*
        linked tasks; graph-level cloning remaps those.
        """
        out = object.__new__(Task)
        d = out.__dict__
        d.update(self.__dict__)
        d.pop("_sim_stamp", None)
        d["metadata"] = dict(self.metadata)
        return out

    @property
    def is_gpu(self) -> bool:
        """True for GPU-side tasks (kernels and memory copies)."""
        return self.kind.is_gpu

    @property
    def is_cpu(self) -> bool:
        """True for CPU-side tasks (runtime APIs, data loading)."""
        return self.kind in (TaskKind.CPU, TaskKind.DATALOAD)

    @property
    def is_comm(self) -> bool:
        """True for communication primitives."""
        return self.kind is TaskKind.COMM

    def scale_duration(self, factor: float) -> None:
        """Scale this task's duration (the shrink/scale primitive)."""
        if not 0.0 <= factor < _INF:
            raise ConfigError(
                f"scale factor {factor!r} must be finite and >= 0")
        self.duration *= factor

    def __repr__(self) -> str:  # compact, for debugging
        layer = f" layer={self.layer}" if self.layer else ""
        return (f"Task({self.name!r}, {self.kind.value}, {self.thread}, "
                f"dur={self.duration:.1f}us{layer})")
