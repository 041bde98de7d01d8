"""Daydream core: kernel-level dependency graph, simulator, transformations."""

from repro.core.task import Task, TaskKind
from repro.core.graph import DependencyGraph
from repro.core.construction import build_graph
from repro.core.mapping import map_tasks_to_layers
from repro.core.simulate import (
    SchedulePolicy,
    SimulationResult,
    make_priority_scheduler,
    simulate,
)
from repro.core.breakdown import RuntimeBreakdown, compute_breakdown
from repro.core import transform

__all__ = [
    "Task",
    "TaskKind",
    "DependencyGraph",
    "build_graph",
    "map_tasks_to_layers",
    "SimulationResult",
    "SchedulePolicy",
    "make_priority_scheduler",
    "simulate",
    "RuntimeBreakdown",
    "compute_breakdown",
    "transform",
]
