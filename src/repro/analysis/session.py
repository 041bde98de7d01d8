"""The :class:`WhatIfSession`: profile once, ask many questions.

This is the package's main entry point (paper Section 7.1: "Daydream's
profiling can be performed just once, and using that profile ... one can
answer questions for many different optimizations"):

    >>> from repro.analysis import WhatIfSession
    >>> from repro.optimizations import AutomaticMixedPrecision
    >>> session = WhatIfSession.profile("resnet50")
    >>> pred = session.predict(AutomaticMixedPrecision())
    >>> pred.speedup  # doctest: +SKIP
    1.6...
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.metrics import improvement_percent, speedup
from repro.core.breakdown import RuntimeBreakdown, compute_breakdown
from repro.core.compiled import CellDelta, CompiledGraph, compiled_for
from repro.core.compiled import simulate_many as _compiled_simulate_many
from repro.core.construction import build_graph
from repro.core.graph import DependencyGraph
from repro.core.simulate import SimulationResult, simulate
from repro.framework.config import TrainingConfig
from repro.framework.engine import Engine
from repro.hw.topology import ClusterSpec
from repro.models.base import ModelSpec
from repro.models.registry import build_model
from repro.optimizations.base import (
    OptimizationModel,
    WhatIfContext,
    device_specs_from_trace,
)
from repro.tracing.trace import Trace


@dataclass(frozen=True)
class Prediction:
    """Daydream's answer to one what-if question."""

    optimization: str
    baseline_us: float
    predicted_us: float

    @property
    def speedup(self) -> float:
        """Predicted speedup over the baseline."""
        return speedup(self.baseline_us, self.predicted_us)

    @property
    def improvement_percent(self) -> float:
        """Predicted iteration-time improvement in percent."""
        return improvement_percent(self.baseline_us, self.predicted_us)

    def __str__(self) -> str:
        return (f"{self.optimization}: {self.baseline_us / 1000:.2f} ms -> "
                f"{self.predicted_us / 1000:.2f} ms "
                f"({self.improvement_percent:+.1f}%)")


class WhatIfSession:
    """A profiled baseline plus the machinery to explore optimizations.

    Construct via :meth:`profile` (runs the framework engine) or
    :meth:`from_trace` (replays a saved trace — e.g. one collected on a
    machine you no longer have access to).
    """

    def __init__(self, trace: Trace, config: Optional[TrainingConfig] = None):
        self.trace = trace
        self.config = config or TrainingConfig()
        self._graph: Optional[DependencyGraph] = None
        self._baseline: Optional[SimulationResult] = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def profile(
        cls,
        model: str,
        batch_size: Optional[int] = None,
        config: Optional[TrainingConfig] = None,
    ) -> "WhatIfSession":
        """Profile one training iteration of a registry model."""
        spec = build_model(model, batch_size=batch_size)
        return cls.from_model(spec, config=config)

    @classmethod
    def from_model(
        cls, model: ModelSpec, config: Optional[TrainingConfig] = None
    ) -> "WhatIfSession":
        """Profile one training iteration of an explicit model spec."""
        config = config or TrainingConfig()
        trace = Engine(model=model, config=config).run_iteration()
        return cls(trace, config)

    @classmethod
    def from_trace(
        cls, trace: Trace, config: Optional[TrainingConfig] = None
    ) -> "WhatIfSession":
        """Wrap an existing trace (e.g. loaded from disk).

        Without an explicit ``config``, the GPU/CPU specs recorded in the
        trace metadata (when present) are adopted, so a trace profiled on a
        Quadro P4000 is not silently analyzed as an RTX 2080Ti.
        """
        if config is None:
            gpu, cpu = device_specs_from_trace(trace)
            kwargs = {}
            if gpu is not None:
                kwargs["gpu"] = gpu
            if cpu is not None:
                kwargs["cpu"] = cpu
            for key in ("framework", "precision", "optimizer"):
                value = trace.metadata.get(key)
                if isinstance(value, str):
                    kwargs[key] = value
            config = TrainingConfig(**kwargs)
        return cls(trace, config)

    # ----------------------------------------------------------------- queries

    @property
    def graph(self) -> DependencyGraph:
        """The baseline dependency graph (constructed lazily, cached)."""
        if self._graph is None:
            self._graph = build_graph(self.trace)
        return self._graph

    @property
    def baseline_result(self) -> SimulationResult:
        """Simulation of the unmodified graph."""
        if self._baseline is None:
            self._baseline = simulate(self.graph)
        return self._baseline

    @property
    def baseline_us(self) -> float:
        """Simulated baseline iteration time."""
        return self.baseline_result.makespan_us

    def compiled_baseline(self) -> CompiledGraph:
        """The baseline graph lowered to struct-of-arrays form.

        Built once per graph generation and cached *on the graph* (see
        :func:`repro.core.compiled.compiled_for`), so every consumer —
        :meth:`simulate_many` cell batches and the transactions
        :meth:`predict` opens — shares one lowering.  The write barrier
        invalidates it: any structural mutation or in-place task write
        outside a transaction bumps the graph generation and the next
        access relowers.
        """
        return compiled_for(self.graph)

    def breakdown(self) -> RuntimeBreakdown:
        """CPU-only / GPU-only / parallel decomposition of the baseline."""
        return compute_breakdown(self.graph, self.baseline_result)

    def context(self, cluster: Optional[ClusterSpec] = None) -> WhatIfContext:
        """Build the what-if context for this profile."""
        return WhatIfContext.from_trace(
            self.trace, gpu=self.config.gpu, cpu=self.config.cpu,
            cluster=cluster,
        )

    # ------------------------------------------------------------- prediction

    def predict(
        self,
        optimization: OptimizationModel,
        cluster: Optional[ClusterSpec] = None,
    ) -> Prediction:
        """Predict the effect of one optimization on iteration time.

        The optimization model transforms the baseline graph in place
        inside a journaled transaction (:meth:`DependencyGraph.overlay`),
        the transformed graph is re-simulated (with the model's custom
        scheduler when supplied), and the transaction rolls the graph back
        on exit — also when the model raises.
        """
        baseline_us = self.baseline_us  # simulated before any transform
        with self.graph.overlay() as working:
            outcome = optimization.apply(working, self.context(cluster))
            result = simulate(outcome.graph, outcome.scheduler)
        return Prediction(
            optimization=optimization.name,
            baseline_us=baseline_us,
            predicted_us=result.makespan_us,
        )

    def predict_simulation(
        self,
        optimization: OptimizationModel,
        cluster: Optional[ClusterSpec] = None,
    ):
        """Like :meth:`predict` but returns ``(graph, SimulationResult)``
        for deeper inspection (per-task start times, breakdowns).  The
        caller keeps the graph, so the model transforms a deep copy."""
        outcome = optimization.apply(self.graph.copy(),
                                     self.context(cluster))
        result = simulate(outcome.graph, outcome.scheduler)
        return outcome.graph, result

    # ------------------------------------------------------------------ sweeps

    def simulate_many(
        self,
        cells: Sequence[CellDelta],
        scheduler=None,
    ) -> List[SimulationResult]:
        """Batched multi-simulate: many cells, one shared compiled baseline.

        Every :class:`~repro.core.compiled.CellDelta` is a sparse set of
        per-task duration/gap overrides onto *this* session's baseline.
        The baseline is lowered once (:meth:`compiled_baseline`) and each
        cell re-runs only the array engine over patched columns —
        O(N + |delta|) per cell instead of a transform + graph setup —
        bit-identical to transforming and simulating each cell's graph
        from scratch.

        ``scheduler`` is a :class:`~repro.core.simulate.SchedulePolicy`
        or ``None``; anything else raises ``TypeError``.
        """
        return _compiled_simulate_many(self.compiled_baseline(), list(cells),
                                       scheduler)
