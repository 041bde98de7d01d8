"""Execute declarative scenarios: one runner behind every consumer.

The :class:`ScenarioRunner` owns the model → trace → transform → simulate
pipeline that experiments, examples and the CLI used to wire by hand:

* sessions are profiled once per (model, batch size, training config) and
  cached, so a bandwidth sweep over one model profiles a single iteration;
* single scenarios run through :meth:`WhatIfSession.predict`;
* grids run through one fan-out substrate, the
  :mod:`repro.scenarios.batch` process-pool executor (serial, fork or
  spawn workers, crash recovery), optionally over the
  :mod:`repro.scenarios.store` result store (``store=``), which skips
  cells already on disk and resumes interrupted sweeps;
* grid rows are bit-identical to serial :meth:`ScenarioRunner.run` calls.

Outcomes expose the model spec, config and cluster so experiment modules
can add ground-truth columns without re-wiring anything.  :meth:`run`
outcomes also carry the profiled session; grid outcomes are *detached*:
they carry the timings a worker or the store produced and the
cheap-to-build model/config/cluster specs, but no profiled session.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import improvement_percent
from repro.analysis.session import Prediction, WhatIfSession
from repro.common.errors import ConfigError
from repro.experiments.common import ExperimentResult
from repro.framework.config import TrainingConfig
from repro.hw.topology import ClusterSpec
from repro.models.base import ModelSpec
from repro.models.registry import runtime_registered_models
from repro.scenarios.batch import DEFAULT_MAX_CELL_RETRIES, run_batch
from repro.scenarios.pipeline import OptimizationPipeline
from repro.scenarios.registry import DEFAULT_REGISTRY, OptimizationRegistry
from repro.scenarios.scenario import Scenario, ScenarioGrid


@dataclass
class ScenarioOutcome:
    """The result of running one scenario.

    ``prediction`` is ``None`` for baseline-only scenarios (an empty
    optimization stack asks "how long is one iteration?", nothing more)
    and, like ``session``, for every grid outcome: those timings come
    from a batch worker or the store, not from a local simulation.
    """

    scenario: Scenario
    baseline_us: float
    predicted_us: float
    model: ModelSpec
    config: TrainingConfig
    cluster: Optional[ClusterSpec]
    session: Optional[WhatIfSession] = None
    prediction: Optional[Prediction] = None
    cached: bool = False

    @property
    def improvement_percent(self) -> float:
        """Predicted improvement over the baseline, in percent."""
        if self.prediction is not None:
            return self.prediction.improvement_percent
        if self.predicted_us == self.baseline_us:
            return 0.0
        return improvement_percent(self.baseline_us, self.predicted_us)

    def as_row(self) -> List[object]:
        """The standard ``ExperimentResult`` row for this outcome."""
        cluster_label = self.cluster.label() if self.cluster else "1x1"
        bandwidth = (self.scenario.cluster.bandwidth_gbps
                     if self.scenario.cluster else None)
        return [
            self.scenario.model,
            cluster_label,
            bandwidth if bandwidth is not None else "-",
            self.scenario.stack_label(),
            self.baseline_us / 1000.0,
            self.predicted_us / 1000.0,
            self.improvement_percent,
        ]


#: headers matching :meth:`ScenarioOutcome.as_row`
SCENARIO_RESULT_HEADERS = (
    "model", "config", "bandwidth_gbps", "optimizations",
    "baseline_ms", "predicted_ms", "improvement_%",
)


def validate_stack(scenario: Scenario, registry: OptimizationRegistry
                   ) -> Tuple[Optional[ClusterSpec], OptimizationPipeline]:
    """Build a scenario's cluster and pipeline, enforcing the stack's
    prerequisites (a communication stack needs a cluster)."""
    cluster = scenario.build_cluster()
    pipeline = scenario.build_pipeline(registry)
    if pipeline.requires_cluster and cluster is None:
        raise ConfigError(
            f"stack {scenario.stack_label()!r} needs a cluster; "
            "declare scenario.cluster"
        )
    return cluster, pipeline


class ScenarioRunner:
    """Run scenarios and scenario grids against cached profiled sessions."""

    def __init__(self,
                 registry: Optional[OptimizationRegistry] = None) -> None:
        self.registry = registry or DEFAULT_REGISTRY
        self._sessions: Dict[object, Tuple[Tuple[WhatIfSession, ModelSpec,
                                                 TrainingConfig],
                                           object]] = {}
        self._models: Dict[object, Tuple[ModelSpec, object]] = {}

    # -------------------------------------------------------------- sessions

    @staticmethod
    def _session_key(scenario: Scenario, config: TrainingConfig) -> object:
        return (scenario.model, scenario.batch_size, config)

    @staticmethod
    def _builder_token(scenario: Scenario) -> object:
        """Identity of the runtime builder behind a scenario's model name.

        ``None`` for shipped zoo models (immutable within a process).  A
        cached session whose token no longer matches was profiled against
        a model that has since been re-registered (``register_model(...,
        overwrite=True)``) — trusting it would serve the *old* model's
        timings under the new model's name, so it is rebuilt instead.
        """
        return runtime_registered_models().get(scenario.model.lower())

    def model(self, scenario: Scenario) -> ModelSpec:
        """The model spec of a scenario's workload (cached, and shared
        with its session; rebuilt when the builder is re-registered)."""
        key = (scenario.model, scenario.batch_size)
        token = self._builder_token(scenario)
        cached = self._models.get(key)
        if cached is None or cached[1] is not token:
            cached = (scenario.build_model(), token)
            self._models[key] = cached
        return cached[0]

    def session(self, scenario: Scenario) -> WhatIfSession:
        """The profiled session for a scenario's workload (cached)."""
        return self._session_entry(scenario)[0]

    def _session_entry(
        self, scenario: Scenario
    ) -> Tuple[WhatIfSession, ModelSpec, TrainingConfig]:
        config = scenario.build_config()
        key = self._session_key(scenario, config)
        token = self._builder_token(scenario)
        cached = self._sessions.get(key)
        if cached is not None and cached[1] is not token:
            del self._sessions[key]
            cached = None
        if cached is None:
            model = self.model(scenario)
            session = WhatIfSession.from_model(model, config=config)
            cached = ((session, model, config), token)
            self._sessions[key] = cached
        return cached[0]

    # ------------------------------------------------------------- execution

    def run_cells(self, scenario: Scenario, cells: Sequence,
                  scheduler=None) -> List[Prediction]:
        """Answer a grid of parameter cells against one scenario's workload.

        ``cells`` are :class:`~repro.core.compiled.CellDelta` sparse
        duration/gap overrides onto the scenario workload's *baseline*
        graph (the scenario's optimization stack, if any, is not applied —
        cells ask "what if these tasks were faster/slower", not "what if
        this optimization").  The whole grid runs through the batched
        :meth:`WhatIfSession.simulate_many` path: the session's baseline
        is lowered once and every cell re-runs only the array engine, so
        a 24-cell grid costs one lowering plus 24 engine loops.

        Returns one :class:`~repro.analysis.session.Prediction` per cell,
        in cell order, labeled by ``cell.label``.
        """
        session = self.session(scenario)
        baseline_us = session.baseline_us
        return [
            Prediction(optimization=cell.label, baseline_us=baseline_us,
                       predicted_us=result.makespan_us)
            for cell, result in zip(
                cells, session.simulate_many(cells, scheduler))
        ]

    def run(self, scenario: Scenario) -> ScenarioOutcome:
        """Execute one scenario."""
        session, model, config = self._session_entry(scenario)
        cluster, pipeline = validate_stack(scenario, self.registry)
        prediction = (session.predict(pipeline, cluster=cluster)
                      if len(pipeline) else None)
        predicted_us = (prediction.predicted_us if prediction is not None
                        else session.baseline_us)
        return ScenarioOutcome(scenario=scenario, session=session,
                               model=model, config=config, cluster=cluster,
                               baseline_us=session.baseline_us,
                               predicted_us=predicted_us,
                               prediction=prediction)

    def detached_outcome(self, scenario: Scenario, baseline_us: float,
                         predicted_us: float,
                         cached: bool = False) -> ScenarioOutcome:
        """An outcome carrying externally computed timings.

        Validates the scenario exactly like :meth:`run` (pipeline rules,
        cluster requirements) and builds the config and cluster specs on
        the runner's cached model spec (:meth:`model`), but profiles
        nothing.
        """
        model = self.model(scenario)
        config = scenario.build_config()
        cluster, _pipeline = validate_stack(scenario, self.registry)
        return ScenarioOutcome(scenario=scenario, session=None,
                               model=model, config=config,
                               cluster=cluster, baseline_us=baseline_us,
                               predicted_us=predicted_us, cached=cached)

    def run_grid(self, scenarios: Sequence[Scenario],
                 parallel: Optional[int] = None,
                 store=None, force: bool = False,
                 progress=None,
                 start_method: Optional[str] = None,
                 max_cell_retries: int = DEFAULT_MAX_CELL_RETRIES
                 ) -> List[ScenarioOutcome]:
        """Execute many scenarios, fanning work across CPU cores.

        Every cell's stack is validated up front (the checks
        :meth:`detached_outcome` runs), so a bad cell raises before any
        worker starts.  The grid then runs on the
        :func:`repro.scenarios.batch.run_batch` executor with
        ``parallel`` workers (``None``: one per CPU; ``1``: serially in
        this process).  Cells sharing a workload (model, batch size,
        config) share one profiled session and its compiled simulation
        baseline per worker.

        With a ``store``, cells the
        :class:`~repro.scenarios.store.SweepStore` already holds are
        served without simulation (resume; a store with a ``remote`` tier
        also reads through to it, so a warm shared server means zero
        local simulations) and new ones are persisted — missing cells are
        claimed under per-key leases so concurrent sweeps sharing a store
        dedupe identical cells.  ``force=True`` recomputes hits,
        ``progress(done, total, cell)`` streams completion, and
        ``start_method`` picks the worker start method
        (``"fork"``/``"spawn"``/``"serial"``, default automatic — see
        :class:`~repro.scenarios.batch.WorkerManifest` for how spawn
        workers rebuild runtime registrations).  ``max_cell_retries``
        bounds how often one cell is requeued after its chunk crashed a
        worker before being quarantined to the parent; cells that fail
        even there abort the grid with a :class:`ConfigError` naming
        every failed cell (matching serial semantics, where a poisoned
        cell raises too — callers wanting partial results use
        :func:`~repro.scenarios.batch.run_batch` directly).

        Results come back in input order, as detached outcomes (no
        session, no prediction; the model spec is the runner's cached one,
        shared as in :meth:`run`), bit-identical across start methods,
        store tiers and serial :meth:`run` calls.
        """
        scenarios = list(scenarios)
        for scenario in scenarios:
            validate_stack(scenario, self.registry)
        report = run_batch(scenarios, registry=self.registry, store=store,
                           jobs=parallel, force=force, progress=progress,
                           start_method=start_method,
                           max_cell_retries=max_cell_retries)
        report.raise_for_failures()
        # detached outcomes on the cached model specs: building a spec per
        # cell would cost more than the rest of a stored grid's answer,
        # and its garbage sets off full collections here and in the next
        # grid's forked workers
        return [self.detached_outcome(cell.scenario,
                                      cell.values["baseline_us"],
                                      cell.values["predicted_us"],
                                      cell.cached)
                for cell in report.cells]

    def run_file(self, path: str,
                 parallel: Optional[int] = None,
                 store=None, force: bool = False,
                 progress=None,
                 start_method: Optional[str] = None,
                 max_cell_retries: int = DEFAULT_MAX_CELL_RETRIES
                 ) -> List[ScenarioOutcome]:
        """Execute a scenario JSON file (single scenario or grid).

        A grid runs through :meth:`run_grid`; so does a single scenario
        handed a ``store``, which it is read from and written to.  A
        single scenario without one runs in-process through :meth:`run`.
        """
        from repro.scenarios.scenario import load_scenario_file
        loaded = load_scenario_file(path)
        if isinstance(loaded, ScenarioGrid):
            scenarios = loaded.expand()
        elif store is None:
            return [self.run(loaded)]
        else:
            scenarios = [loaded]
        return self.run_grid(scenarios, parallel=parallel, store=store,
                             force=force, progress=progress,
                             start_method=start_method,
                             max_cell_retries=max_cell_retries)

    # --------------------------------------------------------------- results

    @staticmethod
    def to_result(outcomes: Sequence[ScenarioOutcome],
                  experiment: str = "scenario",
                  title: str = "Declared scenarios",
                  notes: str = "") -> ExperimentResult:
        """Collect outcomes into a renderable :class:`ExperimentResult`."""
        result = ExperimentResult(experiment=experiment, title=title,
                                  headers=list(SCENARIO_RESULT_HEADERS),
                                  notes=notes)
        for outcome in outcomes:
            result.add_row(*outcome.as_row())
        return result
