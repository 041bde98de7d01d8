"""Execute declarative scenarios: one runner behind every consumer.

The :class:`ScenarioRunner` owns the model → trace → transform → simulate
pipeline that experiments, examples and the CLI used to wire by hand:

* sessions are profiled once per (model, batch size, training config) and
  cached, so a bandwidth sweep over one model profiles a single iteration;
* single scenarios run through :meth:`WhatIfSession.predict`;
* grids run through the existing fork-based :meth:`WhatIfSession.sweep`
  (``processes=``), or — for durable, multi-workload sweeps — through the
  :mod:`repro.scenarios.batch` process-pool executor and the
  :mod:`repro.scenarios.store` result store (``parallel=`` / ``store=``),
  which skips cells already on disk and resumes interrupted sweeps;
* all paths produce bit-identical rows.

Outcomes expose the underlying session, model spec, config and cluster so
experiment modules can add ground-truth columns without re-wiring anything.
Cache-served outcomes are *detached*: they carry the stored timings and the
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
from repro.scenarios.pipeline import OptimizationPipeline
from repro.scenarios.registry import DEFAULT_REGISTRY, OptimizationRegistry
from repro.scenarios.scenario import Scenario, ScenarioGrid


@dataclass
class ScenarioOutcome:
    """The result of running one scenario.

    ``prediction`` is ``None`` for baseline-only scenarios (an empty
    optimization stack asks "how long is one iteration?", nothing more)
    and for cache-served outcomes, whose timings come from the store.
    ``session`` is ``None`` for outcomes that never simulated locally
    (store hits, process-pool cells).
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


class ScenarioRunner:
    """Run scenarios and scenario grids against cached profiled sessions."""

    def __init__(self, registry: Optional[OptimizationRegistry] = None,
                 cache_sessions: bool = True) -> None:
        self.registry = registry or DEFAULT_REGISTRY
        self.cache_sessions = cache_sessions
        self._sessions: Dict[object, Tuple[Tuple[WhatIfSession, ModelSpec,
                                                 TrainingConfig],
                                           object]] = {}

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
            model = scenario.build_model()
            session = WhatIfSession.from_model(model, config=config)
            cached = ((session, model, config), token)
            if self.cache_sessions:
                self._sessions[key] = cached
        return cached[0]

    # ------------------------------------------------------------- execution

    def _prepare(self, scenario: Scenario) -> Tuple[
            WhatIfSession, ModelSpec, TrainingConfig,
            Optional[ClusterSpec], OptimizationPipeline]:
        """Resolve and validate everything one scenario execution needs."""
        session, model, config = self._session_entry(scenario)
        cluster = scenario.build_cluster()
        pipeline = scenario.build_pipeline(self.registry)
        if pipeline.requires_cluster and cluster is None:
            raise ConfigError(
                f"stack {scenario.stack_label()!r} needs a cluster; "
                "declare scenario.cluster"
            )
        return session, model, config, cluster, pipeline

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
        session, model, config, cluster, pipeline = self._prepare(scenario)
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
        cluster requirements) and builds the cheap model/config/cluster
        specs, but profiles nothing — this is how store hits and
        process-pool cells come back.
        """
        config = scenario.build_config()
        cluster = scenario.build_cluster()
        pipeline = scenario.build_pipeline(self.registry)
        if pipeline.requires_cluster and cluster is None:
            raise ConfigError(
                f"stack {scenario.stack_label()!r} needs a cluster; "
                "declare scenario.cluster"
            )
        return ScenarioOutcome(scenario=scenario, session=None,
                               model=scenario.build_model(), config=config,
                               cluster=cluster, baseline_us=baseline_us,
                               predicted_us=predicted_us, cached=cached)

    def run_grid(self, scenarios: Sequence[Scenario],
                 processes: Optional[int] = None,
                 parallel: Optional[int] = None,
                 store=None, force: bool = False,
                 progress=None,
                 start_method: Optional[str] = None,
                 max_cell_retries: Optional[int] = None
                 ) -> List[ScenarioOutcome]:
        """Execute many scenarios, fanning work across CPU cores.

        Two fan-out substrates share this entry point:

        * default (``processes=``): scenarios sharing a workload (model,
          batch size, config) share one profiled session in *this*
          process; each shared group's predictions go through the
          session's fork-based :meth:`~WhatIfSession.sweep`;
        * batch (``parallel=`` and/or ``store=``): cells run on the
          :func:`repro.scenarios.batch.run_batch` process-pool executor,
          skipping cells the :class:`~repro.scenarios.store.SweepStore`
          already holds (resume; a store with a ``remote`` tier also
          reads through to it, so a warm shared server means zero local
          simulations) and persisting new ones — missing cells are
          claimed under per-key leases so concurrent sweeps sharing a
          store dedupe identical cells; ``force=True`` recomputes hits,
          ``progress(done, total, cell)`` streams completion, and
          ``start_method`` picks the worker start method
          (``"fork"``/``"spawn"``/``"serial"``, default automatic — see
          :class:`~repro.scenarios.batch.WorkerManifest` for how spawn
          workers rebuild runtime registrations).  ``max_cell_retries``
          bounds how often one cell is requeued after its chunk crashed
          a worker before being quarantined to the parent; cells that
          fail even there abort the grid with a :class:`ConfigError`
          naming every failed cell (matching serial semantics, where a
          poisoned cell raises too — callers wanting partial results use
          :func:`~repro.scenarios.batch.run_batch` directly).

        Results come back in input order and are bit-identical across
        both substrates, both start methods, and serial :meth:`run` calls.

        On both substrates the per-workload session cache also shares the
        compiled simulation baseline (`repro.core.compiled`): a workload's
        lowering is built by its first simulate and reused by every
        scenario of that workload (and by every chunk a pool worker runs);
        each question transforms the graph inside a journaled transaction
        that hands the lowering back unchanged on exit.
        """
        if parallel is not None or store is not None:
            from repro.scenarios.batch import run_batch
            kwargs = {}
            if max_cell_retries is not None:
                kwargs["max_cell_retries"] = max_cell_retries
            report = run_batch(scenarios, registry=self.registry,
                               store=store, jobs=parallel, force=force,
                               progress=progress, start_method=start_method,
                               **kwargs)
            if report.failures:
                detail = "; ".join(
                    f"cell {f.index} ({f.label}): {f.error}"
                    for f in report.failures)
                raise ConfigError(
                    f"{report.failed} grid cell(s) failed after retries "
                    f"and quarantine: {detail}")
            return [self.detached_outcome(cell.scenario, cell.baseline_us,
                                          cell.predicted_us,
                                          cached=cell.cached)
                    for cell in report.cells]

        prepared: List[Tuple[Scenario, WhatIfSession, ModelSpec,
                             TrainingConfig, Optional[ClusterSpec],
                             OptimizationPipeline]] = []
        groups: Dict[int, List[int]] = {}
        for index, scenario in enumerate(scenarios):
            session, model, config, cluster, pipeline = \
                self._prepare(scenario)
            prepared.append((scenario, session, model, config, cluster,
                             pipeline))
            groups.setdefault(id(session), []).append(index)

        predictions: Dict[int, Optional[Prediction]] = {}
        for indices in groups.values():
            session = prepared[indices[0]][1]
            question_indices = [i for i in indices if len(prepared[i][5])]
            for i in indices:
                predictions[i] = None
            if not question_indices:
                continue
            answers = session.sweep(
                [(prepared[i][5], prepared[i][4]) for i in question_indices],
                processes=processes,
            )
            for i, answer in zip(question_indices, answers):
                predictions[i] = answer

        outcomes = []
        for index, (scenario, session, model, config, cluster, _pipeline) \
                in enumerate(prepared):
            prediction = predictions[index]
            predicted_us = (prediction.predicted_us if prediction is not None
                            else session.baseline_us)
            outcomes.append(ScenarioOutcome(
                scenario=scenario, session=session, model=model,
                config=config, cluster=cluster,
                baseline_us=session.baseline_us, predicted_us=predicted_us,
                prediction=prediction))
        return outcomes

    def run_file(self, path: str,
                 processes: Optional[int] = None,
                 parallel: Optional[int] = None,
                 store=None, force: bool = False,
                 progress=None,
                 start_method: Optional[str] = None,
                 max_cell_retries: Optional[int] = None
                 ) -> List[ScenarioOutcome]:
        """Execute a scenario JSON file (single scenario or grid)."""
        from repro.scenarios.scenario import load_scenario_file
        loaded = load_scenario_file(path)
        if isinstance(loaded, ScenarioGrid):
            return self.run_grid(loaded.expand(), processes=processes,
                                 parallel=parallel, store=store,
                                 force=force, progress=progress,
                                 start_method=start_method,
                                 max_cell_retries=max_cell_retries)
        if parallel is not None or store is not None:
            return self.run_grid([loaded], parallel=parallel, store=store,
                                 force=force, progress=progress,
                                 start_method=start_method,
                                 max_cell_retries=max_cell_retries)
        return [self.run(loaded)]

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
