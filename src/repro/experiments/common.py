"""Shared experiment plumbing: the result container and ground-truth caching.

Every experiment module renders its figure/table through
:class:`ExperimentResult`, and every experiment that compares against an
*engine measurement* (the paper's ground truth) caches that measurement
through :func:`cached_measurement` — one namespaced ``groundtruth:*`` kind
per measurement family in the shared
:class:`~repro.scenarios.store.SweepStore`, so re-runs (and other
experiments sharing a deployment) skip the engine entirely.
"""

import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.common.texttable import render_table

# fork-inherited ground-truth computes for the worker processes (never
# pickled: they are closures over models, configs and traces)
_COMPUTES: Optional[Sequence[Callable[[], float]]] = None


def _compute(index: int) -> float:
    assert _COMPUTES is not None
    return float(_COMPUTES[index]())


def _fork_map(computes: Sequence[Callable[[], float]],
              jobs: int) -> List[float]:
    """Run zero-argument computes across ``jobs`` fork workers, in order.

    The computes reach the children through fork, so they may close over
    anything; only indices go down and floats come back.  One job, one
    compute or a platform without fork runs them serially in-process —
    the results are identical either way.
    """
    global _COMPUTES
    jobs = min(jobs, len(computes))
    if jobs <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [float(compute()) for compute in computes]
    _COMPUTES = computes
    try:
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            return pool.map(_compute, range(len(computes)))
    finally:
        _COMPUTES = None


def cached_measurements(requests: Sequence[tuple], store=None,
                        force: bool = False, jobs: Optional[int] = None,
                        field_name: str = "iteration_us") -> List[float]:
    """A batch of engine ground-truth numbers, served from the sweep store.

    Each request is a ``(scenario, kind, compute)`` triple.  Entries are
    keyed on the *stack-stripped* scenario (optimizations and schedule
    policy removed) plus ``kind``: an engine measurement depends on the
    workload and deployment, not on what Daydream predicts on top, so
    every experiment sharing a deployment shares one entry — the ``kind``
    namespace (``"groundtruth:amp"``, ``"groundtruth:ddp-sync"``, ...)
    must therefore encode everything the measurement depends on beyond
    the stripped scenario.

    All store reads and writes happen in the *parent* process; only the
    cache-missing ``compute`` callables fan out across fork workers
    (``jobs``).  That keeps ``store.stats`` honest, lets a ``max_bytes``
    cap see every write, and still persists each measurement.  Because
    every read goes through :meth:`SweepStore.get`, a store constructed
    with a ``remote`` tier serves ground truth read-through from the
    shared server *transparently* — experiments need no remote-specific
    code, and a corrupt or unreachable remote is simply a miss that
    re-measures locally.

    Args:
        requests: ``(scenario, kind, compute)`` triples; ``compute`` is a
            zero-argument callable producing the measurement in
            microseconds, only called on a miss (or with ``force``).
        store: a :class:`~repro.scenarios.store.SweepStore`, or ``None``
            to always compute.
        force: recompute and overwrite even on hits.
        jobs: fork workers for the missing computes (``None``/1 = serial).
        field_name: the key each number is stored under.

    Returns:
        The measured (or cache-served) values, in request order.
    """
    def keyed(scenario):
        return scenario.with_(optimizations=[], schedule_policy=None)

    results: List[Optional[float]] = [None] * len(requests)
    pending: List[int] = []
    for index, (scenario, kind, _compute) in enumerate(requests):
        if store is not None and not force:
            values = store.get(keyed(scenario), kind=kind)
            if values is not None \
                    and isinstance(values.get(field_name), float):
                results[index] = values[field_name]
                continue
        pending.append(index)

    if pending:
        computed = _fork_map([requests[i][2] for i in pending], jobs or 1)
        for index, value in zip(pending, computed):
            scenario, kind, _compute = requests[index]
            if store is not None:
                store.put(keyed(scenario), {field_name: value}, kind=kind)
            results[index] = value
    return results


def cached_measurement(scenario, kind: str, compute: Callable[[], float],
                       store=None, force: bool = False,
                       field_name: str = "iteration_us") -> float:
    """One engine ground-truth number, served from the sweep store.

    The single-request form of :func:`cached_measurements` (same keying
    and caching contract).
    """
    return cached_measurements([(scenario, kind, compute)], store=store,
                               force=force, field_name=field_name)[0]


def experiment_store(store) -> Optional[object]:
    """Normalize an experiment's ``store=`` argument.

    Experiments accept either an opened
    :class:`~repro.scenarios.store.SweepStore` or a directory path (the
    CLI hands through ``--store``); ``None`` stays ``None``.
    """
    import os
    if store is None or not isinstance(store, (str, bytes, os.PathLike)):
        return store
    from repro.scenarios.store import SweepStore
    return SweepStore(os.fspath(store))


@dataclass
class ExperimentResult:
    """Rows of one reproduced table/figure.

    Attributes:
        experiment: identifier (``fig5``, ``sec64``, ...).
        title: human-readable description.
        headers: column names.
        rows: one list per data point, matching ``headers``.
        notes: free-form commentary (calibration assumptions, caveats).
    """

    experiment: str
    title: str
    headers: Sequence[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *cells: object) -> None:
        """Append one data point."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"{self.experiment}: row has {len(cells)} cells, "
                f"expected {len(self.headers)}"
            )
        self.rows.append(list(cells))

    def render(self) -> str:
        """Render as a fixed-width text table."""
        body = render_table(self.headers, self.rows,
                            title=f"[{self.experiment}] {self.title}")
        if self.notes:
            body += f"\n\n{self.notes}"
        return body

    def column(self, name: str) -> List[object]:
        """All values of one column."""
        idx = list(self.headers).index(name)
        return [row[idx] for row in self.rows]
