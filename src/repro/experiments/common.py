"""Shared experiment plumbing: the result container and ground truth.

Every experiment module renders its figure/table through
:class:`ExperimentResult`, and every experiment that compares against an
*engine measurement* (the paper's ground truth) gets it from
:func:`cached_measurements`: ``(scenario, kind)`` cells of the batch
executor, one ``groundtruth:*`` kind of
:data:`repro.framework.groundtruth.MEASUREMENTS` per measurement family,
cached in the shared :class:`~repro.scenarios.store.SweepStore` so re-runs
(and other experiments sharing a deployment) skip the engine entirely.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.common.texttable import render_table


def cached_measurements(cells: Sequence[Tuple[object, str]], store=None,
                        force: bool = False, jobs: Optional[int] = None,
                        runner=None) -> List[float]:
    """Engine ground truth (``iteration_us``) for ``(scenario, kind)``
    cells, in cell order.

    Each cell runs on :func:`~repro.scenarios.batch.run_batch` — store
    hits, compute claims, crash recovery and ``jobs`` workers (``None``:
    serially) included — keyed on the *stack-stripped* scenario
    (optimizations and schedule policy removed) plus ``kind``: a
    measurement depends on the workload and deployment, not on what
    Daydream predicts on top, so experiments sharing a deployment share
    one entry.  A cell that fails even after quarantine raises.  Cells
    computed here run on the experiment's ``runner`` (if given; fork
    workers inherit it), so a model or profiled session it already
    holds is not built again.
    """
    from repro.scenarios.batch import run_batch
    report = run_batch(
        [(scenario.with_(optimizations=[], schedule_policy=None), kind)
         for scenario, kind in cells],
        store=store, jobs=jobs or 1, force=force, runner=runner)
    report.raise_for_failures()
    return [cell.values["iteration_us"] for cell in report.cells]


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
