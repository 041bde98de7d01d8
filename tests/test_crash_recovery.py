"""Worker crashes must cost retries, never rows and never stuck leases.

The batch executor's crash-recovery contract, pinned end to end with the
deterministic chaos harness of ``tests/faults.py``:

* a worker hard-killed mid-chunk (the OOM killer in miniature) breaks
  the pool; the parent keeps every recorded row, rebuilds, requeues the
  unfinished cells as single-cell chunks, and the sweep completes with
  rows bit-identical to serial;
* a cell that keeps killing workers exhausts its bounded retry budget
  and is quarantined — re-run serially in the parent, where the kill
  hook never fires — so even a 100%-lethal cell cannot wedge a sweep;
* a deterministically poisoned cell travels requeue → quarantine →
  ``BatchReport.failures`` with its real error, instead of aborting the
  other cells;
* every path — success, crash, failure — leaves zero ``.lease`` files
  and no claim-refresher thread behind, and a lease orphaned by a
  SIGKILLed *process* is stolen after the stale window so a second
  sweep finishes the grid.

``docs/robustness.md`` is the prose version of this contract.
"""

import glob
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from faults import KillPlan
from helpers import make_tiny_model
from repro.common.errors import ConfigError
from repro.models.registry import register_model
from repro.scenarios import (
    KILL_PLAN_ENV,
    Scenario,
    ScenarioGrid,
    ScenarioRunner,
    SweepStore,
    run_batch,
)

MODEL = "tinycrash"
POISON = "poisoncrash"


def build_tinycrash(batch_size=None):
    """Module-level builder: spawn workers re-import it by name."""
    return make_tiny_model(batch=batch_size or 4)


def build_poisoncrash(batch_size=None):
    """A deterministically failing workload (fails in workers AND parent)."""
    raise ValueError("this workload is poisoned")


@pytest.fixture(scope="module", autouse=True)
def register_models():
    # unlike the other store test modules, this one sorts *before*
    # test_models.py — unregister on teardown so its exact-zoo assertion
    # never sees these workloads
    from repro.models import registry as model_registry
    for name, builder in ((MODEL, build_tinycrash),
                          (POISON, build_poisoncrash)):
        try:
            register_model(name, builder)
        except ConfigError:
            pass
    yield
    for name in (MODEL, POISON):
        model_registry._BUILDERS.pop(name, None)
        model_registry._RUNTIME_NAMES.discard(name)


@pytest.fixture(scope="module")
def scenarios():
    grid = ScenarioGrid(
        base=Scenario(model=MODEL,
                      optimizations=["distributed_training"]).with_cluster(
                          2, 1, bandwidth_gbps=10.0),
        axes={"cluster.bandwidth_gbps": [10.0, 25.0],
              "cluster.machines": [2, 4]},
    )
    return grid.expand() + [Scenario(model=MODEL)]


@pytest.fixture(scope="module")
def serial_rows(scenarios):
    runner = ScenarioRunner()
    return [runner.run(s).as_row() for s in scenarios]


def rows_from(report):
    runner = ScenarioRunner()
    return [runner.detached_outcome(c.scenario, c.values["baseline_us"],
                                    c.values["predicted_us"],
                                    cached=c.cached).as_row()
            for c in report.cells]


def assert_no_leaked_coordination(store_root):
    """No lease file and no claim-refresher thread may outlive a sweep."""
    assert glob.glob(os.path.join(store_root, "**", "*.lease"),
                     recursive=True) == []
    assert not [t for t in threading.enumerate()
                if t.name == "repro-claim-refresher" and t.is_alive()]


# --------------------------------------------------------------- crash paths

def test_sweep_survives_a_hard_killed_worker(scenarios, serial_rows,
                                             tmp_path, monkeypatch):
    """One SIGKILLed worker costs a pool rebuild, not the sweep."""
    plan = KillPlan(cell=0, times=1, claim_dir=str(tmp_path / "claims"))
    monkeypatch.setenv(KILL_PLAN_ENV, plan.to_json())
    store = SweepStore(str(tmp_path / "store"))
    report = run_batch(scenarios, store=store, jobs=2)
    assert rows_from(report) == serial_rows
    assert report.failed == 0 and report.failures == []
    assert report.pool_rebuilds >= 1   # the kill actually landed
    assert report.retried >= 1
    assert report.computed == len(scenarios)
    assert_no_leaked_coordination(store.root)
    # the kill budget was spent exactly once
    assert len(os.listdir(plan.claim_dir)) == 1


def test_lethal_cell_is_quarantined_and_still_completes(scenarios,
                                                        serial_rows,
                                                        tmp_path,
                                                        monkeypatch):
    """A cell that kills every worker it touches finishes in the parent."""
    plan = KillPlan(cell=0, times=99, claim_dir=str(tmp_path / "claims"))
    monkeypatch.setenv(KILL_PLAN_ENV, plan.to_json())
    store = SweepStore(str(tmp_path / "store"))
    report = run_batch(scenarios, store=store, jobs=2, max_cell_retries=1)
    assert rows_from(report) == serial_rows
    assert report.failed == 0
    assert report.quarantined >= 1     # the budget ran out, the parent ran it
    assert report.pool_rebuilds >= 2
    assert_no_leaked_coordination(store.root)


def test_poisoned_cell_is_reported_not_fatal(scenarios, tmp_path):
    """A cell that raises everywhere lands in failures; the rest complete."""
    poisoned = list(scenarios) + [Scenario(model=POISON)]
    store = SweepStore(str(tmp_path / "store"))
    report = run_batch(poisoned, store=store, jobs=2, max_cell_retries=1)
    assert report.failed == 1
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.index == len(poisoned) - 1
    assert "poisoned" in failure.error
    assert len(report.cells) == len(scenarios)  # every healthy cell has a row
    assert report.quarantined >= 1  # it went through the parent re-run first
    assert_no_leaked_coordination(store.root)


def test_run_grid_raises_listing_failed_cells(scenarios, tmp_path):
    """The runner surface keeps serial semantics: failures raise, loudly."""
    poisoned = list(scenarios) + [Scenario(model=POISON)]
    with pytest.raises(ConfigError, match="poisoned"):
        ScenarioRunner().run_grid(poisoned, parallel=2,
                                  store=SweepStore(str(tmp_path / "store")),
                                  max_cell_retries=0)


def test_retry_budget_rejects_negative_values(scenarios):
    with pytest.raises(ConfigError):
        run_batch(scenarios, max_cell_retries=-1)


# ------------------------------------------------------------ orphaned leases

def test_orphaned_lease_of_a_sigkilled_process_is_stolen(scenarios,
                                                         serial_rows,
                                                         tmp_path):
    """The satellite scenario: a process dies holding a compute lease.

    A subprocess acquires the first cell's compute lease and is SIGKILLed
    mid-"computation" — no release, no cleanup.  Once the lease passes
    the stale window (backdated here instead of waiting two minutes), a
    second sweep steals it and finishes the whole grid bit-identically.
    """
    store = SweepStore(str(tmp_path / "store"))
    key = store.key(scenarios[0])
    code = (
        "import sys, time\n"
        "from repro.scenarios import SweepStore\n"
        "store = SweepStore(sys.argv[1])\n"
        "lease = store.lease(sys.argv[2])\n"
        "assert lease.try_acquire()\n"
        "print('held', flush=True)\n"
        "time.sleep(120)\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    holder = subprocess.Popen([sys.executable, "-c", code, store.root, key],
                              env=env, cwd="/root/repo",
                              stdout=subprocess.PIPE)
    try:
        assert holder.stdout.readline().strip() == b"held"
        holder.kill()  # SIGKILL: the lease file is orphaned on disk
        holder.wait(timeout=10.0)
        assert holder.returncode == -signal.SIGKILL
        lease_path = store.lease(key).path
        assert os.path.exists(lease_path)
        # age the orphan past the stale window instead of sleeping 120s
        stale = time.time() - 4000.0
        os.utime(lease_path, (stale, stale))

        report = run_batch(scenarios, store=store, jobs=2)
        assert rows_from(report) == serial_rows
        assert report.computed == len(scenarios)  # the orphan did not block
        assert_no_leaked_coordination(store.root)
    finally:
        if holder.poll() is None:
            holder.kill()
        holder.stdout.close()


def test_failed_cell_releases_its_lease_promptly(scenarios, tmp_path):
    """The crash-path lease satellite: failure frees the key immediately.

    After a poisoned cell is reported failed, its compute lease must be
    gone — a concurrent sweep can claim the key at once instead of
    waiting out the steal window.
    """
    store = SweepStore(str(tmp_path / "store"))
    poison = Scenario(model=POISON)
    report = run_batch([poison], store=store, jobs=2, max_cell_retries=0)
    assert report.failed == 1
    lease = store.lease(store.key(poison))
    assert lease.try_acquire()  # no stale-steal wait needed
    lease.release()
