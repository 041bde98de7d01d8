"""Lifecycle management of the persistent sweep store.

PR 3 made the store durable and trustworthy; these tests pin the layer
that keeps it *bounded*: LRU eviction to a byte budget (the ``last_served``
sidecar is the clock), wholesale pruning of rotated-out salt generations,
corrupt-entry cleanup, the self-bounding ``max_bytes`` cap, and the
``repro store`` CLI fronting all of it.  Since the lease layer landed,
the byte budget is also *exact under concurrency*: ``gc(max_bytes=)``
re-scans under the store-wide GC lease until the budget truly holds, so
a racing writer can delay a collection but never leave the pass
over-budget — stress-tested here thread-against-thread and
process-against-process — and per-key compute leases let two concurrent
sweeps dedupe identical cells instead of simulating them twice.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

from helpers import make_tiny_model
from repro.__main__ import main
from repro.common.errors import ConfigError
from repro.models.registry import register_model
from repro.optimizations import AutomaticMixedPrecision
from repro.scenarios import (
    OptimizationRegistry,
    OptimizationSpec,
    Scenario,
    ScenarioRunner,
    SweepStore,
    run_batch,
    store_salt,
)

VALUES = {"baseline_us": 100.0, "predicted_us": 90.0}


def scenario(batch_size):
    return Scenario(model="resnet50", batch_size=batch_size,
                    optimizations=["amp"])


def fill(store, n, start=1):
    """Write n entries and age their LRU clocks oldest-first."""
    keys = []
    for i in range(start, start + n):
        keys.append(store.put(scenario(i), VALUES))
    for age, key in enumerate(keys):
        stamp = 1_000_000 + age  # strictly increasing, far in the past
        os.utime(store.local.served_path_for(key), (stamp, stamp))
    return keys


def other_registry():
    registry = OptimizationRegistry()
    registry.register(OptimizationSpec(
        key="amp", factory=AutomaticMixedPrecision,
        summary="different schema, different salt"))
    return registry


# ------------------------------------------------------------------ accounting

def test_total_bytes_counts_entries_and_sidecars(tmp_path):
    store = SweepStore(str(tmp_path))
    assert store.total_bytes() == 0
    key = store.put(scenario(1), VALUES)
    expected = os.path.getsize(store.local.path_for(key)) \
        + os.path.getsize(store.local.served_path_for(key))
    assert store.total_bytes() == expected


def test_get_touches_the_last_served_sidecar(tmp_path):
    store = SweepStore(str(tmp_path))
    key = store.put(scenario(1), VALUES)
    sidecar = store.local.served_path_for(key)
    os.utime(sidecar, (1_000_000, 1_000_000))
    before = store.local.last_served(key)
    assert store.get(scenario(1)) == VALUES
    assert store.local.last_served(key) > before


# -------------------------------------------------------------------------- gc

def test_gc_evicts_least_recently_served_first(tmp_path):
    store = SweepStore(str(tmp_path))
    keys = fill(store, 4)
    # serve the oldest entry so it becomes the newest
    assert store.get(scenario(1)) == VALUES
    entry_size = store.local.entry_bytes(keys[0])
    report = store.gc(max_bytes=2 * entry_size)
    assert report.evicted == 2
    # keys[1] and keys[2] were the least recently served
    survivors = set(store.keys())
    assert keys[0] in survivors and keys[3] in survivors
    assert keys[1] not in survivors and keys[2] not in survivors
    assert report.bytes_after <= 2 * entry_size
    assert store.stats.evicted == 2


def test_gc_without_budget_only_removes_dead_entries(tmp_path):
    store = SweepStore(str(tmp_path))
    keys = fill(store, 3)
    with open(store.local.path_for(keys[0]), "w") as f:
        f.write("not json")
    report = store.gc()
    assert report.corrupt_removed == 1 and report.evicted == 0
    assert len(store) == 2


def test_gc_removes_stale_salt_generations(tmp_path):
    old = SweepStore(str(tmp_path), registry=other_registry())
    old_key = old.put(scenario(1), VALUES)
    current = SweepStore(str(tmp_path))
    current_key = current.put(scenario(1), VALUES)
    assert old_key != current_key
    report = current.gc()
    assert report.stale_removed == 1 and report.corrupt_removed == 0
    assert list(current.keys()) == [current_key]


def test_gc_bounds_an_over_cap_store(tmp_path):
    store = SweepStore(str(tmp_path))
    fill(store, 6)
    budget = store.total_bytes() // 2
    report = store.gc(max_bytes=budget)
    assert report.evicted >= 3
    assert store.total_bytes() <= budget
    # the survivors still serve
    assert store.get(scenario(6)) == VALUES


def test_gc_removes_abandoned_tmp_files_but_spares_young_ones(tmp_path):
    store = SweepStore(str(tmp_path))
    key = store.put(scenario(1), VALUES)
    shard = os.path.dirname(store.local.path_for(key))
    old_tmp = os.path.join(shard, ".deadbeef-crashed.tmp")
    young_tmp = os.path.join(shard, ".cafecafe-racing.tmp")
    for path in (old_tmp, young_tmp):
        with open(path, "w") as f:
            f.write("{")
    os.utime(old_tmp, (1_000_000, 1_000_000))
    report = store.gc()
    assert report.tmp_removed == 1
    assert not os.path.exists(old_tmp)
    assert os.path.exists(young_tmp)  # a writer may still replace it


# ----------------------------------------------------------------------- prune

def test_prune_keeps_only_the_current_generation(tmp_path):
    old = SweepStore(str(tmp_path), registry=other_registry())
    old.put(scenario(1), VALUES)
    old.put(scenario(2), VALUES)
    current = SweepStore(str(tmp_path))
    kept = current.put(scenario(1), VALUES)
    report = current.prune()
    assert report.stale_removed == 2
    assert list(current.keys()) == [kept]


def test_prune_with_explicit_salt_keeps_that_generation(tmp_path):
    old_registry = other_registry()
    old = SweepStore(str(tmp_path), registry=old_registry)
    old_key = old.put(scenario(1), VALUES)
    current = SweepStore(str(tmp_path))
    current.put(scenario(1), VALUES)
    report = current.prune(keep_salt=store_salt(old_registry))
    assert report.stale_removed == 1
    assert list(current.keys()) == [old_key]


def test_prune_drops_format_mismatched_entries(tmp_path):
    # format is outside the checksum, so a version-skewed entry can be
    # internally consistent yet unservable; prune must not keep it
    store = SweepStore(str(tmp_path))
    key = store.put(scenario(1), VALUES)
    path = store.local.path_for(key)
    with open(path) as f:
        payload = json.load(f)
    payload["format"] = 999
    with open(path, "w") as f:
        json.dump(payload, f)
    report = store.prune()
    assert report.stale_removed == 1
    assert len(store) == 0


def test_prune_drops_corrupt_entries_of_unknown_generation(tmp_path):
    store = SweepStore(str(tmp_path))
    keys = fill(store, 2)
    with open(store.local.path_for(keys[0]), "wb") as f:
        f.write(b"\x00garbage")
    report = store.prune()
    assert report.corrupt_removed == 1 and report.stale_removed == 0
    assert list(store.keys()) == [keys[1]]


# ---------------------------------------------------------------------- verify

def test_verify_classifies_live_stale_and_corrupt(tmp_path):
    old = SweepStore(str(tmp_path), registry=other_registry())
    stale_key = old.put(scenario(1), VALUES)
    store = SweepStore(str(tmp_path))
    live_key = store.put(scenario(1), VALUES)
    corrupt_key = store.put(scenario(2), VALUES)
    with open(store.local.path_for(corrupt_key), "w") as f:
        f.write("} not json {")
    report = store.verify()
    assert report.live == [live_key] or set(report.live) == {live_key}
    assert report.stale == [stale_key]
    assert report.corrupt == [corrupt_key]
    assert not report.ok
    # verify mutated nothing
    assert len(store) == 3


# --------------------------------------------------------------- max_bytes cap

def test_put_auto_gcs_past_the_cap(tmp_path):
    probe = SweepStore(str(tmp_path / "probe"))
    entry_size = probe.local.entry_bytes(probe.put(scenario(1), VALUES))

    store = SweepStore(str(tmp_path / "capped"),
                       max_bytes=3 * entry_size + entry_size // 2)
    for i in range(1, 7):
        store.put(scenario(i), VALUES)
    assert store.total_bytes() <= store.max_bytes
    assert len(store) < 6
    assert store.stats.evicted > 0
    # the newest write always survives its own cap check
    assert store.get(scenario(6)) == VALUES


def test_overwrites_do_not_inflate_the_cap_estimate(tmp_path):
    # a force-style re-sweep replaces bytes rather than adding them; the
    # running estimate must track the true on-disk total, not the write
    # count (else every put past the phantom cap pays a full gc scan)
    store = SweepStore(str(tmp_path), max_bytes=100_000)
    for _ in range(50):
        store.put(scenario(1), VALUES)
    assert len(store) == 1
    assert store.stats.evicted == 0
    assert store._approx_bytes == store.total_bytes()


def test_non_positive_cap_is_rejected(tmp_path):
    from repro.common.errors import ConfigError
    with pytest.raises(ConfigError):
        SweepStore(str(tmp_path), max_bytes=0)


# ------------------------------------------------------- leases and exactness

def test_put_releases_its_key_lease(tmp_path):
    store = SweepStore(str(tmp_path))
    key = store.put(scenario(1), VALUES)
    assert not os.path.exists(store.local.lease_path_for(key))


def test_put_under_a_held_lease_neither_waits_nor_releases(tmp_path):
    # the batch executor holds a cell's compute lease across put: the
    # write must ride it (not stall PUT_LEASE_WAIT_SECONDS on its own
    # lock) and must leave the release to the caller
    store = SweepStore(str(tmp_path))
    key = store.key(scenario(1))
    lease = store.lease(key)
    assert lease.try_acquire()
    start = time.monotonic()
    store.put(scenario(1), VALUES, lease=lease)
    elapsed = time.monotonic() - start
    assert elapsed < 0.4, f"put stalled {elapsed:.2f}s on its own lease"
    assert lease.owned  # still ours to release
    assert os.path.exists(store.local.lease_path_for(key))
    lease.release()
    assert store.get(scenario(1)) == VALUES


def test_gc_spares_entries_with_a_fresh_lease(tmp_path):
    store = SweepStore(str(tmp_path))
    keys = fill(store, 3)
    # the oldest-served entry would evict first, but a live writer owns it
    lease = store.lease(keys[0])
    assert lease.try_acquire()
    try:
        report = store.gc(max_bytes=store.local.entry_bytes(keys[1]))
        survivors = set(store.keys())
        assert keys[0] in survivors
        assert report.evicted == 2
        assert report.bytes_after <= store.local.entry_bytes(keys[0])
    finally:
        lease.release()


def test_gc_budget_holds_under_a_racing_writer_thread(tmp_path):
    """The ROADMAP advisory-cap bug, pinned: eviction interleaved with a
    racing writer used to overshoot the budget (the single scan missed
    entries landed mid-pass); the rescan loop under the GC lease must
    not."""
    store = SweepStore(str(tmp_path))
    keys = fill(store, 6)
    entry_size = store.local.entry_bytes(keys[0])
    budget = 3 * entry_size + entry_size // 2

    def write_24_entries():
        writer = SweepStore(str(tmp_path))
        for i in range(500, 524):
            writer.put(scenario(i), VALUES)
            time.sleep(0.001)

    thread = threading.Thread(target=write_24_entries)
    thread.start()
    try:
        reports = [store.gc(max_bytes=budget) for _ in range(5)]
    finally:
        thread.join()
    for report in reports:
        assert report.bytes_after <= budget
    # at quiescence one more pass leaves the store within budget for good
    assert store.gc(max_bytes=budget).bytes_after <= budget
    assert store.total_bytes() <= budget


def _stress_writer(root, start, count):
    """Subprocess body: hammer the store with fresh entries."""
    writer = SweepStore(root)
    for i in range(start, start + count):
        writer.put(scenario(i), VALUES)
        time.sleep(0.002)


def _stress_gc(root, budget, rounds, queue):
    """Subprocess body: run repeated budgeted GC passes, report totals."""
    store = SweepStore(root)
    for _ in range(rounds):
        report = store.gc(max_bytes=budget)
        queue.put(report.bytes_after)
        time.sleep(0.003)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform has no fork start method")
def test_gc_budget_is_exact_across_processes(tmp_path):
    """Two real processes — a writer and a collector — race on one store.

    Every ``gc(max_bytes=)`` return must report a within-budget total
    (measured by its own rescan under the GC lease), and once the writer
    exits, a final pass must leave the whole store within budget.
    """
    root = str(tmp_path / "store")
    store = SweepStore(root)
    keys = fill(store, 4)
    entry_size = store.local.entry_bytes(keys[0])
    budget = 3 * entry_size + entry_size // 2

    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    writer = ctx.Process(target=_stress_writer, args=(root, 100, 24))
    collector = ctx.Process(target=_stress_gc,
                            args=(root, budget, 8, queue))
    writer.start()
    collector.start()
    writer.join(timeout=60)
    collector.join(timeout=60)
    assert writer.exitcode == 0 and collector.exitcode == 0

    totals = [queue.get() for _ in range(8)]
    assert all(total <= budget for total in totals), totals
    final = SweepStore(root).gc(max_bytes=budget)
    assert final.bytes_after <= budget
    assert SweepStore(root).total_bytes() <= budget


# --------------------------------------------------------- cross-sweep dedupe

TINY = "tinylease"


def build_tinylease(batch_size=None):
    """Module-level builder so workers can re-import it by name."""
    return make_tiny_model(batch=batch_size or 4)


@pytest.fixture
def tiny_model():
    try:
        register_model(TINY, build_tinylease)
    except ConfigError:
        pass  # an earlier test in this process already registered it


def test_deferred_cell_is_served_from_the_winning_sweep(tmp_path,
                                                        tiny_model):
    """While another sweep holds a cell's compute lease, this sweep must
    wait it out and serve the winner's entry instead of simulating."""
    store = SweepStore(str(tmp_path / "store"))
    cell = Scenario(model=TINY)
    key = store.key(cell)
    winner = store.lease(key)
    assert winner.try_acquire()

    reference = ScenarioRunner().run(cell)

    def publish_and_release():
        time.sleep(0.15)
        store.put(cell, {"baseline_us": reference.baseline_us,
                         "predicted_us": reference.predicted_us})
        winner.release()

    thread = threading.Thread(target=publish_and_release)
    thread.start()
    try:
        report = run_batch([cell], store=store)
    finally:
        thread.join()
    assert report.hits == 1 and report.computed == 0
    (served,) = report.cells
    assert served.cached
    assert served.values["baseline_us"] == reference.baseline_us
    assert served.values["predicted_us"] == reference.predicted_us


def test_stale_compute_lease_is_inherited_not_waited_on(tmp_path,
                                                        tiny_model):
    """A crashed sweep's abandoned lease must not block the grid: the
    claim steals it (stale-after) and computes the cell itself."""
    store = SweepStore(str(tmp_path / "store"))
    cell = Scenario(model=TINY)
    key = store.key(cell)
    lease_path = store.local.lease_path_for(key)
    os.makedirs(os.path.dirname(lease_path), exist_ok=True)
    with open(lease_path, "w") as f:
        f.write("1:crashed-long-ago")
    os.utime(lease_path, (1_000_000, 1_000_000))

    report = run_batch([cell], store=store)
    assert report.computed == 1 and report.hits == 0
    assert store.contains(cell)
    assert not os.path.exists(lease_path)  # released after the write


def test_record_releases_the_lease_even_when_put_fails(tmp_path,
                                                       tiny_model,
                                                       monkeypatch):
    """A failing store write (disk full) must not leak the cell's
    compute lease — a leaked claim stalls the next sweep over that cell
    for the whole steal window."""
    store = SweepStore(str(tmp_path / "store"))
    cell = Scenario(model=TINY)

    def disk_full(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(store, "put", disk_full)
    with pytest.raises(OSError):
        run_batch([cell], store=store, jobs=1)
    assert not os.path.exists(store.local.lease_path_for(store.key(cell)))


SLOW = "tinyslowlease"


def build_tinyslowlease(batch_size=None):
    """Module-level builder whose profile is deliberately slow."""
    time.sleep(0.6)
    return make_tiny_model(batch=batch_size or 4)


def test_claims_stay_fresh_through_a_chunk_longer_than_the_steal_window(
        tmp_path, monkeypatch):
    """A single chunk can legitimately outlast LEASE_STEAL_SECONDS; the
    background refresher must keep the claim un-stealable the whole
    time, or a concurrent sweep duplicates the cell."""
    import repro.scenarios.backends as backends_mod
    from repro.scenarios import FileLease

    monkeypatch.setattr(backends_mod, "LEASE_STEAL_SECONDS", 0.05)
    try:
        register_model(SLOW, build_tinyslowlease)
    except ConfigError:
        pass
    store = SweepStore(str(tmp_path / "store"))
    cell = Scenario(model=SLOW)
    key = store.key(cell)

    result = {}

    def sweep():
        result["report"] = run_batch([cell], store=store, jobs=1)

    thread = threading.Thread(target=sweep)
    thread.start()
    try:
        time.sleep(0.25)  # several steal windows into the computation
        assert thread.is_alive()  # the slow chunk is still running
        thief = FileLease(store.local.lease_path_for(key),
                          steal_after=0.05)
        stolen = thief.try_acquire()
    finally:
        thread.join()
    assert not stolen, "a refreshed claim was stolen mid-chunk"
    assert result["report"].computed == 1


def test_inherited_cell_keeps_its_lease_fresh_while_computing(
        tmp_path, monkeypatch):
    """The deferred-inherit path (winner died without publishing) runs
    the computation in-process; its claim must be refreshed on a time
    cadence just like normal chunks, or a third sweep steals it."""
    import repro.scenarios.backends as backends_mod
    from repro.scenarios import FileLease

    monkeypatch.setattr(backends_mod, "LEASE_STEAL_SECONDS", 0.05)
    try:
        register_model(SLOW, build_tinyslowlease)
    except ConfigError:
        pass
    store = SweepStore(str(tmp_path / "store"))
    cell = Scenario(model=SLOW)
    key = store.key(cell)
    winner = store.lease(key)  # a sweep that will die without publishing
    assert winner.try_acquire()

    result = {}

    def sweep():
        result["report"] = run_batch([cell], store=store, jobs=1)

    thread = threading.Thread(target=sweep)
    thread.start()
    try:
        time.sleep(0.1)
        winner.release()  # the winner "crashes": no entry ever lands
        time.sleep(0.3)   # the inheritor is now mid-computation
        assert thread.is_alive()
        thief = FileLease(store.local.lease_path_for(key),
                          steal_after=0.05)
        stolen = thief.try_acquire()
    finally:
        thread.join()
    assert not stolen, "an inherited, refreshed claim was stolen"
    assert result["report"].computed == 1
    assert store.contains(cell)


def test_inherited_cells_share_one_parent_runner(tmp_path, tiny_model,
                                                 monkeypatch):
    """Two inherited cells of one workload profile it once in the parent.

    The serial, quarantine and deferred-inherit paths share one lazily
    built runner, so N inherited cells of one workload cost one
    ``WhatIfSession.from_model``, not N.
    """
    from repro.analysis.session import WhatIfSession

    store = SweepStore(str(tmp_path / "store"))
    cells = [Scenario(model=TINY, optimizations=["amp"]),
             Scenario(model=TINY, optimizations=["fused_adam"])]
    # a sweep that holds both claims and dies without publishing either
    winners = [store.lease(store.key(cell)) for cell in cells]
    for winner in winners:
        assert winner.try_acquire()

    built = []
    from_model = WhatIfSession.from_model.__func__

    def counting_from_model(cls, *args, **kwargs):
        built.append(args)
        return from_model(cls, *args, **kwargs)

    monkeypatch.setattr(WhatIfSession, "from_model",
                        classmethod(counting_from_model))
    crash = threading.Timer(0.1, lambda: [w.release() for w in winners])
    crash.start()
    try:
        report = run_batch(cells, store=store, jobs=1)
    finally:
        crash.cancel()
    assert report.computed == 2 and report.hits == 0
    assert len(built) == 1
    assert all(store.contains(cell) for cell in cells)


def test_failed_sweep_releases_its_claims(tmp_path, tiny_model):
    """Leases must not leak when a cell blows up mid-sweep.

    A failing cell no longer aborts the batch: it is reported in
    ``BatchReport.failures`` while the healthy cells keep their rows —
    and every claim, failed or not, is released by the time the report
    returns (``tests/test_crash_recovery.py`` covers the crashed-pool
    variants of this).
    """
    store = SweepStore(str(tmp_path / "store"))
    cells = [Scenario(model=TINY), Scenario(model="no-such-model")]
    report = run_batch(cells, store=store, jobs=1)
    assert report.failed == 1
    assert [c.scenario.model for c in report.cells] == [TINY]
    for cell in cells:
        lease_path = store.local.lease_path_for(store.key(cell))
        assert not os.path.exists(lease_path)


# ------------------------------------------------------------------- store CLI

def run_cli(*argv):
    return main(list(argv))


def test_cli_stats_and_verify(tmp_path, capsys):
    root = str(tmp_path / "store")
    store = SweepStore(root)
    store.put(scenario(1), VALUES)
    assert run_cli("store", "stats", root) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == 1 and payload["live"] == 1
    assert payload["salt"] == store_salt(store.registry)

    assert run_cli("store", "verify", root) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["live"] == 1 and payload["corrupt"] == 0


def test_cli_gc_max_bytes_bounds_the_store(tmp_path, capsys):
    root = str(tmp_path / "store")
    store = SweepStore(root)
    fill(store, 5)
    budget = store.total_bytes() // 2
    assert run_cli("store", "gc", root, "--max-bytes", str(budget)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["evicted"] >= 2
    assert payload["bytes_after"] <= budget
    assert SweepStore(root).total_bytes() <= budget


def test_cli_verify_exits_nonzero_on_corruption(tmp_path, capsys):
    root = str(tmp_path / "store")
    store = SweepStore(root)
    key = store.put(scenario(1), VALUES)
    with open(store.local.path_for(key), "w") as f:
        f.write("junk")
    assert run_cli("store", "verify", root) == 1
    out = capsys.readouterr()
    assert json.loads(out.out)["corrupt"] == 1

    # gc cleans it; verify is then green
    assert run_cli("store", "gc", root) == 0
    capsys.readouterr()
    assert run_cli("store", "verify", root) == 0


def test_cli_prune_drops_other_generations(tmp_path, capsys):
    root = str(tmp_path / "store")
    old = SweepStore(root, registry=other_registry())
    old.put(scenario(1), VALUES)
    SweepStore(root).put(scenario(1), VALUES)
    assert run_cli("store", "prune", root) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stale_removed"] == 1
    assert len(SweepStore(root)) == 1
