"""The cross-host coordination plane: server-held compute leases.

``POST /leases/<key>`` mirrors :class:`FileLease` semantics over HTTP —
claiming an unheld key is the O_EXCL-equivalent acquisition of a
server-held token, a claim left un-refreshed past the steal window may
be stolen, and refresh/release are token-checked — so N hosts sharing
one hub compute each identical cell exactly once anywhere.  The remote
layer must *fail open*: a dead, read-only or pre-lease hub degrades to
the single-host lease behaviour, never to a stuck sweep.  This file
pins the endpoint semantics, the claim races (including two separate
*processes*), the fail-open ladder, the record-time publish handshake,
and the 24-cell two-host exactly-once acceptance criterion; the CI
``cross-host`` job runs it.
"""

import json
import multiprocessing
import time

import pytest

from helpers import make_tiny_model
from repro.__main__ import main
from repro.common.errors import ConfigError
from repro.models.registry import register_model
from repro.scenarios import (
    BackendError,
    ComputeLease,
    HTTPBackend,
    LocalBackend,
    Scenario,
    ScenarioGrid,
    ScenarioRunner,
    StoreServer,
    SweepStore,
    run_batch,
)

MODEL = "tinylease"

KEY = "ab" * 16
OTHER_KEY = "cd" * 16


def build_tinylease(batch_size=None):
    """Module-level builder: worker processes re-import it by name."""
    return make_tiny_model(batch=batch_size or 4)


@pytest.fixture(scope="module", autouse=True)
def register_tiny_model():
    try:
        register_model(MODEL, build_tinylease)
    except ConfigError:
        pass  # already registered by an earlier module in this process


def entry_bytes_for(key):
    return json.dumps({"key": key}).encode()


# ------------------------------------------------------ endpoint semantics

def test_claim_grants_exactly_one_token(tmp_path):
    with StoreServer(str(tmp_path), port=0) as server:
        a = HTTPBackend(server.url).lease(KEY)
        b = HTTPBackend(server.url).lease(KEY)
        assert a.try_acquire()
        assert a.owned and not a.unavailable
        assert not b.try_acquire()
        assert not b.owned and not b.unavailable  # denied, not unreachable
        a.release()
        assert not a.owned
        assert b.try_acquire()  # released claims are immediately free


def test_release_is_token_checked(tmp_path):
    with StoreServer(str(tmp_path), port=0) as server:
        backend = HTTPBackend(server.url)
        status, token = backend.lease_request(KEY, "claim")
        assert status == "granted" and token
        # a stranger's token releases nothing
        assert backend.lease_request(KEY, "release", "not-the-token")[0] \
            == "denied"
        assert backend.lease_request(KEY, "claim")[0] == "denied"  # still held
        assert backend.lease_request(KEY, "release", token)[0] == "ok"
        assert backend.lease_request(KEY, "claim")[0] == "granted"


def test_steal_after_stale_over_http(tmp_path):
    with StoreServer(str(tmp_path), port=0) as server:
        owner = HTTPBackend(server.url).lease(KEY)
        assert owner.try_acquire()
        thief = HTTPBackend(server.url).lease(KEY)
        assert not thief.try_acquire()  # fresh: no theft
        server.leases.backdate(KEY, age_s=3600.0)  # the owner "crashed"
        assert thief.try_acquire()
        assert server.leases.steals == 1
        # the old owner's token died with the steal: refresh drops
        # ownership, release is a no-op for the thief's claim
        owner.refresh()
        assert not owner.owned
        owner.release()
        thief.refresh()
        assert thief.owned  # the thief's claim survived both attempts


def test_refresh_keeps_a_long_claim_alive_across_the_steal_window(tmp_path):
    with StoreServer(str(tmp_path), port=0,
                     lease_steal_after=0.3) as server:
        owner = HTTPBackend(server.url).lease(KEY)
        assert owner.try_acquire()
        rival = HTTPBackend(server.url).lease(KEY)
        # a chunk outliving the steal window stays claimed while refreshed
        deadline = time.monotonic() + 0.9
        while time.monotonic() < deadline:
            owner.refresh()
            assert owner.owned
            assert not rival.try_acquire()
            time.sleep(0.1)
        owner.release()
        assert rival.try_acquire()


def test_read_only_server_has_no_lease_plane(tmp_path):
    with StoreServer(str(tmp_path), port=0, read_only=True) as server:
        lease = HTTPBackend(server.url).lease(KEY)
        assert not lease.try_acquire()
        assert lease.unavailable  # 403 = no plane, callers fail open


# --------------------------------------------------------------- fail open

def test_remote_lease_fails_open_when_the_server_dies_mid_claim(tmp_path):
    server = StoreServer(str(tmp_path / "hub"), port=0).start()
    backend = HTTPBackend(server.url, timeout_s=0.5)
    held = backend.lease(KEY)
    assert held.try_acquire()
    server.shutdown()  # dies while the claim is held
    # release of the held claim must not raise
    held.release()
    assert not held.owned
    # a fresh claim reports unavailable, and the composite lease then
    # degrades to local-only coordination instead of stalling the sweep
    remote = backend.lease(OTHER_KEY)
    local = LocalBackend(str(tmp_path / "store")).lease(OTHER_KEY)
    composite = ComputeLease(local, remote)
    assert composite.try_acquire()
    assert composite.owned
    assert remote.unavailable and not composite.remote_owned
    composite.release()
    assert not local.owned


def test_compute_lease_defers_to_a_remote_denial(tmp_path):
    with StoreServer(str(tmp_path / "hub"), port=0) as server:
        winner = HTTPBackend(server.url).lease(KEY)
        assert winner.try_acquire()  # "another host" computes this cell
        local_tier = LocalBackend(str(tmp_path / "store"))
        composite = ComputeLease(local_tier.lease(KEY),
                                 HTTPBackend(server.url).lease(KEY))
        assert not composite.try_acquire()
        # the locally-won half was rolled back, not leaked: a fresh
        # local lease acquires immediately
        assert local_tier.lease(KEY).try_acquire()


# --------------------------------------------------- claim races (processes)

def _claim_from_process(url, key, start_evt, out):
    start_evt.wait(5.0)
    lease = HTTPBackend(url).lease(key)
    out.put(lease.try_acquire())


def test_two_processes_claim_one_key_exactly_once(tmp_path):
    ctx = multiprocessing.get_context("fork")
    with StoreServer(str(tmp_path), port=0) as server:
        start_evt = ctx.Event()
        out = ctx.Queue()
        procs = [ctx.Process(target=_claim_from_process,
                             args=(server.url, KEY, start_evt, out))
                 for _ in range(2)]
        for p in procs:
            p.start()
        start_evt.set()
        results = [out.get(timeout=10.0) for _ in procs]
        for p in procs:
            p.join(timeout=10.0)
    assert sorted(results) == [False, True]  # exactly one winner


def _sweep_host(root, hub_url, scenario_dicts, out):
    store = SweepStore(root, remote=hub_url)
    scenarios = [Scenario.from_dict(d) for d in scenario_dicts]
    report = run_batch(scenarios, store=store, start_method="serial")
    out.put({
        "computed": report.computed,
        "hits": report.hits,
        "failed": report.failed,
        "rows": [(c.key, c.values["baseline_us"], c.values["predicted_us"])
                 for c in report.cells],
    })


def test_two_hosts_compute_a_24_cell_grid_exactly_once_between_them(
        tmp_path):
    """The acceptance criterion: winner computes, loser defers-then-serves.

    Two concurrent sweeps on disjoint *processes* with distinct store
    roots share one hub.  Every one of the 24 cells must be computed
    exactly once across both hosts, and both hosts' rows must be
    bit-identical to a serial run.
    """
    grid = ScenarioGrid(
        base=Scenario(model=MODEL,
                      optimizations=["distributed_training"]).with_cluster(
                          2, 1, bandwidth_gbps=10.0),
        axes={
            "cluster.bandwidth_gbps": [4.0, 7.0, 10.0, 14.0, 18.0, 22.0,
                                       26.0, 30.0, 34.0, 38.0, 42.0, 46.0],
            "cluster.machines": [2, 4],
        },
    )
    scenarios = grid.expand()
    assert len(scenarios) == 24
    runner = ScenarioRunner()
    serial = [runner.run(s) for s in scenarios]
    serial_rows = [o.as_row() for o in serial]

    ctx = multiprocessing.get_context("fork")
    with StoreServer(str(tmp_path / "hub"), port=0) as server:
        out = ctx.Queue()
        dicts = [s.to_dict() for s in scenarios]
        hosts = [ctx.Process(target=_sweep_host,
                             args=(str(tmp_path / f"host-{i}"), server.url,
                                   dicts, out))
                 for i in range(2)]
        for p in hosts:
            p.start()
        reports = [out.get(timeout=180.0) for _ in hosts]
        for p in hosts:
            p.join(timeout=30.0)

    assert all(r["failed"] == 0 for r in reports)
    # exactly once anywhere: the hosts partition the grid between them
    assert sum(r["computed"] for r in reports) == len(scenarios)
    for r in reports:
        assert r["computed"] + r["hits"] == len(scenarios)
    # and both hosts' rows are bit-identical to each other and to serial
    assert reports[0]["rows"] == reports[1]["rows"]
    host_values = {key: (baseline, predicted)
                   for key, baseline, predicted in reports[0]["rows"]}
    warm = ScenarioRunner().run_grid(
        scenarios, store=SweepStore(str(tmp_path / "host-0")))
    assert [o.as_row() for o in warm] == serial_rows
    assert len(host_values) == len(scenarios)


# -------------------------------------------------- record-time publishing

def test_winner_publishes_each_cell_to_the_hub_at_record_time(tmp_path):
    scenarios = ScenarioGrid(
        base=Scenario(model=MODEL,
                      optimizations=["distributed_training"]).with_cluster(
                          2, 1, bandwidth_gbps=10.0),
        axes={"cluster.bandwidth_gbps": [10.0, 25.0]},
    ).expand()
    with StoreServer(str(tmp_path / "hub"), port=0) as server:
        host = SweepStore(str(tmp_path / "host"), remote=server.url)
        report = run_batch(scenarios, store=host, start_method="serial")
        assert report.computed == len(scenarios)
        assert host.stats.published == len(scenarios)
        assert host.stats.publish_failures == 0
        hub_keys = set(LocalBackend(str(tmp_path / "hub")).iter_keys())
    # every computed entry reached the hub without an explicit push
    assert {host.key(s) for s in scenarios} <= hub_keys
    # no claims left behind on the server either
    with StoreServer(str(tmp_path / "hub2"), port=0) as server2:
        assert len(server2.leases) == 0


# ------------------------------------------------------ operability surface

def test_stats_endpoint_reports_entries_bytes_leases_uptime(tmp_path):
    backend_dir = LocalBackend(str(tmp_path))
    backend_dir.put(KEY, entry_bytes_for(KEY))
    with StoreServer(str(tmp_path), port=0) as server:
        client = HTTPBackend(server.url)
        assert client.lease(OTHER_KEY).try_acquire()
        payload = client.stats()
    assert payload["entries"] == 1
    assert payload["bytes"] > 0
    assert payload["leases"] == 1
    assert payload["lease_claims"] == 1
    assert payload["uptime_s"] >= 0.0
    assert payload["read_only"] is False
    assert payload["auth_required"] is False


def test_cli_store_stats_probes_the_remote(tmp_path, capsys):
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    with StoreServer(str(tmp_path / "hub"), port=0) as server:
        assert main(["store", "stats", str(store_dir),
                     "--remote", server.url]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["remote"]["entries"] == 0
    assert payload["remote"]["auth_required"] is False


# ------------------------------------------------------------- admin mode

def test_auth_token_gates_put_and_delete_but_not_reads(tmp_path):
    with StoreServer(str(tmp_path), port=0, auth_token="sekrit") as server:
        anon = HTTPBackend(server.url)
        with pytest.raises(BackendError, match="401"):
            anon.put(KEY, entry_bytes_for(KEY))
        wrong = HTTPBackend(server.url, auth_token="wr0ng")
        with pytest.raises(BackendError, match="401"):
            wrong.put(KEY, entry_bytes_for(KEY))
        authed = HTTPBackend(server.url, auth_token="sekrit")
        authed.put(KEY, entry_bytes_for(KEY))
        # reads stay open: auth gates mutation, not consumption
        assert anon.get(KEY) == entry_bytes_for(KEY)
        assert anon.stat(KEY) is not None
        assert anon.stats()["auth_required"] is True
        with pytest.raises(BackendError, match="401"):
            anon.delete(KEY)
        authed.delete(KEY)
        assert anon.get(KEY) is None


def test_push_against_an_admin_hub_needs_the_token(tmp_path, capsys):
    publisher = SweepStore(str(tmp_path / "publisher"))
    publisher.put(Scenario(model=MODEL), {"baseline_us": 1.0,
                                          "predicted_us": 2.0})
    with StoreServer(str(tmp_path / "hub"), port=0,
                     auth_token="sekrit") as server:
        # 401 on push fails loudly (exit 2), transfers nothing...
        assert main(["store", "push", str(tmp_path / "publisher"),
                     "--remote", server.url, "--retries", "0"]) == 2
        err = capsys.readouterr().err
        assert "401" in err
        assert not set(LocalBackend(str(tmp_path / "hub")).iter_keys())
        # ...and the same push with the token lands
        assert main(["store", "push", str(tmp_path / "publisher"),
                     "--remote", server.url, "--retries", "0",
                     "--auth-token", "sekrit"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["transferred"] == 1
