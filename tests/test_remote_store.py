"""The shared remote tier must never cost correctness — only misses.

A remote sweep-store entry is verified exactly like a local one (embedded
key, current salt, payload checksum), so the failure modes a shared
server introduces — unreachable host, mid-body truncation, salt
generation skew between client and server, plain tampering — must each
degrade to a local miss and a re-simulation, never to an exception and
never to a wrong row.  And when the server is warm and honest, a grid
run against it must be bit-identical to the serial path with zero engine
re-simulations.  This file pins both halves; the CI ``remote-store`` job
runs it against the in-process HTTP backend.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from helpers import make_tiny_model
from repro.__main__ import main
from repro.common.errors import ConfigError
from repro.models.registry import register_model
from repro.scenarios import (
    LocalBackend,
    Scenario,
    ScenarioGrid,
    ScenarioRunner,
    StoreServer,
    SweepStore,
)
from repro.scenarios.store import RESULT_SCHEMA_VERSION, _entry_checksum

MODEL = "tinyremote"
VALUES = {"baseline_us": 1.0, "predicted_us": 1.0}


def build_tinyremote(batch_size=None):
    """Module-level builder: spawn workers re-import it by name."""
    return make_tiny_model(batch=batch_size or 4)


@pytest.fixture(scope="module", autouse=True)
def register_tiny_model():
    try:
        register_model(MODEL, build_tinyremote)
    except ConfigError:
        pass


@pytest.fixture(scope="module")
def scenarios():
    grid = ScenarioGrid(
        base=Scenario(model=MODEL,
                      optimizations=["distributed_training"]).with_cluster(
                          2, 1, bandwidth_gbps=10.0),
        axes={"cluster.bandwidth_gbps": [10.0, 25.0]},
    )
    return grid.expand() + [Scenario(model=MODEL)]


@pytest.fixture(scope="module")
def serial_rows(scenarios):
    runner = ScenarioRunner()
    return [runner.run(s).as_row() for s in scenarios]


def rows_of(outcomes):
    return [o.as_row() for o in outcomes]


# ------------------------------------------------- warm server: bit identity

def test_cold_push_then_warm_remote_rows_are_bit_identical(
        scenarios, serial_rows, tmp_path):
    """The acceptance criterion: warm --remote == serial, zero re-sims."""
    publisher = SweepStore(str(tmp_path / "publisher"))
    ScenarioRunner().run_grid(scenarios, parallel=2, store=publisher)

    with StoreServer(str(tmp_path / "hub"), port=0) as server:
        report = publisher.push(server.url)
        assert report.transferred == len(scenarios)
        # a second push is a no-op: the hub already lists every key
        assert publisher.push(server.url).skipped == len(scenarios)

        consumer = SweepStore(str(tmp_path / "consumer"), remote=server.url)
        warm = ScenarioRunner().run_grid(scenarios, store=consumer)
        assert rows_of(warm) == serial_rows
        # zero engine re-simulations: every cell was served, read-through
        assert all(o.cached for o in warm)
        assert consumer.stats.remote_hits == len(scenarios)
        assert consumer.stats.remote_rejected == 0

        # the read-through wrote back: a later offline run stays warm
        offline = SweepStore(str(tmp_path / "consumer"))
        again = ScenarioRunner().run_grid(scenarios, store=offline)
        assert rows_of(again) == serial_rows
        assert all(o.cached for o in again)
        assert offline.stats.remote_hits == 0  # never even asked


def test_pull_replicates_a_whole_generation(scenarios, serial_rows,
                                            tmp_path):
    publisher = SweepStore(str(tmp_path / "publisher"))
    ScenarioRunner().run_grid(scenarios, parallel=2, store=publisher)
    with StoreServer(publisher.root, port=0) as server:
        mirror = SweepStore(str(tmp_path / "mirror"))
        report = mirror.pull(server.url)
        assert report.transferred == len(scenarios)
        assert report.rejected == 0
        # pulling again is a no-op: the sync journal's delta listing
        # re-examines at most the clock-boundary ties, moves nothing,
        # and everything it does list is already trustworthy locally
        again = mirror.pull(server.url)
        assert again.transferred == 0 and again.rejected == 0
        assert again.examined <= len(scenarios)
        assert again.skipped == again.examined
    # the mirror serves offline, bit-identically
    warm = ScenarioRunner().run_grid(scenarios, store=mirror)
    assert rows_of(warm) == serial_rows
    assert all(o.cached for o in warm)


# ------------------------------------------------------------- failure modes

def test_unreachable_server_degrades_to_local_misses(scenarios,
                                                     serial_rows, tmp_path):
    store = SweepStore(str(tmp_path / "store"),
                       remote="http://127.0.0.1:1")
    store.remote.timeout_s = 0.2
    outcomes = ScenarioRunner().run_grid(scenarios, store=store)
    assert rows_of(outcomes) == serial_rows
    assert all(not o.cached for o in outcomes)  # computed, never crashed
    assert store.stats.remote_hits == 0


def test_salt_skew_between_client_and_server_is_a_miss(scenarios,
                                                       serial_rows,
                                                       tmp_path):
    """A hand-copied entry from another salt generation must not serve.

    Normally skew shows up as a 404 (the key itself folds in the salt);
    the nastier case is an entry *at the client's key path* whose body
    carries another generation's salt — internally consistent, checksum
    and all.  The client's verification must still refuse it.
    """
    scenario = scenarios[0]
    client = SweepStore(str(tmp_path / "client"))
    key = client.key(scenario)
    payload = {
        "format": RESULT_SCHEMA_VERSION,
        "key": key,
        "kind": "predict",
        "salt": "v1:another-generation-entirely",
        "scenario": scenario.to_dict(),
        "values": {"baseline_us": 1.0, "predicted_us": 1.0},
    }
    payload["checksum"] = _entry_checksum(payload)  # internally consistent
    server_dir = tmp_path / "server"
    LocalBackend(str(server_dir)).put(key, json.dumps(payload).encode())

    with StoreServer(str(server_dir), port=0) as server:
        store = SweepStore(str(tmp_path / "client"), remote=server.url)
        assert store.get(scenario) is None  # rejected, not served
        assert store.stats.remote_rejected == 1
        outcomes = ScenarioRunner().run_grid([scenario], store=store)
        assert rows_of(outcomes) == [serial_rows[0]]  # re-simulated


def test_tampered_remote_values_fail_the_checksum(scenarios, tmp_path):
    publisher = SweepStore(str(tmp_path / "server"))
    scenario = scenarios[0]
    key = publisher.put(scenario, {"baseline_us": 1.0, "predicted_us": 1.0})
    # flip a value after the checksum was computed
    path = publisher.local.path_for(key)
    with open(path) as f:
        payload = json.load(f)
    payload["values"]["predicted_us"] = 0.5
    LocalBackend(publisher.root).put(key, json.dumps(payload).encode())

    with StoreServer(publisher.root, port=0) as server:
        store = SweepStore(str(tmp_path / "client"), remote=server.url)
        assert store.get(scenario) is None
        assert store.stats.remote_rejected == 1
        assert store.stats.remote_hits == 0


class _TruncatingHandler(BaseHTTPRequestHandler):
    """Claims a full Content-Length, sends half the body, hangs up."""

    payload = b""

    def log_message(self, format, *args):  # noqa: A002
        """Keep the test output clean."""

    def do_GET(self):
        """Send a deliberately truncated entry body."""
        self.send_response(200)
        self.send_header("Content-Length", str(len(self.payload)))
        self.end_headers()
        self.wfile.write(self.payload[: len(self.payload) // 2])
        self.wfile.flush()
        self.connection.close()


def test_mid_body_truncation_is_a_miss_not_a_crash(scenarios, serial_rows,
                                                   tmp_path):
    scenario = scenarios[0]
    probe = SweepStore(str(tmp_path / "probe"))
    key = probe.put(scenario, {"baseline_us": 1.0, "predicted_us": 1.0})
    with open(probe.local.path_for(key), "rb") as f:
        _TruncatingHandler.payload = f.read()

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _TruncatingHandler)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        store = SweepStore(str(tmp_path / "client"), remote=url)
        assert store.get(scenario) is None  # IncompleteRead -> miss
        outcomes = ScenarioRunner().run_grid([scenario], store=store)
        assert rows_of(outcomes) == [serial_rows[0]]
    finally:
        httpd.shutdown()
        thread.join(timeout=5.0)
        httpd.server_close()


def test_read_through_write_back_rides_a_held_lease(scenarios, tmp_path):
    """The deferred-inherit path calls get() while holding the cell's
    lease: the remote write-back must ride that lease instead of
    spinning the full put-lease timeout against its own lock."""
    import time as time_mod

    publisher = SweepStore(str(tmp_path / "publisher"))
    scenario = scenarios[0]
    publisher.put(scenario, {"baseline_us": 1.0, "predicted_us": 2.0})
    with StoreServer(publisher.root, port=0) as server:
        client = SweepStore(str(tmp_path / "client"), remote=server.url)
        key = client.key(scenario)
        lease = client.lease(key)
        assert lease.try_acquire()
        start = time_mod.monotonic()
        values = client.get(scenario, lease=lease)
        elapsed = time_mod.monotonic() - start
        assert values == {"baseline_us": 1.0, "predicted_us": 2.0}
        assert elapsed < 0.4, f"write-back stalled {elapsed:.2f}s"
        assert lease.owned  # still the caller's to release
        lease.release()


def test_push_force_repairs_a_corrupt_remote_copy(scenarios, tmp_path):
    publisher = SweepStore(str(tmp_path / "publisher"))
    scenario = scenarios[0]
    key = publisher.put(scenario, {"baseline_us": 1.0, "predicted_us": 2.0})
    hub = tmp_path / "hub"
    LocalBackend(str(hub)).put(key, b'{"key": "' + key.encode() + b'", tru')
    with StoreServer(str(hub), port=0) as server:
        # a plain push skips the key: the hub already lists it
        assert publisher.push(server.url).skipped == 1
        consumer = SweepStore(str(tmp_path / "c1"), remote=server.url)
        assert consumer.get(scenario) is None  # corrupt copy: rejected
        # --force re-uploads and repairs it
        assert publisher.push(server.url, force=True).transferred == 1
        repaired = SweepStore(str(tmp_path / "c2"), remote=server.url)
        assert repaired.get(scenario) == {"baseline_us": 1.0,
                                          "predicted_us": 2.0}


class _DyingHandler(BaseHTTPRequestHandler):
    """Lists one key, then fails every entry fetch with a 500."""

    key = ""

    def log_message(self, format, *args):  # noqa: A002
        """Keep the test output clean."""

    def do_GET(self):
        """Answer /keys; refuse everything else server-side."""
        if self.path == "/keys":
            body = json.dumps([self.key]).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(500, "the server died mid-pull")


def test_pull_raises_when_the_server_dies_mid_transfer(tmp_path):
    """A dead server must error out of pull, not masquerade its entries
    as 'rejected' while exiting successfully."""
    from repro.scenarios import BackendError

    _DyingHandler.key = "ab" * 16
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _DyingHandler)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        store = SweepStore(str(tmp_path / "store"))
        with pytest.raises(BackendError):
            store.pull(url)
    finally:
        httpd.shutdown()
        thread.join(timeout=5.0)
        httpd.server_close()


def test_pull_retries_transient_faults_then_succeeds(scenarios, tmp_path):
    """Two injected transient errors on one fetch are absorbed by the
    retry policy; the pull completes with every entry landed."""
    from faults import FaultInjectingBackend, FaultPlan, FaultRule
    from repro.scenarios import LocalBackend, RetryPolicy

    publisher = SweepStore(str(tmp_path / "publisher"))
    ScenarioRunner().run_grid(scenarios, parallel=2, store=publisher)
    flaky = FaultInjectingBackend(
        LocalBackend(publisher.root),
        FaultPlan(rules=(FaultRule(op="fetch", nth=2, action="error",
                                   count=2),)))
    mirror = SweepStore(str(tmp_path / "mirror"))
    report = mirror.pull(flaky, retry=RetryPolicy(max_attempts=3,
                                                  base_delay_s=0.0,
                                                  jitter=0.0))
    assert report.transferred == len(scenarios)
    assert flaky.injected == ["fetch#2:error", "fetch#3:error"]
    assert len(mirror) == len(scenarios)


def test_pull_mid_transfer_death_reports_partial_progress(scenarios,
                                                          tmp_path):
    """The satellite scenario: the server dies partway through a pull.

    Retries are exhausted, the failure is loud, and the error's partial
    report counts exactly the entries that actually landed — never the
    ones in flight when the server died.
    """
    from faults import FaultInjectingBackend, FaultPlan, FaultRule
    from repro.scenarios import BackendError, LocalBackend, RetryPolicy

    publisher = SweepStore(str(tmp_path / "publisher"))
    ScenarioRunner().run_grid(scenarios, parallel=2, store=publisher)
    # the third fetch fails and the server stays dead (count=0 = forever)
    dying = FaultInjectingBackend(
        LocalBackend(publisher.root),
        FaultPlan(rules=(FaultRule(op="fetch", nth=3, action="error",
                                   count=0),)))
    mirror = SweepStore(str(tmp_path / "mirror"))
    retry = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
    with pytest.raises(BackendError) as err:
        mirror.pull(dying, retry=retry)
    # loud, with the partial progress in the message and on the error
    assert "Partial progress" in str(err.value)
    assert err.value.partial is not None
    assert err.value.partial.transferred == 2
    # the dead fetch was actually retried before giving up
    assert dying.counts["fetch"] == 4  # 2 clean + 2 attempts at the third
    # the mirror holds exactly the entries that landed — no phantoms
    assert len(mirror) == err.value.partial.transferred


def test_push_mid_transfer_death_reports_partial_progress(scenarios,
                                                          tmp_path):
    """Push travels the same loud-partial path as pull."""
    from faults import FaultInjectingBackend, FaultPlan, FaultRule
    from repro.scenarios import BackendError, LocalBackend, RetryPolicy

    publisher = SweepStore(str(tmp_path / "publisher"))
    ScenarioRunner().run_grid(scenarios, parallel=2, store=publisher)
    hub = FaultInjectingBackend(
        LocalBackend(str(tmp_path / "hub")),
        FaultPlan(rules=(FaultRule(op="put", nth=2, action="error",
                                   count=0),)))
    retry = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
    with pytest.raises(BackendError) as err:
        publisher.push(hub, retry=retry)
    assert err.value.partial is not None
    assert err.value.partial.transferred == 1
    assert len(list(LocalBackend(str(tmp_path / "hub")).iter_keys())) == 1


# --------------------------------------------------------------------- CLI

def run_cli(*argv):
    return main(list(argv))


def test_cli_serve_with_duration_exits_cleanly(tmp_path, capsys):
    root = str(tmp_path / "store")
    SweepStore(root).put(Scenario(model="resnet50"), VALUES)
    assert run_cli("store", "serve", root, "--port", "0",
                   "--duration", "0.05") == 0
    assert "serving" in capsys.readouterr().err


def test_cli_push_pull_round_trip(tmp_path, capsys):
    src = SweepStore(str(tmp_path / "src"))
    src.put(Scenario(model="resnet50"), VALUES)
    with StoreServer(str(tmp_path / "hub"), port=0) as server:
        assert run_cli("store", "push", src.root,
                       "--remote", server.url) == 0
        assert json.loads(capsys.readouterr().out)["transferred"] == 1
        assert run_cli("store", "pull", str(tmp_path / "dst"),
                       "--remote", server.url) == 0
        assert json.loads(capsys.readouterr().out)["transferred"] == 1
    assert len(SweepStore(str(tmp_path / "dst"))) == 1


def test_cli_push_to_unreachable_server_fails_loudly(tmp_path, capsys):
    root = str(tmp_path / "store")
    SweepStore(root).put(Scenario(model="resnet50"), VALUES)
    assert run_cli("store", "push", root,
                   "--remote", "http://127.0.0.1:1", "--retries", "0") == 2
    assert "error" in capsys.readouterr().err


def test_cli_pull_mid_transfer_death_is_loud_and_accurate(tmp_path,
                                                          capsys):
    """--retries rides the CLI into the pull path; the failure names the
    partial progress instead of exiting clean with missing entries."""
    _DyingHandler.key = "cd" * 16
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _DyingHandler)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        assert run_cli("store", "pull", str(tmp_path / "dst"),
                       "--remote", url, "--retries", "0") == 2
        err = capsys.readouterr().err
        assert "Partial progress" in err
        assert len(SweepStore(str(tmp_path / "dst"))) == 0
    finally:
        httpd.shutdown()
        thread.join(timeout=5.0)
        httpd.server_close()


def test_cli_sweep_remote_requires_a_local_store(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"model": "resnet50"}))
    assert run_cli("sweep", str(grid),
                   "--remote", "http://127.0.0.1:1") == 2
    assert "--store" in capsys.readouterr().err


def test_cli_experiment_remote_requires_a_local_store(capsys):
    assert run_cli("experiment", "fig5",
                   "--remote", "http://127.0.0.1:1") == 2
    assert "--store" in capsys.readouterr().err
