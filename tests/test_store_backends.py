"""The storage-tier seam: backend protocol, local layout, leases.

``docs/store-backends.md`` is the written contract; these tests are its
drift check at the primitive level — the five backend operations, the
atomicity each backend must provide, and the lease lifecycle (acquire,
steal-after-stale, release) that the exact-GC and cross-sweep-dedupe
guarantees are built on.
"""

import http.client
import json
import os
import socket
import threading
import urllib.parse

import pytest

from repro.scenarios import (
    BackendError,
    EntryStat,
    FileLease,
    HTTPBackend,
    LocalBackend,
    StoreBackend,
    StoreServer,
)
from repro.scenarios.backends import MAX_BODY_BYTES

KEY_A = "aa" * 16
KEY_B = "bb" * 16


# ----------------------------------------------------------------- protocol

def test_both_shipped_backends_satisfy_the_protocol(tmp_path):
    # StoreBackend is runtime-checkable: the docs' claim that any tier
    # with these five operations can back a store is checkable in code
    assert isinstance(LocalBackend(str(tmp_path)), StoreBackend)
    assert isinstance(HTTPBackend("http://127.0.0.1:1"), StoreBackend)


# ------------------------------------------------------------ local backend

def test_local_backend_round_trip(tmp_path):
    backend = LocalBackend(str(tmp_path))
    assert backend.get(KEY_A) is None
    assert backend.stat(KEY_A) is None
    backend.put(KEY_A, b'{"key": "x"}')
    assert backend.get(KEY_A) == b'{"key": "x"}'
    stat = backend.stat(KEY_A)
    assert isinstance(stat, EntryStat) and stat.size == len(b'{"key": "x"}')
    backend.put(KEY_B, b"other")
    assert list(backend.iter_keys()) == sorted([KEY_A, KEY_B])
    backend.delete(KEY_A)
    assert backend.get(KEY_A) is None
    assert list(backend.iter_keys()) == [KEY_B]
    backend.delete(KEY_A)  # idempotent


def test_local_backend_put_leaves_no_temp_files(tmp_path):
    backend = LocalBackend(str(tmp_path))
    backend.put(KEY_A, b"data")
    leftovers = [name for _, _, names in os.walk(backend.objects_dir)
                 for name in names if name.endswith(".tmp")]
    assert leftovers == []


def test_local_backend_total_bytes_ignores_lease_files(tmp_path):
    backend = LocalBackend(str(tmp_path))
    backend.put(KEY_A, b"data")
    backend.touch_served(KEY_A)
    before = backend.total_bytes()
    lease = backend.lease(KEY_A)
    assert lease.try_acquire()
    # byte budgets are contracts about results, not coordination state
    assert backend.total_bytes() == before
    lease.release()


def test_abandoned_steal_files_are_cleaned_and_never_counted(tmp_path):
    backend = LocalBackend(str(tmp_path))
    backend.put(KEY_A, b"data")
    before = backend.total_bytes()
    shard = os.path.dirname(backend.path_for(KEY_A))
    leaked = os.path.join(shard, "leaked-crash.steal")
    with open(leaked, "w") as f:
        f.write("some dead stealer's token")
    assert backend.total_bytes() == before  # coordination debris
    os.utime(leaked, (1_000_000, 1_000_000))
    backend.remove_abandoned(grace_s=3600.0)
    assert not os.path.exists(leaked)


# ------------------------------------------------------------------- leases

def test_lease_excludes_a_second_acquirer(tmp_path):
    path = str(tmp_path / "x.lease")
    first, second = FileLease(path), FileLease(path)
    assert first.try_acquire()
    assert not second.try_acquire()
    assert second.held_by_other()
    first.release()
    assert not os.path.exists(path)
    assert second.try_acquire()
    second.release()


def test_stale_lease_is_stolen(tmp_path):
    path = str(tmp_path / "x.lease")
    dead = FileLease(path, steal_after=0.5)
    assert dead.try_acquire()
    # the holder "crashed" long ago: backdate the lease mtime
    os.utime(path, (1_000_000, 1_000_000))
    thief = FileLease(path, steal_after=0.5)
    assert thief.try_acquire()
    assert thief.owned
    # the original owner's release must not remove the thief's lease
    dead.release()
    assert os.path.exists(path)
    thief.release()
    assert not os.path.exists(path)


def test_refresh_keeps_a_lease_from_being_stolen(tmp_path):
    path = str(tmp_path / "x.lease")
    holder = FileLease(path, steal_after=3600.0)
    assert holder.try_acquire()
    os.utime(path, (1_000_000, 1_000_000))  # would be stealable...
    holder.refresh()                        # ...but the holder is alive
    thief = FileLease(path, steal_after=3600.0)
    assert not thief.try_acquire()
    holder.release()


def test_fresh_lease_is_not_stolen(tmp_path):
    path = str(tmp_path / "x.lease")
    holder = FileLease(path, steal_after=3600.0)
    assert holder.try_acquire()
    thief = FileLease(path, steal_after=3600.0)
    assert not thief.acquire(timeout=0.1)
    holder.release()


def test_blocking_acquire_waits_for_release(tmp_path):
    path = str(tmp_path / "x.lease")
    holder = FileLease(path)
    assert holder.try_acquire()
    release_soon = threading.Timer(0.15, holder.release)
    release_soon.start()
    waiter = FileLease(path)
    try:
        assert waiter.acquire(timeout=5.0)
    finally:
        release_soon.cancel()
        waiter.release()


def test_lease_context_manager_releases(tmp_path):
    path = str(tmp_path / "x.lease")
    lease = FileLease(path)
    assert lease.try_acquire()
    with lease:
        assert os.path.exists(path)
    assert not os.path.exists(path)


def test_lease_held_tracks_freshness(tmp_path):
    backend = LocalBackend(str(tmp_path))
    assert not backend.lease_held(KEY_A)
    lease = backend.lease(KEY_A)
    assert lease.try_acquire()
    assert backend.lease_held(KEY_A)
    os.utime(backend.lease_path_for(KEY_A), (1_000_000, 1_000_000))
    assert not backend.lease_held(KEY_A)  # stale = effectively unheld
    lease.release()


# -------------------------------------------------------------- HTTP backend

def test_http_backend_rejects_malformed_keys():
    backend = HTTPBackend("http://127.0.0.1:1")
    with pytest.raises(BackendError):
        backend.url_for("../../etc/passwd")
    with pytest.raises(BackendError):
        backend.url_for("AA" * 16)  # uppercase is not a content key


#: one call of every HTTPBackend verb: (method name, arguments)
VERB_CALLS = {
    "get": ("get", (KEY_A,)),
    "stat": ("stat", (KEY_A,)),
    "fetch": ("fetch", (KEY_A,)),
    "put": ("put", (KEY_A, b"{}")),
    "delete": ("delete", (KEY_A,)),
    "iter_keys": ("iter_keys", ()),
    "iter_keys_since": ("iter_keys_since", (0.0,)),
    "stats": ("stats", ()),
}


@pytest.mark.parametrize("op", list(VERB_CALLS))
def test_http_backend_backs_off_after_transport_failure(op):
    """A transport failure of *any* verb arms the down window.

    Regression: ``fetch`` raised without arming it, so a dead hub found
    by a pull kept costing ``get``/``stat`` a timeout per cell."""
    backend = HTTPBackend("http://127.0.0.1:1", timeout_s=0.2,
                          backoff_s=3600.0)
    name, args = VERB_CALLS[op]
    if op in ("get", "stat"):
        assert getattr(backend, name)(*args) is None  # refused -> miss
    else:
        with pytest.raises(BackendError):
            getattr(backend, name)(*args)  # explicit transfers are loud
    assert backend._down_until > 0
    # inside the backoff window reads do not even attempt the network
    journal = dict(backend.journal)
    assert backend.get(KEY_B) is None
    assert backend.stat(KEY_B) is None
    assert dict(backend.journal) == journal


@pytest.mark.parametrize("label", ["store server", "prediction server"],
                         ids=["store", "prediction"])
def test_server_bind_failure_names_the_server(tmp_path, label):
    from repro.scenarios import PredictServer, PredictService

    with StoreServer(str(tmp_path), port=0) as taken:
        with pytest.raises(BackendError,
                           match=f"cannot bind {label} to "
                                 f"127.0.0.1:{taken.port}"):
            if label == "store server":
                StoreServer(str(tmp_path), port=taken.port)
            else:
                PredictServer(PredictService(), port=taken.port)


def test_http_backend_404_is_a_miss_without_backoff(tmp_path):
    with StoreServer(str(tmp_path), port=0) as server:
        backend = HTTPBackend(server.url)
        assert backend.get(KEY_A) is None
        assert backend._down_until == 0.0  # reachable server, no backoff
        assert backend.stat(KEY_A) is None


def test_http_backend_round_trip_through_a_live_server(tmp_path):
    entry = json.dumps({"key": KEY_A, "values": {}}).encode()
    with StoreServer(str(tmp_path), port=0) as server:
        backend = HTTPBackend(server.url)
        backend.put(KEY_A, entry)
        assert backend.get(KEY_A) == entry
        assert backend.stat(KEY_A).size == len(entry)
        assert list(backend.iter_keys()) == [KEY_A]
        backend.delete(KEY_A)
        assert backend.get(KEY_A) is None
        backend.delete(KEY_A)  # deleting an absent entry is a no-op (404)


def test_server_rejects_entries_whose_embedded_key_mismatches(tmp_path):
    with StoreServer(str(tmp_path), port=0) as server:
        backend = HTTPBackend(server.url)
        bad = json.dumps({"key": KEY_B, "values": {}}).encode()
        with pytest.raises(BackendError):
            backend.put(KEY_A, bad)
        with pytest.raises(BackendError):
            backend.put(KEY_A, b"not json at all")
        assert list(backend.iter_keys()) == []


def test_read_only_server_refuses_writes_but_serves_reads(tmp_path):
    local = LocalBackend(str(tmp_path))
    entry = json.dumps({"key": KEY_A, "values": {}}).encode()
    local.put(KEY_A, entry)
    with StoreServer(str(tmp_path), port=0, read_only=True) as server:
        backend = HTTPBackend(server.url)
        assert backend.get(KEY_A) == entry
        with pytest.raises(BackendError):
            backend.put(KEY_B, json.dumps({"key": KEY_B}).encode())
        with pytest.raises(BackendError):
            backend.delete(KEY_A)
        assert backend.get(KEY_A) == entry


def test_push_pull_raise_loudly_when_unreachable():
    backend = HTTPBackend("http://127.0.0.1:1", timeout_s=0.2)
    with pytest.raises(BackendError):
        list(backend.iter_keys())
    with pytest.raises(BackendError):
        backend.put(KEY_A, b"{}")


# ------------------------------------------------- down-window reset (regr.)

@pytest.mark.parametrize("op", ["put", "delete", "fetch", "iter_keys"])
def test_any_successful_op_disarms_the_down_window(tmp_path, op):
    """Regression: put/delete/fetch/iter_keys never called ``_mark_up``,
    so an explicit transfer succeeding *inside* a down window left
    ``get``/``stat`` blind for the window's remainder — up to the full
    backoff — against a provably live server."""
    entry = json.dumps({"key": KEY_A}).encode()
    with StoreServer(str(tmp_path), port=0) as server:
        LocalBackend(str(tmp_path)).put(KEY_A, entry)
        backend = HTTPBackend("http://127.0.0.1:1", timeout_s=0.2,
                              backoff_s=3600.0)
        assert backend.get(KEY_B) is None  # transport failure...
        assert backend._down_until > 0    # ...arms a long down window
        backend.base_url = server.url     # the remote heals mid-window
        if op == "put":
            backend.put(KEY_B, json.dumps({"key": KEY_B}).encode())
        elif op == "delete":
            backend.delete(KEY_B)  # 404 no-op: still a live remote
        elif op == "fetch":
            assert backend.fetch(KEY_A) == entry
        else:
            assert KEY_A in list(backend.iter_keys())
        assert backend._down_until == 0.0  # window disarmed, streak reset
        assert backend.get(KEY_A) == entry  # reads recover immediately


# --------------------------------------------------- honest stat (regr.)

def _head_only_server(content_length):
    """A server whose HEAD answers carry a broken Content-Length."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class _Handler(BaseHTTPRequestHandler):
        def log_message(self, format, *args):  # noqa: A002
            """Keep the test output clean."""

        def do_HEAD(self):
            """Answer 200 with the configured (broken) length header."""
            self.send_response(200)
            if content_length is not None:
                self.send_header("Content-Length", content_length)
            self.end_headers()

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return httpd, thread, f"http://127.0.0.1:{httpd.server_address[1]}"


@pytest.mark.parametrize("content_length", [None, "not-a-number", "-5"])
def test_stat_without_a_parseable_length_is_a_miss(content_length):
    """Regression: ``int(headers.get("Content-Length") or 0)`` fabricated
    ``EntryStat(size=0, mtime=0.0)`` for any answer missing the header,
    silently corrupting remote byte accounting and LRU ordering."""
    httpd, thread, url = _head_only_server(content_length)
    try:
        backend = HTTPBackend(url)
        assert backend.stat(KEY_A) is None
        assert backend._down_until == 0.0  # reachable: a miss, no backoff
    finally:
        httpd.shutdown()
        thread.join(timeout=5.0)
        httpd.server_close()


def test_stat_never_fabricates_an_mtime(tmp_path):
    """HTTP reports size but not mtime; the old hard-coded ``mtime=0.0``
    made every remote entry look infinitely old to LRU comparisons."""
    entry = json.dumps({"key": KEY_A}).encode()
    local = LocalBackend(str(tmp_path))
    local.put(KEY_A, entry)
    assert local.stat(KEY_A).mtime > 0  # the local tier knows the truth
    with StoreServer(str(tmp_path), port=0) as server:
        stat = HTTPBackend(server.url).stat(KEY_A)
    assert stat.size == len(entry)
    assert stat.mtime is None  # absent, not zero


# ------------------------------------------- honest server writes (regr.)

def _server_address(server):
    parts = urllib.parse.urlsplit(server.url)
    return parts.hostname, parts.port


def test_put_with_a_short_body_is_rejected_not_truncated(tmp_path):
    """Regression: ``do_PUT`` accepted whatever ``rfile.read`` returned —
    a client dying mid-upload landed a truncated (corrupt) entry that
    every reader then had to reject."""
    body = json.dumps({"key": KEY_A, "values": {"x": 1.0}}).encode()
    with StoreServer(str(tmp_path), port=0) as server:
        host, port = _server_address(server)
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall((f"PUT /objects/{KEY_A}.json HTTP/1.1\r\n"
                          f"Host: {host}\r\n"
                          f"Content-Length: {len(body) + 500}\r\n"
                          f"\r\n").encode() + body)
            sock.shutdown(socket.SHUT_WR)  # the client dies mid-upload
            status = sock.recv(4096).split(b"\r\n", 1)[0]
        assert b"400" in status
        assert LocalBackend(str(tmp_path)).get(KEY_A) is None  # no entry


@pytest.mark.parametrize("length,expected", [
    ("-7", 400),                          # negative: nonsense framing
    ("banana", 400),                      # unparseable: nonsense framing
    (str(MAX_BODY_BYTES + 1), 413),       # absurd: refused before reading
])
def test_put_with_a_bogus_content_length_is_refused(tmp_path, length,
                                                    expected):
    with StoreServer(str(tmp_path), port=0) as server:
        host, port = _server_address(server)
        conn = http.client.HTTPConnection(host, port, timeout=5.0)
        try:
            conn.putrequest("PUT", f"/objects/{KEY_A}.json",
                            skip_accept_encoding=True)
            conn.putheader("Content-Length", length)
            conn.endheaders()
            assert conn.getresponse().status == expected
        finally:
            conn.close()
        assert LocalBackend(str(tmp_path)).get(KEY_A) is None


def test_concurrent_deletes_report_exactly_one_success(tmp_path):
    """Regression: ``do_DELETE`` statted then unlinked — two racing
    deletes could both see the entry and both claim a 200.  The unlink
    itself is now the existence check, so exactly one wins."""
    LocalBackend(str(tmp_path)).put(KEY_A, json.dumps({"key": KEY_A})
                                    .encode())
    with StoreServer(str(tmp_path), port=0) as server:
        host, port = _server_address(server)
        barrier = threading.Barrier(2)
        statuses = []

        def _delete():
            conn = http.client.HTTPConnection(host, port, timeout=5.0)
            try:
                barrier.wait(timeout=5.0)
                conn.request("DELETE", f"/objects/{KEY_A}.json")
                statuses.append(conn.getresponse().status)
            finally:
                conn.close()

        threads = [threading.Thread(target=_delete) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
    assert sorted(statuses) == [200, 404]
    assert LocalBackend(str(tmp_path)).get(KEY_A) is None


def test_local_delete_entry_reports_whether_it_removed(tmp_path):
    backend = LocalBackend(str(tmp_path))
    backend.put(KEY_A, b'{"key": "x"}')
    assert backend.delete_entry(KEY_A) is True
    assert backend.delete_entry(KEY_A) is False  # already gone: honest
    assert backend.get(KEY_A) is None
