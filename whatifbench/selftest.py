"""Tests of the benchmark itself.

Run from the root of a checkout (about a minute)::

    python3 -m pytest -q whatifbench/selftest.py

They run a tiny smoke of every workload in both modes, check that every
metric ``BENCHMARK.json`` names is emitted and that no op failed, that
each traced op's layer self times plus ``op.unattributed_ms`` add up to
its latency, that the seeded streams repeat, that removing the wrappers
restores every patched object exactly, and that the host-speed probe and
the fixed-count RSS reading work as described.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import layers  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    CONTRACT = json.load(_f)

#: seconds of timed loop per smoke run
SMOKE_SECONDS = 0.4


@pytest.fixture
def workdir(tmp_path):
    os.makedirs(tmp_path / "spool")
    return str(tmp_path)


def test_contract_names_match_the_code():
    assert [w["name"] for w in CONTRACT["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == \
        layers.UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_metric_without_failures(name, trace, workdir,
                                                   monkeypatch):
    monkeypatch.setattr(run, "SETUPS", 1)
    result, detail = run.measure(workloads.WORKLOADS[name], 3, SMOKE_SECONDS,
                                 trace, workdir)
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
    if not trace:
        assert result["metrics"]["success_ratio"]["value"] == 1.0
        assert result["metrics"]["prediction_error_pct"]["value"] > 0.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_self_times_add_up_to_each_op(name, workdir):
    workload = workloads.WORKLOADS[name](3, workdir)
    workload.setup()
    tracer = spans.Tracer(os.path.join(workdir, "spool"))
    try:
        with tracer:
            segment = workload.run_segment(SMOKE_SECONDS, probes.GCProbe(),
                                           tracer)
    finally:
        workload.teardown()
    grouped = spans.by_op(tracer.spans)
    for record in segment.records:
        assert record.error is None
        op_spans = grouped[record.op]
        assert op_spans, f"op {record.op} recorded no span"
        selfs, unattributed = layers.attribution(record.latency_ns, op_spans)
        assert unattributed >= 0
        assert sum(self for self, _dur in selfs.values()) + unattributed \
            == record.latency_ns
    if name == "sweep-grid":
        chunks = [s for s in workload.worker_spans
                  if s[2] == "batch.worker_chunk"]
        assert chunks, "pool workers handed back no spans"
        assert {s[5] for s in chunks} <= {r.op for r in segment.records}


def _bindings():
    """Every attribute of every repro module and of each patched class."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro"
                                   or name.startswith("repro.")):
            snapshot[name] = dict(vars(module))
    for module_name, path, *_ in spans.TARGETS + (spans.HTTP_ENTRY,):
        if "." in path:
            owner = getattr(sys.modules[module_name], path.split(".")[0])
            snapshot[f"{module_name}:{owner.__name__}"] = dict(vars(owner))
    return snapshot


def test_uninstall_restores_every_patched_object():
    workloads.ScenarioRunner  # the targets' modules are imported
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = _bindings()
        changed = [(where, key) for where, attrs in before.items()
                   for key, value in attrs.items()
                   if patched[where].get(key) is not value]
        # every target, under every name callers look it up by
        assert len(changed) >= len(spans.TARGETS) + 2
        assert ("repro.analysis.session", "build_graph") in changed
        assert ("repro.scenarios.scenario", "build_model") in changed
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for where, attrs in before.items():
        assert after[where].keys() == attrs.keys(), where
        for key, value in attrs.items():
            assert after[where][key] is value, (where, key)


def test_streams_repeat_for_a_seed_and_keep_fixed_anchors():
    def texts(stream, n=40):
        return [s.to_json(indent=None) for s in itertools.islice(stream, n)]

    assert texts(gen.warm_stream(5)) == texts(gen.warm_stream(5))
    assert texts(gen.warm_stream(5)) != texts(gen.warm_stream(6))
    assert texts(gen.cold_stream(5)) == texts(gen.cold_stream(5))
    pool, requests = gen.service_mix(5)
    pool2, requests2 = gen.service_mix(5)
    assert texts(pool, 100) == texts(pool2, 100)
    assert texts(requests) == texts(requests2)
    first = [[s.to_json(indent=None) for s in grid]
             for grid in itertools.islice(gen.sweep_grids(5), 3)]
    assert first == [[s.to_json(indent=None) for s in grid]
                     for grid in itertools.islice(gen.sweep_grids(5), 3)]

    warm = texts(gen.warm_stream(7))
    assert len(set(warm)) == len(warm)
    assert warm[:5] == texts(gen.warm_anchors(), 5)
    cold = list(itertools.islice(gen.cold_stream(7), 100))
    workloads_seen = [(s.model, s.batch_size, s.gpu) for s in cold]
    assert len(set(workloads_seen)) == len(workloads_seen)
    anchors = texts(gen.cold_anchors())
    assert set(anchors) <= set(texts(cold, 100))


def test_host_probe_walks_one_cycle_and_reports_its_size():
    for slots in (1 << 10, probes.HostSpeed.SMALL_SLOTS):
        table = probes.HostSpeed._cycle(slots)
        at, seen = 0, set()
        for _ in range(slots):
            seen.add(at)
            at = table[at]
        assert at == 0 and len(seen) == slots
    host = probes.HostSpeed()
    host.read()
    assert len(host.walks_ms) == host.WALKS and host.scale > 0
    assert host.table_kb == 8 * (host.LARGE_SLOTS + host.SMALL_SLOTS) / 1024


def test_peak_rss_is_read_after_exactly_rss_ops(monkeypatch):
    class Counting(workloads.Workload):
        rss_ops = 7

        def next_item(self):
            return None

        def op(self, item):
            return None

    class NoHost:
        def read(self):
            pass

    progress = {"ops": 0, "rss_kb": None}
    read_at = []
    monkeypatch.setattr(probes, "peak_rss_kb",
                        lambda: read_at.append(progress["ops"]) or 1.0)
    segments = run.run_stretch(Counting(1, None), NoHost(), 0.05,
                               probes.GCProbe(), None, progress)
    assert read_at == [7] and progress["rss_kb"] == 1.0
    assert len(segments[0].records) == 7
    assert progress["ops"] == sum(len(s.records) for s in segments) > 7


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "whatifbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "whatifbench/run.py", "--workload", "whatif-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
