"""Cache correctness of the persistent sweep store.

The store is only worth having if every hit is trustworthy:

* any *semantic* change to a scenario must miss (different content);
* any *cosmetic* change — key order, JSON formatting, int-vs-float
  spelling, explicitly spelled defaults — must hit (same content);
* a truncated or tampered entry must be detected and treated as a miss,
  so the cell is re-simulated rather than trusted;
* a different registry (different fingerprint) or result kind must miss.
"""

import json
import os

import pytest

from helpers import make_tiny_model, plant_entry
from repro.common.errors import ConfigError
from repro.models.registry import register_model
from repro.optimizations import AutomaticMixedPrecision
from repro.scenarios import (
    OptimizationRegistry,
    OptimizationSpec,
    Scenario,
    ScenarioRunner,
    SweepStore,
    scenario_key,
)

MODEL = "tinystore"


@pytest.fixture(scope="module", autouse=True)
def register_tiny_model():
    def build(batch_size=None):
        return make_tiny_model(batch=batch_size or 4)
    try:
        register_model(MODEL, build)
    except ConfigError:
        pass


@pytest.fixture
def store(tmp_path):
    return SweepStore(str(tmp_path / "store"))


BASE = Scenario(model="resnet50", batch_size=32,
                optimizations=["amp"])
VALUES = {"baseline_us": 123.5, "predicted_us": 100.25}


# ------------------------------------------------------------ basic plumbing

def test_put_get_round_trip(store):
    key = store.put(BASE, VALUES)
    assert store.get(BASE) == VALUES
    assert key == scenario_key(BASE)
    assert BASE in store
    assert list(store.keys()) == [key]
    assert len(store) == 1
    assert store.stats.hits == 1 and store.stats.writes == 1


def test_get_on_empty_store_is_a_miss(store):
    assert store.get(BASE) is None
    assert store.stats.misses == 1 and store.stats.rejected == 0


# ------------------------------------------------------- semantic sensitivity

@pytest.mark.parametrize("change", [
    lambda s: s.with_(batch_size=33),
    lambda s: s.with_(model="vgg19"),
    lambda s: s.with_(precision="fp16"),
    lambda s: s.with_(optimizations=["fused_adam"]),
    lambda s: s.with_(optimizations=[
        {"name": "amp", "params": {"compute_shrink": 0.9}}]),
    lambda s: s.with_cluster(2, 1, bandwidth_gbps=10.0),
    lambda s: s.with_(gpu="p4000"),
])
def test_semantic_change_misses(store, change):
    store.put(BASE, VALUES)
    changed = change(BASE)
    assert scenario_key(changed) != scenario_key(BASE)
    assert store.get(changed) is None
    assert store.get(BASE) == VALUES  # the original entry is untouched


def test_cluster_bandwidth_change_misses(store):
    a = BASE.with_cluster(2, 1, bandwidth_gbps=10.0)
    b = BASE.with_cluster(2, 1, bandwidth_gbps=20.0)
    store.put(a, VALUES)
    assert store.get(b) is None
    assert store.get(a) == VALUES


# ------------------------------------------------------- cosmetic invariance

def test_key_order_and_formatting_hit(store):
    store.put(BASE, VALUES)
    data = BASE.to_dict()
    shuffled = {k: data[k] for k in reversed(list(data))}
    assert store.get(Scenario.from_json(json.dumps(shuffled, indent=7))) \
        == VALUES


def test_numeric_spelling_and_explicit_defaults_hit(store):
    a = BASE.with_cluster(2, 1, bandwidth_gbps=10)
    store.put(a, VALUES)
    b = Scenario.from_dict({
        "model": "resnet50", "batch_size": 32,
        "framework": "pytorch",      # explicit default
        "precision": "fp32",         # explicit default
        "optimizations": ["amp"],
        "cluster": {"machines": 2, "gpus_per_machine": 1,
                    "bandwidth_gbps": 10.0},
    })
    assert store.get(b) == VALUES


# --------------------------------------------------------- corruption safety

def _entry_path(store, scenario):
    return store.local.path_for(store.key(scenario))


def test_truncated_entry_is_rejected_and_deleted(store):
    store.put(BASE, VALUES)
    path = _entry_path(store, BASE)
    raw = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(raw[:len(raw) // 2])
    # membership is validated existence, and it never skews the counters
    # (nor deletes anything: contains() is a pure probe)
    assert BASE not in store
    assert store.stats.rejected == 0
    assert os.path.exists(path)
    assert store.get(BASE) is None
    assert store.stats.rejected == 1
    # the failed read removed the dead bytes on the spot
    assert not os.path.exists(path)
    # a fresh put writes a clean entry
    store.put(BASE, VALUES)
    assert store.get(BASE) == VALUES


def test_tampered_values_fail_the_checksum_and_are_deleted(store):
    store.put(BASE, VALUES)
    path = _entry_path(store, BASE)
    with open(path) as f:
        payload = json.load(f)
    payload["values"]["predicted_us"] = 1.0  # parses fine, lies loudly
    with open(path, "w") as f:
        json.dump(payload, f)
    assert store.get(BASE) is None
    assert store.stats.rejected == 1
    assert not os.path.exists(path)


def test_empty_and_garbage_files_are_rejected(store):
    store.put(BASE, VALUES)
    path = _entry_path(store, BASE)
    for garbage in (b"", b"\x00\xff\x00garbage", b"[1, 2, 3]"):
        with open(path, "wb") as f:
            f.write(garbage)
        assert store.get(BASE) is None
        assert not os.path.exists(path)  # each bad file is deleted
    assert store.stats.rejected == 3


def test_wrong_kind_misses(store):
    store.put(BASE, {"iteration_us": 5.0}, kind="groundtruth:ddp-sync")
    assert store.get(BASE) is None  # kind "predict"
    assert BASE not in store        # membership is per-kind too
    assert store.contains(BASE, kind="groundtruth:ddp-sync")
    assert store.get(BASE, kind="groundtruth:ddp-sync") \
        == {"iteration_us": 5.0}


def test_registry_fingerprint_salts_the_key(store, tmp_path):
    store.put(BASE, VALUES)
    other = OptimizationRegistry()
    other.register(OptimizationSpec(key="amp",
                                    factory=AutomaticMixedPrecision,
                                    summary="same key, different schema"))
    rebased = SweepStore(store.root, registry=other)
    assert rebased.get(BASE) is None
    assert scenario_key(BASE, other) != scenario_key(BASE)


# ----------------------------------------------------- end-to-end with runner

def test_corrupted_cell_is_resimulated_not_trusted(tmp_path):
    scenarios = [
        Scenario(model=MODEL,
                 optimizations=["distributed_training"]).with_cluster(
                     2, 1, bandwidth_gbps=bw)
        for bw in (10.0, 25.0)
    ]
    store = SweepStore(str(tmp_path / "store"))
    first = ScenarioRunner().run_grid(scenarios, parallel=1, store=store)

    # corrupt exactly one of the two entries
    victim = store.local.path_for(store.key(scenarios[0]))
    with open(victim, "w") as f:
        f.write('{"format": 1, "values": {"baseline_us": 1.0, '
                '"predicted_us": 1.0}')  # truncated: no closing brace

    second = ScenarioRunner().run_grid(scenarios, parallel=1, store=store)
    assert [o.cached for o in second] == [False, True]
    assert [o.as_row() for o in second] == [o.as_row() for o in first]
    # the re-simulated entry is rewritten and trustworthy again
    third = ScenarioRunner().run_grid(scenarios, store=store)
    assert all(o.cached for o in third)
    assert [o.as_row() for o in third] == [o.as_row() for o in first]


def test_missing_values_keys_are_not_trusted(store):
    # a "predict" entry must carry both timings; a hand-written entry
    # with the wrong shape is recomputed, not served
    plant_entry(store, BASE, {"baseline_us": 10.0})  # predicted_us missing
    from repro.scenarios.store import timings_ok
    assert timings_ok(store.get(BASE)) is False
