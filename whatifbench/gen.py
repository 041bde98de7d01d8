"""Seeded scenario streams for the four workloads.

Every generator takes the seed as an argument and returns the same
sequence for the same seed; the program only ever sees the scenarios.
Each stream starts with a fixed set of *anchor* scenarios that do not
depend on the seed: their predictions are compared with ground truth, so
``prediction_error_pct`` is the same on every run of the same code.

The order of op kinds is fixed and only their parameters are seeded, so
the mix of cheap and expensive ops, and with it the latency
distribution, is the same for every seed.
"""

import itertools
import random

from repro.scenarios import ClusterShape, Scenario

GPU_PRESETS = ("2080ti", "p4000", "v100")

# ---------------------------------------------------------------- whatif-warm

WARM_MODEL = "bert_large"

#: one cycle of op kinds; the stream repeats it
WARM_KINDS = ("amp", "fused_adam", "distributed_training", "p3",
              "amp+distributed_training")


def _cluster(rng, p3=False):
    if p3:
        machines, gpus = rng.choice((2, 3, 4, 6, 8)), 1
    else:
        machines, gpus = rng.choice(
            [(m, g) for m in (1, 2, 4, 8) for g in (1, 2, 4, 8) if m * g > 1])
    return ClusterShape(machines=machines, gpus_per_machine=gpus,
                        bandwidth_gbps=round(rng.uniform(5.0, 100.0), 3))


def _amp(rng):
    return {"name": "amp", "params": {
        "compute_shrink": round(rng.uniform(2.0, 4.0), 4),
        "memory_shrink": round(rng.uniform(1.5, 2.5), 4)}}


def warm_anchors():
    """Fixed bert_large scenarios with a ground-truth counterpart."""
    return [
        Scenario(model=WARM_MODEL, optimizations=["amp"]),
        Scenario(model=WARM_MODEL, optimizations=["fused_adam"]),
        Scenario(model=WARM_MODEL, optimizations=["distributed_training"],
                 cluster=ClusterShape(machines=2, gpus_per_machine=4,
                                      bandwidth_gbps=10.0)),
        Scenario(model=WARM_MODEL, optimizations=["p3"],
                 cluster=ClusterShape(machines=4, bandwidth_gbps=10.0)),
        Scenario(model=WARM_MODEL,
                 optimizations=["amp", "distributed_training"],
                 cluster=ClusterShape(machines=2, gpus_per_machine=2,
                                      bandwidth_gbps=25.0)),
    ]


def warm_stream(seed):
    """Distinct bert_large scenarios cycling through WARM_KINDS, forever.

    FusedAdam has no parameters, so its seeded ops carry a seeded cluster
    (the transform ignores it) to stay distinct questions.
    """
    rng = random.Random(f"whatif-warm/{seed}")
    anchors = warm_anchors()
    yield from anchors
    seen = {s.to_json(indent=None) for s in anchors}
    index = len(anchors)
    while True:
        kind = WARM_KINDS[index % len(WARM_KINDS)]
        if kind == "amp":
            scenario = Scenario(model=WARM_MODEL, optimizations=[_amp(rng)])
        elif kind == "fused_adam":
            scenario = Scenario(model=WARM_MODEL, optimizations=["fused_adam"],
                                cluster=_cluster(rng))
        elif kind == "p3":
            scenario = Scenario(model=WARM_MODEL, optimizations=["p3"],
                                cluster=_cluster(rng, p3=True))
        elif kind == "distributed_training":
            scenario = Scenario(model=WARM_MODEL,
                                optimizations=["distributed_training"],
                                cluster=_cluster(rng))
        else:
            scenario = Scenario(model=WARM_MODEL,
                                optimizations=[_amp(rng),
                                               "distributed_training"],
                                cluster=_cluster(rng))
        text = scenario.to_json(indent=None)
        if text not in seen:
            seen.add(text)
            index += 1
            yield scenario


# ----------------------------------------------------------------- cold-start

#: one cycle of (model, optimization).  bert_large makes up 70% of it, so
#: the median and the tail both land well inside its cluster of latencies
#: instead of on the edge between two models.
COLD_CYCLE = (("bert_large", "amp"), ("bert_base", "fused_adam"),
              ("bert_large", "fused_adam"), ("resnet50", "amp"),
              ("bert_large", "amp"), ("gnmt", "fused_adam"),
              ("bert_large", "fused_adam"), ("bert_large", "amp"),
              ("bert_large", "fused_adam"), ("bert_large", "amp"))

#: batch sizes each model is drawn from
COLD_BATCH = {"resnet50": (16, 128), "gnmt": (32, 256),
              "bert_base": (2, 64), "bert_large": (1, 64)}

#: the anchors: COLD_CYCLE position -> (batch size, GPU) of the first cycle
COLD_ANCHORS = {0: (4, "2080ti"), 1: (8, "2080ti"), 3: (32, "2080ti"),
                5: (64, "2080ti")}


def cold_stream(seed):
    """Scenarios on a (model, batch size, GPU) no earlier op used, forever.

    The first cycle holds the anchors (COLD_ANCHORS), one per model.
    """
    rng = random.Random(f"cold-start/{seed}")
    used = {(COLD_CYCLE[index][0],) + anchor
            for index, anchor in COLD_ANCHORS.items()}
    for index in itertools.count():
        model, opt = COLD_CYCLE[index % len(COLD_CYCLE)]
        if index in COLD_ANCHORS:
            batch, gpu = COLD_ANCHORS[index]
        else:
            lo, hi = COLD_BATCH[model]
            fresh = [(batch, gpu) for batch in range(lo, hi + 1)
                     for gpu in GPU_PRESETS if (model, batch, gpu) not in used]
            if not fresh:
                raise RuntimeError(f"cold-start stream ran out of new "
                                   f"{model} (batch, GPU) pairs")
            batch, gpu = rng.choice(fresh)
        used.add((model, batch, gpu))
        yield Scenario(model=model, batch_size=batch, gpu=gpu,
                       optimizations=[opt])


def cold_anchors():
    """The cold-start anchors, the same in every stream."""
    first = list(itertools.islice(cold_stream(0), len(COLD_CYCLE)))
    return [first[index] for index in sorted(COLD_ANCHORS)]


# ---------------------------------------------------------------- service-mix

#: repeats pre-filled in setup, besides the anchors: per model, how many
SERVICE_REPEATS = {"resnet50": 5, "gnmt": 5, "bert_large": 2}

#: one cycle of request kinds: ``hit:<model>`` picks a pre-filled
#: scenario of that model, ``miss`` is a scenario nobody asked before
SERVICE_CYCLE = ("hit:resnet50", "hit:gnmt", "hit:bert_large",
                 "hit:resnet50", "miss", "hit:gnmt", "hit:resnet50",
                 "hit:bert_large", "hit:gnmt", "miss")

#: models a miss alternates between
SERVICE_MISS_MODELS = ("resnet50", "gnmt")


def service_anchors():
    """Fixed pre-filled scenarios with a ground-truth counterpart."""
    return [
        Scenario(model="resnet50", optimizations=["amp"]),
        Scenario(model="bert_large", optimizations=["fused_adam"]),
        Scenario(model="gnmt", optimizations=["distributed_training"],
                 cluster=ClusterShape(machines=2, gpus_per_machine=2,
                                      bandwidth_gbps=10.0)),
    ]


def _service_scenario(rng, model):
    if rng.random() < 0.5:
        return Scenario(model=model, optimizations=[_amp(rng)])
    return Scenario(model=model, optimizations=["distributed_training"],
                    cluster=_cluster(rng))


def service_mix(seed):
    """The pre-filled repeat pool and an endless request stream over it.

    Returns ``(pool, requests)``: ``pool`` is every scenario set-up
    answers once (anchors first); ``requests`` yields requests following
    SERVICE_CYCLE, about 80% repeats from the pool and 20% scenarios never
    seen before.
    """
    rng = random.Random(f"service-mix/{seed}")
    pool = service_anchors()
    seen = {s.to_json(indent=None) for s in pool}

    def fresh(model):
        while True:
            scenario = _service_scenario(rng, model)
            text = scenario.to_json(indent=None)
            if text not in seen:
                seen.add(text)
                return scenario

    for model, n in SERVICE_REPEATS.items():
        pool.extend(fresh(model) for _ in range(n))
    by_model = {}
    for scenario in pool:
        by_model.setdefault(scenario.model, []).append(scenario)

    def requests():
        misses = 0
        for index in itertools.count():
            kind = SERVICE_CYCLE[index % len(SERVICE_CYCLE)]
            if kind == "miss":
                model = SERVICE_MISS_MODELS[misses % len(SERVICE_MISS_MODELS)]
                misses += 1
                yield fresh(model)
            else:
                yield rng.choice(by_model[kind.split(":")[1]])

    return pool, requests()


# ----------------------------------------------------------------- sweep-grid

SWEEP_MODELS = ("resnet50", "gnmt")
SWEEP_MACHINES = (2, 4)
SWEEP_GPUS = 2

#: bandwidths the set-up grid pre-fills; each grid repeats three of them
SWEEP_KNOWN_BW = (5.0, 10.0, 25.0, 40.0, 60.0, 100.0)

#: new bandwidths per grid (the other half of its cells)
SWEEP_FRESH_PER_GRID = 3


def _sweep_cells(bandwidths):
    return [Scenario(model=model, optimizations=["distributed_training"],
                     cluster=ClusterShape(machines=machines,
                                          gpus_per_machine=SWEEP_GPUS,
                                          bandwidth_gbps=bandwidth))
            for model in SWEEP_MODELS
            for machines in SWEEP_MACHINES
            for bandwidth in bandwidths]


def sweep_prefill():
    """The set-up grid: every known bandwidth (24 cells)."""
    return _sweep_cells(SWEEP_KNOWN_BW)


def sweep_anchors():
    """Fixed pre-filled cells with a ground-truth counterpart."""
    return _sweep_cells((10.0,))


def sweep_grids(seed):
    """Endless 24-cell grids, half of each repeating pre-filled cells."""
    rng = random.Random(f"sweep-grid/{seed}")
    seen = set(SWEEP_KNOWN_BW)
    while True:
        bandwidths = sorted(rng.sample(SWEEP_KNOWN_BW, 3))
        while len(bandwidths) < 3 + SWEEP_FRESH_PER_GRID:
            bandwidth = round(rng.uniform(1.0, 100.0), 3)
            if bandwidth not in seen:
                seen.add(bandwidth)
                bandwidths.append(bandwidth)
        yield _sweep_cells(bandwidths)
