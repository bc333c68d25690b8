"""Tests of the benchmark's own code.  Run with

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
from pathlib import Path

import pytest

import hostspeed
import run
import spans
from workloads import OUT, WORKLOADS

run.import_lvfi()

from lvfi import detection, model  # noqa: E402
from lvfi.model import serialize_system  # noqa: E402

SMALL = 5


def _small(name):
    return dataclasses.replace(WORKLOADS[name], digest_systems=SMALL)


def _corpus(name, seed, n=SMALL):
    stream = WORKLOADS[name].stream(seed)
    items = [next(stream) for _ in range(n)]
    stream.close()
    return [serialize_system(item[1]) for item in items]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_corpus_and_digest(name):
    assert _corpus(name, 7) == _corpus(name, 7)
    w = _small(name)
    first = run.run_loop(w, 7, 0.0, SMALL)
    second = run.run_loop(w, 7, 0.0, SMALL)
    assert first.failed == second.failed == 0
    assert first.digest.hexdigest() == second.digest.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_corpus(name):
    assert _corpus(name, 7) != _corpus(name, 8)


def test_verify_corpus_is_fixed_and_seed_orders_it():
    # verify runs the same systems under every seed: the seed shuffles each
    # round and picks the CLI's Lie-sampling seed
    first, second = _corpus("verify", 7, 42), _corpus("verify", 8, 42)
    assert first != second and sorted(first) == sorted(second)
    cli_seeds = []
    for seed in (7, 8):
        stream = WORKLOADS["verify"].stream(seed)
        cli_seeds.append([next(stream)[3] for _ in range(5)])
        stream.close()
    assert cli_seeds[0] != cli_seeds[1]


def test_verify_stream_removes_its_files():
    before = set(OUT.glob("work-*"))
    _corpus("verify", 7)
    assert set(OUT.glob("work-*")) == before


def test_negatives_mix_is_one_in_three_2d():
    dims = [s.count('"dim": 2') for s in _corpus("negatives", 3, 30)]
    assert dims == [1, 0, 0] * 10


def _site_probe(name, seen):
    process = WORKLOADS[name].process

    def probe(item):
        seen.append(spans.wrapped_sites())
        return process(item)

    return dataclasses.replace(_small(name), process=probe)


def test_untraced_run_holds_no_wrapper():
    seen = []
    run.run_loop(_site_probe("manifold", seen), 7, 0.0, SMALL)
    assert len(seen) == SMALL and all(s == [] for s in seen)
    assert detection.permute_system is model.permute_system


def test_traced_run_wraps_every_site_and_restores():
    seen = []
    tracer = spans.Tracer()
    with spans.traced(tracer):
        res = run.run_loop(_site_probe("manifold", seen), 7, 0.0, SMALL, tracer)
    n_sites = len(spans.patch_table())
    assert all(len(s) == n_sites for s in seen)
    assert spans.wrapped_sites() == []
    assert res.failed == 0
    metrics = tracer.layer_metrics()
    assert metrics["model.permute_system.calls"][0] > 0
    assert metrics["verify.integrate.calls"][0] == 0


def test_host_speed_times_kernel_on_schedule_and_scales_latencies():
    host = hostspeed.HostSpeed()
    latencies = [0.01, 0.19, 0.01, 0.3]
    busy = 0.0
    for dt in latencies:
        host.between(busy)
        busy += dt
    assert len(host.times) == 5  # at busy 0, 0.05, 0.1, 0.15 and 0.2
    host.times = [2 * hostspeed.REF_NOMINAL_S] * 5
    assert host.scale(latencies) == pytest.approx([dt / 2 for dt in latencies])


def test_missing_entry_point_fails_loudly_and_restores(monkeypatch):
    monkeypatch.delattr(detection, "pattern_ok")
    with pytest.raises(spans.PatchError, match="pattern_ok"):
        with spans.traced(spans.Tracer()):
            pass
    monkeypatch.undo()
    assert spans.wrapped_sites() == []


def test_traced_digest_equals_untraced():
    w = _small("negatives")
    plain = run.run_loop(w, 9, 0.0, SMALL)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        traced = run.run_loop(w, 9, 0.0, SMALL, tracer)
    assert plain.digest.hexdigest() == traced.digest.hexdigest()


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    layer = set(spans.Tracer().layer_metrics()) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    _, e2e = run.end_to_end(_small("negatives"), 7, 0.0)
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in e2e.items())
    assert all(units[k] == u for k, (_, u) in spans.Tracer().layer_metrics().items())
    expect = json.loads((Path(run.HERE) / "layers.json").read_text())
    for lists in (expect["expect_calls"], expect["expect_no_calls"]):
        assert set(lists) == set(WORKLOADS)
        assert all(f"{l}.calls" in layer for ls in lists.values() for l in ls)
