"""The benchmark's traced-layer contract, checked in tier 1.

perfbench/spans.py wraps lvfi's layer entry points by the names their
callers look up, and perfbench/layers.json lists the layers each workload
must reach.  `perfbench/run.py --trace 1` fails when one records no call;
this test fails first, on the same files (loaded from the checkout, never
changed), when a refactor moves a wrapped name or drops a traced call.
"""

import importlib.util
import itertools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """A perfbench module loaded from its file: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_manifold_reaches_every_expected_layer():
    spans, workloads = _load("spans"), _load("workloads")
    expected = json.loads((BENCH / "layers.json").read_text())["expect_calls"]["manifold"]
    manifold = workloads.WORKLOADS["manifold"]
    items = list(itertools.islice(manifold.stream(11), 84))
    tracer = spans.Tracer()
    with spans.traced(tracer):
        for n, item in enumerate(items):
            with tracer.system_span(n, keep=False):
                manifold.process(item)
    silent = [layer for layer in expected if not tracer.calls.get(layer)]
    assert not silent, f"layers expected on manifold recorded no calls: {silent}"
    # the printed-form verdict is taken once per emitted detection
    assert tracer.calls["catalog.compare_printed"] <= tracer.calls["potential.lie_gate"]


def test_verify_reaches_every_expected_layer(tmp_path, monkeypatch):
    # `lvfi detect` in-process on the verify corpus: the cached parser and
    # the generated RK4 kernel must still run behind the traced names
    spans, workloads = _load("spans"), _load("workloads")
    expected = json.loads((BENCH / "layers.json").read_text())["expect_calls"]["verify"]
    verify = workloads.WORKLOADS["verify"]
    monkeypatch.setattr(workloads, "OUT", tmp_path)  # the system files' directory
    stream = verify.stream(11)
    tracer = spans.Tracer()
    try:
        with spans.traced(tracer):
            for n, item in enumerate(itertools.islice(stream, 8)):
                with tracer.system_span(n, keep=False):
                    result = verify.process(item)
                outcome = verify.check(item, result)
                assert outcome.ok, outcome.reason
    finally:
        stream.close()
    silent = [layer for layer in expected if not tracer.calls.get(layer)]
    assert not silent, f"layers expected on verify recorded no calls: {silent}"
    assert tracer.calls["cli.main"] == 8
