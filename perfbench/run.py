"""lvfi benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload {manifold,negatives,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; lvfi is imported from ``src/`` of that
checkout, never from an installed copy.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it is
the workload's ``detect_digest``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of BENCHMARK.json.

Timing covers only the call into lvfi for each system (closed loop, one
thread); generating the next input and checking the output are not timed.
A run measures for ``--seconds`` and at least MIN_SYSTEMS systems and ends
on a whole round of the workload's input mix, so every run weighs each input
kind alike.  Latency percentiles are the mean over blocks of at least
``block_systems`` consecutive systems (see split_blocks); every block has at
least 100 systems, so its 90th percentile has ten samples beyond it.
Each system's wall time is scaled to a nominal host speed measured by a
reference kernel timed between systems (see hostspeed.py); the unscaled
figures go to stderr.  ``setup_s`` is the median of SETUP_PROBES cold
imports in fresh interpreters, each scaled the same way.

The traced run first times the leading ``digest_systems`` systems without
wrappers, then the traced loop over the same stream; the ratio of the two is
the tracing overhead.  Spans of those leading systems are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.

Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

import hostspeed
import spans
from workloads import OUT, WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_SYSTEMS = 120
SETUP_PROBES = 7

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import lvfi, lvfi.cli\n"
    "print(time.perf_counter() - t)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout; no result is printed."""


def import_lvfi():
    if not (SRC / "lvfi" / "__init__.py").is_file():
        raise BenchError(f"no lvfi sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import lvfi

    if Path(lvfi.__file__).resolve().parent != SRC / "lvfi":
        raise BenchError(f"imported lvfi from {lvfi.__file__}, not from {SRC}")
    return lvfi


def import_seconds() -> float:
    """One cold `import lvfi, lvfi.cli` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


class RunResult:
    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.coincidental = 0
        self.reasons: list[str] = []
        self.digest = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def busy(self, first: int | None = None) -> float:
        return sum(self.latencies[:first])


def run_loop(workload, seed, seconds: float, min_systems: int, tracer=None, keep_spans: int = 0, whole_rounds: bool = False,
             between=None) -> RunResult:
    """Process the seeded stream until `seconds` of timed work and at least
    `min_systems` systems are done; with `whole_rounds`, also until the run
    ends on a whole round of the workload's input mix.  `between(busy)` runs
    untimed before each system."""
    round_size = workload.round_systems if whole_rounds else 1
    res = RunResult()
    stream = workload.stream(seed)
    busy = 0.0
    n = 0
    while busy < seconds or n < min_systems or n % round_size:
        if between is not None:
            between(busy)
        item = next(stream)
        span = contextlib.nullcontext() if tracer is None else tracer.system_span(n, n < keep_spans)
        t0 = perf_counter()
        with span:
            try:
                out = workload.process(item)
                raised = None
            except Exception as exc:  # a raising system is a failed system
                raised = exc
        dt = perf_counter() - t0
        busy += dt
        res.latencies.append(dt)
        if raised is None:
            try:
                outcome = workload.check(item, out)
            except Exception as exc:  # an output the check cannot read is wrong
                raised = exc
        if raised is not None:
            outcome = Outcome(False, ("raised", type(raised).__name__),
                              f"{type(raised).__name__}: {raised}")
        entries = outcome.entries
        res.coincidental += outcome.coincidental
        if not outcome.ok:
            res.failed += 1
            res.reasons.append(f"system {n}: {outcome.reason}")
        if n < workload.digest_systems:
            res.digest.update(repr((n, entries)).encode())
        n += 1
    stream.close()
    return res


def _warm_up(workload, seed):
    """Lazy imports and first-call set-up happen here, not in the timed loop;
    the warm-up stream has its own seed so it shares no system with the run."""
    run_loop(workload, f"warmup-{seed}", 0.0, workload.warmup_systems)


def split_blocks(latencies: list[float], block: int) -> list[list[float]]:
    """Consecutive blocks of at least `block` systems, as equal as possible.

    The host's speed for this process switches between two levels about
    1.8x apart, on a scale of seconds.  A percentile over a whole run jumps
    between the levels when one latency cluster holds it (the negatives
    median read 1.24-2.09 ms over ten runs); averaged over blocks of a few
    seconds it moves smoothly with the share of slow time, like throughput.
    """
    k = max(1, len(latencies) // block)
    n = len(latencies)
    return [latencies[i * n // k:(i + 1) * n // k] for i in range(k)]


def timing_metrics(latencies: list[float], block: int) -> dict:
    blocks = split_blocks(latencies, block)
    return {
        "systems_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.fmean(statistics.median(b) for b in blocks) * 1e3, "ms"),
        "latency_p90_ms": (statistics.fmean(statistics.quantiles(b, n=10)[8] for b in blocks)
                           * 1e3, "ms"),
    }


def end_to_end(workload, seed, seconds):
    import_seconds()  # writes the bytecode cache; not counted
    probes = []
    raw_probes = []
    host = hostspeed.HostSpeed()

    def import_probe():
        raw_probes.append(import_seconds())
        return raw_probes[-1]

    def between(busy):
        # Probes are spread over the run, so their median samples the
        # machine's speed across the run rather than at one moment.
        if len(probes) < SETUP_PROBES and busy >= len(probes) * seconds / SETUP_PROBES:
            probes.append(host.scaled(import_probe))
        host.between(busy)

    _warm_up(workload, seed)
    res = run_loop(workload, seed, seconds, max(MIN_SYSTEMS, workload.digest_systems),
                   whole_rounds=True, between=between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(probes) < SETUP_PROBES:
        probes.append(host.scaled(import_probe))
    metrics = timing_metrics(host.scale(res.latencies), workload.block_systems)
    metrics["setup_s"] = (statistics.median(probes), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    unscaled = timing_metrics(res.latencies, workload.block_systems)
    unscaled["setup_s"] = (statistics.median(raw_probes), "s")
    print("perfbench: unscaled " + " ".join(f"{k}={v:.4g}" for k, (v, _) in unscaled.items())
          + f"; kernel median {statistics.median(host.times) * 1e3:.4g} ms"
          f" over {len(host.times)} timings", file=sys.stderr)
    return res, metrics


def traced_run(workload, seed, seconds):
    expectations = json.loads((HERE / "layers.json").read_text())
    _warm_up(workload, seed)
    n = workload.digest_systems
    plain = run_loop(workload, seed, 0.0, n)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        res = run_loop(workload, seed, seconds, n, tracer, keep_spans=n, whole_rounds=True)
    if plain.digest.hexdigest() != res.digest.hexdigest():
        res.failed += 1
        res.reasons.append("traced run changed the detection digest")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (res.busy(n) / plain.busy() - 1.0, "ratio")
    silent = [l for l in expectations["expect_calls"][workload.name] if not tracer.calls.get(l)]
    if silent:
        raise BenchError(f"layers expected on {workload.name} recorded no calls: {silent}")
    for layer in expectations["expect_no_calls"][workload.name]:
        calls = tracer.calls.get(layer, 0)
        if calls:
            print(f"perfbench: {layer} made {calls} calls on {workload.name}"
                  f" ({res.coincidental} coincidental detections)", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(path)
    print(f"perfbench: {len(tracer.spans)} spans of the first {n} systems in {path}",
          file=sys.stderr)
    return res, metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # numpy overflow warnings from blow-up orbits (expr.eval_vec) are
    # expected program behaviour, not benchmark output
    warnings.simplefilter("ignore", RuntimeWarning)
    try:
        import_lvfi()

        workload = WORKLOADS[args.workload]
        measure = traced_run if args.trace else end_to_end
        res, metrics = measure(workload, args.seed, args.seconds)
    except (BenchError, spans.PatchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for reason in res.reasons[:20]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    if res.coincidental:
        print(f"perfbench: {res.coincidental} coincidental detections passed the Lie check",
              file=sys.stderr)
    print(f"detect_digest {workload.name} seed={args.seed} "
          f"systems={workload.digest_systems} {res.digest.hexdigest()}")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
