"""The benchmark's workloads: seeded input streams, the call into lvfi that is
timed, and the known answer each output is checked against.

Every workload is a closed loop from one process and one thread: the next
system is generated (untimed) only after the previous one was processed.
Streams are infinite and depend only on the seed, so the first
``digest_systems`` systems of a run are the same on every machine and their
detection output hashes to a fixed digest.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

LIE_TOL = 1e-10  # the CLI's default --tol-lie
OUT = Path(__file__).resolve().parent.parent / ".perfbench"  # scratch space in the checkout


@dataclass
class Outcome:
    ok: bool
    entries: tuple  # sorted (rule id, 1-based sigma, integral_pretty)
    reason: str = ""
    coincidental: int = 0  # detections on a generic (negatives) system


@dataclass
class Workload:
    name: str
    stream: Callable[[object], Iterator]  # seed -> items
    process: Callable  # item -> raw result; this call is timed
    check: Callable  # (item, raw result) -> Outcome
    digest_systems: int
    warmup_systems: int
    round_systems: int  # a run ends on a whole round, so every run has the same mix
    block_systems: int  # percentiles are averaged over blocks of at least this many


def _family(rule_id: str) -> str:
    return rule_id.split("/")[0]


def _samplers():
    from lvfi.catalog2d import SAMPLERS_2D
    from lvfi.catalog3d import SAMPLERS_3D

    return list(SAMPLERS_2D.items()) + list(SAMPLERS_3D.items())


def _on_manifold(seed) -> Iterator[tuple[str, object]]:
    """Round-robin over every sampler entry, one shared seeded RNG."""
    rng = random.Random(seed)
    samplers = _samplers()
    for k in itertools.count():
        key, sampler = samplers[k % len(samplers)]
        yield key, sampler(rng)


def _rand_fraction(rng: random.Random) -> Fraction:
    # acceptance criterion 4's entry distribution: p/q, |p| <= 6, 1 <= q <= 3
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def _generic(seed) -> Iterator[tuple[None, object]]:
    """Generic random systems, one in three 2D.

    Criterion 4 alternates 2D and 3D strictly, which puts the median between
    the fast 2D and the slow 3D latency modes and makes it jump between runs;
    with one in three 2D the median lies inside the 3D mode.
    """
    from lvfi.model import make_system

    rng = random.Random(seed)
    for k in itertools.count():
        dim = 2 if k % 3 == 0 else 3
        yield None, make_system(
            b=tuple(_rand_fraction(rng) for _ in range(dim)),
            A=tuple(tuple(_rand_fraction(rng) for _ in range(dim)) for _ in range(dim)),
            e=tuple(_rand_fraction(rng) for _ in range(dim)),
        )


def _detect(item):
    from lvfi.catalog2d import detect2d_full
    from lvfi.catalog3d import detect3d_full

    s = item[1]
    dets, _ = detect2d_full(s) if s.dim == 2 else detect3d_full(s)
    return dets


def _entries(dets) -> tuple:
    from lvfi import expr as ex

    return tuple(sorted(
        (d.rule_id, tuple(i + 1 for i in d.sigma), ex.pretty(d.integral)) for d in dets
    ))


def _check_manifold(item, dets) -> Outcome:
    key = item[0]
    entries = _entries(dets)
    if any(_family(d.rule_id) == _family(key) for d in dets):
        return Outcome(True, entries)
    return Outcome(False, entries, f"{key}: own rule family not detected")


def _check_negatives(item, dets) -> Outcome:
    """Known answer: nothing detected.  A generic draw can land on a rule's
    manifold by coincidence (about 1 in 6000 systems); such a detection is
    correct only if its integral also passes the float Lie check."""
    from lvfi.verify import lie_check

    entries = _entries(dets)
    for d in dets:
        lie = lie_check(d.integral, item[1])
        if not lie <= LIE_TOL:
            return Outcome(False, entries, f"false detection {d.rule_id}: lie_max {lie}")
    return Outcome(True, entries, coincidental=len(dets))


VERIFY_CORPUS_SEED = 0


def _verify_corpus(seed) -> Iterator[tuple[str, object, int]]:
    """The verify corpus: the on-manifold stream of one fixed seed, so every
    run verifies the same systems; `seed` shuffles each round and picks the
    CLI's `--seed` (its Lie sample points) per system.

    A drawn system's verification cost is set by whether its trajectory
    blows up early or runs to t_end, about 20x apart; with seeded systems
    the share of long trajectories among the ~300 systems of a run moved
    systems_per_s by up to a third between seeds.  Warm-up streams (string
    seeds) draw systems of their own, so they share none with a run.
    """
    rng = random.Random(seed)
    corpus = _on_manifold(seed if isinstance(seed, str) else VERIFY_CORPUS_SEED)
    n = len(_samplers())
    while True:
        batch = list(itertools.islice(corpus, n))
        rng.shuffle(batch)
        for key, s in batch:
            yield key, s, rng.randrange(2**31)


def _manifold_files(seed):
    """Verify-corpus systems written to files, the input of `lvfi detect`.
    The files live in a private directory that closing the stream removes."""
    from lvfi.model import serialize_system

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        for k, (key, s, cli_seed) in enumerate(_verify_corpus(seed)):
            path = workdir / f"system-{k}.json"
            path.write_text(serialize_system(s))
            yield key, s, path, cli_seed
            path.unlink()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _cli_detect(item):
    """`lvfi detect --format json` with default verification, in-process.
    The program's stdout and stderr are captured, never mixed into the
    benchmark's own output."""
    from lvfi import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["detect", "--input", str(item[2]), "--format", "json",
                         "--seed", str(item[3])])
    return code, out.getvalue(), err.getvalue()


def _check_verify(item, result) -> Outcome:
    key = item[0]
    code, out, err = result
    if code != 0:
        return Outcome(False, (), f"{key}: exit {code}: {err.strip()[:200]}")
    dets = json.loads(out)["detections"]
    entries = tuple(sorted(
        (d["rule"], tuple(d["sigma"]), d["integral_pretty"]) for d in dets
    ))
    if not any(_family(d["rule"]) == _family(key) for d in dets):
        return Outcome(False, entries, f"{key}: own rule family not detected")
    for d in dets:
        lie = d["verification"]["lie_max"]
        if lie is None or not lie <= LIE_TOL:
            return Outcome(False, entries, f"{key}: {d['rule']} lie_max {lie}")
    return Outcome(True, entries)


WORKLOADS = {
    "manifold": Workload(
        "manifold",
        _on_manifold,
        _detect,
        _check_manifold,
        digest_systems=84,
        warmup_systems=42,
        round_systems=42,
        block_systems=168,
    ),
    "negatives": Workload(
        "negatives",
        _generic,
        _detect,
        _check_negatives,
        digest_systems=300,
        warmup_systems=30,
        round_systems=3,
        block_systems=1200,
    ),
    "verify": Workload(
        "verify",
        _manifold_files,
        _cli_detect,
        _check_verify,
        digest_systems=42,
        warmup_systems=3,
        round_systems=42,
        block_systems=210,
    ),
}
