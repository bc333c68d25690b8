"""Pinned detection digest.

A refactor of the exact core must leave every detection unchanged.  The
digest hashes the sorted (system index, rule id, 1-based sigma, pretty
integral) records over a fixed-seed corpus: three samples from every
SAMPLERS_2D / SAMPLERS_3D entry and the first 50 random systems of
acceptance criterion 4 (which must detect nothing).  A change to the pinned
value means detection output changed and must be justified.

PINNED hashes printed strings only.  PINNED_JSON also hashes the JSON form
of each detection (``Detection.to_json_obj``, verification excluded) and
each failed candidate (rule, sigma, ``repr(params)``, reason), on the corpus,
on its float-kind copies and on three degenerate systems whose matches fail
the exact gate, so it also catches a number that changes type
(``Fraction(3)`` prints as ``"3"`` in JSON, the int 3 as ``3``).

The sympy check is an oracle independent of lvfi's own algebra: it rebuilds
every detected integral and the system's field in sympy and asks that the
Lie derivative f . grad H cancel to zero, on the digest corpus and on the
benchmark's `manifold` and `verify` corpora.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from lvfi import expr as ex
from lvfi.catalog2d import SAMPLERS_2D, detect2d, detect2d_full
from lvfi.catalog3d import SAMPLERS_3D, detect3d, detect3d_full
from lvfi.model import lift_exact, make_system, parse_system

from conftest import rand_fraction, to_float

PINNED = "b9ea5641593968344a4a77e1d33f7df73753138474e3dd0b049b82156e452ee5"
PINNED_JSON = "21ed0c7d75010bc1a0c4e336ea643970d2e0800046cd1e292d823144316daae7"
SAMPLES_PER_RULE = 3
NEGATIVES = 50


def _corpus():
    rng = random.Random(2718)
    samplers = sorted(SAMPLERS_2D.items()) + sorted(SAMPLERS_3D.items())
    for _, sampler in samplers:
        for _ in range(SAMPLES_PER_RULE):
            yield sampler(rng)
    rng = random.Random(404)  # the criterion-4 negative-control stream
    for k in range(NEGATIVES):
        dim = 2 if k % 2 == 0 else 3
        yield make_system(
            b=tuple(rand_fraction(rng) for _ in range(dim)),
            A=tuple(
                tuple(rand_fraction(rng) for _ in range(dim)) for _ in range(dim)
            ),
            e=tuple(rand_fraction(rng) for _ in range(dim)),
        )


def detection_digest() -> str:
    records = []
    for k, s in enumerate(_corpus()):
        dets = detect2d(s) if s.dim == 2 else detect3d(s)
        for d in dets:
            sigma = ",".join(str(i + 1) for i in d.sigma)
            records.append(f"{k}|{d.rule_id}|{sigma}|{ex.pretty(d.integral)}")
    return hashlib.sha256("\n".join(sorted(records)).encode()).hexdigest()


def test_detection_digest_is_pinned():
    assert detection_digest() == PINNED


# Degenerate systems on which rule matches fail the exact gate (their
# integral is constant), so the JSON pin also covers failed candidates; the
# corpus yields none.
DEGENERATE = (
    make_system(b=(0, 0, 0), A=((0, 0, 0),) * 3, e=(0, 0, 0)),
    make_system(b=(0, 0, 0), A=((0, -1, 0), (0, 0, 0), (0, 0, 0)), e=(0, 0, 0)),
    make_system(b=(0, 0, 0), A=((0, 0, 0), (3, 0, 0), (0, 0, 0)), e=(0, Fraction(1, 2), 0)),
)


@pytest.fixture(scope="module")
def corpus_runs():
    """(index, kind, system, detections, candidates) over the corpus, its
    float-kind copies and the degenerate systems."""
    runs = []
    for k, s in enumerate(itertools.chain(_corpus(), DEGENERATE)):
        for kind, sk in (("exact", s), ("float", to_float(s)[0])):
            dets, cands = detect2d_full(sk) if sk.dim == 2 else detect3d_full(sk)
            runs.append((k, kind, sk, dets, cands))
    return runs


def json_digest(runs) -> str:
    lines = []
    for k, kind, _, dets, cands in runs:
        for d in dets:
            obj = d.to_json_obj()
            del obj["verification"]
            lines.append(json.dumps([k, kind, obj], sort_keys=True))
        for c in cands:
            lines.append(
                json.dumps([k, kind, c.rule_id, list(c.sigma), repr(c.params), c.reason])
            )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_detection_json_is_pinned(corpus_runs):
    assert any(cands for *_, cands in corpus_runs)
    assert json_digest(corpus_runs) == PINNED_JSON


# -- independent sympy oracle -------------------------------------------------


def _sympy_lie(h: ex.Expr, s):
    """f . grad H for an lvfi integral and system, built in sympy."""
    import sympy as sp

    x = sp.symbols(f"x1:{s.dim + 1}", positive=True)

    def num(v):
        v = Fraction(v)
        return sp.Rational(v.numerator, v.denominator)

    def conv(h):
        if isinstance(h, ex.Const):
            return num(h.value)
        if isinstance(h, ex.Var):
            return x[h.index]
        if isinstance(h, ex.Add):
            return sp.Add(*map(conv, h.args))
        if isinstance(h, ex.Mul):
            return sp.Mul(*map(conv, h.args))
        if isinstance(h, ex.Pow):
            return conv(h.base) ** num(h.exponent)
        if isinstance(h, ex.LnAbs):
            # d ln|u| = du / u wherever u != 0, the derivative of log(u)
            return sp.log(conv(h.arg))
        if isinstance(h, ex.Exp):
            return sp.exp(conv(h.arg))
        raise TypeError(f"not an Expr: {h!r}")

    H = conv(h)
    sx = lift_exact(s)
    f = [
        x[i] * (num(sx.b[i]) + sum(num(a) * xj for a, xj in zip(sx.A[i], x)))
        + num(sx.e[i])
        for i in range(s.dim)
    ]
    lie = sum(fi * sp.diff(H, xi) for fi, xi in zip(f, x))
    return sp.cancel(sp.together(sp.expand(lie)))


def test_sympy_oracle_certifies_every_corpus_detection(corpus_runs):
    checked = set()
    for k, kind, s, dets, _ in corpus_runs:
        for d in dets:
            assert _sympy_lie(d.integral, s) == 0, (k, kind, d.rule_id, ex.pretty(d.integral))
            checked.add(d.rule_id.split("/")[0])
    assert "R2D-E" in checked  # the ln|polynomial| integrals are covered


def test_sympy_oracle_rejects_non_integrals():
    volterra = parse_system('{"dim":2,"b":[1,-1],"A":[[0,-1],[1,0]],"e":[0,0]}')
    assert _sympy_lie(ex.Var(0), volterra) != 0
    # an ln|polynomial| integral of R2D-E, checked against a perturbed system
    s = SAMPLERS_2D["R2D-E"](random.Random(5))
    H = next(d.integral for d in detect2d(s) if d.rule_id == "R2D-E")
    assert ex.log_arguments(H)
    assert _sympy_lie(H, s) == 0
    moved = make_system(b=(s.b[0] + 1, s.b[1]), A=s.A, e=s.e)
    assert _sympy_lie(H, moved) != 0



def _bench_corpus(name):
    """The first 84 `manifold` systems at seed 11 (its digest_systems), or
    the 42-system `verify` corpus, from perfbench/workloads.py (loaded from
    its file: perfbench is not a package)."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    w = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = w  # its dataclasses look their module up
    spec.loader.exec_module(w)
    if name == "manifold":
        return [s for _, s in itertools.islice(w._on_manifold(11), 84)]
    return [s for _, s, _ in itertools.islice(w._verify_corpus(0), 42)]


@pytest.mark.parametrize("name", ["manifold", "verify"])
def test_sympy_oracle_certifies_every_bench_corpus_detection(name):
    systems = _bench_corpus(name)
    checked = 0
    for k, s in enumerate(systems):
        dets, _ = detect2d_full(s) if s.dim == 2 else detect3d_full(s)
        assert dets, (name, k)
        for d in dets:
            assert _sympy_lie(d.integral, s) == 0, (name, k, d.rule_id, ex.pretty(d.integral))
            checked += 1
    assert checked >= len(systems)
