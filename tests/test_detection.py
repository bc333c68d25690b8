"""run_rules gates each integrating factor once.

A match is skipped when an earlier match of the same rule family with the
same factor in the original coordinates passed the exact gate, and the gate
collapses an integral that was already emitted.  Both must be invisible:
detections and failed candidates equal those of gating every match and
collapsing duplicates afterwards, which _ref_run_rules below keeps.
"""

import itertools
import json
import random

import pytest

from lvfi import detection, oracle
from lvfi.catalog2d import RULES_2D, SAMPLERS_2D
from lvfi.catalog3d import RULES_3D, SAMPLERS_3D
from lvfi.model import Permutation, lift_exact, make_system, parse_system, permute_system, to_float

VOLTERRA = '{"dim":2,"b":[1,-1],"A":[[0,-1],[1,0]],"e":[0,0]}'


# Reference loop: every match of every rule under every relabeling goes
# through the whole gate, and duplicates are collapsed afterwards.


def _ref_run_rules(s, rules):
    sx = lift_exact(s)
    sxi = detection.integer_view(sx)
    detections, candidates, seen = [], [], set()
    relabeled = [
        (p, permute_system(sx, p), permute_system(sxi, p)) for p in Permutation.all(s.dim)
    ]
    for rule in rules:
        for p, s2, s2i in relabeled:
            if not detection.pattern_ok(rule.pattern, s2i):
                continue
            for m in rule.match(s2i if rule.scale_free else s2):
                det, cand = detection._gate_and_build(rule, s2, s2i, p, m, set())
                if cand is not None:
                    candidates.append(cand)
                    continue
                if det.H_gen is not None:
                    key = detection._integral_key(rule.family, det.H_gen)
                else:
                    key = detection._expr_key(rule, m, det.sigma)
                if key in seen:
                    continue
                seen.add(key)
                detections.append(det)
    return detections, candidates


def _rules(s):
    return RULES_2D if s.dim == 2 else RULES_3D


def _outcome(dets, cands):
    return (
        [(json.dumps(d.to_json_obj(), sort_keys=True), d.H_gen) for d in dets],
        [(c.rule_id, c.sigma, repr(c.params), c.reason) for c in cands],
    )


def _assert_same_as_reference(systems):
    """Compares both loops on every system; returns how many systems gave
    detections and how many gave candidates."""
    found = failed = 0
    for k, s in enumerate(systems):
        want = _outcome(*_ref_run_rules(s, _rules(s)))
        assert _outcome(*detection.run_rules(s, _rules(s))) == want, (k, s)
        found += bool(want[0])
        failed += bool(want[1])
    return found, failed


def _relabeled_copies(s):
    for p in Permutation.all(s.dim):
        s2 = permute_system(s, p)
        yield s2
        yield to_float(s2)[0]


def test_gate_once_equals_gating_every_match_on_samplers():
    rng = random.Random(31)
    samplers = sorted(SAMPLERS_2D.items()) + sorted(SAMPLERS_3D.items())
    systems = [sampler(rng) for _, sampler in samplers for _ in range(4)]
    found, _ = _assert_same_as_reference(
        itertools.chain.from_iterable(_relabeled_copies(s) for s in systems)
    )
    # every exact copy detects; a float copy only where the floats are exact
    assert found >= sum(len(Permutation.all(s.dim)) for s in systems)


def _sparse_integer_systems(seed, n):
    """Small-integer systems, about four entries in five zero: symmetric
    and degenerate enough that many matches share a factor, and some fail
    the gate (constant integrals)."""
    rng = random.Random(seed)

    def entry():
        return 0 if rng.random() < 0.8 else rng.choice((1, -1, 2, -2, 3))

    for k in range(n):
        dim = 2 + k % 2
        yield make_system(
            b=[entry() for _ in range(dim)],
            A=[[entry() for _ in range(dim)] for _ in range(dim)],
            e=[entry() for _ in range(dim)],
        )


def test_gate_once_equals_gating_every_match_on_sparse_integer_systems():
    found, failed = _assert_same_as_reference(_sparse_integer_systems(3, 500))
    assert found > 300 and failed > 50


def _gate_calls(monkeypatch, s):
    calls = []
    gate = detection._gate_and_build

    def counted(rule, *args):
        calls.append(rule.id)
        return gate(rule, *args)

    monkeypatch.setattr(detection, "_gate_and_build", counted)
    dets, _ = detection.run_rules(s, _rules(s))
    return calls, [d.rule_id for d in dets]


@pytest.mark.parametrize(
    "s, calls, found",
    [
        # T1 with direction (1, 1, 1): all six relabelings give one factor
        (SAMPLERS_3D["L2-iii"](random.Random(0)), ["L2-iii"], ["L2-iii"]),
        # R2D-C's factor 1/(x1 x2) and R2D-E's integral under both relabelings
        (
            parse_system(VOLTERRA),
            ["R2D-C", "R2D-E"],
            ["R2D-C/l1=l2=0", "R2D-E"],
        ),
        # R2D-E matches under both relabelings; with a21 != -a12 its key is
        # equal only in the original coordinates
        (SAMPLERS_2D["R2D-E"](random.Random(0)), ["R2D-E"], ["R2D-E"]),
    ],
    ids=["L2-iii", "volterra", "R2D-E"],
)
def test_each_factor_is_gated_once(monkeypatch, s, calls, found):
    assert _gate_calls(monkeypatch, s) == (calls, found)


def test_factor_key_is_the_factor_in_original_coordinates_up_to_scale():
    rule = next(r for r in RULES_3D if r.id == "L2-iii")
    # On the relabeled system y, T/R holds -2 y3 at (1, 2) and y1 at (2, 3),
    # and R = y2 / y3.  With sigma = (3, 1, 2), y = (x3, x1, x2): T holds
    # -2 x1 at (3, 1), so 2 x1 at (1, 3), and x1 x3 / x2 at (1, 2).
    key = detection._factor_key(
        rule, detection.Match({}, ansatz=("3d-t2", (2, 0, -1), (1, 2, 0))), (2, 0, 1)
    )
    assert key == ("L2-iii", (((0, 1), 1, (1, -1, 1)), ((0, 2), 2, (1, 0, 0))))
    scaled = detection.Match({}, ansatz=("3d-t2", (-6, 0, 3), (1, 2, 0)))
    assert detection._factor_key(rule, scaled, (2, 0, 1)) == key


# The names the gate calls its layers by.  perfbench/spans.py wraps these
# same names to time each layer, so the gate must keep calling through them
# (looked up at call time), not around them.
_GATE_LAYERS = (
    (detection, "residual_3d"),
    (oracle, "residual_2d_exponents"),
    (detection, "gradient_targets_2d"),
    (detection, "gradient_targets_3d"),
    (detection, "potential"),
    (detection, "lie_genpoly"),
    (detection, "normalize_for_output"),
)


@pytest.mark.parametrize(
    "key, kind, residual, targets",
    [
        ("R2D-C/main", "2d-exponents", "residual_2d_exponents", "gradient_targets_2d"),
        ("L2-i", "3d-t1", "residual_3d", "gradient_targets_3d"),
        ("L4-8", "3d-t2", "residual_3d", "gradient_targets_3d"),
    ],
)
def test_gate_calls_every_layer_by_its_traced_name(monkeypatch, key, kind, residual, targets):
    calls = {name: 0 for _, name in _GATE_LAYERS}
    for module, name in _GATE_LAYERS:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    samplers = {**SAMPLERS_2D, **SAMPLERS_3D}
    s = samplers[key](random.Random(0))
    dets, _ = detection.run_rules(s, _rules(s))
    ansatz = [d.ansatz for d in dets if d.ansatz and d.ansatz[0] == kind]
    assert ansatz, key
    if kind != "3d-t1":  # the T1 samplers' exponents are whole
        assert any(type(v) is not int for _, _, l in ansatz for v in l), ansatz
    expected = {residual, targets, "potential", "lie_genpoly", "normalize_for_output"}
    assert {name for name, k in calls.items() if k} == expected, calls
