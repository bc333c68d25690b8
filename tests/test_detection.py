"""run_rules gates each integrating factor once.

A match is skipped when an earlier match of the same rule family with the
same factor in the original coordinates passed the exact gate; a match of
another family or relabeling with that factor reuses its gate's outcome;
and the gate collapses an integral that was already emitted.  All three
must be invisible: detections and failed candidates equal those of gating
every match and collapsing duplicates afterwards, which _ref_run_rules
below keeps.
"""

import itertools
import json
import random
from fractions import Fraction as F

import pytest

from lvfi import detection, oracle
from lvfi.catalog2d import RULES_2D, SAMPLERS_2D
from lvfi.catalog3d import _ROWS_12, _ROWS_23, RULES_3D, SAMPLERS_3D
from lvfi.linalg import nullspace_candidates
from lvfi.model import Permutation, lift_exact, make_system, parse_system, permute_system
from lvfi.poly import GenPoly

from conftest import rand_fraction, to_float
from test_digest import DEGENERATE

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


def _generic_systems_of_every_e_pattern(seed, per_pattern):
    """Generic rational systems, per_pattern of them for each zero pattern
    of e in 2D and 3D, the case split the pattern filter makes."""
    rng = random.Random(seed)
    for dim in (2, 3):
        for zeros in itertools.product((False, True), repeat=dim):
            for _ in range(per_pattern):
                yield make_system(
                    b=[rand_fraction(rng, nonzero=True) for _ in range(dim)],
                    A=[[rand_fraction(rng, nonzero=True) for _ in range(dim)] for _ in range(dim)],
                    e=[0 if z else rand_fraction(rng, nonzero=True) for z in zeros],
                )


# The degenerate systems of the JSON pin, and the same restricted to (x1, x2)
DEGENERATE_ALL = [
    *DEGENERATE,
    *(make_system(b=s.b[:2], A=[row[:2] for row in s.A[:2]], e=s.e[:2]) for s in DEGENERATE),
]


def test_listed_relabelings_equal_testing_every_relabeling_per_rule():
    systems = list(_generic_systems_of_every_e_pattern(19, 3))
    _assert_same_as_reference(systems)
    _, failed = _assert_same_as_reference(DEGENERATE_ALL)
    assert failed


def test_pattern_ok_runs_once_per_distinct_pattern_and_relabeling(monkeypatch):
    calls = []
    pattern_ok = detection.pattern_ok

    def counted(pattern, s):
        calls.append(pattern)
        return pattern_ok(pattern, s)

    monkeypatch.setattr(detection, "pattern_ok", counted)
    for s in [*_generic_systems_of_every_e_pattern(7, 1), *DEGENERATE_ALL]:
        rules = _rules(s)
        calls.clear()
        detection.run_rules(s, rules)
        patterns = {r.pattern for r in rules}
        relabelings = len(Permutation.all(s.dim))
        assert len(calls) <= len(patterns) * relabelings, s
        # each test is of a distinct pattern, never repeated for a rule
        assert set(calls) <= patterns
        assert all(calls.count(q) <= relabelings for q in patterns)
        assert len(calls) < len(rules) * relabelings


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
    # On the relabeled system y, T/R holds -2 y3 at (1, 2) and y1 at (2, 3),
    # and R = y2 / y3.  With sigma = (3, 1, 2), y = (x3, x1, x2): T holds
    # -2 x1 at (3, 1), so 2 x1 at (1, 3), and x1 x3 / x2 at (1, 2).  The
    # exponents are whole, so their common denominator is 1.
    key = detection._factor_key(
        detection.Match({}, ansatz=("3d-t2", (2, 0, -1), (1, 2, 0))), (2, 0, 1)
    )
    assert key == (1, (((0, 1), 1, (1, -1, 1)), ((0, 2), 2, (1, 0, 0))))
    scaled = detection.Match({}, ansatz=("3d-t2", (-6, 0, 3), (1, 2, 0)))
    assert detection._factor_key(scaled, (2, 0, 1)) == key
    # l = (1/2, 1, 0) multiplies T by y1^(-1/2) y2^-1 = x3^(-1/2) x1^-1:
    # x3^(1/2) / x2 at (1, 2) and 2 x3^(-1/2) at (1, 3), the exponents over
    # their common denominator 2
    half = detection.Match({}, ansatz=("3d-t2", (2, 0, -1), (F(1, 2), 1, 0)))
    assert detection._factor_key(half, (2, 0, 1)) == (
        2, (((0, 1), 1, (0, -2, 1)), ((0, 2), 2, (0, 0, -1)))
    )
    # a stated integral has no factor
    assert detection._factor_key(detection.Match({}, H_gen=GenPoly.zero(3)), (0, 1, 2)) is None


# Sampler draws on which two or more rule families build one factor: L2-i
# (T1) and L3-1 (T2), and L5-7a, L5-7d and L5-8c.
SHARED = [("L3-1", {"L2-i", "L3-1"}), ("L5-7d", {"L5-7a", "L5-7d", "L5-8c"})]


def _gates_by_factor(s, run):
    """_outcome of run(s, rules), {factor key: [family of each gated
    match]} and {factor key: potential calls}."""
    families: dict = {}
    built: dict = {}
    current = []
    gate, construct = detection._gate_and_build, detection.potential

    def gated(rule, s2, s2i, p, m, *args):
        current[:] = [detection._factor_key(m, p.sigma)]
        families.setdefault(current[0], []).append(rule.family)
        return gate(rule, s2, s2i, p, m, *args)

    def counted(*args, **kwargs):
        built[current[0]] = built.get(current[0], 0) + 1
        return construct(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detection, "_gate_and_build", gated)
        mp.setattr(detection, "potential", counted)
        return _outcome(*run(s, _rules(s))), families, built


@pytest.mark.parametrize("key, shared", SHARED, ids=[k for k, _ in SHARED])
def test_families_sharing_a_factor_gate_it_once(key, shared):
    s = SAMPLERS_3D[key](random.Random(0))
    got, families, built = _gates_by_factor(s, detection.run_rules)
    want, _, ref_built = _gates_by_factor(s, _ref_run_rules)
    assert got == want
    assert shared <= {json.loads(d)["rule"].split("/")[0] for d, _ in got[0]}
    # the families gate one factor, whose potential is built once, where
    # the reference builds it for every match; so is every other factor
    factor = next(k for k, fams in families.items() if k is not None and shared <= set(fams))
    assert built[factor] == 1 and ref_built[factor] >= len(shared)
    assert set(built.values()) == {1}, built


@pytest.mark.parametrize("key, shared", SHARED, ids=[k for k, _ in SHARED])
def test_a_shared_factor_that_fails_gives_each_family_its_candidate(monkeypatch, key, shared):
    s = SAMPLERS_3D[key](random.Random(0))
    one = GenPoly.term(3, 1, (0, 0, 0))
    monkeypatch.setattr(detection, "lie_genpoly", lambda H, s2i, lattice=None: one)
    dets, cands = detection.run_rules(s, RULES_3D)
    assert _outcome(dets, cands) == _outcome(*_ref_run_rules(s, RULES_3D))
    assert not dets
    reasons = {c.rule_id.split("/")[0]: c.reason for c in cands}
    assert shared <= set(reasons)
    assert {reasons[f] for f in shared} == {"exact Lie derivative nonzero on original system"}


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


# DependentRows skips the row reduction when the entries show the columns
# independent; its candidates must be those of the reduction on every input.


def _dependent_rows_matchers():
    rules = [r for r in RULES_2D + RULES_3D if isinstance(r.match, detection.DependentRows)]
    return [r.match for r in rules] + [_ROWS_12, _ROWS_23]


def _assert_dependent_rows_as_reduction(s, seen):
    """Each DependentRows matcher's candidates on s, with and without the
    table, are nullspace_candidates of its rows; seen collects (number of
    coordinates, whether there are candidates)."""
    for m in _dependent_rows_matchers():
        if max(m.coords) >= s.dim:
            continue
        cs = m.coords
        rows = [tuple(s.b[i] for i in cs)] + [tuple(s.A[i][j] for i in cs) for j in range(s.dim)]
        expected = nullspace_candidates(rows)
        assert m.nullspace(s) == expected, (cs, s)
        assert m.nullspace(s, detection.RowNullspaces()) == expected, (cs, s)
        seen.add((len(cs), bool(expected)))


def test_dependent_rows_candidates_equal_the_reduction_on_samplers():
    rng = random.Random(23)
    seen = set()
    for sampler in {**SAMPLERS_2D, **SAMPLERS_3D}.values():
        for _ in range(2):
            sxi = detection.integer_view(lift_exact(sampler(rng)))
            for p in Permutation.all(sxi.dim):
                _assert_dependent_rows_as_reduction(permute_system(sxi, p), seen)
    assert seen == {(1, False), (1, True), (2, False), (2, True)}


def _pair_rows_system(rng, dim, pair):
    """An integer system whose rows over the coordinate pair, b's and each
    column of A's, are each zero, a multiple of one direction, or random."""
    u = (rng.randint(-3, 3), rng.randint(-3, 3))
    b = [rng.randint(-4, 4) for _ in range(dim)]
    A = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(dim)]
    for j in range(-1, dim):  # -1 stands for b
        kind = rng.choice(("zero", "proportional", "proportional", "random"))
        if kind == "random":
            continue
        c = 0 if kind == "zero" else rng.randint(-3, 3)
        for i, ui in zip(pair, u):
            if j < 0:
                b[i] = c * ui
            else:
                A[i][j] = c * ui
    return make_system(b=b, A=A, e=[0] * dim)


def test_dependent_rows_candidates_equal_the_reduction_on_degenerate_rows():
    rng = random.Random(5)
    seen = set()
    for _ in range(300):
        dim = rng.choice((2, 3))
        pair = rng.choice(list(itertools.combinations(range(dim), 2)))
        sxi = detection.integer_view(_pair_rows_system(rng, dim, pair))
        for p in Permutation.all(dim):
            _assert_dependent_rows_as_reduction(permute_system(sxi, p), seen)
    assert seen == {(1, False), (1, True), (2, False), (2, True)}
