import random
from fractions import Fraction

import pytest

from lvfi import expr as ex
from lvfi.catalog2d import RULES_2D, SAMPLERS_2D, detect2d
from lvfi.catalog3d import RULES_3D
from lvfi.detection import (
    Match,
    Rule,
    condition_function,
    condition_source,
    run_rules,
)
from lvfi.detection import integer_view
from lvfi.model import Permutation, make_system, parse_system, permute_system
from lvfi.oracle import residual_2d_exponents
from lvfi.potential import GenPoly, lie_genpoly

from conftest import normalized, rand_fraction, same_integral
from test_oracle import _f_laurent

F = Fraction


def _families(dets):
    return {d.rule_id.split("/")[0] for d in dets}


def test_r2da_instance_matches_spec_formula():
    s = parse_system('{"dim":2,"b":[1,-1],"A":[[1,-2],[-2,1]],"e":[5,7]}')
    dets = [d for d in detect2d(s) if d.rule_id == "R2D-A"]
    assert len(dets) == 1
    printed = (
        GenPoly.term(2, 1, (1, 1))
        + GenPoly.term(2, 1, (2, 1))
        + GenPoly.term(2, -1, (1, 2))
        + GenPoly.term(2, 5, (0, 1))
        + GenPoly.term(2, -7, (1, 0))
    )
    assert same_integral(printed, dets[0].H_gen)


def test_volterra_detects_double_log_integral():
    s = parse_system('{"dim":2,"b":[1,-1],"A":[[0,-1],[1,0]],"e":[0,0]}')
    dets = [d for d in detect2d(s) if d.rule_id.startswith("R2D-C")]
    assert len(dets) == 1
    assert dets[0].rule_id == "R2D-C/l1=l2=0"
    printed = (
        GenPoly.term(2, 1, (0, 0), (0, 1))
        + GenPoly.term(2, -1, (0, 1))
        + GenPoly.term(2, 1, (0, 0), (1, 0))
        + GenPoly.term(2, -1, (1, 0))
    )
    assert same_integral(printed, dets[0].H_gen)
    # R2D-E states the same integral, -x1 - x2 - ln|-x1 x2|; its P is a
    # monomial, so its log is folded into log terms and both print one form
    (e,) = [d for d in detect2d(s) if d.rule_id == "R2D-E"]
    assert e.log is None
    assert ex.pretty(e.integral) == ex.pretty(dets[0].integral)


def test_r2de_spec_instance():
    s = parse_system('{"dim":2,"b":[2,-2],"A":[[0,3],[2,0]],"e":[3,2]}')
    dets = [d for d in detect2d(s) if d.rule_id == "R2D-E"]
    assert len(dets) == 1
    # the paper's H = 2 x1 - 3 x2 - 2 ln|3 + 3 x1 x2| in output form:
    # times -1, with 3 + 3 x1 x2 made primitive (a constant 2 ln 3 less)
    h = dets[0].integral
    assert ex.pretty(h) == "3*x2 + (-2)*x1 + 2*ln|1 + x1*x2|"
    import math

    for x in [(0.7, 1.3), (2.0, 0.4), (5.0, 1.0)]:
        want = 3 * x[1] - 2 * x[0] + 2 * math.log(abs(1 + x[0] * x[1]))
        assert ex.eval_expr(h, x) == pytest.approx(want, rel=1e-12)


def _ref_lie_zero_e(s):
    """The expanded form: (a21 f1 - a12 f2)(e1 + a12 x1 x2)
    + b2 a12 (x2 f1 + x1 f2) == 0, from polynomial products."""
    f1, f2 = _f_laurent(2, s.b, s.A, s.e, 0), _f_laurent(2, s.b, s.A, s.e, 1)
    a12, a21 = s.A[0][1], s.A[1][0]
    P = GenPoly.term(2, s.e[0], (0, 0)) + GenPoly.term(2, a12, (1, 1))
    x1, x2 = GenPoly.term(2, 1, (1, 0)), GenPoly.term(2, 1, (0, 1))
    lhs = (f1.scale(a21) - f2.scale(a12)) * P + (x2 * f1 + x1 * f2).scale(s.b[1] * a12)
    return lhs.is_zero()


def _near_r2de():
    """600 R2D-E samples, every second one with one coefficient moved off
    its manifold."""
    rng = random.Random(5)
    for k in range(600):
        s = SAMPLERS_2D["R2D-E"](rng)
        if k % 2:
            b, A, e = list(s.b), [list(r) for r in s.A], list(s.e)
            j = rng.randrange(8)
            if j < 2:
                b[j] += rand_fraction(rng, True)
            elif j < 6:
                A[(j - 2) // 2][j % 2] += rand_fraction(rng, True)
            else:
                e[j - 6] += rand_fraction(rng, True)
            s = make_system(b=b, A=A, e=e)
        yield s


def test_r2de_lie_test_equals_the_expanded_form():
    """lie_genpoly's test of H = G + b2 ln|P|, G = a21 x1 - a12 x2 and
    P = e1 + a12 x1 x2, P L(G) + b2 L(P) == 0, on R2D-E samples, perturbed
    samples and systems near its manifold, on the Fraction system and its
    integer view."""
    verdicts = []
    for s in _near_r2de():
        for view in (s, integer_view(s)):
            a12, a21 = view.A[0][1], view.A[1][0]
            G = GenPoly.term(2, a21, (1, 0)) + GenPoly.term(2, -a12, (0, 1))
            P = GenPoly.term(2, view.e[0], (0, 0)) + GenPoly.term(2, a12, (1, 1))
            verdicts.append(lie_genpoly(G, view, log=(view.b[1], P)).is_zero())
            assert verdicts[-1] == _ref_lie_zero_e(view), s
    assert 400 < sum(verdicts) < 1200


def _rational(v):
    import sympy as sp

    v = F(v)
    return sp.Rational(v.numerator, v.denominator)


def _gradient(h, K, X):
    """(h, grad h) for an lvfi integral h, as elements of the sympy rational
    function field K in X, with None for the value of ln|u|: its gradient
    is grad u / u.  A log may only be multiplied by constants."""
    if isinstance(h, ex.Const):
        return K(_rational(h.value)), [K(0)] * len(X)
    if isinstance(h, ex.Var):
        return X[h.index], [K(int(i == h.index)) for i in range(len(X))]
    if isinstance(h, ex.LnAbs):
        u, du = _gradient(h.arg, K, X)
        return None, [d / u for d in du]
    parts = [_gradient(a, K, X) for a in h.args]
    if isinstance(h, ex.Add):
        value = None if any(v is None for v, _ in parts) else sum(v for v, _ in parts)
        return value, [sum(g[i] for _, g in parts) for i in range(len(X))]
    assert isinstance(h, ex.Mul), h
    value, grad = K(1), [K(0)] * len(X)
    for v, g in parts:  # (value v)' = value' v + value v'
        assert not (v is None and any(grad)) and not (value is None and any(g)), h
        grad = [
            (a * v if v is not None else K(0)) + (value * b if value is not None else K(0))
            for a, b in zip(grad, g)
        ]
        value = None if v is None or value is None else value * v
    return value, grad


def test_r2de_integral_is_the_papers_up_to_scale_and_constant():
    """Each emitted R2D-E integral is the paper's a21 x1 - a12 x2
    + b2 ln|e1 + a12 x1 x2| times a nonzero constant plus a constant: its
    gradient, in sympy's field of rational functions, is the paper's times
    one nonzero rational."""
    import sympy as sp

    K, *X = sp.field("x1,x2", sp.QQ)
    checked = 0
    for s in _near_r2de():
        for d in detect2d(s):
            if d.rule_id != "R2D-E":
                continue
            a12, a21, b2, e1 = (_rational(v) for v in (s.A[0][1], s.A[1][0], s.b[1], s.e[0]))
            P = e1 + a12 * X[0] * X[1]
            paper = [a21 + b2 * a12 * X[1] / P, -a12 + b2 * a12 * X[0] / P]
            _, grad = _gradient(d.integral, K, X)
            ratios = {g / q for g, q in zip(grad, paper)}
            assert len(ratios) == 1, (s, ex.pretty(d.integral))
            (ratio,) = ratios
            assert ratio.numer.is_ground and ratio.denom.is_ground and ratio, (s, ratio)
            checked += 1
    assert checked > 250, checked


def test_generic_random_system_detects_nothing():
    s = parse_system('{"dim":2,"b":[1,2],"A":[[3,1],[4,5]],"e":[1,3]}')
    assert detect2d(s) == []


def test_rank0_trivial_integral():
    s = make_system(b=(1, 0), A=((2, 3), (0, 0)), e=(5, 0))
    dets = [d for d in detect2d(s) if d.rule_id == "R2D-B/rank0"]
    assert len(dets) == 1
    assert dets[0].H_gen.terms == {((F(0), F(1)), (0, 0)): F(1)}


@pytest.mark.parametrize("rule_key", sorted(SAMPLERS_2D))
def test_sampler_hits_its_rule(rule_key):
    rng = random.Random(hash(rule_key) % 2**32)
    family = rule_key.split("/")[0]
    for _ in range(5):
        s = SAMPLERS_2D[rule_key](rng)
        dets = detect2d(s)
        assert family in _families(dets), rule_key


def test_printed_templates_match_construction():
    """The printed closed forms for every 2D case are proportional to the
    exact construction on sampled instances."""
    rng = random.Random(77)

    def printed_for(rule_id, s, d):
        b, A, e = s.b, s.A, s.e
        if rule_id == "R2D-A":
            return (
                GenPoly.term(2, b[0], (1, 1))
                + GenPoly.term(2, A[0][0], (2, 1))
                + GenPoly.term(2, -A[1][1], (1, 2))
                + GenPoly.term(2, e[0], (0, 1))
                + GenPoly.term(2, -e[1], (1, 0))
            )
        if rule_id == "R2D-B":
            l2 = d.params["l2"]
            return (
                GenPoly.term(2, -b[1], (1, l2))
                + GenPoly.term(2, -A[1][0] / 2, (2, l2))
                + GenPoly.term(2, -A[1][1], (1, l2 + 1))
                + GenPoly.term(2, e[0] / l2, (0, l2))
            )
        if rule_id == "R2D-B/l2=0":
            return (
                GenPoly.term(2, -b[1], (1, 0))
                + GenPoly.term(2, -A[1][0] / 2, (2, 0))
                + GenPoly.term(2, -A[1][1], (1, 1))
                + GenPoly.term(2, e[0], (0, 0), (0, 1))
            )
        if rule_id == "R2D-C/main":
            l1, l2 = d.params["l1"], d.params["l2"]
            return (
                GenPoly.term(2, b[0] / l2, (l1, l2))
                + GenPoly.term(2, A[0][0] / l2, (l1 + 1, l2))
                + GenPoly.term(2, -A[1][1] / l1, (l1, l2 + 1))
            )
        if rule_id == "R2D-C/l1=0":
            l2 = d.params["l2"]
            return (
                GenPoly.term(2, b[0] / l2, (0, l2))
                + GenPoly.term(2, A[0][0] / l2, (1, l2))
                + GenPoly.term(2, A[0][1] /(l2 + 1), (0, l2 + 1))
            )
        if rule_id == "R2D-C/l1=0,l2=-1":
            return (
                GenPoly.term(2, A[0][1], (0, 0), (0, 1))
                + GenPoly.term(2, -A[1][1], (0, 0), (1, 0))
                + GenPoly.term(2, -b[0], (0, -1))
                + GenPoly.term(2, -A[0][0], (1, -1))
            )
        if rule_id == "R2D-C/l1=l2=0":
            return (
                GenPoly.term(2, b[0], (0, 0), (0, 1))
                + GenPoly.term(2, A[0][1], (0, 1))
                + GenPoly.term(2, -b[1], (0, 0), (1, 0))
                + GenPoly.term(2, -A[1][0], (1, 0))
            )
        if rule_id == "R2D-D":
            lam = d.params["lambda"]
            return GenPoly.term(2, 1, (1, -lam))
        return None

    keys = [
        "R2D-A",
        "R2D-B",
        "R2D-B/l2=0",
        "R2D-C/main",
        "R2D-C/l1=0",
        "R2D-C/l1=0,l2=-1",
        "R2D-C/l1=l2=0",
        "R2D-D",
    ]
    for key in keys:
        for _ in range(10):
            s = SAMPLERS_2D[key](rng)
            dets = [d for d in detect2d(s) if d.rule_id == key and d.sigma == (0, 1)]
            assert dets, key
            printed = printed_for(key, s, dets[0])
            assert same_integral(printed, dets[0].H_gen), key


def test_mirror_consistency():
    """detect2d(permute(s)) equals the permute-image of detect2d(s)."""
    rng = random.Random(123)
    swap = Permutation((1, 0))

    from lvfi.detection import _canonical_monomial, _permute_genpoly

    def key_set(dets, post=None):
        out = set()
        for d in dets:
            fam = d.rule_id.split("/")[0]
            H = d.H_gen
            if post is not None:
                H = post(H)
            H = _canonical_monomial(H)
            log = None
            if d.log is not None:  # c over H's lead, and P up to scale
                c, P = d.log
                P = P if post is None else post(P)
                log = (c / H.items_sorted()[0][1], frozenset(normalized(P).terms.items()))
            out.add((fam, frozenset(normalized(H).drop_constant().terms.items()), log))
        return out

    for rule_key in ["R2D-A", "R2D-B", "R2D-C/main", "R2D-C/l1=0", "R2D-D", "R2D-E"]:
        for _ in range(3):
            s = SAMPLERS_2D[rule_key](rng)
            sp = permute_system(s, swap)
            a = key_set(detect2d(s))
            b = key_set(detect2d(sp), post=lambda H: _permute_genpoly(H, (1, 0)))
            assert a == b, rule_key


def test_completeness_within_ansatz():
    """Whenever the exponent condition system admits a separable solution the
    catalog returns at least one detection."""
    rng = random.Random(31)
    # pattern e1,e2 != 0: unit exponents forced
    for _ in range(20):
        b1, a11, a22 = rand_fraction(rng), rand_fraction(rng, True), rand_fraction(rng, True)
        s = make_system(
            b=(b1, -b1),
            A=((a11, -2 * a22), (-2 * a11, a22)),
            e=(rand_fraction(rng, True), rand_fraction(rng, True)),
        )
        assert detect2d(s)
    # pattern e1 != 0, e2 = 0: l2 free, including the a21 = 0 branch
    for _ in range(20):
        l2 = rand_fraction(rng)
        a21 = rand_fraction(rng) if rng.random() < 0.7 else F(0)
        a22, b2 = rand_fraction(rng, True), rand_fraction(rng)
        a11 = -l2 * a21 / 2
        a12 = -(l2 + 1) * a22
        b1 = -l2 * b2
        s = make_system(
            b=(b1, b2), A=((a11, a12), (a21, a22)), e=(rand_fraction(rng, True), 0)
        )
        res = residual_2d_exponents((s.b, s.A, s.e), F(1), l2)
        assert res.is_zero()
        assert detect2d(s), f"solvable system missed: l2={l2}, a21={a21}"
    # pattern e = 0: pick exponents first, solve the three conditions
    for _ in range(20):
        l1, l2 = rand_fraction(rng, True), rand_fraction(rng, True)
        if l1 == -1 or l2 == -1:
            continue
        a21, a22, b2 = rand_fraction(rng, True), rand_fraction(rng, True), rand_fraction(rng, True)
        a11 = -l2 * a21 / (1 + l1)
        a12 = -(1 + l2) * a22 / l1
        b1 = -l2 * b2 / l1
        s = make_system(b=(b1, b2), A=((a11, a12), (a21, a22)), e=(0, 0))
        assert residual_2d_exponents((s.b, s.A, s.e), l1, l2).is_zero()
        assert detect2d(s)


def test_rule_conditions_reports():
    rules = {r.id: r for r in RULES_2D}
    rep = rules["R2D-A"].conditions()
    assert rep["residuals"] == ["b1+b2", "2*a11+a21", "a12+2*a22"]
    assert "e1 != 0" in rep["guards"] and "e2 != 0" in rep["guards"]
    assert (rep["id"], rep["dim"]) == ("R2D-A", 2)
    rep_d = rules["R2D-D"].conditions()
    assert any("lambda" in g for g in rep_d["guards"])


def test_reported_residuals_vanish_on_manifold():
    """The condition report and the matcher agree: every printed residual
    that compiles to a condition evaluates to zero on sampled on-manifold
    systems, at each match's direction and exponents (2D, and 3D wherever a
    rule's strings compile)."""
    rng = random.Random(5)
    checked = set()
    for rule in RULES_2D + RULES_3D:
        if rule.id == "R2D-D":
            continue  # proportionality conditions, not plain residuals
        try:
            conds = [condition_function(condition_source(t)) for t in rule.residuals]
        except ValueError:
            assert rule.dim == 3 and not rule.ansatz, rule.id
            continue
        for _ in range(5):
            s = rule.sample(rng)
            matches = rule.match(s)
            assert matches, rule.id
            for m in matches:
                d, l = m.ansatz[1:] if m.ansatz else ((), ())
                for text, cond in zip(rule.residuals, conds):
                    assert cond(s.b, s.A, s.e, d, l) == 0, (rule.id, text)
        checked.add(rule.id)
    assert {r.id for r in RULES_2D + RULES_3D if r.ansatz} <= checked


def test_compiled_guards_fail_at_the_zero_point():
    """A guard that compiles is False where b, A, e, the direction and the
    exponents all vanish: a guard always True, such as a tuple compared
    with 0, would let an all-zero column through to a solve."""
    for rule in RULES_2D + RULES_3D:
        n = rule.dim
        zero = ((0,) * n, ((0,) * n,) * n, (0,) * n, (0,) * 3, (0,) * 3)
        for text in rule.guards:
            try:
                guard = condition_function(condition_source(text))
            except ValueError:
                continue  # prose
            assert guard(*zero) is False, (rule.id, text)


def test_failed_oracle_match_is_demoted_not_dropped():
    # a deliberately wrong rule: matches everything with parameters that do
    # not make the residual vanish
    bad = Rule(
        id="BAD",
        citation="synthetic",
        dim=2,
        pattern=None,
        match=lambda s, nullspaces: [
            Match(params={}, ansatz=("2d-exponents", (), (F(2), F(3))))
        ],
    )
    s = parse_system('{"dim":2,"b":[1,2],"A":[[3,1],[4,5]],"e":[1,3]}')
    dets, cands = run_rules(s, [bad])
    assert dets == []
    assert cands and cands[0].rule_id == "BAD"
    assert "residual" in cands[0].reason
